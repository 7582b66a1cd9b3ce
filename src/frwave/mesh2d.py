"""Quadrilateral meshes: uniform grids, seeded node jitter, skew metric.

Meshes are structured (nx by ny quads on a periodic square) and stored as
their node grid, whose one numbering (QuadMesh2D) places every corner; the
solvers never rely on smoothness of the node placement.  Jitter draws all
interior displacements in one block from a counter-based generator (Philox)
keyed by the seed, so a given (nx, ny, factor, seed) always reproduces the
same mesh on any platform.  Below factor 0.5 no element can tangle; above
it, rounds redraw the nodes of tangled elements.
"""

from dataclasses import dataclass

import numpy as np

from .spectral import _require_positive

#: largest jitter factor the skew bisection tries
MAX_SKEW_FACTOR = 0.95


class MeshTangleError(RuntimeError):
    """Node displacement produced a non-convex/inverted element."""


@dataclass
class QuadMesh2D:
    """The node grid of an nx-by-ny quad mesh.  Node (i, j), column i of grid
    row j, is nodes[j*(nx + 1) + i]; element j*nx + i is column i of element
    row j, with the counterclockwise corners (i, j), (i+1, j), (i+1, j+1),
    (i, j+1).  Both Euler solvers read neighbours by this numbering."""
    nodes: np.ndarray     # ((nx + 1)*(ny + 1), 2), in the numbering above
    nx: int
    ny: int
    L: float
    jitter_factor: float = 0.0
    seed: int = 0

    @property
    def n_elements(self):
        return self.nx * self.ny

    @property
    def elements(self):
        """(n_elem, 4) corner node indices, counterclockwise."""
        e = np.arange(self.n_elements)
        first = e + e // self.nx        # node (i, j) of element j*nx + i
        return np.stack([first, first + 1, first + self.nx + 2, first + self.nx + 1], axis=1)

    def corner_planes(self):
        """Corner planes x, y, each (4, n_elem): corner c of element e is (x[c, e], y[c, e])."""
        g = np.ascontiguousarray(self.nodes.T).reshape(2, self.ny + 1, self.nx + 1)
        corners = (g[:, :-1, :-1], g[:, :-1, 1:], g[:, 1:, 1:], g[:, 1:, :-1])
        return np.stack(corners, axis=1).reshape(2, 4, -1)


def uniform_quad_mesh(nx, ny, L=1.0):
    """Axis-aligned nx-by-ny quadrilateral mesh of the square [0, L]^2."""
    if nx < 2 or ny < 2:
        raise ValueError(f"need at least 2x2 elements, got {nx}x{ny}")
    _require_positive("mesh side length", L)
    xs = np.linspace(0.0, L, nx + 1)
    ys = np.linspace(0.0, L, ny + 1)
    X, Y = np.meshgrid(xs, ys)
    nodes = np.stack([X.ravel(), Y.ravel()], axis=1)
    return QuadMesh2D(nodes=nodes, nx=nx, ny=ny, L=float(L))


def _length(x, y):
    """Lengths of the 2-vectors (x, y): the value np.linalg.norm gives
    along their last axis, bit for bit."""
    return np.sqrt(x * x + y * y)


def _edge(x, y, c):
    """Edge c of each element, from corner c to corner c+1 (mod 4), as its
    two components from the corner planes x, y."""
    d = (c + 1) % 4
    return x[d] - x[c], y[d] - y[c]


def _corner_jacobians(x, y):
    """Cross products at the four corners of each element, (4, n_elem) from
    the corner planes x, y (QuadMesh2D.corner_planes): the edge into a
    corner crossed with the edge out of it, positive for a convex,
    counterclockwise quad.  Filled corner by corner, so no edge plane of
    all four corners is made."""
    J = np.empty_like(x)
    ix, iy = _edge(x, y, 3)         # the edge into corner 0
    for c in range(4):
        ox, oy = _edge(x, y, c)     # the edge out of corner c, into c+1
        J[c] = ix * oy - iy * ox
        ix, iy = ox, oy
    return J


def jitter(mesh, factor, seed):
    """Displace interior nodes by factor*cell_size*uniform[-0.5, 0.5]^2.

    Boundary nodes stay fixed so the periodic domain is preserved.  Every
    interior displacement is drawn in one block, nodes in row-major order.
    Below factor 0.5 no element can tangle: scaled to the unit square, each
    corner moves by at most factor/2 per axis, so every corner Jacobian is
    at least (1 - 2 factor) times the cell area.  Above it, each round
    redraws, again in one block, every interior node of every element with
    a corner Jacobian that is not positive (NaN included); MeshTangleError
    after 100 rounds.
    Deterministic for a fixed seed.
    """
    if not 0 <= factor < np.inf:        # also NaN
        raise ValueError(f"jitter factor must be non-negative and finite, got {factor}")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    nx, ny = mesh.nx, mesh.ny
    out = QuadMesh2D(mesh.nodes.copy(), nx, ny, mesh.L, jitter_factor=factor, seed=int(seed))
    interior = out.nodes.reshape(ny + 1, nx + 1, 2)[1:-1, 1:-1]   # a view
    base = interior.copy()
    redo = np.ones(base.shape[:2], dtype=bool)
    # a factor so large that the nodes overflow gives NaN corner Jacobians,
    # which count as tangled
    with np.errstate(all="ignore"):
        step = factor * np.array([mesh.L / nx, mesh.L / ny])
        for _ in range(101):    # the first draw, then up to 100 redraw rounds
            interior[redo] = base[redo] + step * rng.uniform(-0.5, 0.5, size=(redo.sum(), 2))
            bad = ~np.all(_corner_jacobians(*out.corner_planes()) > 0.0, axis=0).reshape(ny, nx)
            if not bad.any():
                return out
            # interior node (i, j) is a corner of elements (i-1 or i, j-1 or j)
            redo = bad[:-1, :-1] | bad[:-1, 1:] | bad[1:, :-1] | bad[1:, 1:]
    raise MeshTangleError(f"{bad.sum()} elements still tangled after 100 "
                          f"redraw rounds (factor={factor})")


@dataclass
class SkewReport:
    alpha: float                # mesh-average |cross-diagonal deviation|, degrees
    per_element: np.ndarray     # |beta - 90| per element, degrees


def skew_angle(mesh):
    """Mesh-average absolute angle by which element cross diagonals
    deviate from square: beta is the (acute) angle between the two
    corner-to-corner diagonals, alpha_e = |beta - 90 degrees|."""
    x, y = mesh.corner_planes()
    (d1x, d2x), (d1y, d2y) = x[2:] - x[:2], y[2:] - y[:2]
    n1, n2 = _length(d1x, d1y), _length(d2x, d2y)
    if np.any(n1 == 0.0) or np.any(n2 == 0.0):
        raise ValueError("degenerate element: zero-length cross diagonal")
    cosb = np.abs(d1x * d2x + d1y * d2y) / (n1 * n2)
    beta = np.degrees(np.arccos(np.clip(cosb, -1.0, 1.0)))
    per_element = np.abs(beta - 90.0)
    return SkewReport(alpha=float(per_element.mean()), per_element=per_element)


def jitter_factor_for_skew(mesh, target_alpha, seed, tol=0.15):
    """Bisect the jitter factor until the mesh-average skew angle lands
    within tol degrees of target_alpha.  Returns (factor, jittered mesh);
    ValueError if 60 rounds do not land (the skew can jump across the
    window where redraws start)."""
    if not 0 <= target_alpha < np.inf:      # also NaN
        raise ValueError(f"target skew must be non-negative and finite, got {target_alpha}")
    lo, hi = 0.0, MAX_SKEW_FACTOR
    if skew_angle(jitter(mesh, hi, seed)).alpha < target_alpha:
        raise ValueError(f"target skew {target_alpha} deg unreachable below "
                         f"factor {MAX_SKEW_FACTOR}")
    nearest = np.inf
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        m = jitter(mesh, mid, seed)
        a = skew_angle(m).alpha
        if abs(a - target_alpha) <= tol:
            return mid, m
        nearest = min(nearest, a, key=lambda b: abs(b - target_alpha))
        if a < target_alpha:
            lo = mid
        else:
            hi = mid
    raise ValueError(f"no jitter factor gives a skew within {tol} deg of "
                     f"{target_alpha} deg; the nearest was {nearest:.4g} deg")


def write_mesh(mesh, path):
    """Plain-text mesh file: header, node lines 'x y' (repr of each float),
    element lines of four counterclockwise corner indices; one block each."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"quadmesh {mesh.nx} {mesh.ny} {float(mesh.L)!r} "
                f"{float(mesh.jitter_factor)!r} {mesh.seed}\n")
        f.write(f"{len(mesh.nodes)} {mesh.n_elements}\n")
        f.write(("%r %r\n" * len(mesh.nodes)) % tuple(mesh.nodes.ravel().tolist()))
        f.write(("%d %d %d %d\n" * mesh.n_elements)
                % tuple(mesh.elements.ravel().tolist()))


def read_mesh(path):
    """The mesh of a write_mesh file; a ValueError naming the file if its
    header, counts, number of values, numbers or element numbering are not
    such a file's."""
    with open(path, encoding="utf-8") as f:
        header = f.readline().split()
        counts = f.readline().split()
        tokens = f.read().split()
    if len(header) != 6 or header[0] != "quadmesh" or len(counts) != 2:
        raise ValueError(f"{path} is not a quadmesh file")
    try:
        nx, ny = int(header[1]), int(header[2])
        L, factor, seed = float(header[3]), float(header[4]), int(header[5])
        n_nodes, n_elem = map(int, counts)
        nodes = np.array(tokens[:2 * n_nodes], dtype=float)
        elements = np.array(tokens[2 * n_nodes:], dtype=int)
    except ValueError as exc:       # a field that is not a number
        raise ValueError(f"{path}: {exc}") from exc
    structured = f"{path}: {n_nodes} nodes, {n_elem} elements, not a structured {nx}x{ny} mesh"
    if (n_nodes, n_elem) != ((nx + 1) * (ny + 1), nx * ny):
        raise ValueError(structured)
    if len(tokens) != 2 * n_nodes + 4 * n_elem:
        raise ValueError(f"{path}: {len(tokens)} values after the counts, "
                         f"not the {2 * n_nodes + 4 * n_elem} of {n_nodes} nodes and {n_elem} elements")
    mesh = QuadMesh2D(nodes=nodes.reshape(n_nodes, 2), nx=nx, ny=ny, L=L,
                      jitter_factor=factor, seed=seed)
    if not np.array_equal(elements, mesh.elements.ravel()):
        raise ValueError(structured)
    return mesh
