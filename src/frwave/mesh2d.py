"""Quadrilateral meshes: uniform grids, seeded node jitter, skew metric.

Meshes are structured (nx by ny quads on a periodic square) but stored
with explicit nodes and counterclockwise corner connectivity so the
solvers never rely on smoothness of the node placement.  Jitter draws all
interior displacements in one block from a counter-based generator (Philox)
keyed by the seed, so a given (nx, ny, factor, seed) always reproduces the
same mesh on any platform.  Below factor 0.5 no element can tangle; above
it, rounds redraw the nodes of tangled elements, so such meshes differ from
those of versions that redrew one node at a time.
"""

from dataclasses import dataclass

import numpy as np

#: largest jitter factor the skew bisection tries
MAX_SKEW_FACTOR = 0.95


class MeshTangleError(RuntimeError):
    """Node displacement produced a non-convex/inverted element."""


@dataclass
class QuadMesh2D:
    nodes: np.ndarray     # (n_nodes, 2)
    elements: np.ndarray  # (n_elem, 4) corner indices, counterclockwise
    nx: int
    ny: int
    L: float
    jitter_factor: float = 0.0
    seed: int = 0

    @property
    def n_elements(self):
        return len(self.elements)

    def corner_coords(self):
        """Element corner coordinates, shape (n_elem, 4, 2)."""
        return np.take(self.nodes, self.elements, axis=0)


def uniform_quad_mesh(nx, ny, L=1.0):
    """Axis-aligned nx-by-ny quadrilateral mesh of the square [0, L]^2."""
    if nx < 2 or ny < 2:
        raise ValueError(f"need at least 2x2 elements, got {nx}x{ny}")
    xs = np.linspace(0.0, L, nx + 1)
    ys = np.linspace(0.0, L, ny + 1)
    X, Y = np.meshgrid(xs, ys)
    nodes = np.stack([X.ravel(), Y.ravel()], axis=1)
    j, i = np.divmod(np.arange(nx * ny), nx)    # element j*nx + i
    first = j * (nx + 1) + i                    # node (i, j)
    elements = np.stack([first, first + 1, first + nx + 2, first + nx + 1],
                        axis=1)
    return QuadMesh2D(nodes=nodes, elements=elements, nx=nx, ny=ny, L=float(L))


def _corner_jacobians(corners):
    """Cross products at the four corners of each element (positive for a
    convex, counterclockwise quad).  corners: (..., 4, 2)."""
    a = np.roll(corners, -1, axis=-2) - corners     # to the next corner
    b = np.roll(corners, 1, axis=-2) - corners      # to the previous one
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def jitter(mesh, factor, seed):
    """Displace interior nodes by factor*cell_size*uniform[-0.5, 0.5]^2.

    Boundary nodes stay fixed so the periodic domain is preserved.  Every
    interior displacement is drawn in one block, nodes in row-major order.
    Below factor 0.5 no element can tangle: scaled to the unit square, each
    corner moves by at most factor/2 per axis, so every corner Jacobian is
    at least (1 - 2 factor) times the cell area.  Above it, each round
    redraws, again in one block, every interior node of every element with
    a non-positive corner Jacobian; MeshTangleError after 100 rounds.
    Meshes that needed a redraw differ from those of earlier versions,
    which redrew one node at a time.  Deterministic for a fixed seed.
    """
    if factor < 0:
        raise ValueError(f"jitter factor must be non-negative, got {factor}")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    nx, ny = mesh.nx, mesh.ny
    step = factor * np.array([mesh.L / nx, mesh.L / ny])
    nodes = mesh.nodes.copy()
    interior = nodes.reshape(ny + 1, nx + 1, 2)[1:-1, 1:-1]   # a view
    base = interior.copy()
    redo = np.ones(base.shape[:2], dtype=bool)
    for _ in range(101):    # the first draw, then up to 100 redraw rounds
        interior[redo] = base[redo] + step * rng.uniform(-0.5, 0.5, size=(redo.sum(), 2))
        bad = np.any(_corner_jacobians(np.take(nodes, mesh.elements, axis=0)) <= 0.0, axis=1)
        if not bad.any():
            return QuadMesh2D(nodes=nodes, elements=mesh.elements.copy(),
                              nx=nx, ny=ny, L=mesh.L,
                              jitter_factor=factor, seed=int(seed))
        redo = np.isin(np.arange(len(nodes)), mesh.elements[bad])
        redo = redo.reshape(ny + 1, nx + 1)[1:-1, 1:-1]
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
    corners = mesh.corner_coords()
    d1 = corners[:, 2] - corners[:, 0]
    d2 = corners[:, 3] - corners[:, 1]
    n1 = np.linalg.norm(d1, axis=1)
    n2 = np.linalg.norm(d2, axis=1)
    if np.any(n1 == 0.0) or np.any(n2 == 0.0):
        raise ValueError("degenerate element: zero-length cross diagonal")
    cosb = np.abs(np.sum(d1 * d2, axis=1)) / (n1 * n2)
    beta = np.degrees(np.arccos(np.clip(cosb, -1.0, 1.0)))
    per_element = np.abs(beta - 90.0)
    return SkewReport(alpha=float(per_element.mean()), per_element=per_element)


def jitter_factor_for_skew(mesh, target_alpha, seed, tol=0.1):
    """Bisect the jitter factor until the mesh-average skew angle lands
    within tol degrees of target_alpha.  Returns (factor, jittered mesh)."""
    if target_alpha < 0:
        raise ValueError(f"target skew must be non-negative, got {target_alpha}")
    lo, hi = 0.0, MAX_SKEW_FACTOR
    if skew_angle(jitter(mesh, hi, seed)).alpha < target_alpha:
        raise ValueError(f"target skew {target_alpha} deg unreachable below "
                         f"factor {MAX_SKEW_FACTOR}")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        m = jitter(mesh, mid, seed)
        a = skew_angle(m).alpha
        if abs(a - target_alpha) <= tol:
            return mid, m
        if a < target_alpha:
            lo = mid
        else:
            hi = mid
    return mid, m


def write_mesh(mesh, path):
    """Plain-text mesh file: header, node lines 'x y' (repr of each float),
    element lines of four counterclockwise corner indices; one block each."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"quadmesh {mesh.nx} {mesh.ny} {float(mesh.L)!r} "
                f"{float(mesh.jitter_factor)!r} {mesh.seed}\n")
        f.write(f"{len(mesh.nodes)} {len(mesh.elements)}\n")
        f.write(("%r %r\n" * len(mesh.nodes)) % tuple(mesh.nodes.ravel().tolist()))
        f.write(("%d %d %d %d\n" * len(mesh.elements))
                % tuple(mesh.elements.ravel().tolist()))


def read_mesh(path):
    with open(path, encoding="utf-8") as f:
        header = f.readline().split()
        if header[0] != "quadmesh":
            raise ValueError(f"{path} is not a quadmesh file")
        nx, ny = int(header[1]), int(header[2])
        L, factor, seed = float(header[3]), float(header[4]), int(header[5])
        n_nodes, n_elem = map(int, f.readline().split())
        tokens = f.read().split()
    nodes = np.array(tokens[:2 * n_nodes], dtype=float).reshape(n_nodes, 2)
    elements = np.array(tokens[2 * n_nodes:], dtype=int).reshape(n_elem, 4)
    return QuadMesh2D(nodes=nodes, elements=elements, nx=nx, ny=ny, L=L,
                      jitter_factor=factor, seed=seed)
