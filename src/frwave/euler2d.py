"""2D compressible Euler on quadrilateral meshes.

Two solvers share the mesh, the Riemann fluxes and the convecting-vortex
exact solution:

* a tensor-product element solver (the high-order scheme under study),
  built on the bilinear mapping of each quad so the metric terms are
  exact and a uniform free stream is preserved on arbitrarily jittered
  meshes;
* a nominally second-order MUSCL finite-volume baseline in the structured
  style of industrial codes: index-space face extrapolation that is exactly
  second order on smooth meshes and degrades when node placement is not.

States are conserved variables (rho, rho u, rho v, E), gas gamma = 1.4.
"""

import math
from dataclasses import dataclass

import numpy as np

from .element import reference_element
from .mesh2d import _corner_jacobians, _edge, _length
from .stability import _require_positive, advance

GAMMA_GAS = 1.4


class NonPhysicalStateError(RuntimeError):
    """Density or pressure lost positivity; carries the element index."""

    def __init__(self, where):
        self.where = where
        super().__init__(f"non-physical state (rho or p <= 0) at element {where}")


# ---------------------------------------------------------------------------
# state conversions and fluxes

def primitive_to_conserved(rho, u, v, p, axis=-1):
    E = p / (GAMMA_GAS - 1.0) + 0.5 * rho * (u * u + v * v)
    return np.stack([rho, rho * u, rho * v, E], axis=axis)


def conserved_to_primitive(U):
    rho = U[..., 0]
    return rho, U[..., 1] / rho, U[..., 2] / rho, _pressure(U)


def _pressure(U, p=None, work=None):
    """Pressure (gamma - 1) (E - 0.5 (m1 m1 + m2 m2) / rho) of conserved
    states U, the one pressure rule here, formed in place in p with `work`
    as scratch space of its shape (both new planes in rho's memory order if
    not given)."""
    rho, m1, m2, E = (U[..., k] for k in range(4))
    if p is None:
        p, work = (np.empty_like(rho, dtype=np.result_type(rho, 0.5)) for _ in range(2))
    np.multiply(m1, m1, out=p)
    p += np.multiply(m2, m2, out=work)
    p *= 0.5
    p /= rho
    np.subtract(E, p, out=p)
    p *= GAMMA_GAS - 1.0
    return p


def euler_normal_flux(U, nx, ny):
    """Physical flux of conserved state U through unit normal (nx, ny)."""
    return _normal_flux(U, *_normal_state(U, nx, ny), nx, ny)


def _normal_flux(U, mn, un, p, nx, ny, out=None):
    """euler_normal_flux from U's normal momentum mn = m.n, normal velocity
    un = mn / rho and pressure p, written into `out` if given (it must not
    overlap U, un or p; mn may be its slot 0), else into a new array in U's
    memory order.  The pressure term of each momentum component is formed
    in the slot of the next one, so no work array is made."""
    F = np.empty_like(U) if out is None else out
    F0, F1, F2, F3 = (F[..., k] for k in range(4))
    F0[...] = mn
    np.multiply(U[..., 1], un, out=F1)
    F1 += np.multiply(p, nx, out=F2)
    np.multiply(U[..., 2], un, out=F2)
    F2 += np.multiply(p, ny, out=F3)
    np.add(U[..., 3], p, out=F3)
    F3 *= un
    return F


def _normal_state(U, nx, ny):
    """The state rule of every flux here: normal momentum m.n, normal velocity
    un = (m.n) / rho and _pressure of conserved states U."""
    mn = U[..., 1] * nx + U[..., 2] * ny
    return mn, mn / U[..., 0], _pressure(U)


def _flux_sum(UL, UR, nx, ny, F):
    """FL + FR summed in place into F, component by component, the two
    pressures entering the momentum as one sum.  Returns each side's normal
    velocity and pressure and the work array it used."""
    mnL, unL, pL = _normal_state(UL, nx, ny)
    mnR, unR, pR = _normal_state(UR, nx, ny)
    ps = pL + pR
    t = np.empty_like(ps)
    F0, F1, F2, F3 = (F[..., k] for k in range(4))
    np.add(mnL, mnR, out=F0)
    for Fk, k, n in ((F1, 1, nx), (F2, 2, ny)):
        np.multiply(UL[..., k], unL, out=Fk)
        Fk += np.multiply(UR[..., k], unR, out=t)
        Fk += np.multiply(ps, n, out=t)
    np.add(UL[..., 3], pL, out=F3)
    F3 *= unL
    np.add(UR[..., 3], pR, out=t)
    F3 += np.multiply(t, unR, out=t)
    return (unL, pL), (unR, pR), t


def rusanov_flux(UL, UR, nx, ny, out=None):
    """Local Lax-Friedrichs, 0.5 (FL + FR) - 0.5 smax (UR - UL) with smax
    the larger side's |un| + c, written into `out` if given (it must not
    overlap UL or UR), else into a new array in UL's memory order.  The
    jump term is subtracted in place from _flux_sum's FL + FR."""
    F = np.empty_like(UL) if out is None else out
    (unL, pL), (unR, pR), t = _flux_sum(UL, UR, nx, ny, F)
    h = 0.5 * np.maximum(np.abs(unL) + np.sqrt(GAMMA_GAS * pL / UL[..., 0]),
                         np.abs(unR) + np.sqrt(GAMMA_GAS * pR / UR[..., 0]))
    for k in range(4):
        Fk = F[..., k]
        Fk *= 0.5
        np.subtract(UR[..., k], UL[..., k], out=t)
        Fk -= np.multiply(h, t, out=t)
    return F


def roe_flux(UL, UR, nx, ny, out=None):
    """Roe's approximate Riemann solver with Harten's entropy fix on the
    acoustic waves, 0.5 (FL + FR) - 0.5 sum |lam| alpha K over the waves,
    written like rusanov_flux: half of each wave's |lam| alpha times its
    eigenvector K is subtracted in place from _flux_sum's FL + FR, whose
    side pressures and normal velocities give the jumps."""
    F = np.empty_like(UL) if out is None else out
    (unL, pL), (unR, pR), t = _flux_sum(UL, UR, nx, ny, F)
    rhoL, rhoR = UL[..., 0], UR[..., 0]
    sqL, sqR = np.sqrt(rhoL), np.sqrt(rhoR)
    # the Roe averages (sqL qL + sqR qR) / (sqL + sqR) of u, v and H, each
    # side's sqrt(rho) q as m / sqrt(rho) or (E + p) / sqrt(rho)
    u, v, H = ((qL / sqL + qR / sqR) / (sqL + sqR) for qL, qR in (
        (UL[..., 1], UR[..., 1]), (UL[..., 2], UR[..., 2]),
        (UL[..., 3] + pL, UR[..., 3] + pR)))
    q2 = u * u + v * v
    a2 = (GAMMA_GAS - 1.0) * (H - 0.5 * q2)
    a = np.sqrt(np.maximum(a2, 1e-300))
    un = u * nx + v * ny
    dp, z = pR - pL, sqL * sqR * a * (unR - unL)
    # half of each wave's |lam| alpha: the acoustic waves un -+ a with the
    # entropy fix, then the entropy and shear waves un, the shear wave's
    # alpha from the jump of the tangential velocity (m2 nx - m1 ny) / rho
    eps = 0.05 * a
    fix = lambda l: np.where(l < eps, (l * l / eps + eps) * 0.5, l)
    h1, h3 = (0.5 * fix(np.abs(un + sign * a)) * ((dp + sign * z) / (2.0 * a2))
              for sign in (-1.0, 1.0))
    s = 0.5 * np.abs(un)
    h2 = s * ((rhoR - rhoL) - dp / a2)
    h4 = s * (sqL * sqR * ((UR[..., 2] * nx - UR[..., 1] * ny) / rhoR
                           - (UL[..., 2] * nx - UL[..., 1] * ny) / rhoL))
    # K1, K3 = (1, u -+ a nx, v -+ a ny, H -+ a un), K2 = (1, u, v, q2 / 2)
    # and K4 = (0, -ny, nx, v nx - u ny)
    for k, q, n, K2, K4 in ((0, 1.0, 0.0, 1.0, 0.0), (1, u, nx, u, -ny), (2, v, ny, v, nx),
                            (3, H, un, 0.5 * q2, v * nx - u * ny)):
        Fk = F[..., k]
        Fk *= 0.5
        np.multiply(a, n, out=t)
        Fk -= h1 * (q - t)
        Fk -= h2 * K2
        Fk -= h3 * (q + t)
        Fk -= h4 * K4
    return F


RIEMANN_SOLVERS = {"rusanov": rusanov_flux, "roe": roe_flux}


# ---------------------------------------------------------------------------
# convecting isentropic vortex

@dataclass
class ICVParams:
    """Analytic vortex configuration: strength and radius of the core,
    uniform free stream, unit ambient density/temperature, on a periodic
    square of side `extent` (at least ~10 radii for clean periodicity)."""

    strength: float = 5.0
    radius: float = 1.0
    u_inf: float = 1.0
    v_inf: float = 1.0
    centre: tuple = (5.0, 5.0)
    extent: float = 10.0

    def __post_init__(self):
        # also NaN: icv_primitive divides by the radius and wraps by % extent
        for name in ("strength", "radius", "extent"):
            _require_positive(f"vortex {name}", getattr(self, name))
        # any finite free stream and centre will do, zero too; a NaN or
        # infinite one would project a non-finite state
        for name, value in (("u_inf", self.u_inf), ("v_inf", self.v_inf),
                            ("centre[0]", self.centre[0]), ("centre[1]", self.centre[1])):
            if not -np.inf < value < np.inf:
                raise ValueError(f"vortex {name} must be a finite number, got {value}")


def icv_primitive(x, y, t, params=None):
    """Exact vortex state at time t: the t=0 field advected by the free
    stream, wrapped periodically (minimum image)."""
    pr = params or ICVParams()
    Lb = pr.extent
    dx = (np.asarray(x) - pr.centre[0] - pr.u_inf * t + 0.5 * Lb) % Lb - 0.5 * Lb
    dy = (np.asarray(y) - pr.centre[1] - pr.v_inf * t + 0.5 * Lb) % Lb - 0.5 * Lb
    r2 = (dx * dx + dy * dy) / pr.radius ** 2
    bump = pr.strength / (2.0 * np.pi) * np.exp(0.5 * (1.0 - r2))
    u = pr.u_inf - bump * dy / pr.radius
    v = pr.v_inf + bump * dx / pr.radius
    T = 1.0 - (GAMMA_GAS - 1.0) * bump * bump / (2.0 * GAMMA_GAS)
    rho = T ** (1.0 / (GAMMA_GAS - 1.0))
    p = rho * T
    return rho, u, v, p


# ---------------------------------------------------------------------------
# pieces shared by both solvers

def _unit(n):
    """Length and unit components of face vectors n (..., 2)."""
    s = _length(n[..., 0], n[..., 1])
    return s, n[..., 0] / s, n[..., 1] / s


def _check_physical(rho, p):
    """Raise NonPhysicalStateError at the first element where rho or p <= 0."""
    if np.all(rho > 0) and np.all(p > 0):
        return
    bad = np.nonzero(~((rho > 0) & (p > 0)))
    raise NonPhysicalStateError(int(bad[0][0]))


class _EulerSolver:
    """What the element and finite-volume solvers share beyond the mesh:
    projection to an element-fastest state and the DoF count, from the
    solution points a subclass stores as self.x (n_elem, ..., 2), and one
    Riemann solve per face: an element owns its east and north faces.
    Elements are numbered as in QuadMesh2D (element j*nx + i is column i of
    grid row j); the element solver gathers its neighbours through tables of
    that numbering, the finite-volume solver reads them as shifts of its grid.
    A subclass sets self.faces = (_unit(n_east), _unit(n_north)) from the
    outward face vectors, scaled by face length (per unit reference length for
    the elements) and shaped (n_elem, ..., 2): (n_elem, 2) for the
    finite-volume cells, (n_elem, 1, 2) for the elements, whose straight faces
    have one vector along all p+1 points, and self.length_scale, which a CFL
    number is taken over.  _common_flux takes one length and unit normal per
    face point: the finite-volume solver passes its face block's slices of
    self.faces, the element solver planes built from them once.

    A subclass builds its geometry from the mesh's corner planes x, y
    (QuadMesh2D.corner_planes), sliced once and passed to this class,
    which keeps them no longer than the subclass's __init__.  The mesh must
    be made of convex counterclockwise quads, checked here before any
    geometry is built: a bilinear map's Jacobian is affine in (xi, eta), so
    positive corner Jacobians make it positive everywhere in the element."""

    def __init__(self, mesh, riemann, x, y):
        if np.any(_corner_jacobians(x, y) <= 0):
            raise ValueError("non-convex or inverted quad; mesh is tangled")
        self.mesh = mesh
        self.riemann = RIEMANN_SOLVERS[riemann]

    def _common_flux(self, faces, UL, UR, out):
        """Length-weighted flux through the faces (s, nx, ny), one length
        and unit normal per face point, from the states UL on their inner
        side and UR on their outer side, written into `out`."""
        s, nx, ny = faces
        F = self.riemann(UL, UR, nx, ny, out=out)
        F *= s[..., None]
        return F

    @property
    def dof(self):
        return self.x[..., 0].size

    def project(self, fn, t=0.0):
        """Collocate a primitive-state function (x, y, t) -> (rho,u,v,p),
        stored element-fastest: the conserved variables are stacked as
        planes of the reversed axes and the stack is read reversed."""
        return primitive_to_conserved(*fn(*self.x.T, t), axis=0).T

    def max_signal_speed(self, U):
        rho, u, v, p = conserved_to_primitive(U)
        return float((np.sqrt(u * u + v * v)
                      + np.sqrt(GAMMA_GAS * p / rho)).max())


# ---------------------------------------------------------------------------
# tensor-product element solver

def _eta(M, G):
    """Apply the matrix M along the eta axis of G (c, eta, xi, n_elem)."""
    c, _, xi, ne = G.shape
    return (M @ G.reshape(c, -1, xi * ne)).reshape(c, -1, xi, ne)


class FREulerSolver2D(_EulerSolver):
    """High-order solver on bilinearly mapped quads, periodic structured
    connectivity.  State shape: (n_elem, p+1, p+1, 4) with axes
    (element, xi index, eta index, variable), stored element-fastest (axes
    in reverse memory order, variable slowest) like self.x, m1, m2 and
    detJ, so each operator along a reference axis is one matrix product
    over all elements.  The geometry is built in the order it is stored and
    read through its .T views.  project returns this layout and rhs keeps
    it; a state in another layout gives the same values.

    The residual is the 1D scheme applied along each reference axis to the
    transformed fluxes Fhat = m1 . (F, G) and Ghat = m2 . (F, G), the
    fluxes through the unnormalised normals m1 = (y_eta, -x_eta) and
    m2 = (-y_xi, x_xi):

        detJ dU/dt = -sum over axes [D Fhat + H (Fc - T Fhat)]
                   = -sum over axes M [Fhat; Fc],   M = [D - H T | H]

    with D the nodal derivative matrix, T = [ll; lr] the traces at xi = -1
    and +1, H = [hl, hr] the correction derivatives and Fc the common
    transformed flux on the two faces.  rhs solves Fc on the east and
    north faces of all elements in one Riemann call, then applies M, of
    shape (p+1, p+3) and built once, along each axis to an element-fastest
    buffer that holds Fhat at the p+1 points and Fc on the two faces.
    rhs returns a new array, but its traces, face states, fluxes and
    buffers are work arrays the solver owns, sized once for the mesh and
    refilled by every call (a fresh set per call had glibc trim and
    re-fault its heap), so one solver must not run rhs from two threads at
    once.  The bilinear map applies the shape
    functions N = [(1 - xi)/2, (1 + xi)/2] along both axes of the corners,
    so m1 depends on xi only and m2 on eta only (shapes (n_elem, p+1, 1, 2)
    and (n_elem, 1, p+1, 2)), and the east and north face vectors are m1 at
    xi = +1 and m2 at eta = +1."""

    def __init__(self, mesh, p, riemann="rusanov"):
        x, y = mesh.corner_planes()
        super().__init__(mesh, riemann, x, y)
        self.element = e = reference_element(p)
        self.T = np.stack([e.ll, e.lr])
        H = np.stack([e.hl, e.hr], axis=1)
        self.M = np.hstack([e.D - H @ self.T, H])
        # the geometry is built in the order it is stored, (coordinate, eta,
        # xi, element): N and dN apply along xi as M @ G, along eta by _eta
        G = np.stack([x, y])[:, [0, 1, 3, 2]].reshape(2, 2, 2, -1)
        N = np.stack([1 - e.xi, 1 + e.xi], axis=1) / 2.0
        dN = np.array([[-0.5, 0.5]])
        self.x = _eta(N, N @ G).T
        # metric rows on the element edges: m1 at xi = -1, +1 (a rotated
        # x_eta) and m2 at eta = -1, +1 (a rotated x_xi)
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        m1 = (rot.T @ _eta(dN, G).reshape(2, -1)).reshape(2, 1, 2, -1)
        m2 = (rot @ (dN @ G).reshape(2, -1)).reshape(2, 2, 1, -1)
        self.faces = (_unit(m1[:, :, 1].T), _unit(m2[:, 1].T))
        m1, m2 = N @ m1, _eta(N, m2)
        self.m1, self.m2 = m1.T, m2.T
        self.detJ = (m1[0] * m2[1] - m1[1] * m2[0]).T
        # the smallest edge length divided by the points-per-edge count
        shortest = np.min([_length(*_edge(x, y, c)).min() for c in range(4)])
        self.length_scale = float(shortest) / e.n_points
        # rhs's face points are ordered (axis, point, element): the east
        # faces' p+1 points, then the north faces'.  Their lengths and unit
        # normals are stored per point, and the faces of the elements ahead
        # (east, north) and behind (west, south) are read through flat
        # indices into a (variable, side, axis, point, element) trace buffer
        # and a (variable, axis, point, element) face buffer, side 0 first
        q, n = e.n_points, mesh.n_elements
        self._face_points = tuple(
            np.stack([np.broadcast_to(f[k][:, 0], (q, n)) for f in self.faces]).ravel()
            for k in range(3))
        ids = np.arange(n).reshape(mesh.ny, mesh.nx)
        first = (np.arange(2 * q) * n).reshape(2, q, 1)
        self._ahead, self._behind = (
            (first + np.stack([np.roll(ids, shift, axis=1), np.roll(ids, shift, axis=0)])
             .reshape(2, 1, n)).ravel() for shift in (-1, 1))
        # rhs's work arrays, one per role, sized once for the mesh
        self._traces = np.empty((4, 2, 2, q, n))
        self._face, self._Fc = (np.empty((4, 2, q, n)) for _ in range(2))
        self._un, self._p = (np.empty((q, q, n)).T for _ in range(2))
        self._eta = np.empty((4, q, q * n))
        self._padded = np.empty(4 * q * (q + 2) * n)

    def rhs(self, U):
        q, n = self.element.n_points, len(U)
        # the result's (variable, eta, xi, element) planes, made first,
        # where the stage before freed a state
        div = np.empty((4, q, q, n))
        _check_physical(U[..., 0], _pressure(U, self._p, self._un))
        Y = np.ascontiguousarray(U.T)       # (variable, eta, xi, element)
        tr = self._traces
        np.matmul(self.T, Y, out=tr[:, :, 0].transpose(0, 2, 1, 3))
        np.matmul(self.T, Y.reshape(4, q, q * n), out=tr[:, :, 1].reshape(4, 2, q * n))
        # one Riemann solve over the east and north faces, the hi traces
        # inside and the lo traces of the elements ahead outside; mode
        # "clip" lets np.take write straight into its out (the indices are
        # in range), where the default mode fills a copy
        face, Fc = self._face.reshape(4, -1), self._Fc.reshape(4, -1)
        np.take(tr.reshape(4, -1), self._ahead, axis=1, out=face, mode="clip")
        self._common_flux(self._face_points, tr[:, 1].reshape(4, -1).T, face.T, Fc.T)
        # a face's transformed flux is the same value on both sides: the
        # west and south fluxes are those of the elements behind
        np.take(Fc, self._behind, axis=1, out=face, mode="clip")
        lo, hi = self._face, self._Fc
        # M [Fhat; Fc] along each reference axis from one element-fastest
        # buffer: Fhat through the metric rows in slots 0..p, the common
        # flux on the west or south face in slot p+1 and on the east or
        # north face in slot p+2
        B = self._padded.reshape(4, q, q + 2, n)
        B[:, :, q], B[:, :, q + 1] = lo[:, 0], hi[:, 0]
        self._point_flux(U, self.m1, B.T[:, :q])
        np.matmul(self.M, B, out=div)
        B = self._padded.reshape(4, q + 2, q, n)
        B[:, q], B[:, q + 1] = lo[:, 1], hi[:, 1]
        self._point_flux(U, self.m2, B.T[:, :, :q])
        div += np.matmul(self.M, B.reshape(4, q + 2, q * n), out=self._eta).reshape(4, q, q, n)
        R = div.T
        return np.divide(R, -self.detJ[..., None], out=R)

    def _point_flux(self, U, m, out):
        """The transformed flux through the metric rows m at the solution
        points, by euler_normal_flux's rule from rhs's pressure, written into
        `out`: the normal momentum m.n straight into its slot 0."""
        nx, ny = m[..., 0], m[..., 1]
        mn, un = out[..., 0], self._un
        np.multiply(U[..., 1], nx, out=mn)
        mn += np.multiply(U[..., 2], ny, out=un)
        np.divide(mn, U[..., 0], out=un)
        _normal_flux(U, mn, un, self._p, nx, ny, out=out)


# ---------------------------------------------------------------------------
# finite-volume baseline

# finite-volume cells per Riemann call, rounded down to whole grid rows: a
# face state of 4096 cells is 128 KiB, so a block's states and the Riemann
# solver's temporaries fit a 2 MiB per-core L2 cache
_FACE_BLOCK = 4096


def _fv_face_states(P):
    """States on the east faces of a block of grid rows, on their east
    neighbours' west faces, on their north faces and on their north
    neighbours' south faces, as (cells, 4) rows, from the block's
    ghost-padded variable planes P of FVEulerSolver2D.rhs: the block's rows
    with one row before and two after, one column before and two after."""
    rows = P[:, 1:-2]
    # half a cell of the central differences, in place: hx of columns
    # 0..nx, the last one the east neighbour's across the seam, and hy of
    # the block's rows and the row after it, the north neighbours'
    hx = rows[..., 2:] - rows[..., :-2]
    hy = P[:, 2:, 1:-2] - P[:, :-2, 1:-2]
    for h in (hx, hy):
        h *= 0.25       # half a cell of the difference per unit index
    C = rows[..., 1:-2]
    faces = (C + hx[..., :-1], rows[..., 2:-1] - hx[..., 1:],
             C + hy[:, :-1], P[:, 2:-1, 1:-2] - hy[:, 1:])
    return [A.reshape(4, -1).T for A in faces]


def _cell_area_centroid(x, y):
    """Area (n_cells,) and centroid (n_cells, 2) of each cell from its
    corner planes x, y, built corner by corner: each sum over the four
    corners adds its terms left to right, the cross product of corner c
    with its counterclockwise successor d first."""
    for c in range(4):
        d = (c + 1) % 4
        cross = x[c] * y[d] - x[d] * y[c]
        terms = (cross, (x[c] + x[d]) * cross, (y[c] + y[d]) * cross)
        if c == 0:
            area, sx, sy = terms
        else:
            for total, term in zip((area, sx, sy), terms):
                total += term
    area *= 0.5
    return area, np.stack([sx / (6.0 * area), sy / (6.0 * area)], axis=-1)


class FVEulerSolver2D(_EulerSolver):
    """Nominally second-order MUSCL baseline, periodic structured mesh.

    Everything is done the structured-curvilinear way: face states are
    extrapolated with index-space central differences of cell data, and with
    metrics="curvilinear" (default) each face vector is the centroid step
    across the face, the face's area vector only on square cells.  Both
    assume a smooth node placement: exactly second order on uniform square
    meshes, degrading when nodes are randomly jittered.  metrics="exact"
    instead takes face vectors from the actual cell geometry, which keeps
    the scheme convergent on rough meshes.  Unlimited (smooth test cases
    only).  One flux per face, added on one side and subtracted on the
    other, makes the update conservative by construction.  State shape:
    (n_cells, 4), stored element-fastest like the element solver's (a state
    in another layout gives the same values); the solution points are the
    cell centroids.  Cell j*nx + i is column i of grid row j, so rhs solves
    the faces in blocks of whole grid rows (_FACE_BLOCK), each block reading
    neighbours as slices of its own periodically ghost-padded variable
    planes and summing its east and north fluxes straight into the one
    (4, ny, nx) result; only the last block's north row outlives its block,
    carried to row 0 after the loop.
    """

    def __init__(self, mesh, riemann="rusanov", metrics="curvilinear"):
        if metrics not in ("curvilinear", "exact"):
            raise ValueError(f"unknown metric mode {metrics!r}")
        x, y = mesh.corner_planes()
        super().__init__(mesh, riemann, x, y)
        self.area, self.x = _cell_area_centroid(x, y)
        # the smallest cell diameter, the longer diagonal of each cell
        self.length_scale = float(np.maximum(_length(x[2] - x[0], y[2] - y[0]),
                                             _length(x[3] - x[1], y[3] - y[1])).min())

        if metrics == "exact":
            # the east and north edges (corners 1 to 2, 2 to 3) rotated clockwise
            n_e, n_n = (np.stack([ey, -ex], axis=-1) for ex, ey in (_edge(x, y, 1), _edge(x, y, 2)))
        else:
            # curvilinear metric shortcut: the mesh is taken to be a smooth
            # mapping of the index grid, and each face vector is the step
            # between the centroids across the face (x_xi for an east face).
            # That is the face's area vector, the rotated step along it
            # ((y_eta, -x_eta) for an east face), only on square cells.  The
            # update stays conservative, but the vectors of a cell no longer
            # sum to zero once jitter moves the centroids, which is what
            # erodes this family of schemes on poor meshes.
            C = self.x.reshape(mesh.ny, mesh.nx, 2)

            def step(axis):
                # each cell's east (axis 0) or north (axis 1) neighbour's
                # centroid, the grid shifted by one column or row, less its own
                B = np.roll(C, -1, axis=1 - axis)
                np.moveaxis(B, 1 - axis, 0)[-1, ..., axis] += mesh.L  # across the seam
                return (B - C).reshape(-1, 2)

            n_e, n_n = step(0), step(1)
        del x, y        # the corner planes, freed before the faces are normalised
        self.faces = (_unit(n_e), _unit(n_n))

    def rhs(self, U):
        _check_physical(U[..., 0], _pressure(U))
        nx, ny = self.mesh.nx, self.mesh.ny
        # the variable planes of U and of the result, in U's memory order
        G = U.T.reshape(4, ny, nx)
        flux = np.empty_like(U).T.reshape(4, ny, nx)
        north = None        # the north fluxes of the row before the block
        block = max(1, _FACE_BLOCK // nx)      # grid rows
        for j0 in range(0, ny, block):
            j1 = min(j0 + block, ny)
            b = slice(j0 * nx, j1 * nx)
            # the block's variable planes with periodic ghost cells, one row
            # and column before its rows and two after: grid cell (j, i) is
            # P[:, j - j0 + 1, i + 1]
            P = np.empty((4, j1 - j0 + 3, nx + 3))
            P[:, :, 1:-2] = G[:, np.arange(j0 - 1, j1 + 2) % ny]
            P[..., [0, -2, -1]] = P[..., [nx, 1, 1 + 1 % nx]]
            UE, UW_east, UN, US_north = _fv_face_states(P)
            E, N = np.empty((2, 4, j1 - j0, nx))     # the block's flux planes
            faces_e, faces_n = ([f[b] for f in faces] for faces in self.faces)
            self._common_flux(faces_e, UE, UW_east, E.reshape(4, -1).T)
            self._common_flux(faces_n, UN, US_north, N.reshape(4, -1).T)
            # a cell's west and south fluxes are its neighbours' east and
            # north fluxes, leaving through the opposite side: the block's
            # planes shifted by one column, wrapped across the seam, and by
            # one row, the first row's from the block before
            F = flux[:, j0:j1]
            np.add(E, N, out=F)
            F[..., 1:] -= E[..., :-1]
            F[..., 0] -= E[..., -1]
            F[:, 1:] -= N[:, :-1]
            if north is not None:
                F[:, 0] -= north
            north = N[:, -1]
        flux[:, 0] -= north             # grid row 0's, across the seam
        flux /= -self.area.reshape(ny, nx)
        return flux.reshape(4, -1).T


# ---------------------------------------------------------------------------
# error norms and convergence

@dataclass
class ErrorReport:
    theta: float          # point-averaged l2 norm over the 4-variable vector
    per_variable: np.ndarray
    dof: int


def error_norm(computed, exact):
    """Point-averaged l2 error: mean over points of the per-point
    4-variable 2-norm, plus per-variable RMS."""
    if computed.shape != exact.shape:
        raise ValueError(f"shape mismatch: {computed.shape} vs {exact.shape}")
    # one point per C-ordered row, so the sums round alike for any layout:
    # the difference is written straight into a C-ordered buffer and
    # squared in place, and both norms sum those squares (each row as
    # np.linalg.norm does)
    sq = np.empty(computed.shape, np.result_type(computed, exact))
    np.subtract(computed, exact, out=sq)
    sq = sq.reshape(-1, computed.shape[-1])
    np.multiply(sq, sq, out=sq)
    norms = np.add.reduce(sq, axis=1)
    theta = float(np.mean(np.sqrt(norms, out=norms)))
    per_var = np.sqrt(np.mean(sq, axis=0))
    return ErrorReport(theta=theta, per_variable=per_var, dof=sq.shape[0])


def _require_distinct(resolutions):
    """An order fit needs at least two distinct resolutions."""
    if len(set(resolutions)) < 2:
        raise ValueError("need at least two distinct resolutions")


def ooa(reports):
    """Observed order of accuracy: least-squares slope of log error
    against log of the per-direction resolution sqrt(DoF)."""
    _require_distinct([r.dof for r in reports])
    for r in reports:
        if not r.theta > 0:     # also NaN
            raise ValueError(f"error norm must be positive, got {r.theta}")
    x = np.log([math.sqrt(r.dof) for r in reports])
    y = np.log([r.theta for r in reports])
    slope = np.polyfit(x, y, 1)[0]
    return float(-slope)


def run_icv(solver, steps=500, cfl=0.01):
    """March the default convecting vortex with RK44 and report the error
    against the exact solution at the final time: on the nonlinear Euler
    equations the stage loop is 2nd order in time (see stability.advance)."""
    _require_positive("CFL", cfl)
    U0 = solver.project(icv_primitive)
    tau = cfl * solver.length_scale / solver.max_signal_speed(U0)
    U = advance(solver, U0, tau, "RK44", steps)
    del U0
    exact = solver.project(icv_primitive, t=steps * tau)
    return error_norm(U, exact)
