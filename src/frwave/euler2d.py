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
from .mesh2d import _corner_jacobians
from .stability import advance

GAMMA_GAS = 1.4


class NonPhysicalStateError(RuntimeError):
    """Density or pressure lost positivity; carries the element index."""

    def __init__(self, where):
        self.where = where
        super().__init__(f"non-physical state (rho or p <= 0) at element {where}")


# ---------------------------------------------------------------------------
# state conversions and fluxes

def primitive_to_conserved(rho, u, v, p):
    E = p / (GAMMA_GAS - 1.0) + 0.5 * rho * (u * u + v * v)
    return np.stack([rho, rho * u, rho * v, E], axis=-1)


def conserved_to_primitive(U):
    rho = U[..., 0]
    u = U[..., 1] / rho
    v = U[..., 2] / rho
    p = (GAMMA_GAS - 1.0) * (U[..., 3] - 0.5 * rho * (u * u + v * v))
    return rho, u, v, p


def euler_normal_flux(U, nx, ny):
    """Physical flux of conserved state U through unit normal (nx, ny)."""
    return _normal_flux(U, *conserved_to_primitive(U), nx, ny)


def _normal_flux(U, rho, u, v, p, nx, ny):
    """euler_normal_flux with the primitives of U already recovered."""
    un = u * nx + v * ny
    F = np.empty_like(U)    # U's memory order: the element state is not C-ordered
    F[..., 0] = rho * un
    F[..., 1] = U[..., 1] * un + p * nx
    F[..., 2] = U[..., 2] * un + p * ny
    F[..., 3] = (U[..., 3] + p) * un
    return F


def rusanov_flux(UL, UR, nx, ny):
    """Local Lax-Friedrichs: averaged flux plus max-wavespeed penalty."""
    rhoL, uL, vL, pL = conserved_to_primitive(UL)
    rhoR, uR, vR, pR = conserved_to_primitive(UR)
    cL = np.sqrt(GAMMA_GAS * pL / rhoL)
    cR = np.sqrt(GAMMA_GAS * pR / rhoR)
    sL = np.abs(uL * nx + vL * ny) + cL
    sR = np.abs(uR * nx + vR * ny) + cR
    smax = np.maximum(sL, sR)
    # 0.5 * (FL + FR) - 0.5 * smax * (UR - UL), in place
    F = _normal_flux(UL, rhoL, uL, vL, pL, nx, ny)
    F += _normal_flux(UR, rhoR, uR, vR, pR, nx, ny)
    F *= 0.5
    jump = UR - UL
    jump *= (0.5 * smax)[..., None]
    F -= jump
    return F


def roe_flux(UL, UR, nx, ny):
    """Roe's approximate Riemann solver with a small entropy fix."""
    rhoL, uL, vL, pL = conserved_to_primitive(UL)
    rhoR, uR, vR, pR = conserved_to_primitive(UR)
    nx = np.broadcast_to(nx, rhoL.shape)
    ny = np.broadcast_to(ny, rhoL.shape)
    HL = (UL[..., 3] + pL) / rhoL
    HR = (UR[..., 3] + pR) / rhoR
    sqL, sqR = np.sqrt(rhoL), np.sqrt(rhoR)
    w = sqL / (sqL + sqR)
    u = w * uL + (1 - w) * uR
    v = w * vL + (1 - w) * vR
    H = w * HL + (1 - w) * HR
    q2 = u * u + v * v
    a2 = (GAMMA_GAS - 1.0) * (H - 0.5 * q2)
    a = np.sqrt(np.maximum(a2, 1e-300))
    un = u * nx + v * ny
    ut = -u * ny + v * nx

    drho = rhoR - rhoL
    dp = pR - pL
    dun = (uR * nx + vR * ny) - (uL * nx + vL * ny)
    dut = (-uR * ny + vR * nx) - (-uL * ny + vL * nx)

    lam = np.stack([np.abs(un - a), np.abs(un), np.abs(un + a), np.abs(un)], axis=-1)
    # Harten entropy fix on the acoustic waves
    eps = 0.05 * a
    for i in (0, 2):
        l = lam[..., i]
        lam[..., i] = np.where(l < eps, (l * l / eps + eps) * 0.5, l)

    rho_roe = np.sqrt(rhoL * rhoR)
    a1 = (dp - rho_roe * a * dun) / (2.0 * a2)
    a2_ = drho - dp / a2
    a3 = (dp + rho_roe * a * dun) / (2.0 * a2)
    a4 = rho_roe * dut

    one = np.ones_like(u)
    K1 = np.stack([one, u - a * nx, v - a * ny, H - un * a], axis=-1)
    K2 = np.stack([one, u, v, 0.5 * q2], axis=-1)
    K3 = np.stack([one, u + a * nx, v + a * ny, H + un * a], axis=-1)
    K4 = np.stack([np.zeros_like(u), -ny, nx, ut], axis=-1)

    diss = (lam[..., 0:1] * a1[..., None] * K1
            + lam[..., 1:2] * a2_[..., None] * K2
            + lam[..., 2:3] * a3[..., None] * K3
            + lam[..., 3:4] * a4[..., None] * K4)
    FL = _normal_flux(UL, rhoL, uL, vL, pL, nx, ny)
    FR = _normal_flux(UR, rhoR, uR, vR, pR, nx, ny)
    return 0.5 * (FL + FR) - 0.5 * diss


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
        if self.strength <= 0 or self.radius <= 0:
            raise ValueError("vortex strength and radius must be positive")


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

def _periodic_neighbours(mesh):
    """East, west, north and south neighbour of every element of the
    periodic structured mesh."""
    ids = np.arange(mesh.n_elements).reshape(mesh.ny, mesh.nx)
    return (np.roll(ids, -1, axis=1).ravel(), np.roll(ids, 1, axis=1).ravel(),
            np.roll(ids, -1, axis=0).ravel(), np.roll(ids, 1, axis=0).ravel())


def _unit(n):
    """Length and unit components of face vectors n (..., 2)."""
    s = np.linalg.norm(n, axis=-1)
    return s, n[..., 0] / s, n[..., 1] / s


def _check_physical(rho, p):
    """Raise NonPhysicalStateError at the first element where rho or p <= 0."""
    if np.all(rho > 0) and np.all(p > 0):
        return
    bad = np.nonzero(~((rho > 0) & (p > 0)))
    raise NonPhysicalStateError(int(bad[0][0]))


class _EulerSolver:
    """What the element and finite-volume solvers share beyond the mesh:
    projection and the DoF count, from the solution points a subclass
    stores as self.x (n_elem, ..., 2), and one Riemann solve per face: an
    element owns its east and north faces, and reads its neighbours' rows
    through the periodic east, west, north and south tables with np.take.
    A subclass passes _faces the outward face vectors n_east and n_north,
    scaled by face length (per unit reference length for the elements) and
    shaped (n_elem, ..., 2) to broadcast against a face trace without its
    variable axis: (n_elem, 2) for the finite-volume cells, (n_elem, 1, 2)
    for the elements, whose straight faces have one vector along all p+1
    points.

    The mesh must be made of convex counterclockwise quads, checked before
    any geometry is built: a bilinear map's Jacobian is affine in
    (xi, eta), so positive corner Jacobians make it positive everywhere in
    the element."""

    def __init__(self, mesh, riemann):
        if np.any(_corner_jacobians(mesh.corner_coords()) <= 0):
            raise ValueError("non-convex or inverted quad; mesh is tangled")
        self.mesh = mesh
        self.riemann = RIEMANN_SOLVERS[riemann]
        self.east, self.west, self.north, self.south = _periodic_neighbours(mesh)

    def _faces(self, n_east, n_north):
        self.s_e, self.nx_e, self.ny_e = _unit(n_east)
        self.s_n, self.nx_n, self.ny_n = _unit(n_north)

    def _solve_faces(self, UE, UW, UN, US):
        """Length-weighted fluxes through each element's east and north
        faces, given the traces on every element's four sides."""
        FE = self.riemann(UE, np.take(UW, self.east, axis=0), self.nx_e, self.ny_e)
        FN = self.riemann(UN, np.take(US, self.north, axis=0), self.nx_n, self.ny_n)
        FE *= self.s_e[..., None]
        FN *= self.s_n[..., None]
        return FE, FN

    @property
    def dof(self):
        return self.x[..., 0].size

    def project(self, fn, t=0.0):
        """Collocate a primitive-state function (x, y, t) -> (rho,u,v,p)."""
        rho, u, v, p = fn(self.x[..., 0], self.x[..., 1], t)
        return primitive_to_conserved(rho, u, v, p)

    def max_signal_speed(self, U):
        rho, u, v, p = conserved_to_primitive(U)
        return float((np.sqrt(u * u + v * v)
                      + np.sqrt(GAMMA_GAS * p / rho)).max())


# ---------------------------------------------------------------------------
# tensor-product element solver

def _along(M, X, axis):
    """Apply the matrix M along one axis of X (a reference direction)."""
    return np.moveaxis(np.tensordot(M, X, axes=(1, axis)), 0, axis)


class FREulerSolver2D(_EulerSolver):
    """High-order solver on bilinearly mapped quads, periodic structured
    connectivity.  State shape: (n_elem, p+1, p+1, 4) with axes
    (element, xi index, eta index, variable).

    The residual is the 1D scheme applied along each reference axis to the
    transformed fluxes Fhat = m1 . (F, G) and Ghat = m2 . (F, G), the
    fluxes through the unnormalised normals m1 = (y_eta, -x_eta) and
    m2 = (-y_xi, x_xi):

        detJ dU/dt = -sum over axes [D Fhat + H (Fc - T Fhat)]

    with D the nodal derivative matrix, T = [ll; lr] the traces at xi = -1
    and +1, H = [hl, hr] the correction derivatives and Fc the common
    transformed flux on the two faces.  The bilinear map applies the shape
    functions N = [(1 - xi)/2, (1 + xi)/2] along both axes of the corners,
    so m1 depends on xi only and m2 on eta only (shapes (n_elem, p+1, 1, 2)
    and (n_elem, 1, p+1, 2)), and the east and north face vectors are m1 at
    xi = +1 and m2 at eta = +1."""

    def __init__(self, mesh, p, riemann="rusanov"):
        super().__init__(mesh, riemann)
        self.element = e = reference_element(p)
        self.T = np.stack([e.ll, e.lr])
        self.H = np.stack([e.hl, e.hr], axis=1)
        # corners as (n_elem, xi end, eta end, coordinate)
        X = mesh.corner_coords()[:, [0, 3, 1, 2]].reshape(-1, 2, 2, 2)
        N = np.stack([1 - e.xi, 1 + e.xi], axis=1) / 2.0
        dN = np.array([[-0.5, 0.5]])
        self.x = _along(N, _along(N, X, 1), 2)
        # metric rows on the element edges: m1 at xi = -1, +1 (a rotated
        # x_eta) and m2 at eta = -1, +1 (a rotated x_xi)
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        m1 = _along(dN, X, 2) @ rot
        m2 = _along(dN, X, 1) @ rot.T
        self.m1 = _along(N, m1, 1)
        self.m2 = _along(N, m2, 2)
        self.detJ = (self.m1[..., 0] * self.m2[..., 1]
                     - self.m1[..., 1] * self.m2[..., 0])
        self._faces(m1[:, 1], m2[:, :, 1])

    def rhs(self, U):
        rho, u, v, p = conserved_to_primitive(U)
        _check_physical(rho, p)
        Fh = _normal_flux(U, rho, u, v, p, self.m1[..., 0], self.m1[..., 1])
        Gh = _normal_flux(U, rho, u, v, p, self.m2[..., 0], self.m2[..., 1])
        UW, UE = np.moveaxis(_along(self.T, U, 1), 1, 0)
        US, UN = np.moveaxis(_along(self.T, U, 2), 2, 0)
        # a face's transformed flux is the same value on both sides
        Fc_E, Gc_N = self._solve_faces(UE, UW, UN, US)
        Fc = np.stack([np.take(Fc_E, self.west, axis=0), Fc_E], axis=1)
        Gc = np.stack([np.take(Gc_N, self.south, axis=0), Gc_N], axis=2)
        D, T, H = self.element.D, self.T, self.H
        div = (_along(D, Fh, 1) + _along(H, Fc - _along(T, Fh, 1), 1)
               + _along(D, Gh, 2) + _along(H, Gc - _along(T, Gh, 2), 2))
        return -div / self.detJ[..., None]

    def length_scale(self):
        """Smallest edge length divided by the points-per-edge count."""
        X = self.mesh.corner_coords()
        edges = np.linalg.norm(np.roll(X, -1, axis=1) - X, axis=-1)
        return float(edges.min()) / self.element.n_points


# ---------------------------------------------------------------------------
# finite-volume baseline

class FVEulerSolver2D(_EulerSolver):
    """Nominally second-order MUSCL baseline, periodic structured mesh.

    Everything is done the structured-curvilinear way: face states are
    extrapolated with index-space central differences of cell data, and with
    metrics="curvilinear" (default) the face area vectors also come from
    index-space central differences of the mesh coordinates.  Both
    assume a smooth node placement: exactly second order on uniform
    meshes, degrading (to zeroth order for the metric evaluation) when
    nodes are randomly jittered.  metrics="exact" instead takes face
    vectors from the actual cell geometry, which keeps the scheme
    convergent on rough meshes.  Unlimited (smooth test cases only).
    One flux per face, added on one side and subtracted on the other, makes
    the update conservative by construction.  State shape: (n_cells, 4);
    the solution points are the cell centroids.
    """

    def __init__(self, mesh, riemann="rusanov", metrics="curvilinear"):
        if metrics not in ("curvilinear", "exact"):
            raise ValueError(f"unknown metric mode {metrics!r}")
        super().__init__(mesh, riemann)
        X = mesh.corner_coords()                      # (ne, 4, 2)

        x = X[..., 0]; y = X[..., 1]
        cross = (x * np.roll(y, -1, axis=1) - np.roll(x, -1, axis=1) * y)
        self.area = 0.5 * cross.sum(axis=1)
        cx = ((x + np.roll(x, -1, axis=1)) * cross).sum(axis=1) / (6.0 * self.area)
        cy = ((y + np.roll(y, -1, axis=1)) * cross).sum(axis=1) / (6.0 * self.area)
        self.x = centroid = np.stack([cx, cy], axis=-1)

        if metrics == "exact":
            def edge_normal(a, b):
                t = X[:, b] - X[:, a]
                return np.stack([t[:, 1], -t[:, 0]], axis=-1)
            n_e, n_n = edge_normal(1, 2), edge_normal(2, 3)
        else:
            # curvilinear metric shortcut: the mesh is assumed to be a
            # smooth mapping of the index grid, so each face area vector is
            # taken as the centre-to-centre difference across the face
            # (correct length and orientation whenever node placement is
            # smooth; exact on uniform meshes).  The update stays
            # conservative, but the vectors of a cell no longer sum to
            # zero once random jitter breaks the smoothness, which is what
            # erodes this family of schemes on poor meshes.
            ids = np.arange(mesh.n_elements)

            def step(neighbour, axis):
                B = np.take(centroid, neighbour, axis=0)
                B[neighbour <= ids, axis] += mesh.L     # across the periodic seam
                return B - centroid

            n_e, n_n = step(self.east, 0), step(self.north, 1)
        self._faces(n_e, n_n)

    def rhs(self, U):
        rho = U[..., 0]
        p = (GAMMA_GAS - 1.0) * (U[..., 3] - 0.5 * (U[..., 1] ** 2 + U[..., 2] ** 2) / rho)
        _check_physical(rho, p)
        # half a cell of the central differences, in place
        hx = np.take(U, self.east, axis=0) - np.take(U, self.west, axis=0)
        hy = np.take(U, self.north, axis=0) - np.take(U, self.south, axis=0)
        for h in (hx, hy):
            h *= 0.5        # the difference per unit index
            h *= 0.5        # half a cell of it
        # each west and south state overwrites its half after the east and north one
        FE, FN = self._solve_faces(U + hx, np.subtract(U, hx, out=hx),
                                   U + hy, np.subtract(U, hy, out=hy))
        # a cell's west and south fluxes are its neighbours' east and
        # north fluxes, leaving through the opposite side
        flux = FE + FN
        flux -= np.take(FE, self.west, axis=0)
        flux -= np.take(FN, self.south, axis=0)
        return np.divide(flux, -self.area[:, None], out=flux)

    def length_scale(self):
        """Smallest cell diameter (largest diagonal per cell)."""
        X = self.mesh.corner_coords()
        diam = np.maximum(np.linalg.norm(X[:, 2] - X[:, 0], axis=-1),
                          np.linalg.norm(X[:, 3] - X[:, 1], axis=-1))
        return float(diam.min())


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
    diff = (computed - exact).reshape(-1, computed.shape[-1])
    theta = float(np.mean(np.linalg.norm(diff, axis=1)))
    per_var = np.sqrt(np.mean(diff ** 2, axis=0))
    return ErrorReport(theta=theta, per_variable=per_var,
                       dof=diff.shape[0])


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
    U0 = solver.project(icv_primitive)
    tau = cfl * solver.length_scale() / solver.max_signal_speed(U0)
    U = advance(solver, U0, tau, "RK44", steps)
    exact = solver.project(icv_primitive, t=steps * tau)
    return error_norm(U, exact)
