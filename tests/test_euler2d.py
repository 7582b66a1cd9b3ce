import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from frwave.euler2d import (GAMMA_GAS, ErrorReport, FREulerSolver2D,
                            FVEulerSolver2D, ICVParams, NonPhysicalStateError,
                            conserved_to_primitive, error_norm,
                            euler_normal_flux, icv_primitive, ooa,
                            primitive_to_conserved, roe_flux, run_icv,
                            rusanov_flux)
from frwave.mesh2d import jitter, uniform_quad_mesh
from frwave.stability import advance


def free_stream(x, y, t):
    one = np.ones_like(x)
    return one, one, one, one


# --- state conversions and fluxes ---------------------------------------------

def test_conversion_roundtrip():
    rng = np.random.default_rng(10)
    rho = rng.uniform(0.5, 2.0, 20)
    u = rng.standard_normal(20)
    v = rng.standard_normal(20)
    p = rng.uniform(0.5, 2.0, 20)
    U = primitive_to_conserved(rho, u, v, p)
    rho2, u2, v2, p2 = conserved_to_primitive(U)
    assert np.allclose([rho2, u2, v2, p2], [rho, u, v, p], atol=1e-13)


@pytest.mark.parametrize("flux", [rusanov_flux, roe_flux])
def test_riemann_consistency_identical_states(flux):
    U = primitive_to_conserved(np.array(1.2), np.array(0.3),
                               np.array(-0.5), np.array(0.9))
    for nx, ny in ((1.0, 0.0), (0.6, 0.8), (0.0, -1.0)):
        f = flux(U, U, np.array(nx), np.array(ny))
        exact = euler_normal_flux(U, nx, ny)
        assert np.allclose(f, exact, atol=1e-12)


def test_roe_dissipation_matches_jacobian_eigendecomposition():
    # oracle: |A| (UR - UL) with |A| = V |Lambda| V^-1 from a numerically
    # differentiated normal-flux Jacobian at the Roe-average state; states
    # chosen so every wave speed is far from the entropy-fix band
    from frwave.euler2d import GAMMA_GAS
    cases = [
        ((1.0, 2.0, 0.5, 1.0), (0.8, 1.8, 0.6, 0.9), (0.6, 0.8)),
        ((1.4, -1.5, 2.0, 2.0), (1.1, -1.2, 1.7, 1.6), (-0.8, 0.6)),
    ]
    for left, right, (nx, ny) in cases:
        UL = primitive_to_conserved(*map(np.array, left))
        UR = primitive_to_conserved(*map(np.array, right))
        rhoL, uL, vL, pL = conserved_to_primitive(UL)
        rhoR, uR, vR, pR = conserved_to_primitive(UR)
        HL = (UL[..., 3] + pL) / rhoL
        HR = (UR[..., 3] + pR) / rhoR
        sqL, sqR = np.sqrt(rhoL), np.sqrt(rhoR)
        w = sqL / (sqL + sqR)
        u, v, H = (w * uL + (1 - w) * uR, w * vL + (1 - w) * vR,
                   w * HL + (1 - w) * HR)
        rho_roe = sqL * sqR
        p_star = (GAMMA_GAS - 1) / GAMMA_GAS * rho_roe * (H - (u * u + v * v) / 2)
        Ustar = primitive_to_conserved(rho_roe, u, v, p_star)
        J = np.zeros((4, 4))
        eps = 1e-7
        for j in range(4):
            Up, Um = Ustar.copy(), Ustar.copy()
            Up[j] += eps
            Um[j] -= eps
            J[:, j] = (euler_normal_flux(Up, nx, ny)
                       - euler_normal_flux(Um, nx, ny)) / (2 * eps)
        lam, V = np.linalg.eig(J)
        diss_oracle = (V * np.abs(lam)) @ np.linalg.inv(V) @ (UR - UL)
        f = roe_flux(UL, UR, np.array(nx), np.array(ny))
        diss_mine = (euler_normal_flux(UL, nx, ny)
                     + euler_normal_flux(UR, nx, ny)) - 2 * f
        assert np.max(np.abs(diss_mine - diss_oracle)) < 1e-6


def test_riemann_solvers_conservative_antisymmetry():
    UL = primitive_to_conserved(np.array(1.0), np.array(0.2),
                                np.array(0.1), np.array(1.0))
    UR = primitive_to_conserved(np.array(0.9), np.array(-0.1),
                                np.array(0.3), np.array(1.1))
    for flux in (rusanov_flux, roe_flux):
        f1 = flux(UL, UR, np.array(0.6), np.array(0.8))
        f2 = flux(UR, UL, np.array(-0.6), np.array(-0.8))
        assert np.allclose(f1, -f2, atol=1e-12)


def _stacked_normal_flux(U, nx, ny):
    rho, u, v, p = conserved_to_primitive(U)
    un = u * nx + v * ny
    return np.stack([rho * un, U[..., 1] * un + p * nx,
                     U[..., 2] * un + p * ny, (U[..., 3] + p) * un], axis=-1)


def _stacked_rusanov(UL, UR, nx, ny):
    rhoL, uL, vL, pL = conserved_to_primitive(UL)
    rhoR, uR, vR, pR = conserved_to_primitive(UR)
    sL = np.abs(uL * nx + vL * ny) + np.sqrt(GAMMA_GAS * pL / rhoL)
    sR = np.abs(uR * nx + vR * ny) + np.sqrt(GAMMA_GAS * pR / rhoR)
    smax = np.maximum(sL, sR)
    FL, FR = _stacked_normal_flux(UL, nx, ny), _stacked_normal_flux(UR, nx, ny)
    return 0.5 * (FL + FR) - 0.5 * smax[..., None] * (UR - UL)


def _stacked_roe(UL, UR, nx, ny):
    rhoL, uL, vL, pL = conserved_to_primitive(UL)
    rhoR, uR, vR, pR = conserved_to_primitive(UR)
    nx = np.broadcast_to(nx, rhoL.shape)
    ny = np.broadcast_to(ny, rhoL.shape)
    sqL, sqR = np.sqrt(rhoL), np.sqrt(rhoR)
    w = sqL / (sqL + sqR)
    u, v = w * uL + (1 - w) * uR, w * vL + (1 - w) * vR
    H = w * ((UL[..., 3] + pL) / rhoL) + (1 - w) * ((UR[..., 3] + pR) / rhoR)
    q2 = u * u + v * v
    a2 = (GAMMA_GAS - 1.0) * (H - 0.5 * q2)
    a = np.sqrt(np.maximum(a2, 1e-300))
    un, ut = u * nx + v * ny, -u * ny + v * nx
    dp = pR - pL
    dun = (uR * nx + vR * ny) - (uL * nx + vL * ny)
    dut = (-uR * ny + vR * nx) - (-uL * ny + vL * nx)
    eps = 0.05 * a
    fix = lambda l: np.where(l < eps, (l * l / eps + eps) * 0.5, l)
    lam = [fix(np.abs(un - a)), np.abs(un), fix(np.abs(un + a)), np.abs(un)]
    rho_roe = np.sqrt(rhoL * rhoR)
    alpha = [(dp - rho_roe * a * dun) / (2.0 * a2), (rhoR - rhoL) - dp / a2,
             (dp + rho_roe * a * dun) / (2.0 * a2), rho_roe * dut]
    one = np.ones_like(u)
    K = [np.stack([one, u - a * nx, v - a * ny, H - un * a], axis=-1),
         np.stack([one, u, v, 0.5 * q2], axis=-1),
         np.stack([one, u + a * nx, v + a * ny, H + un * a], axis=-1),
         np.stack([np.zeros_like(u), -ny, nx, ut], axis=-1)]
    diss = sum(l[..., None] * al[..., None] * k
               for l, al, k in zip(lam, alpha, K))
    FL, FR = _stacked_normal_flux(UL, nx, ny), _stacked_normal_flux(UR, nx, ny)
    return 0.5 * (FL + FR) - 0.5 * diss


@pytest.mark.parametrize("shape, normal_shape", [((40,), (40,)),
                                                 ((9, 5), (9, 1)),
                                                 ((3, 4, 6), (3, 1, 6))])
def test_flux_kernels_keep_their_arithmetic(shape, normal_shape):
    # the kernels fill their outputs in place; every entry must still be
    # the one the stacked formulas give, bit for bit
    rng = np.random.default_rng(31)
    def state():
        return primitive_to_conserved(
            rng.uniform(0.3, 2.0, shape), rng.normal(0.0, 1.5, shape),
            rng.normal(0.0, 1.5, shape), rng.uniform(0.3, 2.0, shape))
    UL, UR = state(), state()
    theta = rng.uniform(0.0, 2.0 * np.pi, normal_shape)
    nx, ny = np.cos(theta), np.sin(theta)
    assert np.array_equal(euler_normal_flux(UL, nx, ny),
                          _stacked_normal_flux(UL, nx, ny))
    assert np.array_equal(rusanov_flux(UL, UR, nx, ny),
                          _stacked_rusanov(UL, UR, nx, ny))
    assert np.array_equal(roe_flux(UL, UR, nx, ny),
                          _stacked_roe(UL, UR, nx, ny))


# --- vortex ------------------------------------------------------------------

def test_icv_far_field_is_free_stream():
    # >= 8 radii from the core on a domain big enough to hold that distance
    pr = ICVParams(extent=30.0, centre=(5.0, 5.0))
    rho, u, v, p = icv_primitive(13.0, 5.0, 0.0, pr)
    assert abs(rho - 1.0) < 1e-6 and abs(p - 1.0) < 1e-6
    assert abs(u - 1.0) < 1e-6 and abs(v - 1.0) < 1e-6


def test_icv_pressure_minimum_at_centre():
    pr = ICVParams()
    _, _, _, p_centre = icv_primitive(5.0, 5.0, 0.0, pr)
    _, _, _, p_off = icv_primitive(5.5, 5.0, 0.0, pr)
    _, _, _, p_far = icv_primitive(0.0, 0.0, 0.0, pr)
    assert p_centre < p_off < p_far


def test_icv_uniform_entropy():
    pr = ICVParams()
    rng = np.random.default_rng(11)
    x = rng.uniform(0, 10, 50)
    y = rng.uniform(0, 10, 50)
    rho, u, v, p = icv_primitive(x, y, 0.0, pr)
    s = p / rho ** GAMMA_GAS
    assert np.max(np.abs(s - s[0])) < 1e-10


def test_icv_advects_by_translation():
    pr = ICVParams()
    rng = np.random.default_rng(12)
    x = rng.uniform(0, 10, 40)
    y = rng.uniform(0, 10, 40)
    t = 3.7
    now = icv_primitive(x, y, t, pr)
    shifted = icv_primitive((x - pr.u_inf * t) % pr.extent,
                            (y - pr.v_inf * t) % pr.extent, 0.0, pr)
    for a, b in zip(now, shifted):
        assert np.allclose(a, b, atol=1e-12)


def test_icv_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ICVParams(strength=-1.0)
    with pytest.raises(ValueError):
        ICVParams(radius=0.0)


# --- element solver ----------------------------------------------------------

def test_fr_free_stream_preserved_on_jittered_mesh():
    mesh = jitter(uniform_quad_mesh(6, 6, 10.0), 0.3, seed=21)
    solver = FREulerSolver2D(mesh, p=4)
    U = solver.project(free_stream)
    assert np.max(np.abs(solver.rhs(U))) < 1e-11


def test_fr_mapping_corner_consistency():
    mesh = jitter(uniform_quad_mesh(5, 5, 10.0), 0.25, seed=22)
    solver = FREulerSolver2D(mesh, p=3)
    # mapped solution points stay inside each element's bounding box
    X = mesh.corner_coords()
    lo = X.min(axis=1)[:, None, None, :]
    hi = X.max(axis=1)[:, None, None, :]
    assert np.all(solver.x >= lo - 1e-12) and np.all(solver.x <= hi + 1e-12)
    assert np.all(solver.detJ > 0)


@pytest.mark.parametrize("make", [lambda m: FREulerSolver2D(m, p=2),
                                  lambda m: FREulerSolver2D(m, p=4),
                                  FVEulerSolver2D], ids=["fr2", "fr4", "fv"])
@pytest.mark.parametrize("L, node", [(1.0, (0.9, 0.9)), (3.0, (1.51, 1.51)),
                                     (3.0, (2.0, 2.0))],
                         ids=["inverted", "mildly-nonconvex", "collapsed"])
def test_fr_rejects_tangled_mesh(make, L, node):
    # on the 3x3 mesh of side 3, node 5 at (1.51, 1.51) makes one corner
    # Jacobian -0.02 while every Gauss point of p <= 4 still sees detJ > 0;
    # at (2, 2) it lands on node 10 and one quad has zero area
    from frwave.mesh2d import QuadMesh2D
    mesh = uniform_quad_mesh(3, 3, L)
    nodes = mesh.nodes.copy()
    nodes[5] = node
    bad = QuadMesh2D(nodes=nodes, elements=mesh.elements, nx=3, ny=3, L=L)
    with pytest.raises(ValueError, match="tangled"):
        make(bad)


@pytest.mark.parametrize("riemann", ["rusanov", "roe"])
def test_fr_reference_axes_are_one_operator(riemann):
    # the vortex moving along (-1, 1) is the default one, moving along
    # (1, 1), turned by 90 degrees about the domain centre: (x, y) -> (10 - y, x)
    # and (rho u, rho v) -> (-rho v, rho u)
    solver = FREulerSolver2D(uniform_quad_mesh(6, 6, 10.0), p=3,
                             riemann=riemann)
    turned = ICVParams(u_inf=-1.0, v_inf=1.0)
    R0 = solver.rhs(solver.project(lambda x, y, t: icv_primitive(x, y, t)))
    R1 = solver.rhs(solver.project(
        lambda x, y, t: icv_primitive(x, y, t, turned)))
    x = solver.x.reshape(-1, 2)
    key = lambda pts: np.lexsort(np.round(pts, 9).T)
    at0 = key(np.stack([10.0 - x[:, 1], x[:, 0]], axis=-1))
    at1 = key(x)
    R0 = R0.reshape(-1, 4)[at0]
    R1 = R1.reshape(-1, 4)[at1]
    expected = np.stack([R0[:, 0], -R0[:, 2], R0[:, 1], R0[:, 3]], axis=-1)
    assert np.allclose(np.stack([10.0 - x[at0, 1], x[at0, 0]], axis=-1),
                       x[at1], atol=1e-9)
    assert np.max(np.abs(R1 - expected)) < 1e-12 * np.max(np.abs(R0))


def test_fr_conservation_of_invariants():
    from frwave.element import gauss_weights
    mesh = jitter(uniform_quad_mesh(6, 6, 10.0), 0.2, seed=23)
    solver = FREulerSolver2D(mesh, p=3)
    U0 = solver.project(lambda x, y, t: icv_primitive(x, y, t))
    w = gauss_weights(3)
    wgt = solver.detJ * w[None, :, None] * w[None, None, :]
    total0 = np.einsum("eab,eabv->v", wgt, U0)
    tau = 0.01 * solver.length_scale() / solver.max_signal_speed(U0)
    U = advance(solver, U0, tau, "RK44", 500)
    total = np.einsum("eab,eabv->v", wgt, U)
    assert np.max(np.abs(total - total0) / np.abs(total0)) < 1e-9


def test_fr_nonphysical_state_reported():
    mesh = uniform_quad_mesh(3, 3, 10.0)
    solver = FREulerSolver2D(mesh, p=2)
    U = solver.project(free_stream)
    U[4, ..., 3] = -10.0        # negative energy => negative pressure
    with pytest.raises(NonPhysicalStateError) as err:
        solver.rhs(U)
    assert err.value.where == 4


def test_fr_rhs_deterministic():
    mesh = jitter(uniform_quad_mesh(5, 5, 10.0), 0.2, seed=24)
    solver = FREulerSolver2D(mesh, p=3)
    U = solver.project(lambda x, y, t: icv_primitive(x, y, t))
    assert np.array_equal(solver.rhs(U), solver.rhs(U))


def test_fr_roe_flux_option_runs():
    mesh = uniform_quad_mesh(4, 4, 10.0)
    solver = FREulerSolver2D(mesh, p=2, riemann="roe")
    U = solver.project(lambda x, y, t: icv_primitive(x, y, t))
    assert np.all(np.isfinite(solver.rhs(U)))


# --- finite-volume baseline ----------------------------------------------------

def test_fv_free_stream_on_uniform_mesh():
    mesh = uniform_quad_mesh(8, 8, 10.0)
    solver = FVEulerSolver2D(mesh)
    U = solver.project(free_stream)
    assert np.max(np.abs(solver.rhs(U))) < 1e-13


def test_fv_exact_metrics_free_stream_on_jittered_mesh():
    mesh = jitter(uniform_quad_mesh(8, 8, 10.0), 0.3, seed=25)
    solver = FVEulerSolver2D(mesh, metrics="exact")
    U = solver.project(free_stream)
    assert np.max(np.abs(solver.rhs(U))) < 1e-12


def test_fv_curvilinear_metrics_lose_closure_on_jitter():
    # the smooth-mapping shortcut no longer balances a uniform stream once
    # the nodes are randomly displaced: this is the designed failure mode
    mesh = jitter(uniform_quad_mesh(8, 8, 10.0), 0.3, seed=25)
    solver = FVEulerSolver2D(mesh, metrics="curvilinear")
    U = solver.project(free_stream)
    assert np.max(np.abs(solver.rhs(U))) > 1e-3


@pytest.mark.parametrize("riemann", ["rusanov", "roe"])
@pytest.mark.parametrize("metrics", ["curvilinear", "exact"])
def test_fv_conservation_of_invariants(metrics, riemann):
    # every face flux leaves one cell and enters its neighbour, so the
    # area-weighted totals hold to rounding on any mesh and metric
    mesh = jitter(uniform_quad_mesh(8, 8, 10.0), 0.3, seed=26)
    solver = FVEulerSolver2D(mesh, riemann=riemann, metrics=metrics)
    U0 = solver.project(lambda x, y, t: icv_primitive(x, y, t))
    total0 = solver.area @ U0
    tau = 0.2 * solver.length_scale() / solver.max_signal_speed(U0)
    U = advance(solver, U0, tau, "RK44", 200)
    assert np.max(np.abs(U - U0)) > 1e-2       # the state really moved
    total = solver.area @ U
    assert np.max(np.abs(total - total0) / np.abs(total0)) < 1e-12


def test_fv_nonphysical_state_reported():
    mesh = uniform_quad_mesh(3, 3, 10.0)
    solver = FVEulerSolver2D(mesh)
    U = solver.project(free_stream)
    U[2, 0] = -1.0
    with pytest.raises(NonPhysicalStateError) as err:
        solver.rhs(U)
    assert err.value.where == 2


# --- neighbour reads on a non-square mesh --------------------------------------

def _explicit_neighbours(mesh):
    """East, west, north, south of element j*nx + i, by index arithmetic."""
    nx, ny = mesh.nx, mesh.ny
    j, i = np.divmod(np.arange(nx * ny), nx)
    return (j * nx + (i + 1) % nx, j * nx + (i - 1) % nx,
            ((j + 1) % ny) * nx + i, ((j - 1) % ny) * nx + i)


def _fv_reference(solver, U, flux):
    east, west, north, south = _explicit_neighbours(solver.mesh)
    gx = 0.5 * (U[east] - U[west])
    gy = 0.5 * (U[north] - U[south])
    UE, UW, UN, US = U + 0.5 * gx, U - 0.5 * gx, U + 0.5 * gy, U - 0.5 * gy
    FE = solver.s_e[:, None] * flux(UE, UW[east], solver.nx_e, solver.ny_e)
    FN = solver.s_n[:, None] * flux(UN, US[north], solver.nx_n, solver.ny_n)
    return -(((FE + FN) - FE[west]) - FN[south]) / solver.area[:, None]


def _fr_reference(solver, U, flux):
    from frwave.euler2d import _along
    east, west, north, south = _explicit_neighbours(solver.mesh)
    m1, m2, T, H = solver.m1, solver.m2, solver.T, solver.H
    Fh = euler_normal_flux(U, m1[..., 0], m1[..., 1])
    Gh = euler_normal_flux(U, m2[..., 0], m2[..., 1])
    UW, UE = np.moveaxis(_along(T, U, 1), 1, 0)
    US, UN = np.moveaxis(_along(T, U, 2), 2, 0)
    FE = solver.s_e[..., None] * flux(UE, UW[east], solver.nx_e, solver.ny_e)
    GN = solver.s_n[..., None] * flux(UN, US[north], solver.nx_n, solver.ny_n)
    Fc = np.stack([FE[west], FE], axis=1)
    Gc = np.stack([GN[south], GN], axis=2)
    D = solver.element.D
    div = (_along(D, Fh, 1) + _along(H, Fc - _along(T, Fh, 1), 1)
           + _along(D, Gh, 2) + _along(H, Gc - _along(T, Gh, 2), 2))
    return -div / solver.detJ[..., None]


@pytest.mark.parametrize("riemann", ["rusanov", "roe"])
def test_rhs_neighbours_on_non_square_mesh(riemann):
    # with nx != ny an east/north (x/y) mix-up in the neighbour reads moves
    # the result; the reference reads every neighbour by index arithmetic
    mesh = jitter(uniform_quad_mesh(7, 5, 10.0), 0.3, seed=27)
    flux = {"rusanov": rusanov_flux, "roe": roe_flux}[riemann]
    vortex = lambda x, y, t: icv_primitive(x, y, t)
    for metrics in ("curvilinear", "exact"):
        fv = FVEulerSolver2D(mesh, riemann=riemann, metrics=metrics)
        U = fv.project(vortex)
        assert np.array_equal(fv.rhs(U), _fv_reference(fv, U, flux))
    fr = FREulerSolver2D(mesh, p=3, riemann=riemann)
    U = fr.project(vortex)
    assert np.array_equal(fr.rhs(U), _fr_reference(fr, U, flux))


# --- error norms and convergence ------------------------------------------------

def test_error_norm_zero_for_identical_fields():
    a = np.ones((5, 3, 3, 4))
    rep = error_norm(a, a)
    assert rep.theta == 0.0
    assert np.all(rep.per_variable == 0.0)
    assert rep.dof == 45


def test_error_norm_uniform_density_offset():
    a = np.zeros((7, 4))
    b = a.copy()
    b[:, 0] += 0.25
    rep = error_norm(b, a)
    assert rep.theta == pytest.approx(0.25, abs=1e-14)
    assert rep.per_variable[0] == pytest.approx(0.25, abs=1e-14)
    assert np.all(rep.per_variable[1:] == 0.0)


def test_error_norm_shape_mismatch():
    with pytest.raises(ValueError):
        error_norm(np.zeros((3, 4)), np.zeros((4, 4)))


def test_ooa_from_synthetic_pair():
    reps = [ErrorReport(theta=1e-2, per_variable=np.zeros(4), dof=100),
            ErrorReport(theta=1e-2 / 32, per_variable=np.zeros(4), dof=400)]
    assert ooa(reps) == pytest.approx(5.0, abs=1e-12)


def test_ooa_synthetic_arbitrary_order():
    for q in (1.0, 2.5, 4.0):
        reps = [ErrorReport(theta=1e-2, per_variable=np.zeros(4), dof=64),
                ErrorReport(theta=1e-2 / 2 ** q, per_variable=np.zeros(4),
                            dof=256)]
        assert ooa(reps) == pytest.approx(q, abs=1e-12)


def test_ooa_needs_two_points():
    with pytest.raises(ValueError):
        ooa([ErrorReport(theta=1.0, per_variable=np.zeros(4), dof=10)])


def test_run_icv_smoke_and_dof_accounting():
    mesh = uniform_quad_mesh(4, 4, 10.0)
    rep_fr = run_icv(FREulerSolver2D(mesh, 2), steps=10, cfl=0.01)
    assert rep_fr.dof == 16 * 9
    assert 0 < rep_fr.theta < 1.0
    rep_fv = run_icv(FVEulerSolver2D(mesh), steps=10, cfl=0.01)
    assert rep_fv.dof == 16


def test_euler2d_does_not_import_advect1d():
    # the package __init__ imports every module, so the package is stood up
    # without it and only euler2d's own imports run
    src = Path(importlib.util.find_spec("frwave").origin).parents[1]
    code = ("import sys, types; pkg = types.ModuleType('frwave'); "
            f"pkg.__path__ = [{str(src / 'frwave')!r}]; "
            "sys.modules['frwave'] = pkg; import frwave.euler2d; "
            "sys.exit(int('frwave.advect1d' in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(src))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_mesh_error_monotone_with_skew():
    # fixed DoF, rising mesh-average skew: error must not improve
    from frwave.mesh2d import jitter_factor_for_skew
    thetas = []
    for alpha in (0.0, 1.5, 6.0, 15.0):
        mesh = uniform_quad_mesh(8, 8, 10.0)
        if alpha > 0:
            _, mesh = jitter_factor_for_skew(mesh, alpha, seed=7, tol=0.2)
        thetas.append(run_icv(FREulerSolver2D(mesh, 4), steps=100,
                              cfl=0.01).theta)
    assert all(b >= a * 0.999 for a, b in zip(thetas, thetas[1:]))
