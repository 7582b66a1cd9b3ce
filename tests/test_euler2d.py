import importlib.util
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from frwave import euler2d
from frwave.euler2d import (_FACE_BLOCK, GAMMA_GAS, ErrorReport, FREulerSolver2D,
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
    # the normal-momentum form of _stacked_rusanov's sides: the normal
    # momentum m.n, the normal velocity (m.n) / rho and the pressure
    rho, m1, m2, E = (U[..., k] for k in range(4))
    mn = m1 * nx + m2 * ny
    un = mn / rho
    p = (GAMMA_GAS - 1.0) * (E - 0.5 * (m1 * m1 + m2 * m2) / rho)
    return np.stack([mn, m1 * un + p * nx, m2 * un + p * ny, (E + p) * un], axis=-1)


def _stacked_rusanov(UL, UR, nx, ny):
    # the normal-momentum form: each side's normal momentum m.n, normal
    # velocity (m.n) / rho, pressure and |un| + c, the two pressures summed
    # once for the momentum components
    def side(U):
        rho, m1, m2, E = (U[..., k] for k in range(4))
        mn = m1 * nx + m2 * ny
        un = mn / rho
        p = (GAMMA_GAS - 1.0) * (E - 0.5 * (m1 * m1 + m2 * m2) / rho)
        return mn, un, p, np.abs(un) + np.sqrt(GAMMA_GAS * p / rho)
    (mnL, unL, pL, sL), (mnR, unR, pR, sR) = side(UL), side(UR)
    ps = pL + pR
    flux_sum = np.stack([mnL + mnR,
                         UL[..., 1] * unL + UR[..., 1] * unR + ps * nx,
                         UL[..., 2] * unL + UR[..., 2] * unR + ps * ny,
                         (UL[..., 3] + pL) * unL + (UR[..., 3] + pR) * unR], axis=-1)
    return 0.5 * flux_sum - (0.5 * np.maximum(sL, sR))[..., None] * (UR - UL)


def _stacked_roe(UL, UR, nx, ny):
    # on _stacked_rusanov's flux sum, from its sides' normal velocities and
    # pressures: the Roe averages of u, v and H from m / sqrt(rho) and
    # (E + p) / sqrt(rho), the shear wave from the jump of the tangential
    # velocity (m2 nx - m1 ny) / rho, and half of each wave's |lam| alpha
    # times its stacked eigenvector subtracted in turn
    def side(U):
        rho, m1, m2, E = (U[..., k] for k in range(4))
        un = (m1 * nx + m2 * ny) / rho
        return un, (GAMMA_GAS - 1.0) * (E - 0.5 * (m1 * m1 + m2 * m2) / rho)
    (unL, pL), (unR, pR) = side(UL), side(UR)
    ps = pL + pR
    flux_sum = np.stack([(UL[..., 1] * nx + UL[..., 2] * ny) + (UR[..., 1] * nx + UR[..., 2] * ny),
                         UL[..., 1] * unL + UR[..., 1] * unR + ps * nx,
                         UL[..., 2] * unL + UR[..., 2] * unR + ps * ny,
                         (UL[..., 3] + pL) * unL + (UR[..., 3] + pR) * unR], axis=-1)
    rhoL, rhoR = UL[..., 0], UR[..., 0]
    sqL, sqR = np.sqrt(rhoL), np.sqrt(rhoR)
    u = (UL[..., 1] / sqL + UR[..., 1] / sqR) / (sqL + sqR)
    v = (UL[..., 2] / sqL + UR[..., 2] / sqR) / (sqL + sqR)
    H = ((UL[..., 3] + pL) / sqL + (UR[..., 3] + pR) / sqR) / (sqL + sqR)
    nx = np.broadcast_to(nx, u.shape)
    ny = np.broadcast_to(ny, u.shape)
    q2 = u * u + v * v
    a2 = (GAMMA_GAS - 1.0) * (H - 0.5 * q2)
    a = np.sqrt(np.maximum(a2, 1e-300))
    un, ut = u * nx + v * ny, v * nx - u * ny
    dp = pR - pL
    dut = (UR[..., 2] * nx - UR[..., 1] * ny) / rhoR - (UL[..., 2] * nx - UL[..., 1] * ny) / rhoL
    eps = 0.05 * a
    fix = lambda l: np.where(l < eps, (l * l / eps + eps) * 0.5, l)
    lam = [fix(np.abs(un - a)), np.abs(un), fix(np.abs(un + a)), np.abs(un)]
    rho_roe = sqL * sqR
    alpha = [(dp - rho_roe * a * (unR - unL)) / (2.0 * a2), (rhoR - rhoL) - dp / a2,
             (dp + rho_roe * a * (unR - unL)) / (2.0 * a2), rho_roe * dut]
    one = np.ones_like(u)
    K = [np.stack([one, u - a * nx, v - a * ny, H - a * un], axis=-1),
         np.stack([one, u, v, 0.5 * q2], axis=-1),
         np.stack([one, u + a * nx, v + a * ny, H + a * un], axis=-1),
         np.stack([np.zeros_like(u), -ny, nx, ut], axis=-1)]
    F = 0.5 * flux_sum
    for l, al, k in zip(lam, alpha, K):
        F = F - (0.5 * l * al)[..., None] * k
    return F


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


def test_one_pressure_rule():
    # conserved_to_primitive, the Riemann solvers' _normal_state and the
    # pressure plane FR rhs fills state one rule, bit for bit, in both
    # memory layouts.  The velocity form (gamma - 1)(E - rho (u^2 + v^2) / 2)
    # differed in the last bit on 299 of these 1 000 states
    rng = np.random.default_rng(3)
    shape = (40, 5, 5)
    U = primitive_to_conserved(rng.uniform(0.3, 2.0, shape), rng.normal(0.0, 1.5, shape),
                               rng.normal(0.0, 1.5, shape), rng.uniform(0.3, 2.0, shape))
    solver = FREulerSolver2D(uniform_quad_mesh(5, 8, 10.0), p=4)
    for V in (U, np.ascontiguousarray(U.T).T):
        p = conserved_to_primitive(V)[3]
        assert np.array_equal(euler2d._normal_state(V, 0.6, 0.8)[2], p)
        # random point states need not give physical face traces; only the
        # pressure plane, filled before the traces, is read here
        with np.errstate(invalid="ignore"):
            solver.rhs(V)
        assert np.array_equal(solver._p, p)


def _face_views(kind, rng):
    """Left and right states and unit normals in the layouts the solvers
    hand to a Riemann solver: FR's traces are (ne, q, 4) slots of an
    element-fastest buffer with one normal per face, (ne, 1); FV's are
    (cells, 4) rows of variable planes with one normal per cell."""
    def fill(V, shape):
        V[...] = primitive_to_conserved(
            rng.uniform(0.3, 2.0, shape), rng.normal(0.0, 1.5, shape),
            rng.normal(0.0, 1.5, shape), rng.uniform(0.3, 2.0, shape))
        return V
    if kind == "fr":
        ne, q = 96, 5
        UL, UR = (fill(np.empty((4, q, 2, ne)).T[:, 1], (ne, q)) for _ in range(2))
        theta = rng.uniform(0.0, 2.0 * np.pi, (ne, 1))
    else:
        cells = 500
        UL, UR = (fill(np.empty((4, cells)).T, (cells,)) for _ in range(2))
        theta = rng.uniform(0.0, 2.0 * np.pi, cells)
    return UL, UR, np.cos(theta), np.sin(theta)


@pytest.mark.parametrize("kind", ["fr", "fv"])
def test_rusanov_is_the_textbook_flux(kind):
    # 0.5 (FL + FR) - 0.5 smax (UR - UL) from the primitive variables, to
    # 1e-14 of the size of its terms
    UL, UR, nx, ny = _face_views(kind, np.random.default_rng(33))
    FL, FR = euler_normal_flux(UL, nx, ny), euler_normal_flux(UR, nx, ny)
    smax = np.maximum(*(np.abs(u * nx + v * ny) + np.sqrt(GAMMA_GAS * p / rho)
                        for rho, u, v, p in map(conserved_to_primitive, (UL, UR))))
    want = 0.5 * (FL + FR) - 0.5 * smax[..., None] * (UR - UL)
    terms = 0.5 * (np.abs(FL) + np.abs(FR)) + 0.5 * smax[..., None] * np.abs(UR - UL)
    assert np.all(np.abs(rusanov_flux(UL, UR, nx, ny) - want) <= 1e-14 * terms)


@pytest.mark.parametrize("flux", [rusanov_flux, roe_flux])
@pytest.mark.parametrize("kind", ["fr", "fv"])
def test_flux_kernels_write_into_out(kind, flux):
    # the solvers hand the kernel a slot of their face buffer: it is filled
    # and returned, bit for bit the allocating call, and nothing else moves
    UL, UR, nx, ny = _face_views(kind, np.random.default_rng(34))
    before = UL.copy(), UR.copy()
    out = np.empty(UL.shape[::-1]).T
    assert flux(UL, UR, nx, ny, out=out) is out
    assert np.array_equal(out, flux(UL, UR, nx, ny))
    assert np.array_equal(UL, before[0]) and np.array_equal(UR, before[1])


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
    # an extent of 0 once gave NaN fields through the % extent wrap, and a
    # NaN strength or radius NaN fields everywhere; each is rejected by name
    for name in ("strength", "radius", "extent"):
        for value in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"vortex {name} must be a "
                               f"positive finite number, got {value}"):
                ICVParams(**{name: value})


def test_icv_rejects_non_finite_stream_and_centre():
    # a NaN or infinite free stream or centre once projected a non-finite
    # state, and run_icv then blamed the time step; zero and negative
    # values stay valid
    bad = float("nan"), float("inf"), -float("inf")
    for value in bad:
        for name, kwargs in (("u_inf", dict(u_inf=value)), ("v_inf", dict(v_inf=value)),
                             ("centre[0]", dict(centre=(value, 5.0))),
                             ("centre[1]", dict(centre=(5.0, value)))):
            with pytest.raises(ValueError, match=rf"vortex {re.escape(name)} must be "
                               f"a finite number, got {value}"):
                ICVParams(**kwargs)
    pr = ICVParams(u_inf=0.0, v_inf=-1.0, centre=(0.0, -2.0))
    assert all(np.all(np.isfinite(f)) for f in icv_primitive(np.arange(5.0), 1.0, 0.3, pr))


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
    X = np.stack(mesh.corner_planes(), axis=-1)     # (4 corners, n_elem, 2)
    lo = X.min(axis=0)[:, None, None, :]
    hi = X.max(axis=0)[:, None, None, :]
    assert np.all(solver.x >= lo - 1e-12) and np.all(solver.x <= hi + 1e-12)
    assert np.all(solver.detJ > 0)
    # the shortest edge over its p+1 points, bit for bit
    edges = np.linalg.norm(np.roll(X, -1, axis=0) - X, axis=-1)
    assert solver.length_scale == float(edges.min()) / 4


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
    bad = QuadMesh2D(nodes=nodes, nx=3, ny=3, L=L)
    with pytest.raises(ValueError, match="tangled"):
        make(bad)


@pytest.mark.parametrize("metrics", ["curvilinear", "exact"])
def test_fv_rejects_tangled_mesh(metrics):
    # the finite-volume solver checks the corners it builds its cells from:
    # one draw of jitter 0.95 with no redraw tangles cells of the non-square
    # mesh, moving one node onto or past its north-east neighbour inverts
    # or collapses a cell, and each is refused; the redrawn mesh is not
    from frwave.mesh2d import QuadMesh2D, _corner_jacobians
    mesh = uniform_quad_mesh(9, 6, 10.0)
    drawn = mesh.nodes.copy()
    interior = drawn.reshape(7, 10, 2)[1:-1, 1:-1]
    rng = np.random.Generator(np.random.Philox(key=11))
    interior += 0.95 * np.array([10.0 / 9, 10.0 / 6]) * rng.uniform(-0.5, 0.5, interior.shape)
    moved = []
    for past in (1.0, 1.3):
        nodes = mesh.nodes.copy()
        nodes[2 * 10 + 3] += past * (nodes[3 * 10 + 4] - nodes[2 * 10 + 3])
        moved.append(nodes)
    for nodes in [drawn] + moved:
        bad = QuadMesh2D(nodes=nodes, nx=9, ny=6, L=10.0)
        assert np.any(_corner_jacobians(*bad.corner_planes()) <= 0)
        with pytest.raises(ValueError, match="tangled"):
            FVEulerSolver2D(bad, metrics=metrics)
    FVEulerSolver2D(jitter(mesh, 0.95, seed=11), metrics=metrics)


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
    tau = 0.01 * solver.length_scale / solver.max_signal_speed(U0)
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


@pytest.mark.parametrize("riemann", ["rusanov", "roe"])
def test_fr_work_arrays_carry_nothing_between_calls(riemann):
    # rhs reuses work arrays its solver owns: two states alternated through
    # one solver give, call for call, what a fresh solver gives for each,
    # and an array rhs returned is its own, untouched by the next call
    mesh = jitter(uniform_quad_mesh(5, 4, 10.0), 0.3, seed=28)
    solver = FREulerSolver2D(mesh, p=3, riemann=riemann)
    other = ICVParams(u_inf=-0.5, v_inf=1.5, centre=(3.0, 6.0))
    states = [solver.project(icv_primitive),
              solver.project(lambda x, y, t: icv_primitive(x, y, t, other))]
    fresh = [FREulerSolver2D(mesh, p=3, riemann=riemann).rhs(U) for U in states]
    assert not np.array_equal(*fresh)
    results = [solver.rhs(states[k % 2]) for k in range(4)]
    for k, R in enumerate(results):
        assert np.array_equal(R, fresh[k % 2])
    assert not any(np.shares_memory(R, S) for k, R in enumerate(results) for S in results[k + 1:])


def _riemann_calls(solver, U):
    """The number of face states in each Riemann call of solver.rhs(U)."""
    calls, riemann = [], solver.riemann

    def counted(UL, UR, nx, ny, out=None):
        calls.append(len(UL))
        return riemann(UL, UR, nx, ny, out=out)

    solver.riemann = counted
    solver.rhs(U)
    return calls


@pytest.mark.parametrize("p", [1, 4])
def test_riemann_calls_per_rhs(p):
    # the element solver solves the p+1 points of every element's east and
    # north faces in one call; the finite-volume solver makes one east and
    # one north call per face block (57 + 2 grid rows of 71 cells)
    mesh = _multi_block_mesh()
    fr = FREulerSolver2D(mesh, p=p)
    assert _riemann_calls(fr, fr.project(icv_primitive)) == [2 * (p + 1) * mesh.n_elements]
    fv = FVEulerSolver2D(mesh)
    assert _riemann_calls(fv, fv.project(icv_primitive)) == [57 * 71] * 2 + [2 * 71] * 2


@pytest.mark.parametrize("riemann", ["rusanov", "roe"])
@pytest.mark.parametrize("p", [2, 4])
def test_fr_state_is_element_fastest(p, riemann):
    # the state keeps its (element, xi, eta, variable) shape with the axes
    # in reverse memory order through project, rhs and a step of the march
    solver = FREulerSolver2D(jitter(uniform_quad_mesh(5, 4, 10.0), 0.3, seed=28),
                             p=p, riemann=riemann)
    U = solver.project(icv_primitive)
    R = solver.rhs(U)
    tau = 0.01 * solver.length_scale / solver.max_signal_speed(U)
    for state in (U, R, advance(solver, U, tau, "RK44", 1)):
        assert state.shape == (20, p + 1, p + 1, 4)
        assert state.strides[0] == state.itemsize == min(state.strides)
        assert state.strides[3] == max(state.strides)
    # the layout is for speed only: a C-ordered state gives the same values
    assert np.array_equal(solver.rhs(np.ascontiguousarray(U)), R)


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


def test_fv_rejects_unknown_metric_mode():
    with pytest.raises(ValueError, match="unknown metric mode 'bogus'"):
        FVEulerSolver2D(uniform_quad_mesh(4, 4, 10.0), metrics="bogus")


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


def test_fv_curvilinear_face_vectors_are_centroid_steps():
    # element j*nx + i steps east to j*nx + (i+1) % nx and north to
    # ((j+1) % ny)*nx + i; a step across the periodic seam gains L.  The
    # solver shifts its centroid grid; the reference gathers through the
    # neighbour tables with np.take
    for nx, ny, seed in ((7, 5, 4), (12, 7, 11)):
        mesh = jitter(uniform_quad_mesh(nx, ny, 10.0), 0.3, seed=seed)
        solver = FVEulerSolver2D(mesh, metrics="curvilinear")
        j, i = np.divmod(np.arange(nx * ny), nx)
        c = solver.x
        east, _, north, _ = _explicit_neighbours(mesh)
        east = np.take(c, east, axis=0)
        east[i == nx - 1, 0] += mesh.L
        north = np.take(c, north, axis=0)
        north[j == ny - 1, 1] += mesh.L
        for n, got in zip((east - c, north - c), solver.faces):
            s = np.linalg.norm(n, axis=-1)
            for expect, value in zip((s, n[:, 0] / s, n[:, 1] / s), got):
                assert np.array_equal(value, expect)


@pytest.mark.parametrize("metrics", ["curvilinear", "exact"])
def test_fv_cell_geometry_is_the_plane_reference(metrics):
    # the solver builds its areas, centroids and diagonals corner by corner;
    # the reference takes them from whole (4, n) corner planes, each sum
    # over the corners added left to right, and agrees bit for bit
    for mesh in (jitter(uniform_quad_mesh(12, 7, 10.0), 0.45, seed=11),
                 _multi_block_mesh()):
        solver = FVEulerSolver2D(mesh, metrics=metrics)
        x, y = mesh.corner_planes()
        nxt = [1, 2, 3, 0]
        total = lambda a: a[0] + a[1] + a[2] + a[3]
        cross = x * y[nxt] - x[nxt] * y
        area = 0.5 * total(cross)
        centroid = np.stack([total((x + x[nxt]) * cross) / (6.0 * area),
                             total((y + y[nxt]) * cross) / (6.0 * area)], axis=-1)
        diagonals = np.linalg.norm(np.stack([x[2:] - x[:2], y[2:] - y[:2]], axis=-1), axis=-1)
        assert np.array_equal(solver.area, area)
        assert np.array_equal(solver.x, centroid)
        assert solver.length_scale == float(diagonals.max(axis=0).min())


@pytest.mark.parametrize("riemann", ["rusanov", "roe"])
@pytest.mark.parametrize("metrics", ["curvilinear", "exact"])
def test_fv_conservation_of_invariants(metrics, riemann):
    # every face flux leaves one cell and enters its neighbour, so the
    # area-weighted totals hold to rounding on any mesh and metric
    mesh = jitter(uniform_quad_mesh(8, 8, 10.0), 0.3, seed=26)
    solver = FVEulerSolver2D(mesh, riemann=riemann, metrics=metrics)
    U0 = solver.project(lambda x, y, t: icv_primitive(x, y, t))
    total0 = solver.area @ U0
    tau = 0.2 * solver.length_scale / solver.max_signal_speed(U0)
    U = advance(solver, U0, tau, "RK44", 200)
    assert np.max(np.abs(U - U0)) > 1e-2       # the state really moved
    total = solver.area @ U
    assert np.max(np.abs(total - total0) / np.abs(total0)) < 1e-12


@pytest.mark.parametrize("riemann", ["rusanov", "roe"])
def test_fv_state_is_element_fastest(riemann):
    # the state keeps its (cell, variable) shape with the cell axis fastest
    # through project, rhs and a step of the march
    solver = FVEulerSolver2D(jitter(uniform_quad_mesh(7, 5, 10.0), 0.3, seed=28),
                             riemann=riemann)
    U = solver.project(icv_primitive)
    R = solver.rhs(U)
    tau = 0.2 * solver.length_scale / solver.max_signal_speed(U)
    for state in (U, R, advance(solver, U, tau, "RK44", 1)):
        assert state.shape == (35, 4)
        assert state.strides == (state.itemsize, 35 * state.itemsize)
    # the layout is for speed only: a C-ordered state gives the same values
    assert np.array_equal(solver.rhs(np.ascontiguousarray(U)), R)


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
    (s_e, nx_e, ny_e), (s_n, nx_n, ny_n) = solver.faces
    FE = s_e[:, None] * flux(UE, UW[east], nx_e, ny_e)
    FN = s_n[:, None] * flux(UN, US[north], nx_n, ny_n)
    return -(((FE + FN) - FE[west]) - FN[south]) / solver.area[:, None]


def _tensordot_along(M, X, axis):
    return np.moveaxis(np.tensordot(M, X, axes=(1, axis)), 0, axis)


def _fr_face_fluxes(solver, U, flux):
    """Transformed fluxes at the solution points and the common fluxes on
    the west, east, south and north faces, neighbours by index arithmetic."""
    east, west, north, south = _explicit_neighbours(solver.mesh)
    m1, m2, T = solver.m1, solver.m2, solver.T
    Fh = euler_normal_flux(U, m1[..., 0], m1[..., 1])
    Gh = euler_normal_flux(U, m2[..., 0], m2[..., 1])
    UW, UE = np.moveaxis(_tensordot_along(T, U, 1), 1, 0)
    US, UN = np.moveaxis(_tensordot_along(T, U, 2), 2, 0)
    (s_e, nx_e, ny_e), (s_n, nx_n, ny_n) = solver.faces
    FE = s_e[..., None] * flux(UE, UW[east], nx_e, ny_e)
    GN = s_n[..., None] * flux(UN, US[north], nx_n, ny_n)
    return Fh, Gh, FE[west], FE, GN[south], GN


def _fused(M, fluxes):
    """M applied along each axis to [Fhat; Fc], the transformed flux at the
    points stacked on the common fluxes on the two faces (_fr_face_fluxes)."""
    Fh, Gh, FW, FE, GS, GN = fluxes
    return (_tensordot_along(M, np.concatenate([Fh, FW[:, None], FE[:, None]], axis=1), 1)
            + _tensordot_along(M, np.concatenate([Gh, GS[:, :, None], GN[:, :, None]], axis=2), 2))


def _fr_reference(solver, U, flux):
    """The fused form, one operator M = [D - H T | H] per axis."""
    e = solver.element
    T, H = np.stack([e.ll, e.lr]), np.stack([e.hl, e.hr], axis=1)
    div = _fused(np.hstack([e.D - H @ T, H]), _fr_face_fluxes(solver, U, flux))
    return -div / solver.detJ[..., None]


def _fr_separate_reference(solver, U, flux):
    """The separate form D Fhat + H (Fc - T Fhat) along each axis, the
    residual as the scheme is written; rounds differently from the fused one."""
    Fh, Gh, FW, FE, GS, GN = _fr_face_fluxes(solver, U, flux)
    e = solver.element
    D, T, H = e.D, np.stack([e.ll, e.lr]), np.stack([e.hl, e.hr], axis=1)
    Fc, Gc = np.stack([FW, FE], axis=1), np.stack([GS, GN], axis=2)
    div = (_tensordot_along(D, Fh, 1) + _tensordot_along(H, Fc - _tensordot_along(T, Fh, 1), 1)
           + _tensordot_along(D, Gh, 2) + _tensordot_along(H, Gc - _tensordot_along(T, Gh, 2), 2))
    return -div / solver.detJ[..., None]


def _assert_rhs_is_reference(mesh, p, riemann):
    flux = {"rusanov": rusanov_flux, "roe": roe_flux}[riemann]
    vortex = lambda x, y, t: icv_primitive(x, y, t)
    for metrics in ("curvilinear", "exact"):
        fv = FVEulerSolver2D(mesh, riemann=riemann, metrics=metrics)
        U = fv.project(vortex)
        assert np.array_equal(fv.rhs(U), _fv_reference(fv, U, flux))
    fr = FREulerSolver2D(mesh, p=p, riemann=riemann)
    U = fr.project(vortex)
    assert np.array_equal(fr.rhs(U), _fr_reference(fr, U, flux))


def _multi_block_mesh():
    """Jittered non-square mesh that spans more than one of the
    finite-volume solver's face blocks, the last one ragged: blocks of
    _FACE_BLOCK // nx whole grid rows (59 = 57 + 2 rows of 71 cells).  The
    element solver solves all its faces in one call; at 71 x 59 it
    is a large-mesh check against the reference."""
    nx = math.isqrt(_FACE_BLOCK) + 7
    ny = _FACE_BLOCK // nx + 2
    grid_rows = _FACE_BLOCK // nx
    assert ny > grid_rows and ny % grid_rows
    return jitter(uniform_quad_mesh(nx, ny, 10.0), 0.3, seed=27)


@pytest.mark.parametrize("riemann", ["rusanov", "roe"])
def test_rhs_neighbours_on_non_square_mesh(riemann):
    # with nx != ny an east/north (x/y) mix-up in the neighbour reads moves
    # the result; the reference reads every neighbour by index arithmetic.
    # With nx = 2 a cell's east and west neighbours are one cell, so a ghost
    # column or seam wrap taken from the wrong side shows too
    _assert_rhs_is_reference(jitter(uniform_quad_mesh(7, 5, 10.0), 0.3, seed=27),
                             3, riemann)
    _assert_rhs_is_reference(jitter(uniform_quad_mesh(2, 3, 10.0), 0.3, seed=3),
                             2, riemann)


@pytest.mark.parametrize("riemann", ["rusanov", "roe"])
def test_rhs_across_face_blocks(riemann):
    # the finite-volume faces are solved block by block of grid rows; the
    # references solve them all at once, so any row a block boundary drops
    # or misreads shows.  The element solver has no blocks and is checked
    # here on a large mesh
    _assert_rhs_is_reference(_multi_block_mesh(), 1, riemann)


@pytest.mark.parametrize("riemann", ["rusanov", "roe"])
def test_rhs_with_one_grid_row_per_face_block(riemann, monkeypatch):
    # every block is one grid row, so every cell's south flux is the north
    # row carried from the block before, and row 0's the last block's,
    # carried across the seam after the loop
    monkeypatch.setattr(euler2d, "_FACE_BLOCK", 1)
    _assert_rhs_is_reference(jitter(uniform_quad_mesh(7, 5, 10.0), 0.3, seed=27),
                             2, riemann)


@pytest.mark.parametrize("riemann", ["rusanov", "roe"])
def test_rhs_where_ghost_rows_wrap_twice(riemann):
    # with ny = 2 a block's rows j0-1 .. j1+1 are grid rows 1, 0, 1, 0: the
    # padded block reads each grid row twice
    _assert_rhs_is_reference(jitter(uniform_quad_mesh(5, 2, 10.0), 0.3, seed=3),
                             2, riemann)


def _traced_peak(fn):
    """Peak of numpy's traced allocations while fn runs, above what was
    traced before, in bytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("metrics", ["curvilinear", "exact"])
def test_fv_set_up_and_rhs_memory(metrics):
    # tracemalloc counts numpy's data allocations exactly, unlike the
    # resident size.  At 400^2 the state is 5.12 MB.  The set-up builds its
    # geometry corner by corner and rhs sums block by block: measured 4.5
    # and 1.4 states (curvilinear and exact alike), where the whole-plane
    # set-up and full-size flux planes took 8.7 and 4.6
    mesh = uniform_quad_mesh(400, 400, 10.0)
    state = 4 * mesh.n_elements * 8
    assert _traced_peak(lambda: FVEulerSolver2D(mesh, metrics=metrics)) < 6 * state
    solver = FVEulerSolver2D(mesh, metrics=metrics)
    U = solver.project(icv_primitive)
    assert _traced_peak(lambda: solver.rhs(U)) < 2 * state


def test_fr_set_up_memory():
    # the set-up keeps the geometry, the face tables and rhs's work arrays,
    # one array per role: measured a peak of 6.28 states at 32^2, p = 4
    mesh = jitter(uniform_quad_mesh(32, 32, 10.0), 0.3, seed=5)
    peak = _traced_peak(lambda: FREulerSolver2D(mesh, p=4))
    U = FREulerSolver2D(mesh, p=4).project(icv_primitive)
    assert peak < 8 * U.nbytes


def test_fr_work_arrays_do_not_overlap():
    # each of rhs's work arrays holds one role, so no order of rhs's
    # statements can let one overwrite another
    solver = FREulerSolver2D(uniform_quad_mesh(5, 4, 10.0), p=3)
    work = [solver._traces, solver._face, solver._Fc, solver._un, solver._p,
            solver._eta, solver._padded]
    for i, a in enumerate(work):
        assert not any(np.shares_memory(a, b) for b in work[i + 1:])


def test_fr_rhs_memory():
    # rhs fills work arrays sized once for the mesh, so what a call
    # allocates is its result and the Riemann solver's face temporaries:
    # measured 1.9 states at 32^2, p = 4, where the per-call traces, face
    # states, fluxes and [Fhat; Fc] buffers took 4.55
    solver = FREulerSolver2D(jitter(uniform_quad_mesh(32, 32, 10.0), 0.3, seed=5), p=4)
    U = solver.project(icv_primitive)
    assert _traced_peak(lambda: solver.rhs(U)) < 3 * U.nbytes


def test_fr_rhs_memory_with_roe():
    # roe_flux subtracts each wave's share from the Rusanov flux sum in
    # place, component by component: measured 3.7 states at 32^2, p = 4,
    # where the stacked eigenvectors, wave speeds, dissipation and two side
    # fluxes took 8.37
    solver = FREulerSolver2D(jitter(uniform_quad_mesh(32, 32, 10.0), 0.3, seed=5),
                             p=4, riemann="roe")
    U = solver.project(icv_primitive)
    assert _traced_peak(lambda: solver.rhs(U)) < 6 * U.nbytes


@pytest.mark.parametrize("riemann", ["rusanov", "roe"])
@pytest.mark.parametrize("p", [2, 4])
@pytest.mark.parametrize("mesh", [lambda: jitter(uniform_quad_mesh(7, 5, 10.0), 0.3, seed=27),
                                  _multi_block_mesh], ids=["7x5", "multi-block"])
def test_fr_fused_operator_is_the_separate_form(mesh, p, riemann):
    # rhs applies one operator M = [D - H T | H] per axis; the scheme's
    # separate form D Fhat + H (Fc - T Fhat) sums the same terms in another
    # order, so the two agree to the rounding of those terms, whose
    # magnitude is |M| |[Fhat; Fc]| / detJ.  That is up to 1300 times
    # max|rhs| on the fine multi-block mesh, where the residual is a small
    # difference of large fluxes
    flux = {"rusanov": rusanov_flux, "roe": roe_flux}[riemann]
    solver = FREulerSolver2D(mesh(), p=p, riemann=riemann)
    U = solver.project(icv_primitive)
    terms = (_fused(np.abs(solver.M), map(np.abs, _fr_face_fluxes(solver, U, flux)))
             / solver.detJ[..., None])
    R = solver.rhs(U)
    assert np.all(np.abs(R - _fr_separate_reference(solver, U, flux))
                  <= 8 * np.finfo(float).eps * terms)


@pytest.mark.parametrize("riemann", ["rusanov", "roe"])
def test_fv_conservative_across_face_blocks(riemann):
    # a face whose two cells sit in different blocks still gives one flux,
    # added to one cell and subtracted from the other
    solver = FVEulerSolver2D(_multi_block_mesh(), riemann=riemann)
    dU = solver.rhs(solver.project(icv_primitive))
    assert np.all(np.abs(solver.area @ dU) <= 1e-12 * (solver.area @ np.abs(dU)))


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


@pytest.mark.parametrize("shape", [(60, 4), (12, 5, 5, 4)], ids=["fv", "fr"])
@pytest.mark.parametrize("layout", ["element-fastest", "C"])
def test_error_norm_is_the_contiguous_difference(shape, layout):
    # the difference is written into a C-ordered buffer in one pass; theta
    # and the per-variable RMS are bit for bit those of the copy of the
    # difference taken row by row
    rng = np.random.default_rng(5)
    a, b = (rng.standard_normal(shape) for _ in range(2))
    if layout == "element-fastest":
        a, b = (np.asfortranarray(v) for v in (a, b))
    diff = np.ascontiguousarray((a - b).reshape(-1, 4))
    rep = error_norm(a, b)
    assert rep.theta == float(np.mean(np.linalg.norm(diff, axis=1)))
    assert np.array_equal(rep.per_variable, np.sqrt(np.mean(diff ** 2, axis=0)))
    assert rep.dof == diff.shape[0]


def test_error_norm_memory():
    # the difference is squared in place and both norms sum those squares:
    # measured 1.25 states at 400^2, where the two norms' own squares took 2.5
    rng = np.random.default_rng(6)
    a, b = (np.asfortranarray(rng.standard_normal((160000, 4))) for _ in range(2))
    assert _traced_peak(lambda: error_norm(a, b)) < 1.5 * a.nbytes


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
    # a slope through one repeated resolution is not defined
    with pytest.raises(ValueError, match="two distinct resolutions"):
        ooa([ErrorReport(theta=t, per_variable=np.zeros(4), dof=16)
             for t in (1e-2, 2e-2)])


def test_dof_counts_solution_points():
    # (p+1)^2 points per element for FR, one per cell for FV
    mesh = uniform_quad_mesh(4, 3, 10.0)
    assert FREulerSolver2D(mesh, 2).dof == 108
    assert FVEulerSolver2D(mesh).dof == 12


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
