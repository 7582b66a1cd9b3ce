"""Acceptance gate: one test per published-behaviour criterion.

Each test prints a single PASS/FAIL line (visible with -v / -rA) and
asserts the stated tolerance.  Tolerances are frozen here; nothing is
calibrated at run time.
"""

import math
import time

import numpy as np
import pytest

from frwave.element import gauss_points, gauss_weights, reference_element
from frwave.spectral import (SAMPLED, build_operator, dispersion_curve,
                             modified_phase_velocity)
from frwave.stability import advance, cfl_limit, wave_symbols
from frwave.advect1d import (PENCIL, TRANSIT, FDAdvection1D,
                             FRAdvection1D, bin_wavenumbers, build_grid,
                             matched_point_expansion, wave_transfer_function)
from frwave.mesh2d import jitter, jitter_factor_for_skew, skew_angle, \
    uniform_quad_mesh
from frwave.euler2d import (FREulerSolver2D, FVEulerSolver2D, error_norm,
                            icv_primitive, ooa, run_icv)

# published CFL limits for the acceptance subset gamma in {0.7, 1.0, 1.3}
PUBLISHED_CFL = {
    ("RK33", 3): {0.7: 0.519, 1.0: 0.448, 1.3: 0.424},
    ("RK33", 4): {0.7: 0.284, 1.0: 0.254, 1.3: 0.239},
    ("RK33", 5): {0.7: 0.183, 1.0: 0.167, 1.3: 0.159},
    ("RK44", 3): {0.7: 0.592, 1.0: 0.513, 1.3: 0.507},
    ("RK44", 4): {0.7: 0.318, 1.0: 0.288, 1.3: 0.270},
    ("RK44", 5): {0.7: 0.218, 1.0: 0.189, 1.3: 0.179},
    ("RK55", 3): {0.7: 0.702, 1.0: 0.590, 1.3: 0.558},
    ("RK55", 4): {0.7: 0.353, 1.0: 0.332, 1.3: 0.311},
    ("RK55", 5): {0.7: 0.246, 1.0: 0.217, 1.3: 0.204},
}

ICV_STEPS = 500
ICV_CFL = 0.01
JITTER_SEED = 2024


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def computed_cfl_table():
    t0 = time.time()
    table = {}
    symbols = {}    # one symbol solve per (p, gamma), shared by every scheme
    for (scheme, order), row in PUBLISHED_CFL.items():
        for gamma in row:
            key = (order - 1, gamma)
            if key not in symbols:
                symbols[key] = wave_symbols(*key)
            table[(scheme, order, gamma)] = cfl_limit(symbols[key], scheme).cfl_limit
    table["elapsed"] = time.time() - t0
    return table


def test_criterion_01_published_cfl_limits(computed_cfl_table):
    worst = 0.0
    bad = []
    for (scheme, order), row in PUBLISHED_CFL.items():
        for gamma, ref in row.items():
            got = computed_cfl_table[(scheme, order, gamma)]
            rel = abs(got - ref) / ref
            worst = max(worst, rel)
            if rel >= 0.05:
                bad.append(f"{scheme}/o{order}/g{gamma}: {got:.4f} vs {ref}")
    elapsed = computed_cfl_table["elapsed"]
    ok = not bad and elapsed < 300.0
    report(1, ok, f"27 entries, worst {worst:.2%}, {elapsed:.0f}s"
                  + (f", out of tolerance: {bad}" if bad else ""))
    assert not bad, bad
    assert elapsed < 300.0


def test_criterion_02_contraction_raises_the_limit(computed_cfl_table):
    violations = []
    for (scheme, order) in PUBLISHED_CFL:
        a = computed_cfl_table[(scheme, order, 0.7)]
        b = computed_cfl_table[(scheme, order, 1.0)]
        c = computed_cfl_table[(scheme, order, 1.3)]
        if not (a > b > c):
            violations.append(f"{scheme}/o{order}: {a:.3f}, {b:.3f}, {c:.3f}")
    report(2, not violations, f"9 scheme/order rows"
           + (f"; violations: {violations}" if violations else ""))
    assert not violations, violations


def test_criterion_03_consistency_at_low_wavenumber():
    worst = 0.0
    for p in (2, 3, 4, 5):
        for gamma in (0.6, 1.0, 1.6):
            op = build_operator(reference_element(p), gamma)
            c = modified_phase_velocity(op, 0.01 * (p + 1) / op.delta_j).c
            worst = max(worst, abs(c.real - 1.0), abs(c.imag))
            assert abs(c.real - 1.0) < 1e-3, (p, gamma, c)
            assert abs(c.imag) < 1e-3, (p, gamma, c)
    report(3, True, f"p=2..5, gamma in {{0.6,1.0,1.6}}, worst dev {worst:.2e}")


def test_criterion_04_anti_dissipation_on_expansion_only():
    expanding = dispersion_curve(3, 1.2, n_samples=512)
    growth = float(np.max(expanding.c.imag))
    contracting = dispersion_curve(3, 0.8, n_samples=512)
    mask = contracting.k_hat < 0.5 * np.pi
    low_band = float(np.max(contracting.c.imag[mask]))
    ok = growth > 1e-4 and low_band <= 1e-6
    report(4, ok, f"gamma=1.2 max Im c = {growth:.2e}; "
                  f"gamma=0.8 low-band max Im c = {low_band:.2e}")
    assert growth > 1e-4
    assert low_band <= 1e-6


@pytest.mark.parametrize("gamma", [0.9, 1.0, 1.1])
def test_criterion_05_measured_dispersion_matches_analysis(gamma):
    # The analysis normalises per cell, k_hat = k delta_j / (p+1), so the
    # 0.7 pi band must hold in the coarsest cell, not at the mean spacing.
    # Beyond it on a stretched mesh the driven bin spreads over several
    # finite-mesh modes and the pencil returns none of their frequencies.
    # gamma = 0.9 fails honestly inside the band: from 0.375 pi on, the
    # dominant mode of the finite contracting mesh departs from the
    # single-interface analysis by more than the tolerance (measured
    # figures in the README, "Known honest failures").
    t0 = time.time()
    p = 3
    element = reference_element(p)
    grid = build_grid(8, gamma, 1.0)
    solver = FRAdvection1D(grid, element)
    op = build_operator(element, gamma)
    band = 0.7 * np.pi * grid.L / (grid.n_cells * grid.delta.max())
    ks = bin_wavenumbers(1.0, solver.dof, k_hat_max=band)
    coarsest_k_hat = ks.max(initial=0.0) * grid.delta.max() / (p + 1)
    table = wave_transfer_function(solver, ks, cfl=0.01, mode=PENCIL)
    worst, worst_k = 0.0, 0.0
    for k_hat, re in zip(table.k_hat, table.re_k_hat_prime):
        c = modified_phase_velocity(op, k_hat * (p + 1) / op.delta_j).c
        err = abs(re - c.real * k_hat)
        if err > worst:
            worst, worst_k = err, k_hat
    elapsed = time.time() - t0
    n_bins = len(ks)
    enough_bins = n_bins == 11 if gamma == 1.0 else n_bins >= 7
    ok = worst < 0.02 and elapsed < 120.0 and enough_bins
    report(5, ok, f"gamma={gamma}: {n_bins} bins up to "
                  f"khat={band / np.pi:.2f}pi mean "
                  f"({coarsest_k_hat / np.pi:.2f}pi in the coarsest cell), "
                  f"worst |Re khat' - Re(c) khat| = "
                  f"{worst:.4f} at khat={worst_k / np.pi:.2f}pi, {elapsed:.0f}s")
    assert elapsed < 120.0
    assert enough_bins, (gamma, n_bins)
    assert worst < 0.02, (gamma, worst, worst_k)


def _transit_ppw(solver, epsilon=0.01, cfl=0.05, window=0.5):
    """First-crossing points per wavelength from bin-by-bin transit runs."""
    prev_k_hat = None
    m = 1
    while True:
        k = 2.0 * np.pi * m
        k_hat = k * solver.L / solver.dof
        if k_hat > 0.95 * np.pi:
            return 2.0
        table = wave_transfer_function(solver, [k], cfl=cfl, window=window,
                                       mode=TRANSIT)
        err = abs(table.re_k_hat_prime[0] / k_hat - 1.0)
        if err >= epsilon:
            return math.inf if prev_k_hat is None else 2.0 * np.pi / prev_k_hat
        prev_k_hat = k_hat
        m += 1


def test_criterion_06_measured_ppw_orderings():
    t0 = time.time()
    dof = 180
    values = {}
    for p in (2, 3, 4, 5):
        solver = FRAdvection1D(build_grid(dof // (p + 1), 1.0, 1.0),
                               reference_element(p))
        values[p] = _transit_ppw(solver)
    decreasing = values[2] > values[3] > values[4] > values[5]

    fr_fd = {}
    for gamma, cfl in ((1.0, 0.05), (1.2, 0.1)):
        fr = FRAdvection1D(build_grid(45, gamma, 1.0), reference_element(3))
        ppw_fr = _transit_ppw(fr, cfl=cfl)
        gamma_pt = matched_point_expansion(gamma, 4)
        fd = FDAdvection1D(build_grid(dof, gamma_pt, 1.0).x[:-1], 1.0, 4,
                           lf_blend=0.01)
        ppw_fd = _transit_ppw(fd, cfl=cfl)
        fr_fd[gamma] = (ppw_fr, ppw_fd)

    fr_beats_fd = all(fr < fd for fr, fd in fr_fd.values())
    third = fr_fd[1.2][0] <= fr_fd[1.2][1] / 3.0
    elapsed = time.time() - t0
    ok = decreasing and fr_beats_fd and third and elapsed < 60.0
    report(6, ok, f"uniform PPW {[round(values[p], 2) for p in (2, 3, 4, 5)]}; "
                  f"order-4 FR vs FD: g1.0 {fr_fd[1.0]}, g1.2 {fr_fd[1.2]}, "
                  f"{elapsed:.0f}s")
    assert decreasing, values
    assert fr_beats_fd, fr_fd
    assert third, fr_fd
    assert elapsed < 60.0


@pytest.fixture(scope="module")
def icv_uniform_runs():
    t0 = time.time()
    out = {}
    for label, make in (("fv", lambda m: FVEulerSolver2D(m)),
                        ("fr2", lambda m: FREulerSolver2D(m, 2)),
                        ("fr4", lambda m: FREulerSolver2D(m, 4))):
        reports = []
        for n in (8, 16, 32):
            mesh = uniform_quad_mesh(n, n, 10.0)
            reports.append(run_icv(make(mesh), steps=ICV_STEPS, cfl=ICV_CFL))
        out[label] = reports
    out["elapsed"] = time.time() - t0
    return out


def test_criterion_07_uniform_mesh_convergence(icv_uniform_runs):
    orders = {label: ooa(icv_uniform_runs[label])
              for label in ("fv", "fr2", "fr4")}
    elapsed = icv_uniform_runs["elapsed"]
    ok = (abs(orders["fr2"] - 3) <= 0.3 and abs(orders["fr4"] - 5) <= 0.3
          and abs(orders["fv"] - 2) <= 0.3 and elapsed < 600.0)
    report(7, ok, f"OOA fr p2 {orders['fr2']:.2f} (3+-0.3), "
                  f"fr p4 {orders['fr4']:.2f} (5+-0.3), "
                  f"fv {orders['fv']:.2f} (2+-0.3), {elapsed:.0f}s")
    assert abs(orders["fr2"] - 3) <= 0.3, orders
    assert abs(orders["fr4"] - 5) <= 0.3, orders
    assert abs(orders["fv"] - 2) <= 0.3, orders
    assert elapsed < 600.0


def _jittered_mesh(n, alpha, seed):
    mesh = uniform_quad_mesh(n, n, 10.0)
    _, jittered = jitter_factor_for_skew(mesh, alpha, seed, tol=0.15)
    return jittered


def test_criterion_08a_element_solver_order_on_warped_meshes():
    reports = []
    alphas = []
    for n in (8, 16, 32):
        mesh = _jittered_mesh(n, 6.0, JITTER_SEED)
        alphas.append(skew_angle(mesh).alpha)
        reports.append(run_icv(FREulerSolver2D(mesh, 4), steps=ICV_STEPS,
                               cfl=ICV_CFL))
    order = ooa(reports)
    ok = 3.5 <= order <= 4.5
    report("8a", ok, f"FR p=4 at alpha~{np.mean(alphas):.1f} deg: OOA = "
                     f"{order:.2f} (window [3.5, 4.5])")
    assert 3.5 <= order <= 4.5, order


def test_criterion_08b_baseline_collapses_on_warped_meshes():
    reports = []
    for n in (8, 16, 32):
        mesh = _jittered_mesh(n, 6.0, JITTER_SEED)
        reports.append(run_icv(FVEulerSolver2D(mesh), steps=ICV_STEPS,
                               cfl=ICV_CFL))
    order = ooa(reports)
    report("8b", order < 1.0, f"FV at alpha~6 deg: OOA = {order:.2f} (< 1)")
    assert order < 1.0, order


def test_criterion_08c_dof_efficiency_at_matched_time():
    # substitute property: the element solver should reach the baseline's
    # error with >= 100x fewer DoF.  Both solvers are run to the same
    # physical time at CFL 0.01, and the assertion fails honestly.  The
    # error is spatial, and at t = 0.005 both errors are t x truncation:
    # the element solver's saturates in non-propagating modes while the
    # baseline's grows linearly in t, so the measured equal-error ratio
    # here is about 14x (figures in the README, "Known honest failures").
    t_final = 0.005
    fn = lambda x, y, t: icv_primitive(x, y, t)

    fr = FREulerSolver2D(uniform_quad_mesh(16, 16, 10.0), 4)
    U0 = fr.project(fn)
    tau = ICV_CFL * fr.length_scale / fr.max_signal_speed(U0)
    steps = max(1, round(t_final / tau))
    U = advance(fr, U0, t_final / steps, "RK44", steps)
    err_fr = error_norm(U, fr.project(fn, t=t_final)).theta

    fv = FVEulerSolver2D(uniform_quad_mesh(800, 800, 10.0))
    V0 = fv.project(fn)
    tau = ICV_CFL * fv.length_scale / fv.max_signal_speed(V0)
    steps = max(1, round(t_final / tau))
    V = advance(fv, V0, t_final / steps, "RK44", steps)
    err_fv = error_norm(V, fv.project(fn, t=t_final)).theta

    ratio = fv.dof / fr.dof
    ok = err_fr <= err_fv
    report("8c", ok, f"FR 6400 DoF err {err_fr:.2e} vs FV 640000 DoF err "
                     f"{err_fv:.2e} at t={t_final} ({ratio:.0f}x DoF)")
    assert err_fr <= err_fv, (err_fr, err_fv)


def test_criterion_09_property_suite_anchors():
    # basis identities
    for p in (2, 4, 6):
        e = reference_element(p)
        assert np.max(np.abs(e.D @ np.ones(p + 1))) < 1e-12
        coeffs = np.arange(1.0, p + 2)
        nodal = np.polynomial.polynomial.polyval(e.xi, coeffs)
        assert abs(e.ll @ nodal
                   - np.polynomial.polynomial.polyval(-1.0, coeffs)) < 1e-10

    # free-stream preservation on a jittered mesh
    mesh = jitter(uniform_quad_mesh(6, 6, 10.0), 0.3, seed=77)
    solver = FREulerSolver2D(mesh, 4)
    ones = lambda x, y, t: (np.ones_like(x),) * 4
    free_stream_rhs = float(np.max(np.abs(solver.rhs(solver.project(ones)))))
    assert free_stream_rhs < 1e-11

    # conservation over 1000 steps of 1D transport
    e = reference_element(3)
    grid = build_grid(16, 1.2, 1.0)
    s1d = FRAdvection1D(grid, e)
    u0 = 1.0 + np.sin(2 * np.pi * 3 * s1d.coords)
    w = gauss_weights(3)
    u = advance(s1d, u0, 0.01 * s1d.min_spacing, "RK44", 1000)
    drift = abs(np.sum(grid.jacobian[:, None] * w * u)
                - np.sum(grid.jacobian[:, None] * w * u0))
    assert drift < 1e-10

    # determinism of seeded meshes
    a = jitter(uniform_quad_mesh(9, 9, 1.0), 0.25, seed=4)
    b = jitter(uniform_quad_mesh(9, 9, 1.0), 0.25, seed=4)
    assert np.array_equal(a.nodes, b.nodes)

    # rotation invariance of the skew metric
    base = skew_angle(a).alpha
    th = np.radians(63.0)
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    from frwave.mesh2d import QuadMesh2D
    rotated = QuadMesh2D(nodes=a.nodes @ R.T, nx=a.nx, ny=a.ny, L=a.L)
    assert abs(skew_angle(rotated).alpha - base) < 1e-12

    report(9, True, f"basis/free-stream ({free_stream_rhs:.1e})/conservation "
                    f"({drift:.1e})/determinism/rotation all hold")
