import re
from types import SimpleNamespace

import numpy as np
import pytest

from frwave.element import reference_element
from frwave.spectral import WEIGHTED, SemiDiscreteOperator, build_operator
from frwave import stability
from frwave.stability import (EXCEEDS_UNITY, SHARP_INCREASE, BisectionError,
                              advance, cfl_limit, spectral_radii,
                              update_matrix, wave_symbols)


def test_unknown_scheme_rejected():
    # a scheme is its name; every entry point rejects an unknown one
    decay = SimpleNamespace(rhs=lambda u: -u)
    calls = [lambda: update_matrix(np.eye(2), 0.1, "RK99"),
             lambda: advance(decay, np.ones(2), 0.1, "RK99", 1),
             lambda: spectral_radii(wave_symbols(2, 1.0), "RK99", 0.1),
             lambda: cfl_limit(wave_symbols(2, 1.0), "RK99")]
    for call in calls:
        with pytest.raises(ValueError, match="unknown RK scheme 'RK99'"):
            call()


def test_update_matrix_identity_limit():
    rng = np.random.default_rng(5)
    Q = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    R = update_matrix(Q, 1e-12, "RK44")
    assert np.max(np.abs(R - np.eye(4))) < 1e-10
    rho = np.max(np.abs(np.linalg.eigvals(R)))
    assert rho == pytest.approx(1.0, abs=1e-10)


def test_update_matrix_rk33_terms():
    rng = np.random.default_rng(6)
    Q = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    tau = 0.37
    A = tau * Q
    expect = np.eye(3) + A + A @ A / 2 + A @ A @ A / 6
    assert np.allclose(update_matrix(Q, tau, "RK33"), expect, atol=1e-13)


def test_update_matrix_scalar_rk44_amplification():
    lam = 2.2
    tau = 0.31
    z = 1j * tau * lam
    R = update_matrix(np.array([[1j * lam]]), tau, "RK44")
    classical = 1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24
    assert R[0, 0] == pytest.approx(classical, abs=1e-14)


def test_update_matrix_batched_matches_loop():
    rng = np.random.default_rng(7)
    Qs = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    R_batch = update_matrix(Qs, 0.2, "RK55")
    for i in range(5):
        assert np.allclose(R_batch[i], update_matrix(Qs[i], 0.2, "RK55"),
                           atol=1e-13)


def test_update_matrix_rejects_bad_tau():
    with pytest.raises(ValueError):
        update_matrix(np.eye(2), 0.0, "RK44")


# --- radius sweeps -----------------------------------------------------------

def test_contracting_grid_stable_at_small_tau():
    rho = spectral_radii(wave_symbols(2, 0.9), "RK44", 0.05)
    assert np.all(rho <= 1.0 + 1e-12)


def test_expanding_grid_third_order_mixed_bands():
    rho = spectral_radii(wave_symbols(2, 1.1), "RK44", 0.05)
    assert np.min(rho) < 1.0 < np.max(rho)


def test_expanding_grid_fourth_order_unstable_everywhere():
    rho = spectral_radii(wave_symbols(3, 1.1), "RK44", 0.05)
    assert np.all(rho >= 1.0 - 1e-9)


def test_sweep_needs_enough_samples():
    with pytest.raises(ValueError):
        spectral_radii(wave_symbols(2, 1.0, k_samples=32), "RK44", 0.1)
    with pytest.raises(ValueError, match="need at least 128 wavenumber samples, got 127"):
        wave_symbols(2, 1.0, k_samples=127)


def test_sweep_rejects_bad_tau():
    with pytest.raises(ValueError, match="time step must be a positive finite number"):
        spectral_radii(wave_symbols(2, 1.0), "RK44", 0.0)


def test_sweep_rejects_a_time_step_whose_radii_overflow():
    # P(tau lam) overflows to inf at 1e77 and to NaN (inf - inf) at 1e300;
    # 1e60 still gives finite radii
    symbols = wave_symbols(3, 1.0, k_samples=128)
    for tau in (1e77, 1e300):
        with pytest.raises(ValueError, match=re.escape(f"time step {tau} gives spectral "
                                                       "radii that are not finite")):
            spectral_radii(symbols, "RK44", tau)
    assert np.all(np.isfinite(spectral_radii(symbols, "RK44", 1e60)))


@pytest.mark.parametrize("tau", [-0.1, float("nan"), float("inf")],
                         ids=["negative", "nan", "inf"])
def test_time_step_must_be_positive_finite(tau):
    # a NaN step is not the solution's fault, and an infinite one must not
    # give a NaN update matrix: every entry point rejects both by name
    decay = SimpleNamespace(rhs=lambda u: -u)
    calls = [lambda: update_matrix(np.eye(2), tau, "RK44"),
             lambda: advance(decay, np.ones(2), tau, "RK44", 2),
             lambda: spectral_radii(wave_symbols(2, 1.0), "RK44", tau)]
    for call in calls:
        with pytest.raises(ValueError,
                           match=f"time step must be a positive finite number, got {tau}"):
            call()


def _textbook_stage_loop(apply, u, tau, stages):
    """The stage loop as its formula reads, one new array per operation."""
    v = u
    for i in range(stages, 0, -1):
        v = u + (tau / i) * apply(v)
    return v


def _vortex_solvers():
    from frwave.euler2d import FREulerSolver2D, FVEulerSolver2D, icv_primitive
    from frwave.mesh2d import jitter, uniform_quad_mesh
    mesh = jitter(uniform_quad_mesh(6, 5, 10.0), 0.3, seed=29)
    for solver in (FREulerSolver2D(mesh, p=3), FVEulerSolver2D(mesh)):
        yield solver, solver.project(icv_primitive)


def test_in_place_stage_loop_is_the_formula(monkeypatch):
    # the loop scales and adds into what apply returns: every result must be
    # bitwise the formula's, for matrices, symbols and every solver's march
    from frwave.advect1d import FRAdvection1D, build_grid
    rng = np.random.default_rng(8)
    Q = rng.standard_normal((6, 6))
    Qs = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    symbols = wave_symbols(2, 1.1, k_samples=128)
    fr1d = FRAdvection1D(build_grid(9, 1.15, 1.0), reference_element(3))
    x = fr1d.coords.ravel()
    runs = [lambda: update_matrix(Q, 0.3, "RK44"),
            lambda: update_matrix(Qs, 0.2, "RK55"),
            lambda: spectral_radii(symbols, "RK33", 0.4),
            lambda: advance(fr1d, np.sin(2 * np.pi * x), 0.01, "RK44", 3)]
    runs += [lambda s=s, U=U: advance(s, U, 1e-3, "RK44", 2) for s, U in _vortex_solvers()]
    new = [run() for run in runs]
    monkeypatch.setattr(stability, "_stage_loop", _textbook_stage_loop)
    for run, result in zip(runs, new):
        expect = run()
        assert result.dtype == expect.dtype
        assert np.array_equal(result, expect)


def test_stage_loop_keeps_u_under_identity_apply():
    # an apply that returns its argument hands u itself to the first stage
    u = np.array([1.0, -2.0, 3.0])
    kept = u.copy()
    v = stability._stage_loop(lambda v: v, u, 0.5, 4)
    assert np.array_equal(u, kept)
    assert np.array_equal(v, _textbook_stage_loop(lambda v: v, kept, 0.5, 4))


def test_advance_takes_an_integer_state():
    # the stages scale the right-hand side in place, so an integer state and
    # an integer-valued rhs must still march in floating point
    decay = SimpleNamespace(rhs=lambda u: -u)
    for u0 in (np.array([1, 2]), [1, 2]):
        u = advance(decay, u0, 0.1, "RK44", 1)
        assert u.dtype == float
        assert np.array_equal(u, advance(decay, np.array([1.0, 2.0]), 0.1, "RK44", 1))


def _symbols(p, gamma, k_hats):
    """The weighted-closure symbols the stability layer sweeps (delta_j = 1)."""
    op = build_operator(reference_element(p), gamma, delta_j=1.0)
    return op.wave_symbol(k_hats * (p + 1), WEIGHTED)


@pytest.mark.parametrize("p", [2, 3, 4, 5])
@pytest.mark.parametrize("gamma", [0.8, 1.0, 1.2])
def test_sweep_is_the_update_matrix_radius(p, gamma):
    # spectral mapping: max |P(tau lam)| equals the spectral radius of the
    # update matrix P(tau Q) formed and solved directly
    symbols = wave_symbols(p, gamma)
    for scheme in ("RK33", "RK44", "RK55"):
        for tau in (0.05, 0.2):
            rho = spectral_radii(symbols, scheme, tau)
            R = update_matrix(_symbols(p, gamma, symbols.k_hat), tau, scheme)
            expect = np.max(np.abs(np.linalg.eigvals(R)), axis=-1)
            assert np.max(np.abs(rho - expect) / expect) < 1e-12


def test_radius_periodic_in_element_wavenumber():
    # rho depends on k only through exp(-i k delta_j)
    op = build_operator(reference_element(3), 1.1, delta_j=1.0)
    for k in (0.7, 2.9):
        Q1 = op.wave_symbol(k, WEIGHTED)
        Q2 = op.wave_symbol(k + 2 * np.pi / op.delta_j, WEIGHTED)
        r1 = np.max(np.abs(np.linalg.eigvals(update_matrix(Q1, 0.3, "RK44"))))
        r2 = np.max(np.abs(np.linalg.eigvals(update_matrix(Q2, 0.3, "RK44"))))
        assert abs(r1 - r2) < 1e-10


# --- CFL limits --------------------------------------------------------------

def test_cfl_limit_published_spot_values():
    # representative rows of the published table, +-5%
    cases = [
        (3, 1.0, "RK44", 0.288),
        (2, 0.7, "RK33", 0.519),
        (4, 1.3, "RK55", 0.204),
    ]
    for p, gamma, scheme, ref in cases:
        res = cfl_limit(wave_symbols(p, gamma), scheme)
        assert abs(res.cfl_limit - ref) / ref < 0.05


def test_cfl_limit_monotone_in_stage_count():
    symbols = wave_symbols(3, 1.0)
    limits = [cfl_limit(symbols, s).cfl_limit for s in ("RK33", "RK44", "RK55")]
    assert limits[0] < limits[1] < limits[2]


def test_cfl_limit_monotone_in_order():
    limits = [cfl_limit(wave_symbols(p, 1.0), "RK44").cfl_limit for p in (2, 3, 4)]
    assert limits[0] > limits[1] > limits[2]


def test_detection_tag_for_expanding_grid():
    res = cfl_limit(wave_symbols(3, 1.2), "RK44")
    assert res.detection == SHARP_INCREASE
    assert res.cfl_limit > 0


def test_rho_curve_monotone_beyond_limit():
    symbols = wave_symbols(2, 1.0)
    res = cfl_limit(symbols, "RK44")
    Qs = _symbols(2, 1.0, symbols.k_hat)
    gs = []
    for factor in (1.05, 1.2, 1.5):
        R = update_matrix(Qs, factor * res.cfl_limit, "RK44")
        gs.append(np.max(np.abs(np.linalg.eigvals(R))))
    assert gs[0] <= gs[1] <= gs[2]
    assert gs[0] > 1.0


def test_rho_curve_is_the_radii_maximum():
    # each cfl_limit probe is the max of spectral_radii at that CFL, bitwise
    symbols = wave_symbols(3, 1.1)
    for scheme in ("RK33", "RK44", "RK55"):
        for cfl, rho in cfl_limit(symbols, scheme).rho_curve:
            assert rho == np.max(spectral_radii(symbols, scheme, cfl))


def test_rho_curve_recorded():
    res = cfl_limit(wave_symbols(2, 1.0), "RK33")
    assert len(res.rho_curve) > 5
    cfls = [c for c, _ in res.rho_curve]
    assert cfls == sorted(cfls)


def test_cfl_limit_without_boundary_raises(monkeypatch):
    # a zero symbol has eigenvalues 0 and an update P(0) = 1 that never
    # amplifies, which leaves nothing to bracket below CFL 8
    monkeypatch.setattr(SemiDiscreteOperator, "wave_symbol",
                        lambda self, k, closure: np.zeros(np.shape(k) + self.element.C0.shape))
    with pytest.raises(BisectionError,
                       match="no stability boundary below CFL=8 for RK44, p=3, gamma=1.0"):
        cfl_limit(wave_symbols(3, 1.0), "RK44")
