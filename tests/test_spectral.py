import dataclasses
import math
from itertools import accumulate

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from frwave import spectral
from frwave.element import gauss_points, reference_element
from frwave.spectral import (CLOSURES, MIN_SAMPLES, SAMPLED, SEED_KHAT,
                             UNRESOLVABLE, WEIGHTED, EigenSolveError,
                             SemiDiscreteOperator, SpectralCurve,
                             SpectralSample, _assign, _match,
                             build_operator,
                             dispersion_curve, dispersion_samples,
                             fd_modified_wavenumber, filter_kernel,
                             modified_phase_velocity, ppw)

BAD_POSITIVE = (0.0, -1.0, np.nan, np.inf)


@pytest.fixture(scope="module")
def op3():
    return build_operator(reference_element(3), 1.0)


@pytest.fixture
def solved(monkeypatch):
    """The wavenumber of each wave symbol formed from now on, one entry per
    row of every stack."""
    rows = []
    symbol = SemiDiscreteOperator.wave_symbol

    def spy(self, k, closure=SAMPLED):
        rows.extend(np.ravel(k))
        return symbol(self, k, closure)

    monkeypatch.setattr(SemiDiscreteOperator, "wave_symbol", spy)
    return rows


#: rows the tracker solves before its first wavenumber: the seed and the six
#: steps of its ramp
LEAD_ROWS = 7


# --- operator assembly -------------------------------------------------------

def test_operator_matrix_identities():
    # at k = 0 the weighted symbol is -(C0/Jj + Cm1/Jjm1), with the
    # Jacobians Jj = delta_j/2 and Jjm1 = delta_j/(2 gamma)
    for p in (2, 4):
        e = reference_element(p)
        op = build_operator(e, 1.2, delta_j=0.7)
        expect = -(e.C0 / 0.35 + e.Cm1 / (0.7 / (2 * 1.2)))
        assert np.allclose(op.wave_symbol(0.0, WEIGHTED), expect,
                           rtol=1e-14, atol=1e-14)


def test_uniform_unit_jacobians():
    # delta_j = 2 on a uniform grid: both Jacobians are 1, so at k = 0
    # both closures give -(C0 + Cm1) exactly
    e = reference_element(3)
    op = build_operator(e, 1.0, delta_j=2.0)
    for closure in CLOSURES:
        assert np.array_equal(op.wave_symbol(0.0, closure), -(e.C0 + e.Cm1))


def test_wave_symbol_matches_bruteforce_assembly():
    # assemble the one-wave generator column by column from the nodal
    # update rule, with the neighbour eliminated through each closure
    p, gamma, delta = 3, 1.2, 1.0
    e = reference_element(p)
    op = build_operator(e, gamma, delta)
    k = 1.7
    for closure in (SAMPLED, WEIGHTED):
        if closure == WEIGHTED:
            neighbour = np.exp(-1j * k * delta) * np.eye(p + 1)
            jac_up = delta / (2 * gamma)
        else:
            d_up = delta / gamma
            shift = d_up + 0.5 * (e.xi + 1.0) * (delta - d_up)
            neighbour = np.diag(np.exp(-1j * k * shift))
            jac_up = delta / 2.0
        Q = np.zeros((p + 1, p + 1), dtype=complex)
        for m in range(p + 1):
            um = np.zeros(p + 1); um[m] = 1.0
            u_up = neighbour @ um
            rhs = (-(e.D @ um - e.hl * (e.ll @ um)) / (delta / 2.0)
                   - e.hl * (e.lr @ u_up) / jac_up)
            Q[:, m] = rhs
        assert np.max(np.abs(Q - op.wave_symbol(k, closure))) < 1e-13


def test_build_operator_rejects_bad_parameters():
    # an infinite expansion rate once gave a PPW, and a NaN one was blamed
    # on the eigen solve
    e = reference_element(2)
    for bad in BAD_POSITIVE:
        with pytest.raises(ValueError, match="expansion rate must be a positive finite number"):
            build_operator(e, bad)
        with pytest.raises(ValueError, match="cell width must be a positive finite number"):
            build_operator(e, 1.0, delta_j=bad)


def test_unknown_closure_rejected(op3):
    with pytest.raises(ValueError):
        op3.wave_symbol(1.0, "fourier")


# --- modified phase velocity -------------------------------------------------

def test_eigenvalue_count(op3):
    s = modified_phase_velocity(op3, 1.0)
    assert len(s.eigenvalues) == op3.p + 1


def test_consistency_small_k():
    for p in (2, 3, 4, 5):
        op = build_operator(reference_element(p), 1.0)
        s = modified_phase_velocity(op, 0.01 * (p + 1) / op.delta_j)
        assert abs(s.c - 1.0) < 1e-3


def test_normalisation_identity(op3):
    k = 0.3 * np.pi * 4 / op3.delta_j
    s = modified_phase_velocity(op3, k)
    assert s.k_hat == pytest.approx(0.3 * np.pi, rel=1e-12)


def test_uniform_grid_physical_branch_dissipative():
    curve = dispersion_curve(3, 1.0, n_samples=128)
    assert np.max(curve.c.imag) <= 1e-12


def test_expanding_grid_anti_dissipation_band():
    curve = dispersion_curve(3, 1.2, n_samples=256)
    assert np.max(curve.c.imag) > 1e-4


def test_contracting_grid_damped_low_band():
    curve = dispersion_curve(3, 0.8, n_samples=256)
    mask = curve.k_hat < 0.5 * np.pi
    assert np.max(curve.c.imag[mask]) < 1e-6


def test_wavenumber_must_be_positive(op3):
    # NaN and inf once failed in math.ceil with a conversion error
    for k in BAD_POSITIVE:
        with pytest.raises(ValueError, match="wavenumber must be a positive finite number"):
            modified_phase_velocity(op3, k)


@pytest.mark.parametrize("closure", [SAMPLED, WEIGHTED])
@pytest.mark.parametrize("gamma", [0.8, 1.0, 1.2])
@pytest.mark.parametrize("p", [3, 5])
def test_phase_velocity_follows_the_curve_branch(p, gamma, closure):
    # a single-wavenumber query and the tracked curve follow the same branch
    curve = dispersion_curve(p, gamma, n_samples=64, closure=closure)
    op = build_operator(reference_element(p), gamma)
    for s in curve.samples:
        assert modified_phase_velocity(op, s.k, closure).c == s.c, s.k_hat


def test_phase_velocity_upper_band_stays_physical():
    # p=5 at k_hat = 43 pi / 64: the physical branch, not a spurious one
    # near 0.503 - 0.002i
    op = build_operator(reference_element(5), 1.0)
    c = modified_phase_velocity(op, 43 / 64 * np.pi * 6 / op.delta_j).c
    assert abs(c - (1.0194 - 0.3866j)) < 1e-3


def _retracked(op, k, closure):
    """The eigenvalues at k tracked afresh along the seed, its ramp and n
    equal steps up to k, the path modified_phase_velocity took per query
    before operators kept their grid."""
    n = math.ceil(MIN_SAMPLES * k * op.delta_j / (op.p + 1) / np.pi)
    *_, ev = spectral._track(op, np.linspace(k / n, k, n), closure)
    return ev


#: criterion 5's bins at gamma = 1 (p = 3, 8 cells) and one k_hat past pi,
#: whose grid point below it lies past the first MIN_SAMPLES
C5_K_HATS = [2.0 * np.pi * m / 32 for m in range(1, 12)]
PAST_PI = 1.3 * np.pi


@pytest.mark.parametrize("closure", CLOSURES)
@pytest.mark.parametrize("gamma", [0.9, 1.0, 1.1])
def test_phase_velocity_grid_is_tracked_once_per_operator(solved, gamma, closure):
    # one operator answers a sweep in either order with a fresh operator's
    # eigenvalues (and the per-query retrack's), bit for bit, solving its
    # grid of MIN_SAMPLES once and then one row per query
    element = reference_element(3)
    ks = [*C5_K_HATS, PAST_PI]        # delta_j = p + 1, so k = k_hat
    expect = {k: modified_phase_velocity(build_operator(element, gamma), k,
                                         closure).eigenvalues for k in ks}
    for k in ks:
        assert np.array_equal(expect[k], _retracked(build_operator(element, gamma),
                                                    k, closure)), k
    long_grid = math.ceil(MIN_SAMPLES * PAST_PI / np.pi)   # to the point above it
    assert long_grid > MIN_SAMPLES

    def rows(op, queries):
        solved.clear()
        for k in queries:
            got = modified_phase_velocity(op, k, closure).eigenvalues
            assert np.array_equal(got, expect[k]), (k, closure)
        return len(solved)

    forward = build_operator(element, gamma)
    assert rows(forward, ks[:-1]) == LEAD_ROWS + MIN_SAMPLES + len(C5_K_HATS)
    assert rows(forward, ks[-1:]) == LEAD_ROWS + long_grid + 1
    reverse = build_operator(element, gamma)
    assert rows(reverse, ks[:-2:-1]) == LEAD_ROWS + long_grid + 1
    assert rows(reverse, ks[-2::-1]) == len(C5_K_HATS)


def test_operator_is_frozen_and_replace_starts_afresh(solved):
    # a changed gamma or delta_j can only be a new operator, which tracks
    # its own grid
    element = reference_element(3)
    op = build_operator(element, 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        op.gamma = 2.0
    k = 0.5 * np.pi * 4 / op.delta_j
    modified_phase_velocity(op, k)
    solved.clear()
    got = modified_phase_velocity(dataclasses.replace(op, gamma=1.2), k)
    assert len(solved) == LEAD_ROWS + MIN_SAMPLES + 1
    want = modified_phase_velocity(build_operator(element, 1.2), k)
    assert np.array_equal(got.eigenvalues, want.eigenvalues)


def test_eigen_solve_failure_reports_wavenumber(monkeypatch):
    symbol = SemiDiscreteOperator.wave_symbol

    def failing(self, k, closure=SAMPLED):
        Q = symbol(self, k, closure)
        bad = np.asarray(k) * self.delta_j / (self.p + 1) > 0.51 * np.pi
        return np.where(bad[..., None, None], Q * np.nan, Q)

    monkeypatch.setattr(SemiDiscreteOperator, "wave_symbol", failing)
    with pytest.raises(EigenSolveError) as err:
        dispersion_curve(3, 1.0, n_samples=64)
    assert err.value.k_hat == pytest.approx(33 * np.pi / 64, rel=1e-12)


def _scipy_match(prev, ev):
    """Permute ev so entry i continues branch i of prev, by SciPy's
    least-cost assignment."""
    _, cols = linear_sum_assignment(np.abs(prev[:, None] - ev[None, :]))
    return ev[cols]


def _stacked_track(op, ks, closure):
    """The tracker as one stacked solve of every symbol (seed, ramp and ks)
    followed by SciPy's matching, one wavenumber at a time; the reference
    for the tracker's stacks of MIN_SAMPLES and their matching."""
    k_seed = SEED_KHAT * (op.p + 1) / op.delta_j
    ramp = np.geomspace(k_seed, ks[0], 8)[1:-1]
    ks = np.concatenate([[k_seed], ramp, ks])
    seed, *rest = np.linalg.eigvals(1j * op.wave_symbol(ks, closure)
                                    / ks[:, None, None])
    seed = seed[np.argsort(np.abs(seed - 1.0))]
    return list(accumulate(rest, _scipy_match, initial=seed))[1 + len(ramp):]


@pytest.mark.parametrize("closure", CLOSURES)
@pytest.mark.parametrize("p", [3, 5, 8])
def test_stacks_of_min_samples_are_one_stacked_solve(monkeypatch, p, closure):
    # 200 samples: three full stacks and a partial one.  From p = 5 on, some
    # wavenumbers' nearest eigenvalues collide and go through _assign.
    exact = []
    monkeypatch.setattr(spectral, "_assign",
                        lambda cost: exact.append(cost) or _assign(cost))
    for gamma in (0.8, 1.2):
        curve = dispersion_curve(p, gamma, n_samples=200, closure=closure)
        op = build_operator(reference_element(p), gamma)
        expect = _stacked_track(op, curve.k, closure)
        assert len(expect) == len(curve.samples)
        for s, ev in zip(curve.samples, expect):
            assert np.array_equal(s.eigenvalues, ev), (gamma, s.k_hat)
    assert bool(exact) == (p >= 5)


@pytest.mark.parametrize("n", range(1, 10))
def test_assign_is_scipys_assignment(n):
    rng = np.random.default_rng(n)
    rows = np.arange(n)
    for _ in range(50):
        cost = rng.random((n, n))
        assert np.array_equal(_assign(cost), linear_sum_assignment(cost)[1])
        # integer costs tie: any least-cost assignment will do
        cost = rng.integers(0, 4, (n, n)).astype(float)
        cols = _assign(cost)
        assert np.array_equal(np.sort(cols), rows)
        assert cost[rows, cols].sum() == cost[linear_sum_assignment(cost)].sum()


def test_match_solves_colliding_nearest_columns():
    # both 0 and 0.4 are nearest 0.1; the least total distance sends 0.4 to 10
    before = np.array([[0.0, 0.4], [0.0, 0.4]])
    evs = np.array([[0.1, 10.0], [0.5, 0.1]])
    assert _match(before, evs).tolist() == [[0, 1], [1, 0]]


def _array_ppw(curve, epsilon=0.01):
    """The first-crossing rule on the whole curve's arrays."""
    bad = np.nonzero(np.abs(curve.c.real - 1.0) >= epsilon)[0]
    if len(bad) == 0:
        return 2.0 * np.pi / curve.k_hat[-1]
    return UNRESOLVABLE if bad[0] == 0 else 2.0 * np.pi / curve.k_hat[bad[0] - 1]


@pytest.mark.parametrize("n_samples", [64, 512])
def test_streamed_ppw_is_the_curve_ppw(n_samples):
    for p in range(1, 7):
        for gamma in (0.6, 0.8, 1.0, 1.2, 1.6):
            curve = dispersion_curve(p, gamma, n_samples=n_samples)
            streamed = ppw(dispersion_samples(p, gamma, n_samples=n_samples))
            assert streamed == ppw(curve) == _array_ppw(curve), (p, gamma)


# p=2, gamma=0.8, 512 samples: the first sample with |Re c - 1| >= 0.01 is
# index 57.  The seed and its six ramp steps lead the first stack of
# MIN_SAMPLES, so that sample opens the second stack, which ends at index
# 2 * MIN_SAMPLES - 8 = 120.
CROSSING, CROSSING_STACK_END = 57, 2 * MIN_SAMPLES - 8


@pytest.fixture(scope="module")
def p2_curve():
    curve = dispersion_curve(2, 0.8, n_samples=512)
    assert np.nonzero(np.abs(curve.c.real - 1.0) >= 0.01)[0][0] == CROSSING
    return curve


def test_ppw_solves_no_stack_past_its_crossing(solved, p2_curve):
    assert ppw(dispersion_samples(2, 0.8, n_samples=512)) == ppw(p2_curve)
    assert len(solved) == 2 * MIN_SAMPLES
    assert max(solved) == p2_curve.k[CROSSING_STACK_END]


def _nan_symbols_from(monkeypatch, k_hat):
    """Make every wave symbol at or above k_hat NaN."""
    symbol = SemiDiscreteOperator.wave_symbol

    def failing(self, k, closure=SAMPLED):
        Q = symbol(self, k, closure)
        bad = np.asarray(k) * self.delta_j / (self.p + 1) >= k_hat
        return np.where(bad[..., None, None], Q * np.nan, Q)

    monkeypatch.setattr(SemiDiscreteOperator, "wave_symbol", failing)


def test_ppw_ignores_failures_past_its_crossing(monkeypatch, p2_curve):
    # NaN from the first sample past the crossing's stack: that stack is
    # solved whole, so a failure inside it would still be reported
    i = CROSSING_STACK_END + 1
    _nan_symbols_from(monkeypatch, 0.5 * (p2_curve.k_hat[i - 1] + p2_curve.k_hat[i]))
    assert ppw(dispersion_samples(2, 0.8, n_samples=512)) == ppw(p2_curve)
    with pytest.raises(EigenSolveError):
        dispersion_curve(2, 0.8, n_samples=512)


@pytest.mark.parametrize("i", [CROSSING, 30, 1])
def test_ppw_reports_failures_up_to_its_crossing(monkeypatch, p2_curve, i):
    _nan_symbols_from(monkeypatch, 0.5 * (p2_curve.k_hat[i - 1] + p2_curve.k_hat[i]))
    with pytest.raises(EigenSolveError) as err:
        ppw(dispersion_samples(2, 0.8, n_samples=512))
    assert err.value.k_hat == pytest.approx(p2_curve.k_hat[i], rel=1e-12)


def test_eigen_fallback_names_a_non_finite_single_solve(monkeypatch):
    # the stacked solve and the single solve of the second matrix give NaN
    # in place of the eigenvalue 2; the error names that matrix's k_hat
    eigvals = np.linalg.eigvals

    def nan_for_two(a):
        ev = eigvals(a)
        return np.where(ev == 2.0, np.nan, ev)

    monkeypatch.setattr(np.linalg, "eigvals", nan_for_two)
    M = np.stack([s * np.eye(2) for s in (1.0, 2.0, 3.0)])
    with pytest.raises(EigenSolveError, match="non-finite eigenvalues") as err:
        spectral._eigvals(M, [0.1, 0.2, 0.3])
    assert err.value.k_hat == 0.2


def test_eigen_fallback_returns_per_matrix_eigenvalues(monkeypatch):
    # a failed stacked solve whose matrices all solve one by one must give
    # the same curve
    expect = dispersion_curve(3, 1.0, n_samples=64)
    eigvals = np.linalg.eigvals

    def no_stacks(a):
        if np.ndim(a) > 2:
            raise np.linalg.LinAlgError("stacked solve refused")
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", no_stacks)
    curve = dispersion_curve(3, 1.0, n_samples=64)
    for got, want in zip(curve.samples, expect.samples):
        assert np.allclose(got.eigenvalues, want.eigenvalues, rtol=0,
                           atol=1e-12)


# --- curves ------------------------------------------------------------------

def test_curve_sampling_layout():
    curve = dispersion_curve(2, 1.0, n_samples=64)
    assert len(curve.samples) == 64
    assert curve.k_hat[0] == pytest.approx(np.pi / 64)
    assert curve.k_hat[-1] == pytest.approx(np.pi)
    assert np.all(np.diff(curve.k_hat) > 0)


def test_curve_requires_enough_samples():
    with pytest.raises(ValueError):
        dispersion_curve(3, 1.0, n_samples=32)


def test_uniform_dispersion_rises_then_rolls_over():
    curve = dispersion_curve(3, 1.0, n_samples=256)
    re_kp = curve.c.real * curve.k_hat
    peak = np.argmax(re_kp)
    assert 0 < peak < len(re_kp) - 1
    assert re_kp[peak] > re_kp[0] and re_kp[peak] > re_kp[-1]


def test_consistency_at_low_k_all_gammas():
    for gamma in (0.6, 1.0, 1.6):
        curve = dispersion_curve(3, gamma, n_samples=256)
        assert abs(curve.c[0].real - 1.0) < 1e-3
        assert abs(curve.c[0].imag) < 1e-3


def test_reduced_order_correction_degrades_stably():
    # same element, correction polynomial one degree lower: still
    # consistent and dissipative, with visibly worse wave resolution
    full = dispersion_curve(3, 1.0, "huynh-g2", n_samples=128)
    reduced = dispersion_curve(3, 1.0, "reduced-order", n_samples=128)
    assert abs(reduced.c[0] - 1.0) < 1e-3
    assert np.max(reduced.c.imag) < 1e-8
    mid = len(reduced.samples) // 2
    assert reduced.c[mid].imag < full.c[mid].imag < 0
    assert ppw(reduced) > ppw(full)


def test_transformed_flux_closure_brackets_uniform_dispersion():
    # with the Jacobian-weighted closure, contraction undershoots and
    # expansion overshoots the uniform curve in mid-band
    for p in (2, 3, 4, 5):
        vals = {}
        for gamma in (0.8, 1.0, 1.25):
            curve = dispersion_curve(p, gamma, n_samples=128, closure=WEIGHTED)
            i = np.argmin(np.abs(curve.k_hat - np.pi / 2))
            vals[gamma] = curve.c[i].real
        assert vals[0.8] < vals[1.0] < vals[1.25]


def test_mode_tracking_continuity():
    for gamma in (0.8, 1.0, 1.3):
        curve = dispersion_curve(3, gamma, n_samples=256)
        c = curve.c
        steps = np.abs(np.diff(c))
        floor = 10.0 / 256
        for n in range(1, len(steps)):
            assert steps[n] <= 10.0 * max(steps[n - 1], floor)


def test_locality_same_parameters_identical_symbols():
    # the operator depends only on (p, gamma, delta_j): two independent
    # builds give bit-identical wave symbols
    e = reference_element(4)
    a = build_operator(e, 1.1, delta_j=0.37)
    b = build_operator(reference_element(4), 1.1, delta_j=0.37)
    k = 2.31
    assert np.array_equal(a.wave_symbol(k), b.wave_symbol(k))
    assert np.array_equal(a.wave_symbol(k, WEIGHTED), b.wave_symbol(k, WEIGHTED))


@pytest.mark.parametrize("closure", CLOSURES)
def test_wave_symbol_broadcasts_over_wavenumbers(closure):
    # an array of k gives the stack of the per-k symbols, bit for bit
    op = build_operator(reference_element(3), 1.2, delta_j=0.9)
    ks = np.linspace(0.01, 3.5, 12).reshape(3, 4)
    stack = op.wave_symbol(ks, closure)
    assert stack.shape == (3, 4, 4, 4)
    for idx in np.ndindex(ks.shape):
        assert np.array_equal(stack[idx], op.wave_symbol(ks[idx], closure))
    assert op.wave_symbol(float(ks[0, 0]), closure).shape == (4, 4)


# --- filter kernel -----------------------------------------------------------

@pytest.mark.parametrize("p, gamma, t", [(2, 1.0, 1.0), (2, 1.0, 100.0),
                                         (3, 0.8, 100.0)])
def test_kernel_first_sample_is_exactly_one(p, gamma, t):
    _, g = filter_kernel(dispersion_curve(p, gamma), t)
    assert g[0] == 1.0


def test_kernel_normalised_at_resolved_end():
    curve = dispersion_curve(3, 1.0, n_samples=256)
    k_hat, g = filter_kernel(curve, 100.0)
    assert g[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(g <= 1.0 + 1e-12)


def test_kernel_doubling_time_squares():
    curve = dispersion_curve(3, 1.0, n_samples=128)
    _, g1 = filter_kernel(curve, 50.0)
    _, g2 = filter_kernel(curve, 100.0)
    # before renormalisation the kernel is exponential in t; the first
    # sample is the normaliser
    k0 = curve.samples[0].k
    raw1 = g1 * np.exp(50.0 * k0 * curve.samples[0].c.imag)
    raw2 = g2 * np.exp(100.0 * k0 * curve.samples[0].c.imag)
    assert np.allclose(raw2, raw1 ** 2, rtol=1e-10)


def test_kernel_cutoff_diminishing_returns():
    cuts = []
    for p in range(2, 7):
        curve = dispersion_curve(p, 1.0, n_samples=512)
        k_hat, g = filter_kernel(curve, 100.0)
        cuts.append(k_hat[np.nonzero(g < 0.5)[0][0]])
    assert np.all(np.diff(cuts) > 0)          # cutoff moves toward pi
    assert np.all(np.diff(np.diff(cuts)) < 0)  # with shrinking gains


def test_kernel_requires_positive_time():
    # a NaN or infinite time once gave an all-NaN kernel
    curve = dispersion_curve(2, 1.0, n_samples=64)
    for t in BAD_POSITIVE:
        with pytest.raises(ValueError, match="time must be a positive finite number"):
            filter_kernel(curve, t)


@pytest.mark.parametrize("t", [1e8, 1e12])
def test_kernel_rejects_a_time_it_cannot_represent(t):
    # exp(t k Im c) once overflowed (1e8: inf from the second sample on) or
    # underflowed at the normaliser (1e12: NaN at the first sample)
    curve = dispersion_curve(2, 0.8)
    with pytest.raises(ValueError, match=f"time {t} gives a kernel that is not finite"):
        filter_kernel(curve, t)


# --- points per wavelength ---------------------------------------------------

def _synthetic_curve(k_hats, c_values, p=3):
    samples = [SpectralSample(k=kh * (p + 1), k_hat=kh,
                              eigenvalues=np.array([c]))
               for kh, c in zip(k_hats, c_values)]
    return SpectralCurve(samples=samples)


def test_ppw_exact_curve_hits_nyquist_limit():
    k_hats = np.linspace(np.pi / 64, np.pi, 64)
    curve = _synthetic_curve(k_hats, np.ones(64, dtype=complex))
    assert ppw(curve) == pytest.approx(2.0)


def test_ppw_unresolvable_sentinel():
    k_hats = np.linspace(np.pi / 8, np.pi, 8)
    curve = _synthetic_curve(k_hats, np.full(8, 2.0, dtype=complex))
    assert ppw(curve) == UNRESOLVABLE


def test_ppw_first_crossing_rule():
    k_hats = np.array([0.1, 0.2, 0.3, 0.4]) * np.pi
    c = np.array([1.0, 1.005, 1.02, 1.005], dtype=complex)  # blip at third
    curve = _synthetic_curve(k_hats, c)
    assert ppw(curve, 0.01) == pytest.approx(2 * np.pi / (0.2 * np.pi))
    # an error equal to epsilon is a violation
    curve = _synthetic_curve(k_hats[:2], np.array([1.0, 1.25], dtype=complex))
    assert ppw(curve, 0.25) == 2 * np.pi / k_hats[0]


def test_analytic_ppw_decreases_through_p4():
    vals = [ppw(dispersion_curve(p, 1.0, n_samples=512)) for p in (2, 3, 4)]
    assert vals[0] > vals[1] > vals[2]


def test_order_crossover_under_contraction():
    # somewhere in gamma the 5th- and 6th-order point requirements swap
    p4_uni = ppw(dispersion_curve(4, 1.0, n_samples=512))
    p5_uni = ppw(dispersion_curve(5, 1.0, n_samples=512))
    p4_con = ppw(dispersion_curve(4, 0.6, n_samples=512))
    p5_con = ppw(dispersion_curve(5, 0.6, n_samples=512))
    assert p4_uni < p5_uni          # uniform: lower order needs fewer points
    assert p5_con < p4_con          # contraction: higher order wins


def test_ppw_requires_positive_epsilon():
    curve = dispersion_curve(2, 1.0, n_samples=64)
    # every comparison with NaN is false, so a NaN level once read as
    # resolved at every sample
    for epsilon in (0.0, -0.01, np.nan, np.inf):
        with pytest.raises(ValueError, match="error level must be a positive finite number"):
            ppw(curve, epsilon)


# --- finite-difference modified wavenumber ------------------------------------

def test_cd2_closed_form():
    delta = 0.3
    for k in (0.5, 2.0, 7.0):
        c = fd_modified_wavenumber([-delta, 0.0, delta],
                                   [-1 / (2 * delta), 0.0, 1 / (2 * delta)], k)
        assert c == pytest.approx(np.sin(k * delta) / (k * delta), abs=1e-12)
        assert abs(c.imag) < 1e-15


def _cd4_stencil(delta):
    offsets = delta * np.arange(-2, 3)
    from frwave.element import derivative_matrix
    weights = derivative_matrix(offsets)[2]
    return offsets, weights


def test_cd4_consistent_at_low_k():
    offsets, weights = _cd4_stencil(0.5)
    c = fd_modified_wavenumber(offsets, weights, 1e-4)
    assert abs(c - 1.0) < 1e-7


def test_cd4_matches_direct_stencil_application():
    offsets, weights = _cd4_stencil(0.4)
    k = 3.7
    u = np.exp(1j * k * offsets)
    derivative = weights @ u            # du/dx at the centre point
    c_oracle = derivative / (1j * k * np.exp(1j * k * 0.0))
    c = fd_modified_wavenumber(offsets, weights, k)
    assert c == pytest.approx(c_oracle, abs=1e-13)


def test_fd_modified_wavenumber_rejects_bad_wavenumber():
    # NaN and inf once returned nan+nanj with a RuntimeWarning
    offsets, weights = _cd4_stencil(0.5)
    for k in BAD_POSITIVE:
        with pytest.raises(ValueError, match="wavenumber must be a positive finite number"):
            fd_modified_wavenumber(offsets, weights, k)


def test_fd_modified_wavenumber_shape_mismatch():
    with pytest.raises(ValueError):
        fd_modified_wavenumber([0.0, 1.0], [1.0], 1.0)
