import numpy as np
import pytest

from frwave.element import gauss_points, reference_element
from frwave.spectral import (CLOSURES, SAMPLED, UNRESOLVABLE, WEIGHTED,
                             EigenSolveError, SemiDiscreteOperator,
                             SpectralCurve, SpectralSample, build_operator,
                             dispersion_curve, fd_modified_wavenumber,
                             filter_kernel, modified_phase_velocity, ppw)


@pytest.fixture(scope="module")
def op3():
    return build_operator(reference_element(3), 1.0)


# --- operator assembly -------------------------------------------------------

def test_operator_matrix_identities():
    for p in (2, 4):
        e = reference_element(p)
        op = build_operator(e, 1.2, delta_j=0.7)
        assert np.max(np.abs(op.C0 - (e.D - np.outer(e.hl, e.ll)))) < 1e-14
        assert np.max(np.abs(op.Cm1 - np.outer(e.hl, e.lr))) < 1e-14
        assert op.Jj == pytest.approx(0.35, abs=1e-15)
        assert op.Jjm1 == pytest.approx(0.7 / (2 * 1.2), abs=1e-15)


def test_uniform_unit_jacobians():
    op = build_operator(reference_element(3), 1.0, delta_j=2.0)
    assert op.Jj == 1.0 and op.Jjm1 == 1.0


def test_row_sums_vanish():
    # constant data gives zero update under pure upwinding
    for p in range(1, 8):
        op = build_operator(reference_element(p), 1.0)
        assert np.max(np.abs((op.C0 + op.Cm1) @ np.ones(p + 1))) < 1e-12


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
    e = reference_element(2)
    with pytest.raises(ValueError):
        build_operator(e, -1.0)
    with pytest.raises(ValueError):
        build_operator(e, 1.0, delta_j=0.0)


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
    with pytest.raises(ValueError):
        modified_phase_velocity(op3, 0.0)


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
    curve = dispersion_curve(2, 1.0, n_samples=64)
    with pytest.raises(ValueError):
        filter_kernel(curve, 0.0)


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
    with pytest.raises(ValueError):
        ppw(curve, 0.0)


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


def test_fd_modified_wavenumber_shape_mismatch():
    with pytest.raises(ValueError):
        fd_modified_wavenumber([0.0, 1.0], [1.0], 1.0)
