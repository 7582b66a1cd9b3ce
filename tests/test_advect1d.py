from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from frwave import advect1d
from frwave.element import gauss_weights, reference_element
from frwave.spectral import build_operator, modified_phase_velocity
from frwave.stability import UnstableSolutionError, advance, update_matrix
from frwave.advect1d import (MEASURE_POINTS, PENCIL, PENCIL_SNAPSHOTS,
                             PENCIL_SPAN, TRANSIT, FDAdvection1D,
                             FRAdvection1D, _bin_functional, _dominant_factor,
                             bin_wavenumbers, build_grid,
                             matched_point_expansion, numeric_ppw,
                             solution_points, wave_transfer_function,
                             TransferTable)


# --- grids -------------------------------------------------------------------

def test_build_grid_uniform():
    g = build_grid(4, 1.0, 1.0)
    assert np.allclose(g.delta, 0.25, atol=1e-15)
    assert np.allclose(g.x, [0, 0.25, 0.5, 0.75, 1.0], atol=1e-15)


def test_build_grid_geometric_series():
    g = build_grid(3, 2.0, 7.0)
    assert np.allclose(g.delta, [1.0, 2.0, 4.0], atol=1e-12)


def test_build_grid_expansion_ratio():
    g = build_grid(10, 1.1, 1.0)
    assert g.delta[-1] / g.delta[0] == pytest.approx(1.1 ** 9, rel=1e-12)


def test_build_grid_invariants():
    for gamma in (0.7, 1.0, 1.4):
        g = build_grid(20, gamma, 2.5)
        assert np.all(np.diff(g.x) > 0)
        assert np.allclose(g.delta[1:] / g.delta[:-1], gamma, atol=1e-12)
        assert g.delta.sum() == pytest.approx(2.5, abs=1e-12)
        assert np.allclose(g.jacobian, g.delta / 2)


def test_build_grid_rejects_degenerate():
    with pytest.raises(ValueError):
        build_grid(1, 1.0, 1.0)
    with pytest.raises(ValueError):
        build_grid(4, -0.5, 1.0)
    with pytest.raises(ValueError):
        build_grid(4, 1.0, 0.0)
    for gamma in (np.nan, np.inf):
        with pytest.raises(ValueError, match="expansion rate must be a positive finite"):
            build_grid(4, gamma, 1.0)
    # rates so far from 1 that floating point gives a cell of zero width
    # (1e-40) or a boundary that repeats (one at 0.01, nine at 1e-20)
    for gamma in (1e-40, 0.01, 1e-20):
        with pytest.raises(ValueError, match=f"10 cells expanding by {gamma} do not have "
                                             "distinct boundaries"):
            build_grid(10, gamma, 1.0)
    # a rate whose power gamma ** N overflows
    with pytest.raises(ValueError, match="40 cells expanding by 1e[+]40 do not have "
                                         "distinct boundaries"):
        build_grid(40, 1e40)
    assert np.all(np.diff(build_grid(100, 0.7, 1.0).x) > 0)


def test_solution_points_linear_map():
    e = reference_element(2)
    g = build_grid(2, 1.0, 2.0)
    pts = solution_points(g, e)
    assert pts.shape == (2, 3)
    assert np.allclose(pts[0], 0.5 * (e.xi + 1.0))
    assert np.allclose(pts[1], 1.0 + 0.5 * (e.xi + 1.0))


# --- element-solver right-hand side -------------------------------------------

def test_fr_rhs_preserves_constants():
    for gamma in (1.0, 1.3):
        e = reference_element(3)
        g = build_grid(9, gamma, 1.0)
        solver = FRAdvection1D(g, e)
        assert np.max(np.abs(solver.rhs(np.ones((9, 4))))) < 1e-12


def test_fr_rhs_transports_linear_data_exactly():
    # interior cell of a two-cell non-periodic fixture with u(x) = x:
    # du/dt = -du/dx = -1 at every solution point
    e = reference_element(3)
    delta = 0.8
    x_left = solution_points(build_grid(2, 1.0, 2 * delta), e)
    u = x_left             # nodal values of u = x in both cells
    jac = delta / 2.0
    C0 = e.D - np.outer(e.hl, e.ll)
    rhs_cell1 = -(C0 @ u[1] + e.hl * (e.lr @ u[0])) / jac
    assert np.allclose(rhs_cell1, -1.0, atol=1e-12)


def test_fr_rhs_matches_analytic_physical_mode():
    # drive the exact propagating eigen-structure and compare one tiny
    # step against exp(-i k c tau)
    p, gamma = 3, 1.0
    e = reference_element(p)
    grid = build_grid(10, gamma, 1.0)
    solver = FRAdvection1D(grid, e)
    k_hat = 0.3 * np.pi
    k = k_hat * (p + 1) / grid.delta[0]
    op = build_operator(e, gamma, grid.delta[0])
    s = modified_phase_velocity(op, k)
    v = np.linalg.eig(op.wave_symbol(k))[1][:, np.argmin(np.abs(
        np.linalg.eigvals(1j * op.wave_symbol(k) / k) - s.c))]
    # modulate the eigenvector onto the grid wave
    phase = np.exp(1j * k * grid.x[:-1])
    u0 = phase[:, None] * v[None, :]
    tau = 1e-5
    u1 = advance(solver, u0, tau, "RK44", 1)
    expect = u0 * np.exp(-1j * k * s.c * tau)
    assert np.max(np.abs(u1 - expect)) / np.max(np.abs(u0)) < 1e-6


def test_fr_operator_eigenvalues_are_the_wave_symbols():
    # on a uniform periodic grid the assembled operator is block circulant:
    # its spectrum is that of the analysis's wave symbol at every grid wave
    p, N, L = 3, 10, 2.0
    e = reference_element(p)
    solver = FRAdvection1D(build_grid(N, 1.0, L), e)
    op = build_operator(e, 1.0, L / N)
    analysis = np.concatenate([np.linalg.eigvals(op.wave_symbol(2 * np.pi * m / L))
                               for m in range(N)])
    assembled = np.linalg.eigvals(solver.A)
    dist = np.abs(assembled[:, None] - analysis[None, :])
    rows, cols = linear_sum_assignment(dist)
    assert dist[rows, cols].max() < 1e-12 * np.abs(analysis).max()
    # the spectrum is the same for downwind coupling; the action on a grid
    # wave is not
    w = np.random.default_rng(3).standard_normal(p + 1)
    for m in (1, 4):
        k = 2 * np.pi * m / L
        phase = np.exp(1j * k * solver.grid.x[:-1])[:, None]
        expect = phase * (op.wave_symbol(k) @ w)[None, :]
        assert np.max(np.abs(solver.rhs(phase * w) - expect)) < 1e-12 * np.max(np.abs(expect))


# --- finite-difference right-hand side ----------------------------------------

def test_fd_rhs_preserves_constants():
    pts = build_grid(32, 1.05, 1.0).x[:-1]
    fd = FDAdvection1D(pts, 1.0, 4, lf_blend=0.01)
    assert np.max(np.abs(fd.rhs(np.ones(32)))) < 1e-11


def test_fd_rhs_matches_modified_wavenumber_prediction():
    from frwave.spectral import fd_modified_wavenumber
    pts = build_grid(64, 1.0, 1.0).x[:-1]
    fd = FDAdvection1D(pts, 1.0, 4)
    k = 2 * np.pi * 9
    u = np.exp(1j * k * pts)
    rhs = fd.rhs(u)
    delta = 1.0 / 64
    offsets = delta * np.arange(-2, 3)
    from frwave.element import derivative_matrix
    weights = derivative_matrix(offsets)[2]
    c = fd_modified_wavenumber(offsets, weights, k)
    assert np.max(np.abs(rhs - (-1j * k * c) * u)) < 1e-9


def test_fd_scheme_validation():
    pts = build_grid(16, 1.0, 1.0).x[:-1]
    with pytest.raises(ValueError, match="order must be one of"):
        FDAdvection1D(pts, 1.0, 5)
    with pytest.raises(ValueError, match="smoothing fraction"):
        FDAdvection1D(pts, 1.0, 4, lf_blend=0.05)
    for bad in (pts[::-1], np.concatenate([pts[:3], pts[2:]])):
        with pytest.raises(ValueError, match="points must be strictly increasing"):
            FDAdvection1D(bad, 1.0, 4)
    assert list(FDAdvection1D(pts, 1.0, 3).offsets) == [-2, -1, 0, 1]


def test_fd_stencil_wider_than_grid_rejected():
    pts = build_grid(4, 1.0, 1.0).x[:-1]
    with pytest.raises(ValueError):
        FDAdvection1D(pts, 1.0, 8)


def _fd_reference(points, L, order, lf_blend, xs):
    """The FD operator, smallest h_bar and resampling stencil as once
    assembled: each wrap of the periodic window stated on its own."""
    from frwave.element import derivative_matrix, lagrange_values
    M = len(points)
    half = order // 2
    offs = np.arange(-2, 2) if order == 3 else np.arange(-half, half + 1)
    rows = np.arange(M)
    wrap, idx = np.divmod(rows[:, None] + offs[None, :], M)
    dist = points[idx] + wrap * L - points[:, None]
    centre = int(np.nonzero(offs == 0)[0][0])
    A = np.zeros((M, M))
    A[rows[:, None], idx] = -derivative_matrix(dist)[:, centre]
    h_bar = 0.5 * (dist[:, centre + 1] - dist[:, centre - 1])
    smooth = lf_blend / (2.0 * h_bar)
    A[rows, (rows + 1) % M] += smooth
    A[rows, rows] -= 2.0 * smooth
    A[rows, (rows - 1) % M] += smooth
    w = len(offs)
    start = np.searchsorted(points, xs) - w // 2
    wrap, sidx = np.divmod(start[:, None] + np.arange(w)[None, :], M)
    xw = points[sidx] + wrap * L
    return A, float(h_bar.min()), sidx, lagrange_values(xw, xs)


def _fd_grids():
    rng = np.random.default_rng(12)
    yield build_grid(30, 1.05, 1.0).x[:-1], 1.0
    yield build_grid(17, 0.93, 2.0).x[:-1], 2.0
    yield build_grid(9, 1.2, 1.0).x[:-1], 1.0     # as wide as order 8's stencil
    for n in (11, 24):
        gaps = rng.uniform(0.2, 1.0, n)
        L = float(gaps.sum())
        yield np.concatenate(([0.0], np.cumsum(gaps[:-1]))), L


@pytest.mark.parametrize("lf_blend", [0.0, 0.01, 0.02])
@pytest.mark.parametrize("order", [2, 3, 4, 6, 8])
def test_fd_assembly_is_the_stated_stencil(order, lf_blend):
    # one window helper serves the operator and the interpolant; both are
    # bitwise the assembly that wrapped the window and the smoothing apart
    for points, L in _fd_grids():
        xs = np.concatenate((np.linspace(0.0, L, 97, endpoint=False),
                             points, [points[-1] + 0.5 * (L - points[-1])]))
        fd = FDAdvection1D(points, L, order, lf_blend=lf_blend)
        A, spacing, idx, vals = _fd_reference(points, L, order, lf_blend, xs)
        got_idx, got_vals = fd._stencil(xs)
        assert np.array_equal(fd.A, A)
        assert fd.min_spacing == spacing
        assert np.array_equal(got_idx, idx)
        assert np.array_equal(got_vals, vals)


def test_fd_blend_adds_dissipation_mid_band():
    pts = build_grid(64, 1.0, 1.0).x[:-1]
    k = 2 * np.pi * 10
    plain = wave_transfer_function(
        FDAdvection1D(pts, 1.0, 4), [k], cfl=0.01, window=0.5)
    blended = wave_transfer_function(
        FDAdvection1D(pts, 1.0, 4, lf_blend=0.01), [k],
        cfl=0.01, window=0.5)
    assert abs(plain.im_k_hat_prime[0]) < 1e-9
    assert blended.im_k_hat_prime[0] < -1e-4


# --- the harness protocol ----------------------------------------------------

def _stretched_fr():
    grid = build_grid(9, 1.15, 1.0)
    return FRAdvection1D(grid, reference_element(3)), grid.delta.min()


def _stretched_fd():
    pts = build_grid(30, 1.05, 1.0).x[:-1]
    gaps = np.diff(np.append(pts, pts[0] + 1.0))     # gaps[i] = x[i+1] - x[i]
    h_bar = 0.5 * (gaps + np.roll(gaps, 1))
    return FDAdvection1D(pts, 1.0, 6, lf_blend=0.01), h_bar.min()


@pytest.mark.parametrize("make", [_stretched_fr, _stretched_fd])
def test_solver_is_its_operator(make):
    solver, spacing = make()
    assert solver.dof == solver.coords.size == len(solver.A)
    assert solver.L == 1.0
    u = np.random.default_rng(4).standard_normal(solver.coords.shape)
    assert np.array_equal(solver.rhs(u),
                          (solver.A @ u.reshape(-1, 1)).reshape(u.shape))
    assert solver.min_spacing == pytest.approx(spacing, rel=1e-12)


# --- time marching -----------------------------------------------------------

def _fr_solver(gamma):
    return FRAdvection1D(build_grid(12, gamma, 1.0), reference_element(3))


def _fd_solver(order):
    pts = build_grid(48, matched_point_expansion(1.1, order), 1.0).x[:-1]
    return FDAdvection1D(pts, 1.0, order, lf_blend=0.01)


@pytest.mark.parametrize("scheme", ["RK33", "RK44", "RK55"])
@pytest.mark.parametrize("make, arg", [(_fr_solver, 0.9), (_fr_solver, 1.2),
                                       (_fd_solver, 3), (_fd_solver, 4)])
def test_step_is_the_update_matrix(make, arg, scheme):
    solver = make(arg)
    rng = np.random.default_rng(5)
    u0 = np.exp(2j * np.pi * 5 * solver.coords) + rng.standard_normal(solver.coords.shape)
    tau = 0.3 * solver.min_spacing
    stepped = advance(solver, u0, tau, scheme, 1)
    expect = update_matrix(solver.A, tau, scheme) @ u0.ravel()
    assert stepped.shape == u0.shape
    assert np.max(np.abs(stepped.ravel() - expect)) < 1e-13 * np.max(np.abs(expect))


def test_advance_zero_steps_identity():
    e = reference_element(2)
    solver = FRAdvection1D(build_grid(5, 1.0, 1.0), e)
    u0 = np.sin(solver.coords)
    assert np.array_equal(advance(solver, u0, 0.01, "RK44", 0), u0)


def test_advance_rejects_negative_steps():
    # a negative count is an error, not zero steps
    solver = FRAdvection1D(build_grid(5, 1.0, 1.0), reference_element(2))
    with pytest.raises(ValueError, match="step count must be non-negative, got -3"):
        advance(solver, np.sin(solver.coords), 0.01, "RK44", -3)


def test_advance_matches_analytic_mode_long_run():
    p = 3
    e = reference_element(p)
    grid = build_grid(45, 1.0, 1.0)
    solver = FRAdvection1D(grid, e)
    k = 2 * np.pi * 9           # khat = 0.2 pi at 180 points
    op = build_operator(e, 1.0, grid.delta[0])
    c = modified_phase_velocity(op, k * grid.delta[0] / (p + 1) * (p + 1) / grid.delta[0]).c
    u0 = np.exp(1j * k * solver.coords)
    tau = 0.01 * solver.min_spacing
    u = advance(solver, u0, tau, "RK44", 1000)
    expect = u0 * np.exp(-1j * k * c * 1000 * tau)
    rel = np.max(np.abs(u - expect)) / np.max(np.abs(expect))
    assert rel < 5e-3


def test_expanding_grid_slice_grows_recovers_decays():
    # mid-band wave near the stability limit on an expanding grid: the
    # envelope grows over an interior band, then dies out on the coarse end
    e = reference_element(4)
    grid = build_grid(24, 1.1, 1.0)
    solver = FRAdvection1D(grid, e)
    w = gauss_weights(4)
    k = 2 * np.pi * 18          # khat = 0.3 pi at 120 points
    u0 = np.exp(1j * k * solver.coords)
    tau = 0.30 * solver.min_spacing
    u = advance(solver, u0, tau, "RK44", int(0.2 / tau))
    ratio = np.sqrt((np.abs(u) ** 2 @ w) / (np.abs(u0) ** 2 @ w))
    peak = int(np.argmax(ratio))
    assert ratio[peak] > 1.0            # transient growth
    assert 0 < peak < len(ratio) - 1    # strictly interior
    assert ratio[-4:].mean() < 0.5 * ratio[peak]   # decay on the sparse end


@pytest.mark.parametrize("rhs, exact, window", [
    (lambda u: -u, np.exp(-1.0), (3.9, 4.1)),
    (lambda u: -u * u, 0.5, (1.9, 2.1)),
], ids=["linear", "nonlinear"])
def test_rk44_stage_loop_temporal_order(rhs, exact, window):
    # the low-storage loop is 4th order on a linear right-hand side but
    # only 2nd order on a nonlinear one (u' = -u^2, u(1) = 1/2)
    ode = SimpleNamespace(rhs=rhs)
    steps = np.array([10, 20, 40, 80])
    err = [abs(advance(ode, np.array([1.0]), 1.0 / n, "RK44", n)[0] - exact)
           for n in steps]
    order = -np.polyfit(np.log(steps), np.log(err), 1)[0]
    assert window[0] <= order <= window[1], order


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_advance_detects_blowup():
    e = reference_element(3)
    solver = FRAdvection1D(build_grid(10, 1.0, 1.0), e)
    u0 = np.sin(2 * np.pi * solver.coords)
    with pytest.raises(UnstableSolutionError) as err:
        advance(solver, u0, 5.0 * solver.min_spacing, "RK44", 2000)
    assert err.value.step >= 0


def test_conservation_quadrature_integral():
    e = reference_element(3)
    w = gauss_weights(3)
    for gamma in (1.0, 1.2):
        grid = build_grid(16, gamma, 1.0)
        solver = FRAdvection1D(grid, e)
        u0 = 1.0 + np.sin(2 * np.pi * 3 * solver.coords)
        total0 = np.sum(grid.jacobian[:, None] * w[None, :] * u0)
        u = advance(solver, u0, 0.01 * solver.min_spacing, "RK44", 1000)
        total = np.sum(grid.jacobian[:, None] * w[None, :] * u)
        assert abs(total - total0) < 1e-10


def test_linearity_superposition():
    e = reference_element(2)
    solver = FRAdvection1D(build_grid(8, 1.1, 1.0), e)
    rng = np.random.default_rng(8)
    a = rng.standard_normal(solver.coords.shape)
    b = rng.standard_normal(solver.coords.shape)
    tau = 0.05 * solver.min_spacing
    ua = advance(solver, a, tau, "RK44", 50)
    ub = advance(solver, b, tau, "RK44", 50)
    uab = advance(solver, a + b, tau, "RK44", 50)
    assert np.max(np.abs(uab - (ua + ub))) < 1e-12


# --- transfer-function harness -------------------------------------------------

def test_transfer_rejects_zero_wavenumber():
    # the constant mode is not a whole positive number of wavelengths
    e = reference_element(3)
    solver = FRAdvection1D(build_grid(8, 1.0, 1.0), e)
    with pytest.raises(ValueError, match="wavenumber 0.0 does not fit"):
        wave_transfer_function(solver, [0.0])


@pytest.mark.parametrize("k", [np.inf, -np.inf, np.nan])
def test_transfer_rejects_non_finite_wavenumber(k):
    # rejected by name before k L / 2 pi is rounded to a whole wavelength count
    solver = FRAdvection1D(build_grid(8, 1.0, 1.0), reference_element(2))
    with pytest.raises(ValueError, match=f"wavenumber must be a finite number, got {k}"):
        wave_transfer_function(solver, [k])


def test_transfer_rejects_non_integer_wavelengths():
    e = reference_element(2)
    solver = FRAdvection1D(build_grid(8, 1.0, 1.0), e)
    with pytest.raises(ValueError):
        wave_transfer_function(solver, [2.0 * np.pi * 3.5])


def test_transfer_rejects_above_measurement_nyquist():
    e = reference_element(2)
    solver = FRAdvection1D(build_grid(8, 1.0, 1.0), e)
    with pytest.raises(ValueError):
        wave_transfer_function(solver, [2.0 * np.pi * 3000])


@pytest.mark.parametrize("bad, message", [
    (np.nan, "wavenumber must be a finite number, got nan"),
    (2.0 * np.pi * 3.5, "does not fit an integer number of wavelengths"),
    (2.0 * np.pi * 3000, "above the measurement Nyquist"),
], ids=["nan", "non-integer", "above-nyquist"])
def test_transfer_checks_every_wavenumber_before_marching(monkeypatch, bad, message):
    # a bad wavenumber late in the list is rejected before the first power
    solver = FRAdvection1D(build_grid(45, 1.0, 1.0), reference_element(3))
    calls = []
    matrix_power = np.linalg.matrix_power
    monkeypatch.setattr(np.linalg, "matrix_power",
                        lambda M, n: calls.append(n) or matrix_power(M, n))
    ks = list(2.0 * np.pi * np.arange(1, 12)) + [bad]
    with pytest.raises(ValueError, match=message):
        wave_transfer_function(solver, ks, mode=PENCIL)
    assert calls == []


def test_transit_factor_of_zero_is_an_error():
    # over so long a window the wave decays to an exact zero, whose log
    # would tabulate nan
    solver = FRAdvection1D(build_grid(11, 1.0, 1.0), reference_element(2))
    with pytest.raises(RuntimeError, match=r"wavenumber 6\.28\d* has a measured "
                                           r"factor of 0j over a window of 1e\+20"):
        wave_transfer_function(solver, [2.0 * np.pi], window=1e20)


def test_transfer_cfl_invariance():
    e = reference_element(3)
    solver = FRAdvection1D(build_grid(12, 1.0, 1.0), e)
    k = 2 * np.pi * 7
    vals = [wave_transfer_function(solver, [k], cfl=cfl, mode=PENCIL)
            .re_k_hat_prime[0] for cfl in (0.05, 0.01, 0.005)]
    assert max(vals) - min(vals) < 1e-4


def test_pencil_without_a_propagating_mode_is_an_error():
    # a bin that vanishes after the first snapshot fits only the factor 0
    with pytest.raises(RuntimeError, match="no propagating mode found"):
        _dominant_factor(np.eye(PENCIL_SNAPSHOTS)[0])


def test_pencil_mode_matches_analysis_on_uniform_grid():
    p = 3
    e = reference_element(p)
    grid = build_grid(12, 1.0, 1.0)
    solver = FRAdvection1D(grid, e)
    ks = bin_wavenumbers(1.0, solver.dof, k_hat_max=0.6 * np.pi)[::4]
    table = wave_transfer_function(solver, ks, cfl=0.02, mode=PENCIL)
    op = build_operator(e, 1.0)
    for kh, re, im in zip(table.k_hat, table.re_k_hat_prime,
                          table.im_k_hat_prime):
        c = modified_phase_velocity(op, kh * (p + 1) / op.delta_j).c
        assert abs(re - c.real * kh) < 1e-4
        assert abs(im - c.imag * kh) < 1e-4


def _bins_one_by_one(L, dof, k_hat_max):
    """The sweep as one bin per pass: the rule bin_wavenumbers states."""
    ks, m = [], 1
    while 2.0 * np.pi * m / L * L / dof <= k_hat_max:
        ks.append(2.0 * np.pi * m / L)
        m += 1
    return np.array(ks)


@pytest.mark.parametrize("L", [1.0, 0.3, 7.1])
@pytest.mark.parametrize("dof", [33, 40, 180, 4095])
def test_bin_count_in_closed_form_is_the_sweep(L, dof):
    # the vectorised test over the candidate bins is the sweep, bitwise, at
    # limits drawn at random and on each side of a bin's own k_hat
    limits = list(np.random.default_rng(dof).uniform(0.001, np.pi, 20))
    for m in (1, 2, 7, 11, 17, 22, 33, 300):
        k_hat = 2.0 * np.pi * m / L * L / dof
        limits += [k_hat, np.nextafter(k_hat, 0.0), np.nextafter(k_hat, 4.0)]
    for k_hat_max in limits:
        expect = _bins_one_by_one(L, dof, k_hat_max)
        if 0 < len(expect) < MEASURE_POINTS // 2:
            assert bin_wavenumbers(L, dof, k_hat_max).tobytes() == expect.tobytes()


@pytest.mark.parametrize("k_hat_max", [1e9, 1e300])
def test_bins_past_the_measurement_nyquist_rejected_at_once(k_hat_max):
    # the sweep would reach MEASURE_POINTS / 2 wavelengths; it raises after
    # testing only those candidate bins (a sweep at 1e9 would build 2e10)
    with pytest.raises(ValueError, match="above the measurement Nyquist"):
        bin_wavenumbers(1.0, 40, k_hat_max)
    nyquist = 2.0 * np.pi * (MEASURE_POINTS // 2) / 40
    assert len(bin_wavenumbers(1.0, 40, np.nextafter(nyquist, 0.0))) == MEASURE_POINTS // 2 - 1
    with pytest.raises(ValueError, match="above the measurement Nyquist"):
        bin_wavenumbers(1.0, 40, nyquist)


@pytest.mark.parametrize("mode", [TRANSIT, PENCIL])
@pytest.mark.parametrize("make, m, cfl", [
    (lambda: FRAdvection1D(build_grid(45, 1.2, 1.0), reference_element(3)), 45, 0.1),
    (lambda: _fd_solver(4), 12, 0.01),
], ids=["fr", "fd"])
def test_harness_is_the_stepwise_march(make, m, cfl, mode):
    # the harness powers the update matrix; `advance` step by step, the
    # resampler and the FFT give the same bins
    solver = make()
    k, window = 2 * np.pi * m, 0.02
    if mode == TRANSIT:
        dt, intervals = window, 1
    else:
        dt, intervals = PENCIL_SPAN * 2 * np.pi / k, PENCIL_SNAPSHOTS - 1
    steps = int(np.ceil(dt / (cfl * solver.min_spacing)))
    xs = np.arange(MEASURE_POINTS) / MEASURE_POINTS
    u = np.exp(1j * k * solver.coords)
    bins = [np.fft.fft(solver.resample(u, xs))[m]]
    for _ in range(intervals):
        u = advance(solver, u, dt / steps, "RK44", steps)
        bins.append(np.fft.fft(solver.resample(u, xs))[m])
    if mode == TRANSIT:
        k_prime = k + 1j * np.log(bins[1] / bins[0] * np.exp(1j * k * dt)) / dt
    else:
        k_prime = k + 1j * np.log(_dominant_factor(bins) * np.exp(1j * k * dt)) / dt
    table = wave_transfer_function(solver, [k], cfl=cfl, mode=mode,
                                   window=window)
    measured = (table.re_k_hat_prime[0] + 1j * table.im_k_hat_prime[0]) * solver.dof
    assert abs(measured - k_prime) < 1e-9 * abs(k_prime)



@pytest.mark.parametrize("mode, powers", [(TRANSIT, 1), (PENCIL, 3)])
def test_bins_with_one_interval_share_one_power(monkeypatch, mode, powers):
    # every transit bin marches window * L, so one power serves them all;
    # a pencil interval is a fixed fraction of each wave's period
    solver = FRAdvection1D(build_grid(12, 1.0, 1.0), reference_element(3))
    ks = 2 * np.pi * np.array([3.0, 5.0, 7.0])
    alone = [wave_transfer_function(solver, [k], cfl=0.05, mode=mode)
             for k in ks]
    calls = []
    matrix_power = np.linalg.matrix_power
    monkeypatch.setattr(np.linalg, "matrix_power",
                        lambda M, n: calls.append(n) or matrix_power(M, n))
    table = wave_transfer_function(solver, ks, cfl=0.05, mode=mode)
    assert len(calls) == powers
    assert np.array_equal(table.im_k_hat_prime,
                          [t.im_k_hat_prime[0] for t in alone])
    assert np.array_equal(table.re_k_hat_prime,
                          [t.re_k_hat_prime[0] for t in alone])


@pytest.mark.parametrize("make", [
    lambda: FRAdvection1D(build_grid(45, 1.2, 1.0), reference_element(3)),
    lambda: _fd_solver(4),
], ids=["fr", "fd"])
def test_bin_functional_is_the_dft_of_the_resampled_state(make):
    # both sums round relative to the state's size, not the bin's: FD's
    # top bin is 1e-5 of the largest
    solver = make()
    xs = np.arange(MEASURE_POINTS) / MEASURE_POINTS
    idx, vals = solver._stencil(xs)
    rng = np.random.default_rng(21)
    shape = solver.coords.shape
    u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    spectrum = np.fft.fft(solver.resample(u, xs))
    for m in (1, MEASURE_POINTS // 4, MEASURE_POINTS // 2 - 1):
        w = _bin_functional(idx, vals, m, solver.dof)
        assert abs(w @ u.ravel() - spectrum[m]) <= 1e-12 * np.abs(spectrum).max()


@pytest.mark.parametrize("mode", [TRANSIT, PENCIL])
def test_bins_share_one_resampling_stencil(monkeypatch, mode):
    # the interpolation onto the measurement points is built once per call,
    # not per bin or per snapshot
    solver = FRAdvection1D(build_grid(12, 1.0, 1.0), reference_element(3))
    calls = []
    lagrange_values = advect1d.lagrange_values
    monkeypatch.setattr(advect1d, "lagrange_values",
                        lambda xi, x: calls.append(np.shape(x)) or lagrange_values(xi, x))
    wave_transfer_function(solver, 2 * np.pi * np.array([3.0, 5.0, 7.0]),
                           cfl=0.05, mode=mode)
    assert calls == [(MEASURE_POINTS,)]


def test_transit_mode_reports_extra_attenuation():
    # accumulated dissipation makes the apparent dispersion worse than the
    # propagating-mode value at mid band
    p = 3
    e = reference_element(p)
    solver = FRAdvection1D(build_grid(12, 1.0, 1.0), e)
    k = 2 * np.pi * 11          # khat = 0.458 pi
    transit = wave_transfer_function(solver, [k], cfl=0.05, mode=TRANSIT)
    pencil = wave_transfer_function(solver, [k], cfl=0.05, mode=PENCIL)
    assert transit.re_k_hat_prime[0] < pencil.re_k_hat_prime[0]


def test_unknown_mode_rejected():
    e = reference_element(2)
    solver = FRAdvection1D(build_grid(8, 1.0, 1.0), e)
    with pytest.raises(ValueError):
        wave_transfer_function(solver, [2 * np.pi], mode="prony")


def test_resample_exact_for_piecewise_polynomials():
    e = reference_element(3)
    grid = build_grid(7, 1.15, 1.0)
    solver = FRAdvection1D(grid, e)
    rng = np.random.default_rng(9)
    u = rng.standard_normal(solver.coords.shape)
    xs = rng.uniform(0, 1, 300)
    vals = solver.resample(u, xs)
    # oracle: per-point cell lookup + barycentric evaluation
    from frwave.element import lagrange_values
    for x, v in zip(xs[:50], vals[:50]):
        cell = np.searchsorted(grid.x, x, side="right") - 1
        xi = 2 * (x - grid.x[cell]) / grid.delta[cell] - 1
        assert abs(v - lagrange_values(e.xi, np.array([xi]))[0] @ u[cell]) < 1e-12


def test_fd_resample_accuracy():
    pts = build_grid(64, 1.0, 1.0).x[:-1]
    fd = FDAdvection1D(pts, 1.0, 4)
    f = lambda x: np.sin(2 * np.pi * 3 * x + 0.3)
    xs = np.linspace(0, 1, 200, endpoint=False)
    assert np.max(np.abs(fd.resample(f(pts), xs) - f(xs))) < 1e-4


# --- numeric PPW -------------------------------------------------------------

def test_numeric_ppw_identity_transfer():
    k_hat = np.linspace(np.pi / 32, np.pi, 32)
    table = TransferTable(k_hat=k_hat, re_k_hat_prime=k_hat.copy(),
                          im_k_hat_prime=np.zeros(32))
    assert numeric_ppw(table) == pytest.approx(2.0)


def test_numeric_ppw_unresolvable():
    k_hat = np.array([0.3, 0.6])
    table = TransferTable(k_hat=k_hat, re_k_hat_prime=k_hat * 1.5,
                          im_k_hat_prime=np.zeros(2))
    assert numeric_ppw(table) == np.inf


def test_matched_point_expansion():
    assert matched_point_expansion(1.2, 4) == pytest.approx(1.2 ** 0.25)
    g = matched_point_expansion(1.0, 5)
    assert g == 1.0
