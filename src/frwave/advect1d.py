"""Time-domain 1D linear advection (unit speed) on stretched periodic grids.

Holds the element-based upwind solver and the finite-difference baseline of
a given order with optional first-order smoothing.  Each solver is its dof x
dof operator A (the element solver's from the reference element's cell
matrices C0 and Cm1, the ones the wavenumber analysis uses) with the facts
the harness reads: coords, L, min_spacing and dof; both share one rhs, A u.
Also holds the transfer-function harness that measures modified
wavenumbers by comparing Fourier coefficients of a wave before and after
convection.  The harness marches with powers of the fully
discrete step, the matrix stability.update_matrix(A, tau, "RK44");
stability.advance marches the same step on a solver's rhs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .element import derivative_matrix, lagrange_values
from .spectral import _first_crossing_ppw
from .stability import UnstableSolutionError, _require_positive, update_matrix

FD_ORDERS = (2, 3, 4, 6, 8)
MEASURE_POINTS = 4096


@dataclass
class StretchedGrid1D:
    """Geometric 1D grid: N cells whose widths grow by factor gamma."""

    x: np.ndarray        # N+1 cell boundaries (flux points)
    delta: np.ndarray    # N cell widths
    jacobian: np.ndarray # N half widths
    L: float

    @property
    def n_cells(self):
        return len(self.delta)


def build_grid(N, gamma, L=1.0):
    """N-cell geometric grid on [0, L]; the first width is scaled so the
    widths sum exactly to L.  An expansion rate so far from 1 that floating
    point cannot place every boundary strictly after the one before it
    (a width of zero, or a boundary that repeats) is a ValueError."""
    if N < 2:
        raise ValueError(f"need at least 2 cells, got {N}")
    _require_positive("expansion rate", gamma)
    _require_positive("domain length", L)
    if gamma == 1.0:
        delta = np.full(N, L / N)
    else:
        d1 = L * (1.0 - gamma) / (1.0 - gamma ** N)
        delta = d1 * gamma ** np.arange(N)
    x = np.concatenate(([0.0], np.cumsum(delta)))
    x[-1] = L
    if not np.all(np.diff(x) > 0):     # also NaN
        raise ValueError(f"{N} cells expanding by {gamma} do not have distinct "
                         f"boundaries in floating point")
    return StretchedGrid1D(x=x, delta=delta, jacobian=delta / 2.0, L=L)


def solution_points(grid, element):
    """Physical solution-point coordinates, shape (N, p+1): linear map of
    the reference points into each cell."""
    return grid.x[:-1, None] + 0.5 * (element.xi + 1.0)[None, :] * grid.delta[:, None]


def _apply(A, u):
    """A @ u over the flattened state, keeping u's shape."""
    return (A @ u.reshape(len(A), -1)).reshape(u.shape)


class _Operator1D:
    """A 1D solver as its dof x dof semi-discrete operator A: du/dt = A u.

    Each solver's __init__ sets A, coords (the DoF coordinates), L (the
    period) and min_spacing (the width `--cfl` and the transfer harness's
    cfl scale tau by); each defines _stencil, its interpolant's weights."""

    @property
    def dof(self):
        return len(self.A)

    def rhs(self, u):
        """du/dt = A u."""
        return _apply(self.A, u)

    def resample(self, u, xs):
        """The solver's interpolant of the state u at the points xs."""
        idx, vals = self._stencil(np.asarray(xs, dtype=float))
        return np.einsum("im,im->i", vals, u.reshape(-1)[idx])


class FRAdvection1D(_Operator1D):
    """Upwinded element solver for du/dt + du/dx = 0, periodic.

    A's cell j block row holds -C0/J_j on the diagonal and -Cm1/J_j on the
    upwind neighbour, with C0 and Cm1 the element's cell matrices, the
    ones spectral's wave symbols are built from.  States are (n_cells, p+1).
    min_spacing is the smallest cell width, as the stability layer's
    CFL = tau/delta_j has it; it is several point spacings wide (7.0x the
    smallest at fr4, gamma 1.05).
    """

    def __init__(self, grid, element):
        self.grid = grid
        self.element = element
        self.coords = solution_points(grid, element)
        self.L = grid.L
        self.min_spacing = float(grid.delta.min())
        eye = np.eye(grid.n_cells)
        self.A = -(np.kron(eye, element.C0)
                   + np.kron(np.roll(eye, -1, axis=1), element.Cm1))
        self.A /= np.repeat(grid.jacobian, element.n_points)[:, None]

    def _stencil(self, xs):
        """Each point's cell as flat state indices, with its Lagrange basis."""
        cell = np.clip(np.searchsorted(self.grid.x, xs, side="right") - 1,
                       0, self.grid.n_cells - 1)
        xi = 2.0 * (xs - self.grid.x[cell]) / self.grid.delta[cell] - 1.0
        flat = np.arange(self.dof).reshape(self.coords.shape)
        return flat[cell], lagrange_values(self.element.xi, xi)


def matched_point_expansion(gamma_cell, points_per_cell):
    """Per-point expansion rate giving the same width profile as an
    element grid expanding by gamma_cell per cell."""
    _require_positive("expansion rate", gamma_cell)   # a root of a negative one is complex
    return gamma_cell ** (1.0 / points_per_cell)


class FDAdvection1D(_Operator1D):
    """Finite-difference solver of the given order for du/dt + du/dx = 0 on
    a periodic point grid, with optional first-order smoothing blended in.

    The stencil is central except at order 3, which is biased one point to
    the upwind side.  A is minus the stencil weights, plus lf_blend times
    the three-point smoothing (u[i+1] - 2 u[i] + u[i-1]) / (2 h_bar[i]),
    with h_bar the mean of a point's two neighbour spacings; min_spacing
    is the smallest h_bar.
    """

    def __init__(self, points, L, order, lf_blend=0.0):
        if order not in FD_ORDERS:
            raise ValueError(f"order must be one of {FD_ORDERS}, got {order}")
        if not 0.0 <= lf_blend <= 0.02:
            raise ValueError(f"smoothing fraction must be in [0, 0.02], got {lf_blend}")
        points = np.asarray(points, dtype=float)
        if np.any(np.diff(points) <= 0):
            raise ValueError("points must be strictly increasing")
        M = len(points)
        half = order // 2
        offs = np.arange(-2, 2) if order == 3 else np.arange(-half, half + 1)
        if len(offs) > M:
            raise ValueError(f"stencil of {len(offs)} points is wider than the grid")
        self.coords = points
        self.L = float(L)
        self.offsets = offs
        rows = np.arange(M)
        idx, xw = self._window(rows)
        dist = xw - points[:, None]
        c = -offs[0]        # the window column of the point itself
        weights = -derivative_matrix(dist)[:, c]
        h_bar = 0.5 * (dist[:, c + 1] - dist[:, c - 1])
        self.min_spacing = float(h_bar.min())
        smooth = lf_blend / (2.0 * h_bar)
        weights[:, c - 1:c + 2] += smooth[:, None] * np.array([1.0, -2.0, 1.0])
        self.A = np.zeros((M, M))
        self.A[rows[:, None], idx] = weights

    def _window(self, anchor):
        """The stencil window of each anchor index: its wrapped state indices
        and its node positions, unwrapped, so a window past the last node
        reads the periodic images of the first ones."""
        wrap, idx = np.divmod(anchor[:, None] + self.offsets, len(self.coords))
        return idx, self.coords[idx] + wrap * self.L

    def _stencil(self, xs):
        """Each point's stencil window around its nearest node at or above
        it, with its Lagrange weights."""
        idx, xw = self._window(np.searchsorted(self.coords, xs))
        return idx, lagrange_values(xw, xs)


@dataclass
class TransferTable:
    """Measured modified wavenumbers, Nyquist-normalised."""

    k_hat: np.ndarray
    re_k_hat_prime: np.ndarray
    im_k_hat_prime: np.ndarray
    transfer: np.ndarray


TRANSIT = "transit"
PENCIL = "pencil"

#: matrix-pencil snapshot schedule: spacing in wave periods and count
PENCIL_SPAN = 0.2
PENCIL_SNAPSHOTS = 16
PENCIL_MAX_MODES = 4


def _dominant_factor(bins):
    """The dominant mode's factor per snapshot, from a bin time series (SVD
    matrix pencil).

    The prescribed wave excites every branch of the discrete system; the
    series is fit as a short sum of exponentials and the mode contributing
    most over the window is reported.  Exact when the dynamics really are
    a low-rank exponential sum (uniform grids).  When no mode dominates the
    bin (stretched meshes, upper band), the fit of at most PENCIL_MAX_MODES
    exponentials to a richer spectrum may return a frequency that is not an
    eigenvalue of the discrete operator.
    """
    b = np.asarray(bins) / bins[0]
    n = len(b)
    cols = n // 2
    H = np.array([b[i:i + cols] for i in range(n - cols + 1)])
    H0, H1 = H[:-1], H[1:]
    U, s, Vh = np.linalg.svd(H0, full_matrices=False)
    # singular values below 1e-7 of the largest are noise
    rank = max(1, min(int(np.sum(s > 1e-7 * s[0])), PENCIL_MAX_MODES))
    U, s, Vh = U[:, :rank], s[:rank], Vh[:rank]
    G = (U.conj().T @ H1 @ Vh.conj().T) / s[:, None]
    z = np.linalg.eigvals(G)
    z = z[np.abs(z) > 1e-6]
    if len(z) == 0:
        raise RuntimeError("no propagating mode found in bin evolution")
    V = np.vander(z, n, increasing=True).T
    residues, *_ = np.linalg.lstsq(V, b, rcond=None)
    contribution = [np.sum(np.abs(residues[i] * z[i] ** np.arange(n)))
                    for i in range(len(z))]
    return z[int(np.argmax(contribution))]


def _bin_functional(idx, vals, m, dof):
    """w with w @ u.ravel() = DFT bin m of u resampled by the stencil (idx, vals)."""
    n = len(vals)
    f = vals * np.exp(-2j * np.pi * (m * np.arange(n) % n) / n)[:, None]
    return (np.bincount(idx.ravel(), f.real.ravel(), dof)
            + 1j * np.bincount(idx.ravel(), f.imag.ravel(), dof))


def wave_transfer_function(solver, k_values, cfl=0.01, mode=TRANSIT,
                           window=0.5):
    """Convect single waves and measure the complex transfer per wavenumber.

    Each wave k (a positive whole number of wavelengths must fit the
    domain) is advanced at the requested CFL; the driven DFT bin of the
    solution resampled at MEASURE_POINTS uniform points (one precomputed row
    per bin, _bin_functional) gives the modified wavenumber: phase drift ->
    Re k', amplitude change -> Im k'.  Each snapshot interval dt is marched
    as R^steps, with steps = ceil(dt / (cfl * solver.min_spacing)) and R the
    step matrix stability.update_matrix(solver.A, dt / steps, "RK44"), formed
    directly (not by eigen-expansion: A is strongly non-normal on stretched
    meshes); bins with the same dt (every transit bin) share one power.  A
    non-finite state raises UnstableSolutionError.

    mode="transit" (default) compares the coefficient after convecting for
    `window` domain lengths against the prescribed input: the end-user
    measurement, in which accumulated dissipation contaminates the
    apparent dispersion.  mode="pencil" instead fits the bin evolution
    over snapshots spaced by fractions of the wave period and reports the
    dominant propagating mode, isolating it from the decaying branches
    that the pointwise initial projection also excites ("window" is
    ignored).  When no mode dominates the bin (stretched meshes, upper
    band), the pencil may return a frequency that is not an eigenvalue of
    the discrete operator.  The tabulated transfer is the end-to-end ratio
    in both modes.
    """
    if mode not in (TRANSIT, PENCIL):
        raise ValueError(f"unknown measurement mode {mode!r}")
    _require_positive("CFL", cfl)
    if mode == TRANSIT:
        _require_positive("window", window)
    L = solver.L
    dof = solver.dof
    idx, vals = solver._stencil(np.arange(MEASURE_POINTS) * (L / MEASURE_POINTS))
    raw_tau = cfl * solver.min_spacing
    k_hats, res, ims, trans = [], [], [], []
    P_dt = None     # the snapshot interval P marches; transit bins share it
    for k in k_values:
        if not math.isfinite(k):
            raise ValueError(f"wavenumber must be a finite number, got {k}")
        m = k * L / (2.0 * np.pi)
        m_int = int(round(m))
        if abs(m - m_int) > 1e-9 * max(1.0, abs(m)) or m_int <= 0:
            raise ValueError(
                f"wavenumber {k} does not fit an integer number of "
                f"wavelengths in a domain of length {L}")
        if 2 * m_int >= MEASURE_POINTS:
            raise ValueError(f"wavenumber {k} above the measurement Nyquist")
        if mode == TRANSIT:
            dt, intervals = window * L, 1
        else:
            dt, intervals = PENCIL_SPAN * 2.0 * np.pi / k, PENCIL_SNAPSHOTS - 1
        ratio = dt / raw_tau if raw_tau > 0 else math.inf
        if not ratio < math.inf:        # a CFL so small that dt / tau overflows
            raise ValueError(f"CFL {cfl} gives a step count that is not finite")
        steps = max(1, int(math.ceil(ratio)))
        if dt != P_dt:
            P = None    # hold one power at a time
            P = np.linalg.matrix_power(update_matrix(solver.A, dt / steps, "RK44"), steps)
            P_dt = dt
        w = _bin_functional(idx, vals, m_int, dof)
        u = np.exp(1j * k * solver.coords)
        bins = [w @ u.ravel()]
        for interval in range(1, intervals + 1):
            u = _apply(P, u)
            if not np.all(np.isfinite(u)):
                raise UnstableSolutionError(interval * steps)
            bins.append(w @ u.ravel())
        z = bins[1] / bins[0] if mode == TRANSIT else _dominant_factor(bins)
        k_prime = k + 1j * np.log(z * np.exp(1j * k * dt)) / dt
        transfer = bins[-1] / bins[0]
        k_hats.append(k * L / dof)
        res.append(k_prime.real * L / dof)
        ims.append(k_prime.imag * L / dof)
        trans.append(transfer)
    return TransferTable(
        k_hat=np.array(k_hats),
        re_k_hat_prime=np.array(res),
        im_k_hat_prime=np.array(ims),
        transfer=np.array(trans),
    )


def bin_wavenumbers(L, dof, k_hat_max=0.75 * np.pi):
    """All wavenumbers with integer wavelength count whose normalised value
    lies in (0, k_hat_max]; there must be at least one, and every one must
    lie below the measurement Nyquist (MEASURE_POINTS / 2 wavelengths)."""
    if not -np.inf < k_hat_max < np.inf:    # also NaN
        raise ValueError(f"wavenumber limit must be a finite number, got {k_hat_max}")
    ks = 2.0 * np.pi * np.arange(1, MEASURE_POINTS // 2 + 1) / L
    fits = ks * L / dof <= k_hat_max    # a prefix: k_hat rises with the bin
    if fits[-1]:
        raise ValueError(f"wavenumber {ks[-1]} above the measurement Nyquist")
    if not fits[0]:
        raise ValueError(f"no wavenumber bin has k_hat in (0, {k_hat_max:.6g}]")
    return ks[fits]


def numeric_ppw(table, epsilon=0.01):
    """Points per wavelength from a measured transfer table, first-crossing
    rule on |Re k_hat'/k_hat - 1| (see spectral.ppw)."""
    err = np.abs(table.re_k_hat_prime / table.k_hat - 1.0)
    return _first_crossing_ppw(zip(table.k_hat, err), epsilon)
