"""Wavenumber-domain analysis of the upwinded scheme on stretched grids.

The semi-discrete update in cell j couples only to the upwind neighbour
j-1.  Injecting a single right-going wave and eliminating the neighbour
through a phase closure turns the update into a (p+1)x(p+1) eigenproblem
per wavenumber; the eigenvalue branch that tends to 1 as k -> 0 is the
physical mode, whose real part is the dispersion factor and whose
imaginary part is the dissipation factor.

Two neighbour closures are provided:

``sampled``
    Per-node phase shifts taken from sampling the wave at the actual
    solution-point locations of both cells.  Exact for sampled waves and
    consistent (c -> 1 as k -> 0) at every expansion rate.  Default for
    dispersion/dissipation curves, PPW and filter kernels.

``weighted``
    A single phase factor over the current cell width with the coupling
    scaled by the upwind/current Jacobian ratio.  This is the transformed-
    flux form used by the temporal stability analysis; it reproduces the
    published CFL tables but damps/amplifies the k -> 0 limit on stretched
    grids, so it is not used for resolution metrics.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .element import HUYNH_G2, ReferenceElement, reference_element

SAMPLED = "sampled"
WEIGHTED = "weighted"
CLOSURES = (SAMPLED, WEIGHTED)

#: wavenumber (times delta_j/(p+1)) at which physical-mode tracking is seeded
SEED_KHAT = 1e-3
#: fewest samples of a dispersion curve over (0, pi]; pi / MIN_SAMPLES is
#: also the largest k_hat step of the branch tracking
MIN_SAMPLES = 64

UNRESOLVABLE = math.inf


def _require_positive(what, value):
    """The one rule for a time step, CFL, expansion rate, wavenumber or other
    size: a NaN or infinite one would otherwise fail far from its cause."""
    if not 0 < value < np.inf:        # also NaN
        raise ValueError(f"{what} must be a positive finite number, got {value}")


class EigenSolveError(RuntimeError):
    """Eigen decomposition failed; carries the offending wavenumber."""

    def __init__(self, k_hat, detail=""):
        self.k_hat = k_hat
        super().__init__(f"eigen solve failed at k_hat={k_hat!r} {detail}".strip())


@dataclass(frozen=True, eq=False)
class SemiDiscreteOperator:
    """The semi-discrete upwinded update of one cell of width delta_j whose
    upwind neighbour is delta_j/gamma wide.

    The element's cell matrices C0 and Cm1 act on the cell's own and the
    upwind neighbour's nodal values; wave_symbol scales them by the
    Jacobians Jj = delta_j/2 and Jjm1 = delta_j/(2 gamma), half cell widths
    (the reference interval has length 2).  Frozen, so the branches that
    modified_phase_velocity keeps on it (_paths) are always its own.
    """

    element: ReferenceElement
    delta_j: float
    gamma: float
    _paths: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def p(self):
        return self.element.p

    def node_shifts(self):
        """Distance from each upwind-cell node to the same node of this cell."""
        xi = self.element.xi
        d_up = self.delta_j / self.gamma
        return d_up + 0.5 * (xi + 1.0) * (self.delta_j - d_up)

    def wave_symbol(self, k, closure=SAMPLED):
        """The (p+1)x(p+1) generator Q(k) of du_j/dt = Q u_j for one wave;
        an array of k gives the stack (..., p+1, p+1)."""
        C0, Cm1 = self.element.C0, self.element.Cm1
        Jj, Jjm1 = self.delta_j / 2.0, self.delta_j / (2.0 * self.gamma)
        k = np.asarray(k)[..., None]
        if closure == SAMPLED:
            phase = np.exp(-1j * k * self.node_shifts())
            return -(C0 + Cm1 * phase[..., None, :]) / Jj
        if closure == WEIGHTED:
            factor = np.exp(-1j * k * self.delta_j) / Jjm1
            return -(C0 / Jj + Cm1 * factor[..., None])
        raise ValueError(f"unknown closure {closure!r}; expected one of {CLOSURES}")


def build_operator(element, gamma, delta_j=None):
    """The semi-discrete operator for one cell of width delta_j.

    With no width given, delta_j defaults to p+1 so that unit average
    solution-point spacing makes physical and normalised wavenumbers agree.
    """
    _require_positive("expansion rate", gamma)
    if delta_j is None:
        delta_j = float(element.p + 1)
    _require_positive("cell width", delta_j)
    return SemiDiscreteOperator(element=element, delta_j=delta_j, gamma=gamma)


@dataclass
class SpectralSample:
    """Eigenvalues of the phase-velocity problem at one wavenumber, the
    physical branch first."""

    k: float
    k_hat: float
    eigenvalues: np.ndarray

    @property
    def c(self):
        return self.eigenvalues[0]


@dataclass
class SpectralCurve:
    """Physical-mode (and full-set) phase velocities over k_hat in (0, pi]."""

    samples: list

    def __iter__(self):
        return iter(self.samples)

    @property
    def k_hat(self):
        return np.array([s.k_hat for s in self.samples])

    @property
    def c(self):
        return np.array([s.c for s in self.samples])

    @property
    def k(self):
        return np.array([s.k for s in self.samples])


def _eigvals(M, k_hats):
    """Eigenvalues of every matrix of the stack M (..., n, n), in one
    stacked solve; k_hats labels the matrices.  A stacked solve cannot say
    which matrix failed, so on failure they are solved one by one, and
    EigenSolveError names the first that fails."""
    try:
        ev = np.linalg.eigvals(M)
        if np.all(np.isfinite(ev)):
            return ev
    except np.linalg.LinAlgError:
        pass
    out = []
    for k_hat, m in zip(k_hats, M):
        try:
            out.append(np.linalg.eigvals(m))
        except np.linalg.LinAlgError as exc:
            raise EigenSolveError(k_hat, str(exc)) from exc
        if not np.all(np.isfinite(out[-1])):
            raise EigenSolveError(k_hat, "non-finite eigenvalues")
    return np.stack(out)


def _assign(cost):
    """Columns of the least-cost assignment of the square matrix cost (row
    r takes column cols[r]), by an exact search over sets of columns: row by
    row, the cheapest way to give the rows so far each set, keyed by its
    bitmask.  The matrices are (p+1)x(p+1) and gauss_points rejects p > 8,
    so n <= 9 and there are at most 2**9 = 512 sets."""
    best = {0: (0.0, ())}           # columns taken -> (total, cols)
    for row in cost.tolist():
        reached = {}
        for used, (total, cols) in best.items():
            for j, c in enumerate(row):
                key, t = used | 1 << j, total + c
                if key != used and t < reached.get(key, (math.inf,))[0]:
                    reached[key] = (t, cols + (j,))
        best = reached
    return np.array(best[(1 << len(cost)) - 1][1])


def _match(before, evs):
    """For each row r of the eigenvalue stacks (m, n), the columns cols[r]
    such that evs[r, cols[r]] continues before[r] at least total distance.

    Where the nearest columns of a row form a permutation, they reach the
    lower bound (the sum of the row minima) and are the assignment; only the
    other rows are solved by _assign."""
    cost = np.abs(before[:, :, None] - evs[:, None, :])
    cols = np.argmin(cost, axis=-1)
    collide = np.any(np.sort(cols, axis=-1) != np.arange(cols.shape[-1]), axis=-1)
    for r in np.flatnonzero(collide):
        cols[r] = _assign(cost[r])
    return cols


def _phase_eigvals(op, ks, closure):
    """Eigenvalues (in the solver's order) of the phase-velocity problem
    i Q(k) / k at each wavenumber of the array ks, in one stacked solve."""
    M = 1j * op.wave_symbol(ks, closure) / ks[:, None, None]
    return _eigvals(M, ks * op.delta_j / (op.p + 1))


def _track(op, ks, closure):
    """Yield the eigenvalues at each of the increasing wavenumbers ks,
    physical first.

    At a tiny seed wavenumber exactly one eigenvalue sits near 1; the
    branches are ramped geometrically from there to ks[0] and then
    followed through ks by least-distance matching of each wavenumber's
    eigenvalues to the last's.  The eigenvalues are solved in stacks of
    MIN_SAMPLES wavenumbers (the seed and ramp lead the first), each when
    the tracking reaches it, and each stack is matched in one pass (_match)
    on the solver's own eigenvalue order, the branch order composed along
    it; a consumer that stops early solves only the stacks it has reached.
    """
    k_seed = SEED_KHAT * (op.p + 1) / op.delta_j
    ramp = np.geomspace(k_seed, ks[0], 8)[1:-1]
    ks = np.concatenate([[k_seed], ramp, ks])
    for i in range(0, len(ks), MIN_SAMPLES):
        evs = _phase_eigvals(op, ks[i:i + MIN_SAMPLES], closure)
        if i == 0:    # the seed matches itself, sorted nearest 1 first
            branches = evs[0][np.argsort(np.abs(evs[0] - 1.0))]
        before = np.concatenate([branches[None], evs[:-1]])
        order = np.arange(evs.shape[-1])    # each branch's column in ev
        for j, (ev, cols) in enumerate(zip(evs, _match(before, evs)), i):
            order = cols[order]
            branches = ev[order]
            if j > len(ramp):
                yield branches


def modified_phase_velocity(op, k, closure=SAMPLED):
    """All complex phase velocities at physical wavenumber k, tracked from k -> 0.

    The branches are followed in k_hat steps no longer than those of the
    coarsest dispersion curve (pi / MIN_SAMPLES), so the result is the
    one dispersion_curve reports at the same k.  Up to k_hat = pi /
    MIN_SAMPLES they are ramped from the seed straight to k.  Above it they
    are read at the last point below k of op's grid g_j = j pi / MIN_SAMPLES
    in k_hat, which op tracks once per closure over max(MIN_SAMPLES, n)
    points and keeps (a point past its end tracks a longer grid); the
    eigenvalues at k are solved and matched to them.  A sweep of k on one
    operator so solves one grid and then one matrix per query.  Each grid
    point is j times one step, and the tracking to it is the same on every
    grid, so no answer depends on the grid's length or the query order.
    """
    _require_positive("wavenumber", k)
    k_hat = k * op.delta_j / (op.p + 1)
    n = math.ceil(MIN_SAMPLES * k_hat / np.pi)
    ks = np.array([k], dtype=float)
    if n == 1:
        *_, ev = _track(op, ks, closure)
        return SpectralSample(k=k, k_hat=k_hat, eigenvalues=ev)
    path = op._paths.get(closure, [])
    if len(path) < n - 1:
        step = np.pi / MIN_SAMPLES * (op.p + 1) / op.delta_j
        grid = np.arange(1, max(MIN_SAMPLES, n) + 1) * step
        path = op._paths[closure] = list(_track(op, grid, closure))
    evs = _phase_eigvals(op, ks, closure)
    ev = evs[0][_match(path[n - 2][None], evs)[0]]
    return SpectralSample(k=k, k_hat=k_hat, eigenvalues=ev)


def dispersion_samples(p, gamma, correction_kind=HUYNH_G2, n_samples=256,
                       closure=SAMPLED):
    """Tracked phase velocities at k_hat uniformly sampled in (0, pi], as
    SpectralSamples in increasing k_hat.  The arguments are checked here;
    the eigenvalues are solved as the samples are drawn."""
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {n_samples}")
    element = reference_element(p, correction_kind)
    op = build_operator(element, gamma)
    k_hats = np.linspace(np.pi / n_samples, np.pi, n_samples)
    ks = k_hats * (p + 1) / op.delta_j
    return (SpectralSample(k=k, k_hat=k_hat, eigenvalues=ev)
            for k_hat, k, ev in zip(k_hats, ks, _track(op, ks, closure)))


def dispersion_curve(p, gamma, correction_kind=HUYNH_G2, n_samples=256,
                     closure=SAMPLED):
    """Tracked phase-velocity curve over k_hat uniformly sampled in (0, pi]."""
    return SpectralCurve(samples=list(dispersion_samples(
        p, gamma, correction_kind, n_samples, closure)))


def filter_kernel(curve, t):
    """Implied low-pass kernel of running the scheme for time t.

    A unit wave decays like exp(k Im(c) t), so the kernel at each sampled
    k_hat is that factor, normalised to 1 at the resolved end.  A time so
    long that a factor overflows, or the first underflows to zero, leaves a
    kernel that is not finite, which is a ValueError naming the time.
    """
    _require_positive("time", t)
    with np.errstate(all="ignore"):
        g = np.exp(t * curve.k * curve.c.imag)
        g = g / g[0]
    if not np.all(np.isfinite(g)):
        raise ValueError(f"time {t} gives a kernel that is not finite")
    return curve.k_hat, g


def _first_crossing_ppw(pairs, epsilon):
    """First-crossing rule over (k_hat, err) pairs in increasing k_hat: k*
    is the largest k_hat such that every pair at or below it has
    err < epsilon.  Returns 2*pi/k*, or inf when even the first pair
    violates the bound; no pair after the first violation is drawn."""
    _require_positive("error level", epsilon)     # every sample passes a NaN
    resolved = None
    for k_hat, err in pairs:
        if err >= epsilon:
            break
        resolved = k_hat
    return UNRESOLVABLE if resolved is None else 2.0 * np.pi / resolved


def ppw(samples, epsilon=0.01):
    """Solution points per wavelength keeping |Re(c) - 1| below epsilon,
    by the first-crossing rule over SpectralSamples in increasing k_hat (a
    SpectralCurve, or dispersion_samples, which then stops solving at the
    first crossing)."""
    return _first_crossing_ppw(((s.k_hat, abs(s.c.real - 1.0)) for s in samples),
                               epsilon)


def fd_modified_wavenumber(offsets, weights, k):
    """Phase velocity c(k) of a finite-difference first-derivative stencil.

    Parameters
    ----------
    offsets : signed physical distances from the stencil centre (0 included).
    weights : derivative weights on those points (Lagrange weights for
        non-uniform spacing).
    k : wavenumber.

    du/dx at the centre of a sampled wave e^{ikx} comes out as
    (sum_o w_o e^{ik d_o}) u, so c(k) = -i/k times that sum; real for
    symmetric (central) stencils on uniform spacing.
    """
    offsets = np.asarray(offsets, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if offsets.shape != weights.shape:
        raise ValueError(f"stencil size mismatch: {offsets.shape} vs {weights.shape}")
    _require_positive("wavenumber", k)
    return -1j / k * np.sum(weights * np.exp(1j * k * offsets))
