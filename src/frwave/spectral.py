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
from dataclasses import dataclass
from itertools import accumulate

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


class EigenSolveError(RuntimeError):
    """Eigen decomposition failed; carries the offending wavenumber."""

    def __init__(self, k_hat, detail=""):
        self.k_hat = k_hat
        super().__init__(f"eigen solve failed at k_hat={k_hat!r} {detail}".strip())


@dataclass
class SemiDiscreteOperator:
    """Cell-local matrices of the semi-discrete upwinded update.

    C0 acts on the cell's own nodal values, Cm1 on the upwind neighbour's.
    Jacobians are half cell widths (the reference interval has length 2).
    """

    element: ReferenceElement
    C0: np.ndarray
    Cm1: np.ndarray
    Jj: float
    Jjm1: float
    delta_j: float
    gamma: float

    def __post_init__(self):
        self.C0.setflags(write=False)
        self.Cm1.setflags(write=False)

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
        k = np.asarray(k)[..., None]
        if closure == SAMPLED:
            phase = np.exp(-1j * k * self.node_shifts())
            coupling = self.Cm1 * phase[..., None, :]
            return -(self.C0 + coupling) / self.Jj
        if closure == WEIGHTED:
            factor = np.exp(-1j * k * self.delta_j) / self.Jjm1
            return -(self.C0 / self.Jj + self.Cm1 * factor[..., None])
        raise ValueError(f"unknown closure {closure!r}; expected one of {CLOSURES}")


def build_operator(element, gamma, delta_j=None):
    """Assemble the semi-discrete operator for one cell of width delta_j.

    With no width given, delta_j defaults to p+1 so that unit average
    solution-point spacing makes physical and normalised wavenumbers agree.
    """
    if gamma <= 0:
        raise ValueError(f"expansion rate must be positive, got {gamma}")
    if delta_j is None:
        delta_j = float(element.p + 1)
    if delta_j <= 0:
        raise ValueError(f"cell width must be positive, got {delta_j}")
    C0 = element.D - np.outer(element.hl, element.ll)
    Cm1 = np.outer(element.hl, element.lr)
    return SemiDiscreteOperator(
        element=element,
        C0=C0,
        Cm1=Cm1,
        Jj=delta_j / 2.0,
        Jjm1=delta_j / (2.0 * gamma),
        delta_j=delta_j,
        gamma=gamma,
    )


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


def _match(prev, ev):
    """Permute ev so entry i continues branch i of prev (bipartite matching)."""
    # imported here: SciPy is most of frwave's import time and memory
    from scipy.optimize import linear_sum_assignment
    cost = np.abs(prev[:, None] - ev[None, :])
    _, cols = linear_sum_assignment(cost)
    return ev[cols]


def _track(op, ks, closure):
    """Eigenvalues at each of the increasing wavenumbers ks, physical first.

    At a tiny seed wavenumber exactly one eigenvalue sits near 1; the
    branches are ramped geometrically from there to ks[0] and then
    followed through ks by bipartite matching.  All eigenvalues come from
    one stacked solve; only the matching is sequential.
    """
    k_seed = SEED_KHAT * (op.p + 1) / op.delta_j
    ramp = np.geomspace(k_seed, ks[0], 8)[1:-1]
    ks = np.concatenate([[k_seed], ramp, ks])
    M = 1j * op.wave_symbol(ks, closure) / ks[:, None, None]
    seed, *rest = _eigvals(M, ks * op.delta_j / (op.p + 1))
    seed = seed[np.argsort(np.abs(seed - 1.0))]
    return list(accumulate(rest, _match, initial=seed))[1 + len(ramp):]


def modified_phase_velocity(op, k, closure=SAMPLED):
    """All complex phase velocities at physical wavenumber k, tracked from k -> 0.

    The branches are followed in k_hat steps no longer than those of the
    coarsest dispersion curve (pi / MIN_SAMPLES), so the result is the
    one dispersion_curve reports at the same k.
    """
    if k <= 0:
        raise ValueError(f"wavenumber must be positive, got {k}")
    k_hat = k * op.delta_j / (op.p + 1)
    n = math.ceil(MIN_SAMPLES * k_hat / np.pi)
    ev = _track(op, np.linspace(k / n, k, n), closure)[-1]
    return SpectralSample(k=k, k_hat=k_hat, eigenvalues=ev)


def dispersion_curve(p, gamma, correction_kind=HUYNH_G2, n_samples=256,
                     closure=SAMPLED):
    """Tracked phase-velocity curve over k_hat uniformly sampled in (0, pi]."""
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {n_samples}")
    element = reference_element(p, correction_kind)
    op = build_operator(element, gamma)
    k_hats = np.linspace(np.pi / n_samples, np.pi, n_samples)
    ks = k_hats * (p + 1) / op.delta_j
    samples = [SpectralSample(k=k, k_hat=k_hat, eigenvalues=ev)
               for k_hat, k, ev in zip(k_hats, ks, _track(op, ks, closure))]
    return SpectralCurve(samples=samples)


def filter_kernel(curve, t):
    """Implied low-pass kernel of running the scheme for time t.

    A unit wave decays like exp(k Im(c) t), so the kernel at each sampled
    k_hat is that factor, normalised to 1 at the resolved end.
    """
    if t <= 0:
        raise ValueError(f"time must be positive, got {t}")
    k = curve.k
    g = np.exp(t * k * curve.c.imag)
    g0 = math.exp(t * curve.samples[0].k * curve.samples[0].c.imag)
    return curve.k_hat, g / g0


def _first_crossing_ppw(k_hat, err, epsilon):
    """First-crossing rule: k* is the largest k_hat such that every sample
    at or below it has err < epsilon.  Returns 2*pi/k*, or inf when even
    the first sample violates the bound."""
    if epsilon <= 0:
        raise ValueError(f"error level must be positive, got {epsilon}")
    bad = np.nonzero(err >= epsilon)[0]
    if len(bad) == 0:
        return 2.0 * np.pi / k_hat[-1]
    if bad[0] == 0:
        return UNRESOLVABLE
    return 2.0 * np.pi / k_hat[bad[0] - 1]


def ppw(curve, epsilon=0.01):
    """Solution points per wavelength keeping |Re(c) - 1| below epsilon,
    by the first-crossing rule over the curve's samples."""
    return _first_crossing_ppw(curve.k_hat, np.abs(curve.c.real - 1.0), epsilon)


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
    if k <= 0:
        raise ValueError(f"wavenumber must be positive, got {k}")
    return -1j / k * np.sum(weights * np.exp(1j * k * offsets))
