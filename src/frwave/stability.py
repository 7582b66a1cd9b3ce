"""Time integration and coupled space-time stability.

advance marches the one low-storage Runge-Kutta stage loop on any solver's
rhs, 1D or 2D.  For the linear problem one step is R = sum_i (tau Q)^i / i!
with the series truncated at the stage count; update_matrix forms it, and
the 1D transfer harness marches its powers.  Stability sweeps use the
transformed-flux ("weighted") wave symbol, which is the form the published
CFL table is built on.

R = P(tau Q) for a polynomial P, so by spectral mapping its eigenvalues
are P(tau lam) for the eigenvalues lam of Q: the sweeps solve for lam once,
evaluate P on it at every time step probed, and are tested against R.

On expanding grids the semi-discrete operator itself carries a weak
exponential growth, so the spectral radius exceeds one for every time
step.  The usable limit is then the sharp rise above that growth envelope
rather than the first crossing of unity; both detection rules are applied
and the larger result is kept.
"""

from dataclasses import dataclass

import numpy as np

from .element import HUYNH_G2, reference_element
from .spectral import WEIGHTED, _eigvals, _require_positive, build_operator

#: allowance on rho <= 1 for the weak-instability rule
WEAK_ALLOWANCE = 1e-3
#: rho may exceed the semi-discrete growth envelope by this factor before
#: the rise counts as the stability boundary (calibrated, frozen)
SHARP_RISE_MARGIN = 1.09
#: wavenumber samples over (0, pi] for radius sweeps
K_SAMPLES = 512
#: bisection tolerance in CFL
CFL_TOL = 1e-4

EXCEEDS_UNITY = "ExceedsUnity"
SHARP_INCREASE = "SharpIncrease"


#: each Runge-Kutta scheme by name, with its stage count
SCHEMES = {"RK33": 3, "RK44": 4, "RK55": 5}


def _stages(scheme):
    """The stage count of the scheme named `scheme`."""
    try:
        return SCHEMES[scheme]
    except KeyError:
        raise ValueError(f"unknown RK scheme {scheme!r}; expected one of {sorted(SCHEMES)}")


class BisectionError(RuntimeError):
    """CFL bisection could not bracket a stability boundary."""


class UnstableSolutionError(RuntimeError):
    """Non-finite values appeared during time stepping."""

    def __init__(self, step):
        self.step = step
        super().__init__(f"solution became non-finite at step {step}")


def _stage_loop(apply, u, tau, stages):
    """One step of the low-storage stage loop

        v <- u + (tau / i) * apply(v),  i = stages..1

    which, for a linear apply(v) = A v, is exactly the truncated-exponential
    update sum_{i=0..stages} (tau A)^i / i! (in Horner form).  So "RK44" is
    4th order in time for a linear apply but only 2nd order for a
    nonlinear one (observed 4.03 on u' = -u, 2.01 on u' = -u^2).

    Each stage scales and adds u in place into the array apply returns (the
    same values, no further full-size temporaries), so apply must not return
    u itself or a view of it; an apply that returns its argument is guarded.
    """
    v = u
    for i in range(stages, 0, -1):
        v = apply(v)
        if v is u:
            v = v.copy()
        v *= tau / i
        v += u
    return v


def update_matrix(Q, tau, scheme):
    """Amplification matrix R = sum_{i=0..stages} (tau Q)^i / i!: the step
    the 1D transfer harness marches, and the sweeps' reference.

    Q may be a single matrix or a stacked batch (..., n, n); R is real
    when Q is.
    """
    stages = _stages(scheme)
    _require_positive("time step", tau)
    Q = np.asarray(Q)
    eye = np.eye(Q.shape[-1], dtype=np.result_type(Q, float))
    return _stage_loop(lambda V: Q @ V, eye, tau, stages)


def advance(solver, u0, tau, scheme, steps):
    """March `steps` >= 0 steps of the stage loop on solver.rhs; for a
    linear rhs each step is exactly update_matrix's.  "RK44" is 4th order in
    time only on linear right-hand sides; on nonlinear ones (the Euler
    equations) the loop is 2nd order.  A non-finite state raises UnstableSolutionError.
    """
    stages = _stages(scheme)
    _require_positive("time step", tau)
    if steps < 0:
        raise ValueError(f"step count must be non-negative, got {steps}")
    u = np.asarray(u0)
    u = np.array(u, dtype=np.result_type(u, 0.5))    # a float copy: the stages scale in place
    for step in range(steps):
        u = _stage_loop(solver.rhs, u, tau, stages)
        if not np.all(np.isfinite(u)):
            raise UnstableSolutionError(step)
    return u


@dataclass
class StabilityResult:
    cfl_limit: float
    detection: str
    rho_curve: list  # (cfl, max-over-k rho) pairs probed during detection


@dataclass(frozen=True)
class WaveSymbols:
    """One (p, gamma) sweep: the k_hat samples, the weighted-closure symbol's
    eigenvalues lam (a row per k_hat) and the semi-discrete growth rate."""
    p: int
    gamma: float
    k_hat: np.ndarray
    lam: np.ndarray
    growth: float


def wave_symbols(p, gamma, correction_kind=HUYNH_G2, k_samples=K_SAMPLES):
    """WaveSymbols over k_samples >= 128 wavenumbers; CFL == tau, as delta_j = 1."""
    if k_samples < 128:
        raise ValueError(f"need at least 128 wavenumber samples, got {k_samples}")
    op = build_operator(reference_element(p, correction_kind), gamma, delta_j=1.0)
    k_hats = np.linspace(np.pi / k_samples, np.pi, k_samples)
    lam = _eigvals(op.wave_symbol(k_hats * (p + 1), WEIGHTED), k_hats)
    return WaveSymbols(p, gamma, k_hats, lam, max(0.0, float(np.max(lam.real))))


def spectral_radii(symbols, scheme, tau):
    """Per-k_hat spectral radius of R = P(tau Q) on a WaveSymbols record,
    which by spectral mapping is max |P(tau lam)|; the max over the sweep
    is the von Neumann stability figure for this tau.  A time step so
    large that P(tau lam) overflows gives radii that are not finite, which
    is a ValueError naming the time step."""
    stages = _stages(scheme)
    _require_positive("time step", tau)
    lam = symbols.lam
    with np.errstate(all="ignore"):
        amplification = _stage_loop(lambda v: lam * v, np.ones_like(lam), tau, stages)
        rho = np.max(np.abs(amplification), axis=-1)
    if not np.all(np.isfinite(rho)):
        raise ValueError(f"time step {tau} gives spectral radii that are not finite")
    return rho


def cfl_limit(symbols, scheme):
    """Largest stable CFL = tau/delta_j (unit speed) of `scheme` on `symbols`.

    Two detection rules run on g(CFL) = max over k_hat of rho(R):
    (a) last CFL with g <= 1 + WEAK_ALLOWANCE, and (b) last CFL before g
    rises above SHARP_RISE_MARGIN times the semi-discrete growth envelope
    exp(CFL * r).  The limit is the larger; the detection tag records
    which rule produced it.
    """
    trace = {}

    def g(cfl):
        if cfl not in trace:
            trace[cfl] = float(np.max(spectral_radii(symbols, scheme, cfl)))
        return trace[cfl]

    def last_below(bound):
        lo, hi = 0.0, 0.05
        while g(hi) <= bound(hi):
            lo, hi = hi, hi * 1.6
            if hi > 8.0:
                raise BisectionError(f"no stability boundary below CFL=8 for "
                                     f"{scheme}, p={symbols.p}, gamma={symbols.gamma}")
        while hi - lo > CFL_TOL:
            mid = 0.5 * (lo + hi)
            if g(mid) <= bound(mid):
                lo = mid
            else:
                hi = mid
        return lo

    rule_a = last_below(lambda cfl: 1.0 + WEAK_ALLOWANCE)
    rule_b = last_below(lambda cfl: SHARP_RISE_MARGIN * np.exp(cfl * symbols.growth))
    detection = SHARP_INCREASE if rule_b > rule_a + 2 * CFL_TOL else EXCEEDS_UNITY
    return StabilityResult(cfl_limit=max(rule_a, rule_b), detection=detection,
                           rho_curve=sorted(trace.items()))
