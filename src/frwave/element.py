"""Order-p nodal machinery on the reference interval [-1, 1].

Everything downstream (spectral analysis, time-domain solvers, 2D
tensor-product elements) is built from the objects constructed here:
Gauss-Legendre solution points, the nodal derivative matrix, boundary
extraction vectors, correction-function derivative vectors and the two
upwinded cell matrices built from them.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as npleg

# Correction function families.  "huynh-g2" is the default throughout the
# toolkit; "reduced-order" reuses the same closed form one degree lower on
# the same element (a deliberate accuracy/stability trade).
HUYNH_G2 = "huynh-g2"
DG = "dg"
REDUCED_ORDER = "reduced-order"
CORRECTION_KINDS = (HUYNH_G2, DG, REDUCED_ORDER)

MAX_ORDER = 8


def gauss_points(p):
    """Solution points for an order-p element: the p+1 Gauss-Legendre nodes.

    Parameters
    ----------
    p : int
        Polynomial order, 1 <= p <= 8.

    Returns
    -------
    ndarray, shape (p+1,), strictly ascending, all in (-1, 1).
    """
    if not 1 <= p <= MAX_ORDER:
        raise ValueError(f"order p must be in [1, {MAX_ORDER}], got {p}")
    xi, _ = npleg.leggauss(p + 1)
    return xi


def gauss_weights(p):
    """Quadrature weights paired with gauss_points(p)."""
    _, w = npleg.leggauss(gauss_points(p).size)     # gauss_points checks p
    return w


def _differences(xi, diagonal):
    """xi[..., n] - xi[..., m] over all node pairs, `diagonal` where n == m."""
    d = xi[..., :, None] - xi[..., None, :]
    i = np.arange(xi.shape[-1])
    d[..., i, i] = diagonal
    return d


def barycentric_weights(xi):
    """Weights 1 / prod_{m != n} (xi[n] - xi[m]) of the barycentric form.

    `xi` may be one node set (n,) or a stack of them (..., n).
    """
    xi = np.asarray(xi, dtype=float)
    d = _differences(xi, 1.0)
    if np.any(d == 0.0):
        raise ValueError("interpolation points must be distinct")
    return 1.0 / np.prod(d, axis=-1)


def lagrange_values(xi, x):
    """Values of the p+1 cardinal (Lagrange) functions on nodes `xi` at `x`.

    Barycentric form; `x` may be scalar or array.  Result has shape
    x.shape + (p+1,).  `xi` may also be a stack (..., p+1) of node sets
    whose leading shape broadcasts against x.shape.
    """
    xi = np.asarray(xi, dtype=float)
    x = np.asarray(x, dtype=float)
    w = barycentric_weights(xi)
    diff = x[..., None] - xi
    exact = np.abs(diff) < 1e-14
    hit = exact.any(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = w / diff
        out = t / t.sum(axis=-1, keepdims=True)
    if np.any(hit):
        out[hit] = exact[hit].astype(float)
    return out


def derivative_matrix(xi):
    """Nodal derivative matrix: D[n, m] = dl_m/dxi evaluated at xi[n].

    `xi` may be a stack (..., n) of node sets; the result is then (..., n, n).
    """
    xi = np.asarray(xi, dtype=float)
    w = barycentric_weights(xi)
    # an infinite difference on the diagonal makes it 0 before the sum
    D = (w[..., None, :] / w[..., :, None]) / _differences(xi, np.inf)
    # diagonal from the row-sum identity: D @ const = 0
    i = np.arange(xi.shape[-1])
    D[..., i, i] = -D.sum(axis=-1)
    return D


def left_correction_legendre(p, kind):
    """Legendre-series coefficients of the left correction polynomial.

    The polynomial satisfies h_l(-1) = 1 and h_l(1) = 0.  For "huynh-g2"
    its derivative also vanishes at +1, which is what decouples the right
    interface from the left correction.  "reduced-order" evaluates the same
    closed form one degree lower.
    """
    if kind not in CORRECTION_KINDS:
        raise ValueError(f"unknown correction kind {kind!r}; expected one of {CORRECTION_KINDS}")
    if kind == REDUCED_ORDER:
        if p < 2:
            raise ValueError("reduced-order correction needs p >= 2")
        p = p - 1
    c = np.zeros(p + 2)
    if kind == DG:
        c[p] = 1.0
        c[p + 1] = -1.0
    else:
        c[p] = 1.0
        c[p - 1] = -(p + 1) / (2 * p + 1)
        c[p + 1] = -p / (2 * p + 1)
    return 0.5 * (-1.0) ** p * c


def correction_derivatives(p, kind=HUYNH_G2):
    """Derivative vectors (hl, hr) of the correction functions at the nodes.

    hr is the mirror of hl: h_r(xi) = h_l(-xi), hence
    dh_r/dxi (xi) = -dh_l/dxi (-xi).
    """
    xi = gauss_points(p)
    dc = npleg.legder(left_correction_legendre(p, kind))
    hl = npleg.legval(xi, dc)
    hr = -npleg.legval(-xi, dc)
    return hl, hr


@dataclass(frozen=True, eq=False)
class ReferenceElement:
    """Immutable bundle of order-p nodal operators on [-1, 1]; one instance
    per (p, kind) is shared by every caller of reference_element.

    Attributes
    ----------
    p : polynomial order
    xi : solution points, ascending
    D : (p+1)x(p+1) nodal derivative matrix
    ll, lr : extraction vectors; ll @ u == interpolant of u at xi = -1
    hl, hr : correction derivative vectors at the solution points
    C0, Cm1 : upwinded cell matrices, C0 = D - hl ll^T acting on the cell's
        own nodal values and Cm1 = hl lr^T on its upwind neighbour's
    """

    p: int
    xi: np.ndarray
    D: np.ndarray
    ll: np.ndarray
    lr: np.ndarray
    hl: np.ndarray
    hr: np.ndarray
    C0: np.ndarray
    Cm1: np.ndarray

    def __post_init__(self):
        for a in (self.xi, self.D, self.ll, self.lr, self.hl, self.hr,
                  self.C0, self.Cm1):
            a.setflags(write=False)

    @property
    def n_points(self):
        return self.p + 1


_ELEMENTS = {}     # (p, kind) -> its ReferenceElement, built on first use


def reference_element(p, kind=HUYNH_G2):
    """The full order-p reference element with the given correction, built
    once per (p, kind) and shared: it is read-only."""
    element = _ELEMENTS.get((p, kind))
    if element is None:
        xi = gauss_points(p)
        hl, hr = correction_derivatives(p, kind)
        D = derivative_matrix(xi)
        ll = lagrange_values(xi, -1.0)
        lr = lagrange_values(xi, 1.0)
        element = _ELEMENTS[p, kind] = ReferenceElement(
            p=p, xi=xi, D=D, ll=ll, lr=lr, hl=hl, hr=hr,
            C0=D - np.outer(hl, ll), Cm1=np.outer(hl, lr))
    return element
