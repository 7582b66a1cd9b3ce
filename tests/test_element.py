import numpy as np
import pytest

from frwave.element import (DG, HUYNH_G2, REDUCED_ORDER, barycentric_weights,
                            correction_derivatives, derivative_matrix,
                            gauss_points, gauss_weights,
                            lagrange_values, left_correction_legendre,
                            reference_element)


# --- independent oracles -----------------------------------------------------

def legendre_value_and_deriv(n, x):
    """Legendre P_n(x) and P_n'(x) by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x.copy()
    if n == 0:
        return p0, np.zeros_like(x)
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    with np.errstate(divide="ignore", invalid="ignore"):
        dp = n * (x * p1 - p0) / (x * x - 1.0)   # endpoints unused
    return p1, dp


def newton_legendre_roots(n):
    """Roots of P_n via Newton iteration seeded by the Chebyshev guess."""
    x = np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(100):
        v, d = legendre_value_and_deriv(n, x)
        dx = v / d
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    return np.sort(x)


def bisection_legendre_roots(n, grid=20001):
    """Bracket sign changes of P_n on a fine grid, then bisect."""
    xs = np.linspace(-1, 1, grid)
    vals = legendre_value_and_deriv(n, xs)[0]
    roots = []
    for i in range(grid - 1):
        if vals[i] == 0.0:
            roots.append(xs[i])
        elif vals[i] * vals[i + 1] < 0:
            lo, hi = xs[i], xs[i + 1]
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if legendre_value_and_deriv(n, np.array([mid]))[0][0] * \
                   legendre_value_and_deriv(n, np.array([lo]))[0][0] <= 0:
                    hi = mid
                else:
                    lo = mid
            roots.append(0.5 * (lo + hi))
    return np.array(roots)


def monomial_from_legendre_index(n):
    """Monomial coefficients (ascending) of P_n via the recurrence, built
    without numpy.polynomial.legendre."""
    polys = [np.array([1.0]), np.array([0.0, 1.0])]
    for k in range(2, n + 1):
        a = np.zeros(k + 1)
        a[1:] += (2 * k - 1) * polys[-1] / k
        a[:k - 1] -= (k - 1) * polys[-2] / k
        polys.append(a)
    return polys[n]


def poly_eval(coeffs, x):
    out = np.zeros_like(np.asarray(x, dtype=float))
    for c in reversed(coeffs):
        out = out * x + c
    return out


def poly_der(coeffs):
    return np.array([i * coeffs[i] for i in range(1, len(coeffs))])


# --- solution points ---------------------------------------------------------

def test_gauss_points_p1_closed_form():
    assert np.allclose(gauss_points(1), [-1 / np.sqrt(3), 1 / np.sqrt(3)],
                       atol=1e-15)


def test_gauss_points_p2_closed_form():
    assert np.allclose(gauss_points(2), [-np.sqrt(3 / 5), 0.0, np.sqrt(3 / 5)],
                       atol=1e-15)


def test_gauss_points_p5_against_newton_and_bisection():
    xi = gauss_points(5)
    newton = newton_legendre_roots(6)
    bisect = bisection_legendre_roots(6)
    assert np.allclose(xi, newton, atol=1e-13)
    assert np.allclose(xi, bisect, atol=1e-10)
    assert np.all(np.diff(xi) > 0)
    assert np.all(np.abs(xi) < 1)
    # symmetric about zero
    assert np.allclose(xi, -xi[::-1], atol=1e-15)


def test_gauss_points_rejects_degenerate_order():
    with pytest.raises(ValueError):
        gauss_points(0)
    with pytest.raises(ValueError):
        gauss_points(9)


def test_gauss_weights_integrate_polynomials():
    xi, w = gauss_points(3), gauss_weights(3)
    # exact up to degree 2p+1 = 7
    for q in range(8):
        exact = (1 - (-1) ** (q + 1)) / (q + 1)
        assert abs(w @ xi ** q - exact) < 1e-14


# --- derivative matrix -------------------------------------------------------

def test_derivative_matrix_annihilates_constants():
    for p in range(1, 9):
        D = derivative_matrix(gauss_points(p))
        assert np.max(np.abs(D @ np.ones(p + 1))) < 1e-12


def test_derivative_matrix_differentiates_identity():
    for p in range(1, 7):
        xi = gauss_points(p)
        D = derivative_matrix(xi)
        assert np.allclose(D @ xi, np.ones(p + 1), atol=1e-12)


def test_derivative_matrix_two_points():
    D = derivative_matrix(np.array([-1.0, 1.0]))
    assert np.allclose(D, [[-0.5, 0.5], [-0.5, 0.5]], atol=1e-15)


def test_derivative_matrix_exact_for_monomials():
    for p in (3, 5, 8):
        xi = gauss_points(p)
        D = derivative_matrix(xi)
        for q in range(p + 1):
            assert np.allclose(D @ xi ** q, q * xi ** max(q - 1, 0) *
                               (1 if q else 0), atol=1e-10)


def test_derivative_matrix_rejects_duplicates():
    with pytest.raises(ValueError):
        derivative_matrix(np.array([0.0, 0.5, 0.5]))


# --- stacked node sets -------------------------------------------------------

@pytest.mark.parametrize("n", [2, 5, 9])
def test_batched_kernels_equal_per_set_calls(n):
    rng = np.random.default_rng(n)
    stack = np.sort(rng.uniform(-3, 3, (3, 4, n)), axis=-1)
    stack[0, 0] = np.linspace(-1, 1, n)
    x = rng.uniform(-3, 3, (3, 4))
    x[1, 2] = stack[1, 2, n // 2]          # hits a node exactly
    w = barycentric_weights(stack)
    D = derivative_matrix(stack)
    vals = lagrange_values(stack, x)
    assert w.shape == (3, 4, n) and D.shape == (3, 4, n, n)
    assert vals.shape == (3, 4, n)
    for i in np.ndindex(3, 4):
        assert np.array_equal(w[i], barycentric_weights(stack[i]))
        assert np.array_equal(D[i], derivative_matrix(stack[i]))
        assert np.array_equal(vals[i], lagrange_values(stack[i], x[i]))


def test_batched_kernels_reject_a_duplicate_anywhere():
    stack = np.tile(np.linspace(-1, 1, 4), (5, 1))
    stack[3, 2] = stack[3, 1]
    for fn in (barycentric_weights, derivative_matrix,
               lambda xi: lagrange_values(xi, 0.3)):
        with pytest.raises(ValueError):
            fn(stack)


# --- Lagrange basis ----------------------------------------------------------

def test_partition_of_unity():
    rng = np.random.default_rng(1)
    for p in (2, 5, 8):
        xi = gauss_points(p)
        xs = rng.uniform(-1, 1, 200)
        vals = lagrange_values(xi, xs)
        assert np.max(np.abs(vals.sum(axis=-1) - 1.0)) < 1e-12


def test_interpolation_reproduces_polynomials():
    rng = np.random.default_rng(2)
    for p in (2, 4, 6):
        xi = gauss_points(p)
        coeffs = rng.standard_normal(p + 1)
        nodal = poly_eval(coeffs, xi)
        xs = rng.uniform(-1, 1, 100)
        interp = lagrange_values(xi, xs) @ nodal
        assert np.max(np.abs(interp - poly_eval(coeffs, xs))) < 1e-10


def test_boundary_extraction_evaluates_polynomials():
    rng = np.random.default_rng(3)
    for p in (1, 3, 6):
        e = reference_element(p)
        coeffs = rng.standard_normal(p + 1)
        nodal = poly_eval(coeffs, e.xi)
        assert abs(e.ll @ nodal - poly_eval(coeffs, -1.0)) < 1e-12
        assert abs(e.lr @ nodal - poly_eval(coeffs, 1.0)) < 1e-12


def test_lagrange_values_at_a_node():
    xi = gauss_points(3)
    vals = lagrange_values(xi, xi[2])
    expect = np.zeros(4)
    expect[2] = 1.0
    assert np.allclose(vals, expect, atol=1e-14)


# --- correction functions ----------------------------------------------------

@pytest.mark.parametrize("kind", [HUYNH_G2, DG])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
def test_correction_derivative_integral(p, kind):
    # integral of dh_l/dxi over [-1,1] is h_l(1) - h_l(-1) = -1; the
    # integrand has degree <= p, so order-(p+1) quadrature is exact
    hl, hr = correction_derivatives(p, kind)
    xi_q, w_q = gauss_points(p + 1), gauss_weights(p + 1)
    from frwave.element import left_correction_legendre
    from numpy.polynomial import legendre as L
    dc = L.legder(left_correction_legendre(p, kind))
    assert abs(w_q @ L.legval(xi_q, dc) + 1.0) < 1e-13
    assert abs(w_q @ (-L.legval(-xi_q, dc)) - 1.0) < 1e-13


@pytest.mark.parametrize("kind", [HUYNH_G2, DG])
def test_correction_mirror_symmetry(kind):
    for p in (1, 3, 4, 7):
        hl, hr = correction_derivatives(p, kind)
        # Gauss points are symmetric, so mirroring reverses the node order
        assert np.allclose(hr, -hl[::-1], atol=1e-12)


def test_huynh_g2_p3_against_symbolic_construction():
    # independent monomial-basis build of
    # (-1)^p/2 [L_p - ((p+1) L_{p-1} + p L_{p+1}) / (2p+1)]
    p = 3
    g = np.zeros(p + 2)
    g[:p + 1] += monomial_from_legendre_index(p)
    g[:p] -= (p + 1) / (2 * p + 1) * monomial_from_legendre_index(p - 1)
    g -= p / (2 * p + 1) * monomial_from_legendre_index(p + 1)
    g *= 0.5 * (-1) ** p
    assert abs(poly_eval(g, np.array(-1.0)) - 1.0) < 1e-13
    assert abs(poly_eval(g, np.array(1.0))) < 1e-13
    dg = poly_der(g)
    hl, _ = correction_derivatives(p, HUYNH_G2)
    assert np.allclose(hl, poly_eval(dg, gauss_points(p)), atol=1e-12)


def test_huynh_g2_right_end_lumping():
    from numpy.polynomial import legendre as L
    for p in (1, 2, 3, 4, 5, 6, 7, 8):
        dc = L.legder(left_correction_legendre(p, HUYNH_G2))
        assert abs(L.legval(1.0, dc)) < 1e-10


def test_correction_endpoint_values_reconstructed():
    # reconstruct h_l from its derivative plus h_l(-1) = 1: h_l(1) must be 0
    from numpy.polynomial import legendre as L
    for kind in (HUYNH_G2, DG):
        for p in (1, 3, 5):
            c = left_correction_legendre(p, kind)
            dc = L.legder(c)
            anti = L.legint(dc)
            offset = 1.0 - L.legval(-1.0, anti)
            assert abs(L.legval(1.0, anti) + offset) < 1e-10


def test_reduced_order_uses_lower_degree_form():
    p = 4
    hl_red, hr_red = correction_derivatives(p, REDUCED_ORDER)
    from numpy.polynomial import legendre as L
    dc = L.legder(left_correction_legendre(p - 1, HUYNH_G2))
    assert np.allclose(hl_red, L.legval(gauss_points(p), dc), atol=1e-13)
    assert np.allclose(hr_red, -L.legval(-gauss_points(p), dc), atol=1e-13)


def test_reduced_order_needs_p_at_least_two():
    with pytest.raises(ValueError):
        correction_derivatives(1, REDUCED_ORDER)


def test_unknown_correction_kind_rejected():
    with pytest.raises(ValueError):
        correction_derivatives(3, "radau-left")


# --- assembled element -------------------------------------------------------

def test_reference_element_fields_consistent():
    e = reference_element(4)
    assert e.p == 4 and e.n_points == 5
    assert np.all(np.diff(e.xi) > 0)
    assert np.all(np.abs(e.xi) < 1)
    assert np.max(np.abs(e.D @ np.ones(5))) < 1e-12
    assert abs(e.ll.sum() - 1) < 1e-12 and abs(e.lr.sum() - 1) < 1e-12


def test_reference_element_arrays_immutable():
    e = reference_element(3)
    with pytest.raises(ValueError):
        e.D[0, 0] = 1.0
    with pytest.raises(ValueError):
        e.hl[0] = 0.0


def test_interpolate_matches_nodal_data():
    e = reference_element(3)
    rng = np.random.default_rng(4)
    nodal = rng.standard_normal(4)
    assert np.allclose(e.interpolate(nodal, e.xi), nodal, atol=1e-13)
