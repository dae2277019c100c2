import math

import numpy as np
import pytest

from mlpicard.quadrature import (DegenerateIntervalError, InvalidOrderError,
                                 MAX_ORDER, NonFiniteIntegrandError,
                                 build_rule, integrate, legendre_roots,
                                 quadrature_error_bound)


def test_low_order_roots_closed_form():
    assert np.allclose(legendre_roots(1), [0.0], atol=1e-15)
    r = 1.0 / math.sqrt(3.0)
    assert np.allclose(legendre_roots(2), [-r, r], atol=1e-15)
    s = math.sqrt(3.0 / 5.0)
    assert np.allclose(legendre_roots(3), [-s, 0.0, s], atol=1e-15)


def test_roots_are_legendre_zeros_all_orders():
    for q in range(1, MAX_ORDER + 1):
        x = legendre_roots(q)
        coeffs = np.zeros(q + 1)
        coeffs[q] = 1.0
        assert np.abs(np.polynomial.legendre.legval(x, coeffs)).max() < 1e-13


def test_roots_exactly_antisymmetric():
    for q in (2, 5, 16, 33, 64):
        x = legendre_roots(q)
        assert np.array_equal(x + x[::-1], np.zeros(q))
        assert np.array_equal(x, np.sort(x))


def test_roots_match_numpy_reference():
    for q in (1, 4, 10, 32, 64):
        x_ref, w_ref = np.polynomial.legendre.leggauss(q)
        rule = build_rule(q, -1.0, 1.0)
        assert np.abs(rule.nodes - x_ref).max() < 1e-14
        assert np.abs(rule.weights - w_ref).max() < 1e-14


def test_legendre_roots_returns_defensive_copy():
    x = legendre_roots(6)
    x[0] = 99.0
    assert legendre_roots(6)[0] != 99.0


def test_weights_sum_to_interval_length():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a, b = np.sort(rng.uniform(-10, 10, size=2))
        if b - a < 1e-6:
            continue
        for q in (1, 3, 8, 20):
            rule = build_rule(q, a, b)
            assert abs(rule.weights.sum() - (b - a)) < 1e-12 * max(1.0, b - a)
            assert rule.nodes.min() > a and rule.nodes.max() < b


def test_polynomial_exactness_to_degree_2q_minus_1():
    rng = np.random.default_rng(11)
    for q in range(1, 13):
        rule = build_rule(q, 0.3, 2.1)
        for _ in range(5):
            deg = int(rng.integers(0, 2 * q))
            coeffs = rng.uniform(-1, 1, size=deg + 1)
            poly = np.polynomial.Polynomial(coeffs)
            exact = poly.integ()(2.1) - poly.integ()(0.3)
            got = integrate(rule, poly)
            assert abs(got - exact) <= 1e-10 * max(1.0, abs(exact))


def test_degree_2q_not_exact():
    # t^2 under the midpoint rule (q=1) shows the expected defect
    rule = build_rule(1, 0.0, 1.0)
    got = integrate(rule, lambda t: t * t)
    assert got == 0.25
    assert abs(got - 1.0 / 3.0) > 0.08


def test_constant_integrand_broadcasts_to_the_nodes():
    rule = build_rule(3, 0.0, 2.0)
    assert integrate(rule, lambda t: 1.5) == pytest.approx(3.0, rel=1e-15)
    with pytest.raises(NonFiniteIntegrandError):
        integrate(rule, lambda t: math.inf)


def test_non_finite_integrand_names_node():
    rule = build_rule(3, 0.0, 1.0)
    bad = rule.nodes[1]
    with pytest.raises(NonFiniteIntegrandError, match=str(bad)[:8]):
        integrate(rule, lambda t: np.where(t == bad, np.nan, 1.0))


def test_build_rule_validation():
    with pytest.raises(InvalidOrderError):
        build_rule(0, 0.0, 1.0)
    with pytest.raises(InvalidOrderError):
        build_rule(MAX_ORDER + 1, 0.0, 1.0)
    with pytest.raises(InvalidOrderError):
        build_rule(True, 0.0, 1.0)
    with pytest.raises(InvalidOrderError):
        build_rule(2.0, 0.0, 1.0)
    with pytest.raises(DegenerateIntervalError):
        build_rule(3, 1.0, 1.0)
    with pytest.raises(DegenerateIntervalError):
        build_rule(3, 2.0, 1.0)
    with pytest.raises(DegenerateIntervalError):
        build_rule(3, 0.0, math.inf)


def test_rule_arrays_read_only():
    rule = build_rule(5, 0.0, 1.0)
    with pytest.raises(ValueError):
        rule.nodes[0] = 0.0
    with pytest.raises(ValueError):
        rule.weights[0] = 0.0


def test_one_sided_for_smooth_convex_derivatives():
    # rule value never exceeds the true integral when g^(2q) >= 0
    cases = [
        (np.exp, lambda a, b: math.exp(b) - math.exp(a)),
        (np.cosh, lambda a, b: math.sinh(b) - math.sinh(a)),
        (lambda t: t ** 4, lambda a, b: (b ** 5 - a ** 5) / 5.0),
        (lambda t: t ** 10, lambda a, b: (b ** 11 - a ** 11) / 11.0),
    ]
    rng = np.random.default_rng(3)
    for _ in range(10):
        a, b = np.sort(rng.uniform(0.0, 5.0, size=2))
        if b - a < 1e-3:
            continue
        for q in range(1, 9):
            rule = build_rule(q, a, b)
            for g, anti in cases:
                exact = anti(a, b)
                # absolute tolerance plus summation-roundoff slack; the
                # stated 1e-12 sits below one ulp once the integral
                # reaches ~1e4, where the comparison is pure float noise
                slack = 1e-12 + (2 * q + 4) * np.finfo(float).eps * abs(exact)
                assert integrate(rule, g) <= exact + slack


def test_error_bound_known_value():
    # q=1 on [0,1] with unit second-derivative bound: 1/24
    assert quadrature_error_bound(1, 0.0, 1.0, 1.0) == pytest.approx(1.0 / 24.0)


def test_error_bound_scaling_in_interval_length():
    b1 = quadrature_error_bound(2, 0.0, 1.0, 3.0)
    b2 = quadrature_error_bound(2, 0.0, 2.0, 3.0)
    assert b2 == pytest.approx(b1 * 2 ** 5)


def test_error_bound_covers_measured_error():
    # g(t) = t^(2q+2) has g^(2q) = (2q+2)!/2 * t^2, maximized at 1
    for q in range(1, 7):
        rule = build_rule(q, 0.0, 1.0)
        power = 2 * q + 2
        got = integrate(rule, lambda t, p=power: t ** p)
        exact = 1.0 / (power + 1)
        deriv_bound = math.factorial(power) / 2.0
        assert abs(got - exact) <= quadrature_error_bound(q, 0.0, 1.0, deriv_bound)


def test_error_bound_edge_cases():
    assert quadrature_error_bound(3, 1.0, 1.0, 5.0) == 0.0
    assert quadrature_error_bound(3, 0.0, 1.0, 0.0) == 0.0
    assert quadrature_error_bound(1, 0.0, 1e200, 1.0) == math.inf
    with pytest.raises(DegenerateIntervalError):
        quadrature_error_bound(3, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        quadrature_error_bound(3, 0.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        quadrature_error_bound(3, 0.0, 1.0, math.nan)
    with pytest.raises(InvalidOrderError):
        quadrature_error_bound(0, 0.0, 1.0, 1.0)
    with pytest.raises(InvalidOrderError):
        quadrature_error_bound(True, 0.0, 1.0, 1.0)


def test_error_bound_saturates_only_past_the_float_range():
    # log bound 709.597: math.exp is finite there, and the bound used to
    # read inf from 709.0 on; one more e-fold passes 709.78
    got = quadrature_error_bound(1, 0.0, 1e100, math.exp(22.0))
    assert got == pytest.approx(1e300 / 24.0 * math.exp(22.0), rel=1e-12)
    assert math.isfinite(got) and got > 1e308
    assert quadrature_error_bound(1, 0.0, 1e100, math.exp(23.0)) == math.inf


def test_error_bound_no_overflow_at_large_order():
    # factorial pieces overflow float64 individually; the bound must not
    val = quadrature_error_bound(64, 0.0, 1.0, 1.0)
    assert val == 0.0 or (math.isfinite(val) and val >= 0.0)
