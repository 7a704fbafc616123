import numpy as np
import pytest
from scipy.special import beta as beta_fn

from kober.errors import QuadratureNotConverged, RatioOverflow
from kober.quadrature import (
    QuadConfig,
    converge_doubling,
    doubling_sum,
    jacobi_rule_01,
    legendre_rule_01,
)


@pytest.mark.parametrize("a,b", [(0.0, 0.0), (-0.5, 0.0), (0.3, -0.7), (1.5, 2.0), (-0.9, 3.25)])
def test_jacobi_weights_integrate_the_weight_function(a, b):
    # sum of weights = int_0^1 (1-t)^a t^b dt = B(b+1, a+1)
    t, w = jacobi_rule_01(32, a, b)
    np.testing.assert_allclose(w.sum(), beta_fn(b + 1.0, a + 1.0), rtol=1e-13)
    assert np.all(t > 0.0) and np.all(t < 1.0)


@pytest.mark.parametrize("deg", [0, 1, 5, 17])
def test_jacobi_rule_exact_on_polynomials(deg):
    a, b = -0.5, 0.4
    t, w = jacobi_rule_01(16, a, b)
    # n-point Gauss rule is exact through degree 2n - 1
    exact = beta_fn(b + 1.0 + deg, a + 1.0)
    np.testing.assert_allclose(w @ t**deg, exact, rtol=1e-13)


def test_jacobi_rule_is_cached():
    t1, w1 = jacobi_rule_01(64, -0.25, 0.5)
    t2, w2 = jacobi_rule_01(64, -0.25, 0.5)
    assert t1 is t2 and w1 is w2


def test_legendre_rule_01_basic():
    t, w = legendre_rule_01(24)
    np.testing.assert_allclose(w.sum(), 1.0, rtol=1e-14)
    np.testing.assert_allclose(w @ t**3, 0.25, rtol=1e-13)


@pytest.mark.parametrize(
    "rule",
    [lambda: jacobi_rule_01(20, 0.3, -0.4), lambda: legendre_rule_01(20)],
)
def test_cached_rules_are_read_only(rule):
    t, w = rule()
    with pytest.raises(ValueError):
        w *= 2.0
    with pytest.raises(ValueError):
        t[0] = 0.5
    np.testing.assert_array_equal(rule()[1], w)


def test_converge_doubling_smooth_integrand():
    def estimate(n):
        t, w = legendre_rule_01(n)
        return float(w @ np.exp(t))

    val, info = converge_doubling(estimate, QuadConfig())
    np.testing.assert_allclose(val, np.e - 1.0, rtol=1e-12)
    assert info.nodes >= 64


def test_converge_doubling_raises_when_estimates_drift():
    calls = {"n": 0}

    def estimate(n):
        # a sequence that never settles
        calls["n"] += 1
        return (-1.0) ** calls["n"]

    with pytest.raises(QuadratureNotConverged):
        converge_doubling(estimate, QuadConfig(max_doublings=4))


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_converge_doubling_stops_at_a_non_finite_estimate(value):
    # an integrand out of the floating range raises at once instead of
    # doubling to the end of the budget
    sizes = []

    def g(t):
        sizes.append(len(t))
        return np.full_like(t, value)

    with pytest.raises(RatioOverflow):
        doubling_sum(QuadConfig(), [(None, g, 1.0)])
    assert sizes == [QuadConfig().base_nodes]


def test_doubling_sum_adds_jacobi_and_legendre_pieces():
    # int_0^1 (1-t)^0.5 t^-0.3 (1 + t) dt = B(0.7, 1.5) + B(1.7, 1.5), then
    # 3 int_0^1 t^2 dt = 1 and 2 int_0^1 dt = 2
    pieces = [
        ((0.5, -0.3), lambda t: 1.0 + t, 1.0),
        (None, lambda t: t**2, 3.0),
        (None, np.ones_like, 2.0),
    ]
    val, info = doubling_sum(QuadConfig(base_nodes=8), pieces)
    want = beta_fn(0.7, 1.5) + beta_fn(1.7, 1.5) + 1.0 + 2.0
    np.testing.assert_allclose(val, want, rtol=1e-14)
    # every piece is exact at the base rule, so the first doubling settles
    assert info.nodes == 16


def test_doubling_sum_doubles_from_base_nodes():
    seen = []

    def count(t):
        seen.append(len(t))
        return np.zeros_like(t)

    val, info = doubling_sum(QuadConfig(base_nodes=3), [(None, np.exp, 1.0), (None, count, 1.0)])
    np.testing.assert_allclose(val, np.e - 1.0, rtol=1e-12)
    assert len(seen) >= 2
    assert seen == [3 * 2**i for i in range(len(seen))]
    assert info.nodes == seen[-1]
