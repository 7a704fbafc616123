import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import beta as beta_fn
from scipy.special import eval_jacobi, gammaln, roots_jacobi, roots_legendre

from kober import quadrature
from kober.errors import DomainError, QuadratureNotConverged, RatioOverflow
from kober.quadrature import (
    DENSE_NODES,
    QuadConfig,
    converge_doubling,
    doubling_sum,
    grid_sum,
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


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("a,b", [(-0.9, 0.5), (-0.5, -0.95), (0.3, -0.4), (169.0, -0.5), (-0.99, 3.0)])
def test_jacobi_rule_against_the_confluent_closed_form(n, a, b):
    # int_0^1 (1-t)^a t^b e^(-1.3 t) dt = B(b+1, a+1) 1F1(b+1; a+b+2; -1.3); at
    # (-0.5, -0.95) and 128 nodes scipy's roots_jacobi is 1.0e-10 off
    t, w = jacobi_rule_01(n, a, b)
    with mp.workdps(30):
        want = float(mp.beta(b + 1, a + 1) * mp.hyp1f1(b + 1, a + b + 2, -1.3))
    assert abs(w @ np.exp(-1.3 * t) / want - 1.0) <= 1e-11


@pytest.mark.parametrize("n", [DENSE_NODES, DENSE_NODES + 1])
@pytest.mark.parametrize("a,b", [(0.0, 0.0), (-0.5, 0.4), (-0.9, 2.0), (169.0, -0.5)])
def test_rules_on_either_side_of_dense_nodes_are_gauss_rules(n, a, b):
    # with p_k the orthonormal Jacobi polynomials, the rule integrates p_j p_k
    # exactly through degree j + k = 2n - 1, and p_n^2 to 0, not 1, because
    # its nodes are the roots of p_n
    t, w = legendre_rule_01(n) if a == b == 0.0 else jacobi_rule_01(n, a, b)
    k = np.arange(n + 1)
    log_norm = (
        (a + b + 1.0) * math.log(2.0) - np.log(2 * k + a + b + 1.0)
        + gammaln(k + a + 1.0) + gammaln(k + b + 1.0) - gammaln(k + a + b + 1.0) - gammaln(k + 1.0)
    )
    p = eval_jacobi(k[:, None], a, b, 2.0 * t - 1.0) * np.exp(-0.5 * log_norm)[:, None]
    gram = (p * (w * 2.0 ** (a + b + 1.0))) @ p.T
    np.testing.assert_allclose(gram[:n, :n], np.eye(n), atol=1e-10)
    assert abs(gram[n, n - 1]) < 1e-13
    assert abs(gram[n, n]) < 1e-13


def test_rules_above_dense_nodes_are_scipys_bit_for_bit():
    n, a, b = 2 * DENSE_NODES, -0.3, 0.7
    x, w = roots_jacobi(n, a, b)
    t, v = jacobi_rule_01(n, a, b)
    assert np.array_equal(t, 0.5 * (x + 1.0)) and np.array_equal(v, w * 0.5 ** (a + b + 1.0))
    x, w = roots_legendre(n)
    t, v = legendre_rule_01(n)
    assert np.array_equal(t, 0.5 * (x + 1.0)) and np.array_equal(v, 0.5 * w)


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
        doubling_sum(QuadConfig(), [((None,), g, 1.0)])
    assert sizes == [QuadConfig().base_nodes]


def test_doubling_sum_adds_jacobi_and_legendre_pieces():
    # int_0^1 (1-t)^0.5 t^-0.3 (1 + t) dt = B(0.7, 1.5) + B(1.7, 1.5), then
    # 3 int_0^1 t^2 dt = 1 and 2 int_0^1 dt = 2
    pieces = [
        (((0.5, -0.3),), lambda t: 1.0 + t, 1.0),
        ((None,), lambda t: t**2, 3.0),
        ((None,), np.ones_like, 2.0),
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

    val, info = doubling_sum(QuadConfig(base_nodes=3), [((None,), np.exp, 1.0), ((None,), count, 1.0)])
    np.testing.assert_allclose(val, np.e - 1.0, rtol=1e-12)
    assert len(seen) >= 2
    assert seen == [3 * 2**i for i in range(len(seen))]
    assert info.nodes == seen[-1]


def test_doubling_sum_adds_a_joint_grid_piece_and_a_one_axis_piece():
    # int int (1-t1)^0.5 t1^-0.3 (1-t2)^-0.2 t2^0.4 (t1 + t2)^2, expanded into
    # beta moments, plus 4 int_0^1 t^3 dt = 1
    def m1(d):
        return beta_fn(0.7 + d, 1.5)

    def m2(d):
        return beta_fn(1.4 + d, 0.8)

    pieces = [
        (((0.5, -0.3), (-0.2, 0.4)), lambda t1, t2: (t1 + t2) ** 2, 1.0),
        ((None,), lambda t: t**3, 4.0),
    ]
    val, info = doubling_sum(QuadConfig(base_nodes=8), pieces)
    want = m1(2) * m2(0) + 2.0 * m1(1) * m2(1) + m1(0) * m2(2) + 1.0
    np.testing.assert_allclose(val, want, rtol=1e-14)
    assert info.nodes == 16


# three axes of different sizes, so every slab split shows
AXES = [jacobi_rule_01(7, 0.3, -0.4), legendre_rule_01(5), jacobi_rule_01(6, -0.5, 0.2)]
FACTORS = [np.exp, np.cos, lambda t: 1.0 / (1.0 + t)]


def _axis_sums(k, factors):
    return [w @ fj(t) for (t, w), fj in zip(AXES[:k], factors)]


@pytest.mark.parametrize("k", [2, 3])
def test_grid_sum_of_a_separable_integrand_is_the_product_of_axis_sums(k, monkeypatch):
    # two rows of the first axis per slab: slabs of 2, 2, 2 and 1 rows
    monkeypatch.setattr(quadrature, "CHUNK_ENTRIES", 2 * math.prod(len(t) for t, _ in AXES[1:k]) + 1)
    rows = []

    def g(*xs):
        rows.append(xs[0].shape[0])
        return math.prod(fj(x) for fj, x in zip(FACTORS, xs))

    nodes, weights = zip(*AXES[:k])
    got = grid_sum(g, nodes, weights)
    np.testing.assert_allclose(got, math.prod(_axis_sums(k, FACTORS)), rtol=1e-14)
    assert rows == [2, 2, 2, 1]


def test_grid_sum_broadcasts_an_integrand_that_ignores_an_axis_or_returns_a_scalar(monkeypatch):
    monkeypatch.setattr(quadrature, "CHUNK_ENTRIES", 64)
    nodes, weights = zip(*AXES)
    sums = _axis_sums(3, FACTORS)
    # g ignores the middle axis and returns shape (rows, 1, n3)
    got = grid_sum(lambda a, b, c: np.exp(a) / (1.0 + c), nodes, weights)
    np.testing.assert_allclose(got, sums[0] * weights[1].sum() * sums[2], rtol=1e-14)
    got = grid_sum(lambda a, b, c: 2.5, nodes, weights)
    np.testing.assert_allclose(got, 2.5 * math.prod(w.sum() for w in weights), rtol=1e-14)


@pytest.mark.parametrize(
    "g",
    [
        lambda a, b: np.exp(-a.ravel()),  # ndim 1 on a k = 2 grid
        lambda a, b: np.exp(-a - b).T,  # the slab transposed
        lambda a, b: np.exp(-a - b)[..., None],  # one axis too many
    ],
)
def test_grid_sum_refuses_an_output_it_cannot_place_on_the_grid(g):
    nodes, weights = zip(*AXES[:2])
    with pytest.raises(DomainError, match=r"returned shape .* on a slab of shape \(7, 5\)"):
        grid_sum(g, nodes, weights)
