import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kober.errors import DomainError, MomentDivergence, ProposalDomainError, TailDivergence
from kober.matgamma import ln_gamma_p
from kober.matrix_ops import (
    ChainSpec,
    MatrixOpParams,
    MCConfig,
    det_power,
    det_power_times_exp,
    exp_neg_trace,
    kober_matrix_second,
    matrix_callback,
    wishart_density,
)
from kober.mtransform import (
    _axis_product_nodes,
    gamma_ratio_first,
    gamma_ratio_second,
    mellin_numeric_1d,
    mtransform_mc,
    mtransform_mc_operator,
    mtransform_quadrature,
    operator_curve_1d,
    verify_transform,
)
from kober.scalar_ops import callback, exp_decay, power_times_exp

# frozen reference values
SQRT_PI = 1.7724538509055159  # Mellin transform of e^-x at s = 1/2


# ---------------------------------------------------------------------------
# numerical Mellin transform


def test_mellin_exp_integer_moment():
    np.testing.assert_allclose(mellin_numeric_1d(exp_decay(1.0), 3.0), 2.0, rtol=1e-11)


def test_mellin_exp_half_moment():
    np.testing.assert_allclose(
        mellin_numeric_1d(exp_decay(1.0), 0.5), SQRT_PI, rtol=1e-11
    )


def test_mellin_indicator():
    ind = callback(
        lambda v: np.where(np.asarray(v) <= 1.0, 1.0, 0.0),
        tail=("compact", 0.0, 1.0),
    )
    np.testing.assert_allclose(mellin_numeric_1d(ind, 2.0), 0.5, rtol=1e-12)


def test_mellin_compact_support_away_from_the_unit_point():
    # no rule may cross the jump at either end of the support
    inner = callback(
        lambda v: np.where((v > 0.5) & (v < 2.0), v**0.3, 0.0), tail=("compact", 0.5, 2.0)
    )
    np.testing.assert_allclose(
        mellin_numeric_1d(inner, 0.5), (2.0**0.8 - 0.5**0.8) / 0.8, rtol=1e-11
    )
    low = callback(lambda v: np.where(v < 0.5, 1.0, 0.0), tail=("compact", 0.0, 0.5))
    np.testing.assert_allclose(mellin_numeric_1d(low, 1.5), 0.5**1.5 / 1.5, rtol=1e-11)


def test_mellin_scalar_callback_on_a_segment():
    # a callback's output is broadcast to its nodes, as on every other path
    one = callback(lambda v: 1.0, tail=("compact", 1.0, 2.0))
    np.testing.assert_allclose(mellin_numeric_1d(one, 0.5), (2.0**0.5 - 1.0) / 0.5, rtol=1e-13)


def test_mellin_power_decay_tail():
    # int x^(s-1) (1+x)^-3 dx = B(s, 3-s)
    f = callback(lambda v: (1.0 + np.asarray(v)) ** -3.0, tail=("power", 3.0))
    for s in (0.4, 1.2, 2.3):
        want = math.gamma(s) * math.gamma(3.0 - s) / math.gamma(3.0)
        np.testing.assert_allclose(mellin_numeric_1d(f, s), want, rtol=1e-9)


@settings(deadline=None, max_examples=25)
@given(
    st.floats(-0.4, 2.0),
    st.floats(0.4, 3.0),
    st.floats(0.2, 2.5),
)
def test_mellin_matches_closed_form(lam, rate, s):
    if s + lam < 0.1:
        return
    f = power_times_exp(lam, rate)
    want = math.gamma(s + lam) * rate ** -(s + lam)
    np.testing.assert_allclose(mellin_numeric_1d(f, s), want, rtol=1e-9)


def test_mellin_domain_and_tail_errors():
    with pytest.raises(DomainError):
        mellin_numeric_1d(power_times_exp(0.5, 1.0), -0.5)
    with pytest.raises(TailDivergence):
        mellin_numeric_1d(
            callback(lambda v: (1.0 + np.asarray(v)) ** -2.0, tail=("power", 2.0)), 2.5
        )
    with pytest.raises(TailDivergence):
        mellin_numeric_1d(callback(lambda v: np.ones(np.shape(v))), 1.0)


# ---------------------------------------------------------------------------
# transform points and gamma ratios


def test_mpoint_broadcast_and_length():
    prm = MatrixOpParams("second", 1, 2, ((1.5, 0.7), (2.2, 1.1)))
    val = gamma_ratio_second(prm, 1.3)
    want = gamma_ratio_second(prm, (1.3, 1.3))
    assert val == want
    with pytest.raises(DomainError):
        gamma_ratio_second(prm, (1.0, 1.0, 1.0))


@settings(deadline=None, max_examples=40)
@given(st.floats(0.2, 3.0), st.floats(0.1, 2.5), st.floats(0.05, 2.5))
def test_gamma_ratios_reduce_to_scalar_gammas(zeta, alpha, s):
    second = MatrixOpParams("second", 1, 1, ((zeta, alpha),))
    np.testing.assert_allclose(
        gamma_ratio_second(second, s),
        math.gamma(zeta + s) / math.gamma(zeta + s + alpha),
        rtol=1e-12,
    )
    if s < zeta + 1.0 - 1e-6:
        first = MatrixOpParams("first", 1, 1, ((zeta, alpha),))
        np.testing.assert_allclose(
            gamma_ratio_first(first, s),
            math.gamma(zeta + 1.0 - s) / math.gamma(zeta + 1.0 - s + alpha),
            rtol=1e-12,
        )


def test_domain_bounds_raise():
    first = MatrixOpParams("first", 2, 1, ((1.5, 0.7),))
    with pytest.raises(DomainError):
        gamma_ratio_first(first, 2.5)  # s >= zeta + 1
    second = MatrixOpParams("second", 2, 1, ((0.8, 0.7),))
    with pytest.raises(DomainError):
        gamma_ratio_second(second, -0.4)  # zeta + s <= (p-1)/2
    with pytest.raises(DomainError):
        gamma_ratio_second(first, 1.0)  # wrong kind


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from(["first", "second"]),
    st.sampled_from([1, 2, 3]),
    st.floats(0.0, 1.0),
    st.floats(-1.9, 6.0),
)
def test_routes_refuse_the_same_transform_points(kind, p, u, s):
    # the closed form, the verification driver and the density route refuse
    # exactly the s at which a Gamma_p argument a(s) reaches (p-1)/2.  The
    # input's own transform is finite for s > -2, and zeta >= 3 keeps the
    # p = 1 second-kind tensor path in its range, so nothing else refuses
    bound = (p - 1) / 2.0
    if kind == "first":
        zeta = bound + 0.05 + 4.0 * u
    elif p == 1:
        zeta = 3.0 + 2.0 * u
    else:
        zeta = -0.95 + 4.0 * u
    prm = MatrixOpParams(kind, p, 1, ((zeta, bound + 0.6),))
    f = det_power_times_exp(p, p + 2.0)
    mc = MCConfig(n_samples=1000, seed=1, n_streams=2)
    ratio = gamma_ratio_first if kind == "first" else gamma_ratio_second

    def verify():
        (rep,) = verify_transform(kind, prm, f, [s], mc)
        if rep.status == "domain-error":
            raise DomainError(rep.note)

    def refuses(route):
        # an estimate near the pole may be heavy-tailed; it was not refused
        try:
            route()
        except DomainError:
            return True
        except MomentDivergence:
            pass
        return False

    refused = refuses(lambda: ratio(prm, s))
    assert refuses(verify) == refused
    assert refuses(lambda: mtransform_mc(prm, f, s, mc)) == refused


# ---------------------------------------------------------------------------
# p = 1 quadrature routes against the closed form


SECOND_1 = MatrixOpParams("second", 1, 1, ((1.5, 0.7),))
FIRST_1 = MatrixOpParams("first", 1, 1, ((1.5, 0.7),))


def test_second_kind_curve_route_k1():
    g = operator_curve_1d("second", 1.5, 0.7, exp_decay(1.0))
    for s in (0.6, 1.3, 2.2):
        want = gamma_ratio_second(SECOND_1, s) * math.gamma(s)
        np.testing.assert_allclose(mellin_numeric_1d(g, s), want, rtol=1e-9)


def test_first_kind_curve_route_k1():
    g = operator_curve_1d("first", 1.5, 0.7, exp_decay(1.0))
    for s in (0.6, 1.3, 2.2):
        want = gamma_ratio_first(FIRST_1, s) * math.gamma(s)
        np.testing.assert_allclose(mellin_numeric_1d(g, s), want, rtol=1e-9)


def test_tensor_route_matches_curve_route_k1():
    f = exp_neg_trace(1, 1)
    for prm in (SECOND_1, FIRST_1):
        for s in (0.8, 1.7):
            val, delta = mtransform_quadrature(prm, f, s)
            curve = mellin_numeric_1d(
                operator_curve_1d(prm.kind, 1.5, 0.7, exp_decay(1.0)), s
            )
            np.testing.assert_allclose(val, curve, rtol=1e-8)
            assert delta < 1e-6 * abs(val)


def test_tensor_route_wishart_slot():
    # rate-1/2 slot function exercises the decay horizon handling
    f = wishart_density(1, 3.0, 1)
    prm = MatrixOpParams("first", 1, 1, ((1.9, 0.8),))
    s = 1.4
    val, _ = mtransform_quadrature(prm, f, s)
    want = gamma_ratio_first(prm, s) * f.mellin((s,))
    np.testing.assert_allclose(val, want, rtol=1e-10)


def test_tensor_route_k2_separable():
    prm2 = MatrixOpParams("second", 1, 2, ((1.5, 0.7), (2.2, 1.1)))
    prm1 = MatrixOpParams("first", 1, 2, ((1.5, 0.7), (2.2, 1.1)))
    f = exp_neg_trace(1, 2)
    s = (1.3, 0.8)
    for prm, ratio_fn in ((prm2, gamma_ratio_second), (prm1, gamma_ratio_first)):
        want = ratio_fn(prm, s) * math.gamma(s[0]) * math.gamma(s[1])
        val, delta = mtransform_quadrature(prm, f, s)
        np.testing.assert_allclose(val, want, rtol=1e-8)
        assert delta < 1e-6 * abs(val)


def test_tensor_route_k2_joint_not_separable():
    # f(v1, v2) = (v1 + v2) e^(-v1-v2) has transform
    # Gamma(s1+1) Gamma(s2) + Gamma(s1) Gamma(s2+1)
    def fn(v1, v2):
        x1 = v1[..., 0, 0]
        x2 = v2[..., 0, 0]
        return (x1 + x2) * np.exp(-x1 - x2)

    f = matrix_callback(1, fn, k=2)
    prm = MatrixOpParams("second", 1, 2, ((1.6, 0.9), (2.1, 0.6)))
    s = (1.2, 0.9)
    want = gamma_ratio_second(prm, s) * (
        math.gamma(s[0] + 1.0) * math.gamma(s[1])
        + math.gamma(s[0]) * math.gamma(s[1] + 1.0)
    )
    axes = [exp_decay(1.0), exp_decay(1.0)]
    val, delta = mtransform_quadrature(prm, f, s, axes=axes)
    np.testing.assert_allclose(val, want, rtol=1e-8)
    assert delta < 1e-6 * abs(val)


@pytest.mark.parametrize("kind", ["second", "first"])
def test_tensor_route_matches_unpruned_brute_force_sum(kind):
    # f(v1, v2) = (v1 + v2) v1^(1/2) e^(-v1-v2) is not separable and has a
    # nonzero zero order on slot 1; the folded, pruned and broadcast route
    # must agree with the plain sum over every node of the same rules
    def fn(v1, v2):
        x1 = v1[..., 0, 0]
        x2 = v2[..., 0, 0]
        return (x1 + x2) * np.sqrt(x1) * np.exp(-x1 - x2)

    f = matrix_callback(1, fn, k=2)
    prm = MatrixOpParams(kind, 1, 2, ((1.6, 0.9), (2.1, 0.6)))
    s = (1.2, 0.9)
    axes = [power_times_exp(0.5, 1.0), exp_decay(1.0)]
    val, _ = mtransform_quadrature(prm, f, s, n_outer=12, n_inner=16, axes=axes)

    (x1, c1), (x2, c2) = (
        _axis_product_nodes(kind, zeta, alpha, sj, axis, 12, 16)
        for (zeta, alpha), sj, axis in zip(prm.pairs, s, axes)
    )
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")
    vals = fn(X1[..., None, None], X2[..., None, None]) / np.sqrt(X1)
    brute = c1 @ vals @ c2
    np.testing.assert_allclose(val, brute, rtol=1e-13)


@pytest.mark.parametrize("kind", ["second", "first"])
def test_law_slot_sums_match_the_joint_grid_of_the_same_function(kind):
    # a law's tensor sum is the product of its slot sums; the same function
    # as a callback goes through the joint slabs, with the same rules
    def fn(v1, v2):
        x1 = v1[..., 0, 0]
        x2 = v2[..., 0, 0]
        return x1**0.7 * x2**1.3 * np.exp(-x1 - x2)

    law = det_power_times_exp(1, (1.7, 2.3), k=2)
    joint = matrix_callback(1, fn, k=2)
    axes = [power_times_exp(0.7, 1.0), power_times_exp(1.3, 1.0)]
    prm = MatrixOpParams(kind, 1, 2, ((1.9, 0.8), (2.6, 1.1)))
    s = (1.2, 0.9)
    got, _ = mtransform_quadrature(prm, law, s, n_outer=24, n_inner=32)
    want, _ = mtransform_quadrature(prm, joint, s, n_outer=24, n_inner=32, axes=axes)
    np.testing.assert_allclose(got, want, rtol=1e-13)


@pytest.mark.parametrize("kind", ["second", "first"])
def test_law_values_come_from_the_law_not_from_axes(kind):
    # axes only declare endpoint behaviour; a law's slot values are its own
    # e^(-x), never the declared x^(1/2) e^(-x) or e^(-x/2)
    f = exp_neg_trace(1, 2)
    joint = matrix_callback(1, lambda v1, v2: np.exp(-v1[..., 0, 0] - v2[..., 0, 0]), k=2)
    prm = MatrixOpParams(kind, 1, 2, ((1.6, 0.9), (2.1, 0.6)))
    s = (1.3, 0.8)
    # a wrong zero order costs accuracy, but both routes sum the same nodes
    axes = [power_times_exp(0.5, 1.0), exp_decay(1.0)]
    got, _ = mtransform_quadrature(prm, f, s, axes=axes)
    want, _ = mtransform_quadrature(prm, joint, s, axes=axes)
    np.testing.assert_allclose(got, want, rtol=1e-13)
    # a slower declared decay still bounds e^(-x), so the closed form holds
    val, _ = mtransform_quadrature(prm, f, s, axes=[exp_decay(0.5), exp_decay(1.0)])
    ratio = gamma_ratio_second if kind == "second" else gamma_ratio_first
    want = ratio(prm, s) * math.gamma(s[0]) * math.gamma(s[1])
    np.testing.assert_allclose(val, want, rtol=1e-8)


@pytest.mark.parametrize("s", [1.0, 2.5])
def test_first_kind_far_range_holds_at_large_order(s):
    # u^(-zeta-alpha) (u - w)^(alpha-1) overflows at alpha = 100; the far
    # range must stay finite instead of pruning every node to a silent 0
    prm = MatrixOpParams("first", 1, 1, ((1.8, 100.0),))
    val, _ = mtransform_quadrature(prm, exp_neg_trace(1), s)
    np.testing.assert_allclose(val, gamma_ratio_first(prm, s) * math.gamma(s), rtol=1e-8)


def test_tensor_route_refuses_callback_that_drops_a_broadcast_axis():
    # v[:, 0, 0] keeps only the first x2 node of the (1, n2, 1, 1) stack; the
    # route must raise rather than integrate f(x1, x2[0])
    f = matrix_callback(1, lambda v1, v2: np.exp(-v1[:, 0, 0] - v2[:, 0, 0]), k=2)
    prm = MatrixOpParams("second", 1, 2, ((1.6, 0.9), (2.1, 0.6)))
    axes = [exp_decay(1.0), exp_decay(1.0)]
    with pytest.raises(DomainError, match=r"v\[\.\.\., i, j\]"):
        mtransform_quadrature(prm, f, (1.2, 0.9), n_outer=12, n_inner=16, axes=axes)


def test_narrow_bump_recovers_kernel_transform():
    # a unit-mass bump at 1 turns the operator output into the kernel's own
    # transform, up to the bump width
    delta = 0.02

    def bump(v):
        # cos^2 half-angle form stays exact at the support edge
        v = np.asarray(v, dtype=float)
        inside = np.abs(v - 1.0) < delta
        out = np.zeros(v.shape)
        out[inside] = np.cos(math.pi * (v[inside] - 1.0) / (2.0 * delta)) ** 2 / delta
        return out

    f = callback(bump, tail=("compact", 1.0 - delta, 1.0 + delta))
    g = operator_curve_1d("second", 1.6, 0.8, f)
    prm = MatrixOpParams("second", 1, 1, ((1.6, 0.8),))
    for s in (0.7, 1.5, 2.4):
        lhs = mellin_numeric_1d(g, s)
        np.testing.assert_allclose(lhs, gamma_ratio_second(prm, s), rtol=1e-2)


# ---------------------------------------------------------------------------
# the verification driver


def test_verify_second_kind_quadrature_grid():
    f = exp_neg_trace(1, 1)
    reports = verify_transform("second", SECOND_1, f, [0.6, 0.9, 1.3, 1.8, 2.4])
    assert [r.status for r in reports] == ["pass"] * 5
    assert all(abs(r.ratio - 1.0) < 1e-6 for r in reports)


def test_verify_first_kind_domain_enforced():
    f = exp_neg_trace(1, 1)
    reports = verify_transform("first", FIRST_1, f, [0.4, 1.2, 2.0, 2.6])
    assert [r.status for r in reports] == ["pass", "pass", "pass", "domain-error"]
    assert "Gamma_p argument" in reports[-1].note


def test_verify_kind_mismatch_raises():
    with pytest.raises(DomainError):
        verify_transform("first", SECOND_1, exp_neg_trace(1, 1), [1.0])


def test_verify_family_without_closed_form():
    f = matrix_callback(1, lambda v: np.exp(-v[..., 0, 0]), k=1)
    reports = verify_transform("second", SECOND_1, f, [1.0])
    assert reports[0].status == "domain-error"
    assert "closed-form" in reports[0].note


def test_verify_reports_wrong_length_point():
    prm = MatrixOpParams("second", 1, 2, ((1.5, 0.7), (2.2, 1.1)))
    reports = verify_transform("second", prm, exp_neg_trace(1, 2), [(1.0, 2.0, 3.0)])
    assert reports[0].status == "domain-error"
    assert reports[0].s == (1.0, 2.0, 3.0)
    assert "transform variables" in reports[0].note


def test_verify_mc_path_p2():
    prm = MatrixOpParams("second", 2, 1, ((1.8, 0.9),))
    f = exp_neg_trace(2, 1)
    mc = MCConfig(n_samples=60000, seed=11, n_streams=6)
    reports = verify_transform("second", prm, f, [1.2, 1.9], mc)
    assert [r.status for r in reports] == ["pass", "pass"]
    assert all(r.se is not None and r.se > 0 for r in reports)


# ---------------------------------------------------------------------------
# Monte Carlo transform routes at p = 2


def test_density_route_matches_closed_form_p2():
    prm = MatrixOpParams("first", 2, 1, ((2.1, 0.7),))
    f = exp_neg_trace(2, 1)
    s = 1.2
    want = gamma_ratio_first(prm, s) * f.mellin((s,))
    est = mtransform_mc(prm, f, s, MCConfig(n_samples=100000, seed=5, n_streams=8))
    assert abs(est.value - want) < 3.0 * est.se


def test_operator_route_agrees_with_density_route():
    # the importance-sampled operator transform and the density-mode moment
    # are independent estimates of the same number
    prm = MatrixOpParams("second", 2, 1, ((1.8, 0.9),))
    f = exp_neg_trace(2, 1)
    s = 1.6
    mc = MCConfig(n_samples=100000, seed=29, n_streams=8)
    a = mtransform_mc(prm, f, s, mc)
    b = mtransform_mc_operator(prm, f, s, MCConfig(n_samples=100000, seed=31, n_streams=8))
    assert abs(a.value - b.value) < 3.0 * math.hypot(a.se, b.se)


def test_operator_route_two_slots_against_closed_form():
    # each slot has its own beta law, Wishart proposal and Gamma_p(df0/2)
    # normaliser in the scale
    prm = MatrixOpParams("second", 2, 2, ((1.8, 0.9), (2.2, 0.7)))
    f = exp_neg_trace(2, 2)
    s = (1.6, 1.9)
    want = gamma_ratio_second(prm, s) * f.mellin(s)
    est = mtransform_mc_operator(prm, f, s, MCConfig(n_samples=200000, seed=1, n_streams=16))
    assert abs(est.value - want) < 4.0 * est.se
    np.testing.assert_allclose(est.value, want, rtol=0.02)


@pytest.mark.parametrize("s,seed", [(s, seed) for s in (1.1, 1.3) for seed in range(1, 7)])
def test_operator_route_p3_low_proposal_df(s, seed):
    # at s <= 1.25 the default proposal df is p - 0.5 = 2.5, whose Wishart
    # draws can be nearly singular; the factor root never fails on them
    zeta, alpha = 2.3, 1.4
    prm = MatrixOpParams("second", 3, 1, ((zeta, alpha),))
    want = math.exp(
        ln_gamma_p(3, zeta + s) + ln_gamma_p(3, s) - ln_gamma_p(3, zeta + s + alpha)
    )
    try:
        est = mtransform_mc_operator(prm, exp_neg_trace(3, 1), s, MCConfig(n_samples=50000, seed=seed))
    except MomentDivergence:
        return
    assert abs(est.value - want) < 4.0 * est.se, (est, want)


def test_mc_routes_refuse_a_pole_of_the_input_transform():
    # Gamma_3(s) of exp(-tr V) has its pole at s = 1, inside zeta + s > 1
    prm = MatrixOpParams("second", 3, 1, ((2.3, 1.4),))
    f = exp_neg_trace(3, 1)
    for route in (mtransform_mc, mtransform_mc_operator):
        with pytest.raises(DomainError, match="diverges"):
            route(prm, f, 1.0, MCConfig(seed=2))
    rep = verify_transform("second", prm, f, [1.0])[0]
    assert rep.status == "domain-error" and "diverges" in rep.note


def test_operator_route_refuses_first_kind():
    # the first-kind output has power tails, so the importance-sampled
    # route would have unbounded weight variance; it must refuse cleanly
    prm = MatrixOpParams("first", 2, 1, ((2.1, 0.7),))
    f = exp_neg_trace(2, 1)
    with pytest.raises(ProposalDomainError, match="second kind only"):
        mtransform_mc_operator(prm, f, 1.2, MCConfig(n_samples=1000, seed=0))


def test_operator_route_refuses_a_law_without_trace_term():
    # the transform of |U|^lam diverges at every s; the route used to return
    # finite estimates for it at some seeds and MomentDivergence at others
    prm = MatrixOpParams("second", 2, 1, ((1.8, 0.9),))
    for seed in range(1, 6):
        with pytest.raises(DomainError, match="diverges"):
            mtransform_mc_operator(prm, det_power(2, -0.3), 1.6, MCConfig(n_samples=20000, seed=seed))


def test_operator_route_refuses_a_law_with_trace_coefficient_below_one():
    # the weight exp(tr U) f(V) is bounded only for b >= 1, since tr V >= tr U;
    # with b = 1/2 the route read 3.9 s.e. below the closed form 0.55469 here
    prm = MatrixOpParams("second", 1, 1, ((2.5, 0.6),))
    with pytest.raises(DomainError, match="diverges"):
        mtransform_mc_operator(prm, wishart_density(1, 3), 1.2, MCConfig(seed=3))


@pytest.mark.parametrize("zeta", [0.5, 0.2, -0.3])
def test_operator_route_refuses_second_kind_zeta_at_or_below_the_bound(zeta):
    # its beta proposal beta(zeta, alpha) needs zeta > (p-1)/2; the
    # reweighted proposal of kober_matrix_second is not used here
    prm = MatrixOpParams("second", 2, 1, ((zeta, 0.9),))
    with pytest.raises(DomainError, match=r"needs zeta > \(p-1\)/2"):
        mtransform_mc_operator(prm, exp_neg_trace(2, 1), 1.6, MCConfig(n_samples=1000, seed=0))


def test_density_route_with_chain_shapes():
    # chain-derived second shapes replace the operator orders slot by slot
    chain = ChainSpec("gamma_3_5", zeta=(1.5, 2.0, 1.1))
    shapes = (3.1, 1.1)
    prm = MatrixOpParams("second", 1, 2, ((1.5, 0.9), (2.0, 0.9)))
    f = exp_neg_trace(1, 2)
    s = (1.4, 0.9)
    want = math.gamma(s[0]) * math.gamma(s[1])
    for zeta, sj, b in zip((1.5, 2.0), s, shapes):
        want *= math.gamma(zeta + sj) / math.gamma(zeta + sj + b)
    est = mtransform_mc(
        prm, f, s, MCConfig(n_samples=400000, seed=3, n_streams=16), chain=chain
    )
    assert abs(est.value - want) < 4.0 * est.se
    np.testing.assert_allclose(est.value, want, rtol=0.02)


def test_mc_route_needs_a_sampler():
    from kober.matrix_ops import det_power

    with pytest.raises(DomainError):
        mtransform_mc(SECOND_1, det_power(1, (-2.0,)), 1.0)


# ---------------------------------------------------------------------------
# mixed slot families through the full identity


def test_verify_mixed_family_grid():
    f = det_power_times_exp(1, (1.6, 2.3), 2)
    prm = MatrixOpParams("second", 1, 2, ((2.8, 0.9), (2.6, 0.5)))
    reports = verify_transform("second", prm, f, [(1.3, 0.8), (0.9, 1.6)])
    assert [r.status for r in reports] == ["pass", "pass"]


def test_slot_count_must_match_the_operator():
    # exp_neg_trace(1, 2) is a two-slot law: a one-slot operator refuses it
    # instead of evaluating a truncated or mis-indexed product
    prm = MatrixOpParams("second", 1, 1, ((1.5, 0.7),))
    with pytest.raises(DomainError):
        mtransform_quadrature(prm, exp_neg_trace(1, 2), 1.3)
    with pytest.raises(DomainError):
        kober_matrix_second(prm, exp_neg_trace(1, 2), [np.eye(1)])
