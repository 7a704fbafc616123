import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import betaincc, gamma, gammaln, gammasgn, hyp2f1, rgamma

from kober import quadrature
from kober.errors import (
    DomainError,
    HypergeometricNonConvergent,
    KoberError,
    NonDifferentiable,
    RatioOverflow,
    TailDivergence,
)
from kober.mtransform import mellin_numeric_1d
from kober.quadrature import QuadConfig, jacobi_rule_01
from kober.scalar_ops import (
    GAP_DELTA,
    callback,
    exp_decay,
    exp_growth,
    frac_derivative,
    gauss_2f1,
    kober_first,
    kober_second,
    multivar_frac_derivative,
    multivar_op,
    power,
    power_times_exp,
    riemann_liouville,
    saigo_first,
    weyl_left,
    weyl_right,
)

# frozen reference values
K1_POWER2_HALF = 0.51583047638652  # Gamma(4)/Gamma(4.5) = first kind on v^2, z=1, a=1/2
TWO_LN_TWO = 1.3862943611198906  # 2F1(1,1;2;1/2)
HYP_NEAR_ONE = 1.3696743489957257  # 2F1(0.3,0.7;1.1;0.85)
D_HALF_V_AT_1 = 1.1283791670955126  # derivative of order 1/2 of v at x=1: 2/sqrt(pi)
SAIGO_GENERIC = 0.3818342830331331  # zeta=1.2 a=0.6 b=-0.2 g=0.5 on v^1.5 at u=0.9


def mp_quad_01(f):
    return float(mp.quad(f, [0, 1]))


# ---------------------------------------------------------------------------
# first kind


def test_first_kind_power_frozen_value():
    val = kober_first(power(2.0), 1.0, zeta=1.0, alpha=0.5)
    np.testing.assert_allclose(val, K1_POWER2_HALF, rtol=1e-12)


@given(
    st.floats(0.0, 3.0),
    st.floats(-0.5, 2.0),
    st.floats(0.2, 2.5),
    st.floats(0.1, 5.0),
)
@settings(max_examples=60, deadline=None)
def test_first_kind_power_identity(lam, zeta, alpha, u):
    # the operator maps v^lam to u^lam Gamma(z+lam+1)/Gamma(z+lam+1+a)
    val = kober_first(power(lam), u, zeta=zeta, alpha=alpha)
    expect = u**lam * gamma(zeta + lam + 1.0) * rgamma(zeta + lam + 1.0 + alpha)
    np.testing.assert_allclose(val, expect, rtol=1e-8)


def test_first_kind_constant_shift():
    val = kober_first(power(0.0), 3.7, zeta=0.8, alpha=1.3)
    np.testing.assert_allclose(val, gamma(1.8) / gamma(3.1), rtol=1e-11)


def test_first_kind_exp_against_direct_quadrature():
    zeta, alpha, u, rate = 0.7, 0.9, 1.4, 2.0
    val = kober_first(exp_decay(rate), u, zeta=zeta, alpha=alpha)
    expect = mp_quad_01(
        lambda t: (1 - t) ** (alpha - 1) * t**zeta * mp.e ** (-rate * u * t)
    ) / float(mp.gamma(alpha))
    np.testing.assert_allclose(val, expect, rtol=1e-9)


def test_first_kind_negative_zeta_within_domain():
    # zeta + lam > -1 keeps the lower endpoint integrable even for zeta < 0
    val = kober_first(power(1.0), 2.0, zeta=-0.6, alpha=0.5)
    expect = 2.0 * gamma(1.4) * rgamma(1.9)
    np.testing.assert_allclose(val, expect, rtol=1e-10)


def test_first_kind_compact_support_window():
    box = callback(
        lambda v: np.where((v >= 0.5) & (v <= 1.5), np.sin(v), 0.0),
        tail=("compact", 0.5, 1.5),
    )
    inside = kober_first(box, 1.0, zeta=1.0, alpha=0.5)
    expect = float(
        mp.quad(lambda t: (1 - t) ** -0.5 * t * mp.sin(t), [0.5, 1.0]) / mp.gamma(0.5)
    )
    np.testing.assert_allclose(inside, expect, rtol=1e-8)
    above = kober_first(box, 3.0, zeta=1.0, alpha=0.5)
    expect = float(
        3.0**-1.5
        * mp.quad(lambda t: (3.0 - t) ** -0.5 * t * mp.sin(t), [0.5, 1.5])
        / mp.gamma(0.5)
    )
    np.testing.assert_allclose(above, expect, rtol=1e-10)
    assert kober_first(box, 0.3, zeta=1.0, alpha=0.5) == 0.0


def _box_from_zero():
    # f = 1 on a support [0, 2] that starts at the terminal
    return callback(lambda v: np.where(v < 2.0, 1.0, 0.0), tail=("compact", 0.0, 2.0))


@pytest.mark.parametrize("x", [1.0, 2.0])
def test_first_kind_support_from_the_terminal_matches_the_power_law(x):
    # up to the support's end f has no jump, so v^zeta at 0 goes in the weight
    val = kober_first(_box_from_zero(), x, zeta=-0.5, alpha=0.5)
    assert val == kober_first(power(0.0), x, zeta=-0.5, alpha=0.5)
    np.testing.assert_allclose(val, math.sqrt(math.pi), rtol=1e-14)


def test_first_kind_support_from_the_terminal_beyond_its_end():
    # int_0^2 v^-1/2 (3 - v)^-1/2 dv = 2 asin(sqrt(2/3))
    val = kober_first(_box_from_zero(), 3.0, zeta=-0.5, alpha=0.5)
    expect = 2.0 * math.asin(math.sqrt(2.0 / 3.0)) / math.sqrt(math.pi)
    np.testing.assert_allclose(val, expect, rtol=1e-12)
    rl = riemann_liouville(_box_from_zero(), 3.0, alpha=0.7)
    np.testing.assert_allclose(rl, (3.0**0.7 - 1.0) * rgamma(1.7), rtol=1e-12)


@pytest.mark.parametrize("x", [1.0, 3.0])
def test_first_kind_support_from_the_terminal_rejects_nonintegrable_zeta(x):
    with pytest.raises(TailDivergence):
        kober_first(_box_from_zero(), x, zeta=-1.2, alpha=0.5)


@pytest.mark.parametrize(
    "f",
    [power(1.3), exp_decay(0.8), power_times_exp(-0.3, 1.2), callback(np.cos), _box_from_zero()],
)
@pytest.mark.parametrize("x", [0.4, 1.7, 3.5])
@pytest.mark.parametrize("alpha", [0.6, 1.8])
def test_rl_is_the_first_kind_at_zeta_zero(f, x, alpha):
    rl = riemann_liouville(f, x, alpha=alpha)
    np.testing.assert_allclose(rl, x**alpha * kober_first(f, x, zeta=0.0, alpha=alpha), rtol=1e-13)


def test_first_kind_rejects_nonintegrable_endpoint():
    with pytest.raises(TailDivergence):
        kober_first(power(-2.0), 1.0, zeta=0.5, alpha=0.5)


def test_first_kind_rejects_bad_arguments():
    with pytest.raises(DomainError):
        kober_first(power(1.0), -1.0, zeta=1.0, alpha=0.5)
    with pytest.raises(DomainError):
        kober_first(power(1.0), 1.0, zeta=1.0, alpha=0.0)


# ---------------------------------------------------------------------------
# second kind


@given(
    st.floats(-4.0, 0.5),
    st.floats(0.2, 2.5),
    st.floats(0.2, 2.0),
    st.floats(0.2, 4.0),
)
@settings(max_examples=60, deadline=None)
def test_second_kind_power_identity(lam, zeta, alpha, u):
    # v^lam maps to u^lam Gamma(z-lam)/Gamma(z-lam+a) whenever z > lam
    if zeta - lam < 0.1:
        lam = zeta - 0.5
    val = kober_second(power(lam), u, zeta=zeta, alpha=alpha)
    expect = u**lam * gamma(zeta - lam) * rgamma(zeta - lam + alpha)
    np.testing.assert_allclose(val, expect, rtol=1e-8)


def test_second_kind_exp_against_direct_quadrature():
    zeta, alpha, u = 1.0, 0.5, 1.0
    val = kober_second(exp_decay(1.0), u, zeta=zeta, alpha=alpha)
    expect = float(
        mp.quad(lambda t: (1 - t) ** (alpha - 1) * mp.e ** (-u / t), [0, 1])
        / mp.gamma(alpha)
    )
    np.testing.assert_allclose(val, expect, rtol=1e-8)


def test_second_kind_compact_support_window():
    box = callback(
        lambda v: np.where((v >= 0.5) & (v <= 1.5), np.sin(v), 0.0),
        tail=("compact", 0.5, 1.5),
    )
    below = kober_second(box, 0.2, zeta=2.0, alpha=0.5)
    expect = float(
        0.2**2
        * mp.quad(lambda t: t**-2.5 * (t - 0.2) ** -0.5 * mp.sin(t), [0.5, 1.5])
        / mp.gamma(0.5)
    )
    np.testing.assert_allclose(below, expect, rtol=1e-10)
    assert kober_second(box, 2.0, zeta=2.0, alpha=0.5) == 0.0


def test_weyl_right_compact_support_window():
    box = callback(
        lambda v: np.where((v >= 0.5) & (v <= 1.5), np.sin(v), 0.0),
        tail=("compact", 0.5, 1.5),
    )
    for x, lo in ((1.0, 1.0), (0.2, 0.5), (0.49, 0.5)):
        expect = float(
            mp.quad(lambda t: (t - x) ** -0.3 * mp.sin(t), [lo, 1.5]) / mp.gamma(0.7)
        )
        np.testing.assert_allclose(weyl_right(box, x, alpha=0.7), expect, rtol=1e-8)
    # the support lies wholly below a point past hi
    assert weyl_right(box, 2.0, alpha=0.7) == 0.0
    # a callback's constant output is broadcast to the nodes
    one = callback(lambda v: 1.0, tail=("compact", 0.5, 1.5))
    want = (1.3**0.7 - 0.3**0.7) / 0.7 * rgamma(0.7)
    np.testing.assert_allclose(weyl_right(one, 0.2, alpha=0.7), want, rtol=1e-12)


def test_compact_support_zero_exits_report_quad_info():
    from kober.quadrature import QuadInfo

    # a support wholly on the far side of the point gives an exact zero
    # without quadrature, reported with the same (value, QuadInfo) contract
    box = callback(lambda v: np.ones_like(v), tail=("compact", 0.5, 1.5))
    zero = (0.0, QuadInfo(nodes=0, last_delta=0.0))
    assert kober_first(box, 0.3, zeta=1.0, alpha=0.5, full_output=True) == zero
    assert kober_second(box, 2.0, zeta=1.0, alpha=0.5, full_output=True) == zero
    assert weyl_right(box, 1.5, alpha=0.7, full_output=True) == zero
    assert riemann_liouville(box, 0.0, alpha=0.7, full_output=True) == zero
    saigo = saigo_first(box, 0.3, zeta=1.0, alpha=0.4, beta=-0.2, gamma=0.5, full_output=True)
    assert saigo == zero


def test_second_kind_requires_declared_tail():
    with pytest.raises(TailDivergence):
        kober_second(callback(lambda v: 1.0 / (1.0 + v)), 1.0, zeta=1.0, alpha=0.5)


def test_second_kind_divergent_tail_rejected():
    # f growing like v^0.6 against zeta = 0.5 diverges at infinity
    with pytest.raises(TailDivergence):
        kober_second(power(0.6), 1.0, zeta=0.5, alpha=0.5)


def _box_0_2():
    return callback(lambda v: np.where(v < 2.0, 1.0, 0.0), tail=("compact", 0.0, 2.0))


def _box_0_2_second_kind(zeta, u):
    # f = 1 on [0, 2), alpha = 0.5: K2 f(u) = Gamma(z)/Gamma(z+a) I_(1-u/2)(a, z),
    # the upper tail betaincc(z, a, u/2)
    return gamma(zeta) * rgamma(zeta + 0.5) * betaincc(zeta, 0.5, min(u / 2.0, 1.0))


def test_second_kind_is_the_first_kind_on_the_reciprocal():
    # K2_(z,a) f(u) = K1_(z-1,a)[f(1/.)](1/u)
    f = exp_decay(1.3)
    for u in (0.2, 1.0, 4.0):
        dual = kober_first(callback(lambda w: f(1.0 / w)), 1.0 / u, zeta=0.5, alpha=0.7)
        np.testing.assert_allclose(kober_second(f, u, zeta=1.5, alpha=0.7), dual, rtol=1e-9)


def _second_kind_closed_form(name, u):
    # the three inputs of the extreme-u sweep, all at alpha = 0.5
    if name == "power":  # v^-3, zeta = 2
        return u**-3.0 * gamma(5.0) * rgamma(5.5)
    if name == "exp":  # e^-v, zeta = 1.5: e^-u U(alpha, 1 - zeta, u)
        return float(mp.e ** (-u) * mp.hyperu(0.5, -0.5, u))
    return _box_0_2_second_kind(1.0, u)


@pytest.mark.parametrize("u", [1e-300, 1e-12, 1.0, 1e12, 1e300])
@pytest.mark.parametrize(
    "name, f, zeta",
    [("power", power(-3.0), 2.0), ("exp", exp_decay(1.0), 1.5), ("box", _box_0_2(), 1.0)],
)
def test_second_kind_at_extreme_points(name, f, zeta, u):
    # u^-3 at u = 1e-300 lies beyond the float range; every other point has
    # a value, 0.0 where it underflows
    if name == "power" and u == 1e-300:
        with pytest.raises(RatioOverflow):
            kober_second(f, u, zeta=zeta, alpha=0.5)
        return
    want = _second_kind_closed_form(name, u)
    np.testing.assert_allclose(kober_second(f, u, zeta=zeta, alpha=0.5), want, rtol=1e-9)


@pytest.mark.parametrize("zeta", [1.0, 2.0])
@pytest.mark.parametrize("u", [1e-300, 1e-8, 1e-4, 1e-3, 0.1, 1.0, 1.9])
def test_second_kind_support_from_zero_matches_the_beta_tail(zeta, u):
    # 1/v maps the support to [1/2, inf): one Jacobi rule from 1/2 up to 1/u
    val, info = kober_second(_box_0_2(), u, zeta=zeta, alpha=0.5, full_output=True)
    np.testing.assert_allclose(val, _box_0_2_second_kind(zeta, u), rtol=1e-10)
    assert info.nodes == 128


def test_first_kind_far_point_keeps_its_value():
    # x^(-zeta-alpha) alone overflows at x = 1e-300; the path taken never
    # forms it, and the value is Gamma(2)/Gamma(2.5)
    val = kober_first(exp_decay(1.0), 1e-300, zeta=1.0, alpha=0.5)
    np.testing.assert_allclose(val, gamma(2.0) * rgamma(2.5), rtol=1e-12)


def test_first_kind_beyond_the_float_range_raises_a_kober_error():
    # u^3 at u = 1e300 exceeds the double range
    with pytest.raises(KoberError):
        kober_first(power(3.0), 1e300, zeta=1.0, alpha=0.5)


@pytest.mark.parametrize(
    "op",
    [
        lambda: riemann_liouville(exp_decay(1.0), 50.0, alpha=175.0),
        lambda: kober_first(exp_decay(1.0), 1.0, zeta=0.5, alpha=175.0),
        lambda: kober_second(exp_decay(1.0), 1.0, zeta=1.5, alpha=175.0),
        lambda: weyl_right(exp_decay(1.0), 1.0, alpha=175.0),
        lambda: weyl_left(exp_growth(0.5), -1.0, alpha=175.0),
        lambda: multivar_op(
            "first", lambda a, b: np.exp(-a - b), (1.0, 2.0), zeta=(1.0, 0.3), alpha=(175.0, 1.5)
        ),
    ],
)
def test_an_order_past_the_gamma_range_raises_instead_of_a_silent_zero(op):
    # Gamma(175) exceeds the double range.  The values are finite and
    # positive (the RL one is 4.9986e-43), but 1 / Gamma(alpha) taken as
    # 1 / inf made them 0.0.  The order is checked before f is evaluated,
    # so no numpy warning reaches the caller either
    with pytest.raises(RatioOverflow), warnings.catch_warnings():
        warnings.simplefilter("error")
        op()


@pytest.mark.parametrize("a", [0.0, 0.5])
@pytest.mark.parametrize("x", [1e5, 1e7, 1e100])
def test_first_kind_at_large_arguments_past_the_exponential_horizon(x, a):
    # f underflowed at every node of the (a, x) rule, and two exact zeros
    # agreed: RL returned 0.0 from x = 1e7 on, and raised at 1e5.  Past
    # EXP_HORIZON / rate the tail is a support, and the value is
    # e^(-a) - e^(-x) = e^(-a)
    got = riemann_liouville(exp_decay(1.0), x, alpha=1.0, a=a)
    np.testing.assert_allclose(got, math.exp(-a), rtol=1e-10)


def test_first_kind_near_its_zeta_bound_at_a_huge_argument():
    # u^(-zeta-1) Gamma(zeta+1) / Gamma(alpha), up to terms of order 1/u;
    # this call returned 0.0
    want = 10.0**-0.1 * math.gamma(0.001) / math.gamma(0.3)
    got = kober_first(exp_decay(1.0), 1e100, zeta=-0.999, alpha=0.3)
    np.testing.assert_allclose(got, want, rtol=1e-9)


# ---------------------------------------------------------------------------
# Riemann-Liouville and Weyl


@given(st.floats(0.0, 3.0), st.floats(0.2, 2.5), st.floats(0.3, 2.5), st.floats(0.3, 2.5))
@settings(max_examples=40, deadline=None)
def test_rl_semigroup_on_powers(lam, a1, a2, x):
    # I^a1 I^a2 v^lam = I^(a1+a2) v^lam
    inner = gamma(lam + 1.0) * rgamma(lam + 1.0 + a2)  # v^lam -> c v^(lam+a2)
    lhs = inner * riemann_liouville(power(lam + a2), x, alpha=a1)
    rhs = riemann_liouville(power(lam), x, alpha=a1 + a2)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-8)


def test_rl_power_closed_form():
    val = riemann_liouville(power(2.0), 1.5, alpha=0.5)
    np.testing.assert_allclose(val, 1.5**2.5 * gamma(3.0) / gamma(3.5), rtol=1e-11)


def test_rl_positive_terminal():
    val = riemann_liouville(callback(np.cos), 2.0, alpha=0.7, a=1.0)
    expect = float(mp.quad(lambda t: (2.0 - t) ** -0.3 * mp.cos(t), [1, 2]) / mp.gamma(0.7))
    np.testing.assert_allclose(val, expect, rtol=1e-9)


def test_rl_at_terminal_is_zero():
    assert riemann_liouville(power(1.0), 1.0, alpha=0.5, a=1.0) == 0.0


@pytest.mark.parametrize("a", [0.0, 0.2, 0.9, 2.5])
@pytest.mark.parametrize("alpha", [0.4, 1.3])
@pytest.mark.parametrize("x", [1.0, 2.0, 2.5, 4.0])
def test_rl_compact_support(x, alpha, a):
    # only the support's part in [a, x] counts; a rule across the jump at
    # either end of the support would not converge
    if x < a:
        return
    lo, hi = 0.5, 2.0
    f = callback(
        lambda v: np.where((v > lo) & (v < hi), np.sin(v) + 2.0, 0.0), tail=("compact", lo, hi)
    )
    left, right = max(lo, a), min(hi, x)
    if left >= right:
        expect = 0.0
    elif x <= hi:  # the kernel (x - v)^(alpha - 1) as quad's algebraic weight
        expect = integrate.quad(
            lambda v: np.sin(v) + 2.0, left, x, weight="alg", wvar=(0.0, alpha - 1.0)
        )[0]
    else:
        expect = integrate.quad(
            lambda v: (x - v) ** (alpha - 1.0) * (np.sin(v) + 2.0), left, right
        )[0]
    val = riemann_liouville(f, x, alpha=alpha, a=a)
    np.testing.assert_allclose(val, expect * rgamma(alpha), rtol=1e-8)


@pytest.mark.parametrize("op", ["riemann_liouville", "kober_first", "weyl_right"])
@pytest.mark.parametrize("gap", [1e-2, 1e-6, 1e-12])
def test_point_just_past_the_support_end(op, gap):
    # f = 1 on (0.5, 2), alpha = 0.3: (x - v)^(alpha - 1) is nearly singular
    # at the support's end.  The reference takes near and far, the distances
    # from x to the two ends, from the floats themselves
    lo, hi, alpha = 0.5, 2.0, 0.3
    f = callback(lambda v: np.where((v > lo) & (v < hi), 1.0, 0.0), tail=("compact", lo, hi))
    if op == "weyl_right":
        x = lo - gap
        near, far = lo - x, hi - x
        val, info = weyl_right(f, x, alpha=alpha, full_output=True)
    else:
        x = hi + gap
        near, far = x - hi, x - lo
        if op == "riemann_liouville":
            val, info = riemann_liouville(f, x, alpha=alpha, full_output=True)
        else:
            val, info = kober_first(f, x, zeta=1.0, alpha=alpha, full_output=True)
    # i0 and i1: int w^(alpha-1) dw and int w^alpha dw over [near, far]
    want = i0 = (far**alpha - near**alpha) / alpha * rgamma(alpha)
    if op == "kober_first":  # zeta = 1: v = x - w
        i1 = (far ** (alpha + 1.0) - near ** (alpha + 1.0)) / (alpha + 1.0) * rgamma(alpha)
        want = x ** (-1.0 - alpha) * (x * i0 - i1)
    np.testing.assert_allclose(val, want, rtol=1e-12)
    assert info.nodes <= 128


@pytest.mark.parametrize("alpha", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("x", [0.0, 1.0, 5.0])
def test_weyl_right_exponential_eigenfunction(alpha, x):
    # the right-sided integral of e^-v reproduces e^-x for every order
    val = weyl_right(exp_decay(1.0), x, alpha=alpha)
    np.testing.assert_allclose(val, math.exp(-x), rtol=1e-10)


def test_weyl_right_power_tail_beta_integral():
    # int_x^inf (v-x)^(a-1) v^-m dv = x^(a-m) B(a, m-a)
    a, m, x = 0.5, 3.0, 2.0
    val = weyl_right(power(-m), x, alpha=a)
    expect = x ** (a - m) * gamma(m - a) * rgamma(m)
    np.testing.assert_allclose(val, expect, rtol=1e-10)


@pytest.mark.parametrize("m,a", [(3.0, 0.6), (1.5, 0.3), (2.2, 1.7)])
@pytest.mark.parametrize("x", [1e3, 1e6])
def test_weyl_right_power_tail_far_out(m, a, x):
    # w = x u keeps the power tail's integrand x^-m (1 + t)^-m smooth at any x
    val = weyl_right(power(-m), x, alpha=a)
    np.testing.assert_allclose(val, x ** (a - m) * gamma(m - a) * rgamma(m), rtol=1e-10)


@pytest.mark.parametrize("x", [1e-310, 1e-20])
def test_weyl_right_exponential_tail_near_zero(x):
    # the exponential tail's scale stops shrinking: a finite number of segments
    np.testing.assert_allclose(weyl_right(exp_decay(1.0), x, alpha=0.6), 1.0, rtol=1e-10)


def test_weyl_right_callback_with_declared_exp_tail():
    f = callback(lambda t: np.exp(-2.0 * t) * (1.0 + t), tail=("exp", 2.0))
    val = weyl_right(f, 1.0, alpha=0.7)
    expect = float(
        mp.quad(lambda w: w ** (0.7 - 1) * mp.e ** (-2 * (1 + w)) * (2 + w), [0, mp.inf])
        / mp.gamma(0.7)
    )
    np.testing.assert_allclose(val, expect, rtol=1e-9)


def test_weyl_right_slow_tail_rejected():
    with pytest.raises(TailDivergence):
        weyl_right(power(-0.4), 1.0, alpha=0.5)


def test_weyl_right_undeclared_tail_rejected():
    with pytest.raises(TailDivergence):
        weyl_right(callback(np.tanh), 1.0, alpha=0.5)


def test_weyl_left_exponential_growth():
    # int_-inf^x (x-v)^(a-1) e^(rv) dv / Gamma(a) = e^(rx) r^-a
    val = weyl_left(exp_growth(0.5), 2.0, alpha=0.8)
    np.testing.assert_allclose(val, math.exp(1.0) * 0.5**-0.8, rtol=1e-10)


@pytest.mark.parametrize("x", [-3.0, -1.0, 0.0, 2.0])
def test_weyl_left_at_any_real_point(x):
    # the integral is finite for every real x: r^-a e^(rx)
    val = weyl_left(exp_growth(0.5), x, alpha=0.8)
    np.testing.assert_allclose(val, 0.5**-0.8 * math.exp(0.5 * x), rtol=1e-10)


@pytest.mark.parametrize(
    "f",
    [
        power_times_exp(0.3, 1.2),
        callback(lambda t: np.exp(-2.0 * t) * (1.0 + t), tail=("exp", 2.0)),
    ],
)
@pytest.mark.parametrize("s", [0.4, 1.3, 2.7])
def test_weyl_right_at_zero_is_the_mellin_transform(f, s):
    # one half-line body: int_0^inf w^(s-1) f(w) dw = Gamma(s) weyl_right(f, 0)
    want = mellin_numeric_1d(f, s)
    np.testing.assert_allclose(weyl_right(f, 0.0, alpha=s) * gamma(s), want, rtol=1e-15)


def test_weyl_right_at_zero_on_a_compact_support_with_zero_order():
    # int_0^2 w^(a-1) w^-0.5 dw = 2^(a-0.5) / (a-0.5); the zero order goes
    # into the Jacobi weight, where a rule from 0 would not converge
    f = callback(
        lambda v: np.where(v < 2.0, v**-0.5, 0.0), zero_order=-0.5, tail=("compact", 0.0, 2.0)
    )
    val = weyl_right(f, 0.0, alpha=0.7)
    np.testing.assert_allclose(val, 2.0**0.2 / (0.2 * gamma(0.7)), rtol=1e-13)
    with pytest.raises(TailDivergence):
        weyl_right(f, 0.0, alpha=0.5)


def test_weyl_right_at_zero_on_a_compact_support_past_zero():
    # no rule reaches 0, so a declared zero order with a + order <= 0 is
    # harmless: int_1^2 w^(a-1) w^-0.5 dw = (2^(a-0.5) - 1) / (a-0.5)
    f = callback(
        lambda v: np.where(v >= 1.0, v**-0.5, 0.0), zero_order=-0.5, tail=("compact", 1.0, 2.0)
    )
    val = weyl_right(f, 0.0, alpha=0.3)
    np.testing.assert_allclose(val, (2.0**-0.2 - 1.0) / (-0.2 * gamma(0.3)), rtol=1e-13)


# (lam, rate) of v^lam e^(-rate v); rate 0 is the power law v^lam, lam < -alpha
WEYL_LAWS = [(None, 0.0), (0.0, 0.7), (0.0, 2.0), (-0.4, 1.1), (0.6, 0.5), (1.6, 1.8)]


@pytest.mark.parametrize("lam,rate", WEYL_LAWS)
@pytest.mark.parametrize("alpha", [0.05, 0.4, 1.1, 2.3, 4.0])
@pytest.mark.parametrize("x", [0.0, 1e-3, 0.05, 0.8, 4.5, 30.0])
def test_weyl_right_laws_against_closed_form(lam, rate, alpha, x):
    # (1/Gamma(a)) int_0^inf w^(a-1) (x+w)^lam e^(-r(x+w)) dw
    #   = e^(-rx) x^(a+lam) U(a, a+lam+1, rx), and Gamma(a+lam) r^-(a+lam) / Gamma(a)
    # at x = 0; the power law v^-m gives x^(a-m) Gamma(m-a) / Gamma(m).  U is
    # mpmath's: scipy's hyperu is off by up to 6e-7 near rx = 15.  At small
    # x, f(x + w) has its branch point at w = -x, next to the head rule's end
    if rate == 0.0:
        lam = -(alpha + 0.7)
        f = power(lam)
    else:
        f = power_times_exp(lam, rate) if lam else exp_decay(rate)
    if x == 0.0 and alpha + lam <= 0.0:
        with pytest.raises(TailDivergence):
            weyl_right(f, x, alpha=alpha)
        return
    if rate == 0.0:
        want = x ** (alpha + lam) * gamma(-lam - alpha) * rgamma(-lam)
    elif x == 0.0:
        want = gamma(alpha + lam) * rgamma(alpha) * rate ** -(alpha + lam)
    else:
        u = mp.hyperu(alpha, alpha + lam + 1.0, rate * x)
        want = float(mp.exp(-rate * x) * x ** (alpha + lam) * u)
    np.testing.assert_allclose(weyl_right(f, x, alpha=alpha), want, rtol=1e-8)


# ---------------------------------------------------------------------------
# hypergeometric factor and the Saigo-type operator


def test_2f1_log_case():
    np.testing.assert_allclose(gauss_2f1(1.0, 1.0, 2.0, 0.5), TWO_LN_TWO, rtol=1e-13)


def test_2f1_near_one_connection():
    np.testing.assert_allclose(gauss_2f1(0.3, 0.7, 1.1, 0.85), HYP_NEAR_ONE, rtol=1e-12)


def test_2f1_terminating_polynomial():
    # a = -2 terminates: 1 - 2*0.5/1.3*z + (2*1)(0.5*1.5)/(1.3*2.3)/2! * z^2 ... exact
    np.testing.assert_allclose(
        gauss_2f1(-2.0, 0.5, 1.3, 0.9), float(mp.hyp2f1(-2, 0.5, 1.3, 0.9)), rtol=1e-13
    )


def test_2f1_vector_argument():
    z = np.array([0.0, 0.25, 0.5, 0.75, 0.95])
    got = gauss_2f1(0.4, 1.2, 2.1, z)
    expect = [float(mp.hyp2f1(0.4, 1.2, 2.1, zz)) for zz in z]
    np.testing.assert_allclose(got, expect, rtol=1e-11)


def test_2f1_domain_errors():
    with pytest.raises(DomainError):
        gauss_2f1(0.5, 0.5, -1.0, 0.3)
    with pytest.raises(DomainError):
        gauss_2f1(0.5, 0.5, 1.0, 1.0)
    with pytest.raises(HypergeometricNonConvergent):
        gauss_2f1(1.0, 1.0, 2.0, 1.0 - 1e-12)


@pytest.mark.parametrize("m", [-2, -1, 0, 1, 2, 3])
def test_2f1_whole_gap_against_mpmath(m):
    # c - a - b = m: the logarithmic connection case, up to z = 1 - 1e-8
    z = np.array([0.5001, 0.75, 0.99, 1.0 - 1e-5, 1.0 - 1e-8])
    for a, b in [(0.7, -0.4), (1.3, 0.45), (-1.6, 2.2)]:
        c = a + b + m
        got = gauss_2f1(a, b, c, z)
        expect = [float(mp.hyp2f1(a, b, c, zz)) for zz in z]
        np.testing.assert_allclose(got, expect, rtol=1e-12)


@pytest.mark.parametrize(
    "a, b, c, z",
    [
        (0.3, 0.7, 1.0, 1.0 - 1e-7),
        (1.3, 0.9, 1.2, 1.0 - 1e-6),
        (2.5253, -1.4791, 2.0462, 0.99999944),
        (-1.8865, -2.4537, -4.3402, 0.99999996),
    ],
)
def test_2f1_whole_gap_near_one(a, b, c, z):
    # the first three once exhausted a 2M-term power series; scipy's hyp2f1
    # returns nan at the third and 0.58528 at the fourth
    np.testing.assert_allclose(gauss_2f1(a, b, c, z), float(mp.hyp2f1(a, b, c, z)), rtol=1e-10)


def test_2f1_whole_gap_divergent_at_one_still_raises():
    with pytest.raises(HypergeometricNonConvergent):
        gauss_2f1(0.3, 0.7, 1.0, 1.0 - 1e-9)
    with pytest.raises(HypergeometricNonConvergent):
        gauss_2f1(1.3, 0.9, 1.2, 1.0 - 1e-9)


@pytest.mark.parametrize(
    "a, b, c, z",
    [
        # c - a - b = 1 - 1e-9: the Gamma(+-s) connection formula once gave -0.9019
        (1.4698188415282418, -2.4236710993598605, 0.04614774116838136, 0.9970010539808638),
        # c - a - b = 2 + 2e-10: once off by 9e-7 relative
        (2.5, -1.48, 2.5 - 1.48 + 2e-10, 0.9),
    ],
)
def test_2f1_near_whole_gap(a, b, c, z):
    np.testing.assert_allclose(gauss_2f1(a, b, c, z), float(mp.hyp2f1(a, b, c, z)), rtol=1e-10)


_GAP_OFFSETS = st.just(0.0) | st.builds(
    lambda sign, e: sign * 10.0**e, st.sampled_from([-1.0, 1.0]), st.floats(-12.0, -2.0)
)


def _condition(a, b, c, z):
    """sum over p = a, b, c of |p dF/dp| for F = 2F1(a, b; c; z), by mpmath
    central differences: what a relative move of the parameters by 1 does
    to F, to first order."""
    total = 0.0
    for i in range(3):
        args = [mp.mpf(a), mp.mpf(b), mp.mpf(c)]
        p = args[i]
        h = abs(p) * mp.mpf(10) ** -15
        if h:
            args[i] = p + h
            up = mp.hyp2f1(*args, z)
            args[i] = p - h
            total += float(abs(p * (up - mp.hyp2f1(*args, z)) / (2 * h)))
    return total


@given(
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0),
    st.integers(-2, 3),
    _GAP_OFFSETS,
    st.floats(-8.0, math.log10(0.5)),
)
@settings(max_examples=200, deadline=None)
def test_2f1_against_mpmath_across_gap_offsets(a, b, m, delta, log_w):
    # z = 1 - w from 1/2 to 1 - 1e-8, c - a - b = m + delta.  Within 1e-4 of
    # a pole of c the value can lose more (test_2f1_beside_a_pole_of_c and
    # CHANGES.md)
    c, z = a + b + m + delta, 1.0 - 10.0**log_w
    assume(abs(c - min(round(c), 0)) >= 1e-4)
    try:
        got = gauss_2f1(a, b, c, z)
    except KoberError:
        return
    with mp.workdps(40):
        want = float(mp.hyp2f1(a, b, c, z))
        if abs(want) >= 1e-8 and abs(got - want) > 1e-10 * abs(want):
            # near a zero of F, or with a or b beside a nonpositive integer,
            # the value is as good as its condition: F at parameters moved by
            # 1e-12 relative (the scans in CHANGES.md)
            kappa = _condition(a, b, c, z)
            assert abs(got - want) <= 1e-10 * abs(want) + 1e-12 * kappa, (got, want, kappa)


@pytest.mark.xfail(strict=True, reason="c beside a pole: see CHANGES.md")
def test_2f1_beside_a_pole_of_c():
    # c 1e-5 from 0, b 1e-7 from -3: off by 1.5e-9 relative, where moving
    # a, b and c by 1e-12 relative moves F by 2e-12
    a, b, c, z = -1e-05, -2.9999999, -9.876879988219515e-06, 0.999997540598028
    np.testing.assert_allclose(gauss_2f1(a, b, c, z), float(mp.hyp2f1(a, b, c, z)), rtol=1e-10)


@pytest.mark.parametrize("side", [-1.0, 1.0])
@pytest.mark.parametrize(
    "a, b, m, z", [(0.7, -0.4, 1, 0.999), (1.3, 0.45, 0, 0.95), (-1.6, 2.2, 2, 1.0 - 1e-6)]
)
def test_2f1_regimes_agree_at_the_gap_switch(a, b, m, z, side):
    # just inside GAP_DELTA the polynomial in delta answers, just outside the
    # connection formula does
    inner = gauss_2f1(a, b, a + b + m + side * GAP_DELTA * (1.0 - 1e-9), z)
    outer = gauss_2f1(a, b, a + b + m + side * GAP_DELTA * (1.0 + 1e-9), z)
    np.testing.assert_allclose(inner, outer, rtol=1e-11)


@given(st.floats(0.3, 1.5), st.floats(0.2, 1.2), st.floats(0.0, 2.0), st.floats(0.3, 2.0))
@settings(max_examples=40, deadline=None)
def test_saigo_reduces_to_first_kind_when_factor_is_constant(zeta, alpha, lam, u):
    base = kober_first(power(lam), u, zeta=zeta, alpha=alpha)
    red1 = saigo_first(power(lam), u, zeta=zeta, alpha=alpha, beta=-alpha, gamma=0.7)
    red2 = saigo_first(power(lam), u, zeta=zeta, alpha=alpha, beta=0.4, gamma=0.0)
    np.testing.assert_allclose(red1, base, rtol=1e-10)
    np.testing.assert_allclose(red2, base, rtol=1e-10)


def _sin_box():
    return callback(
        lambda v: np.where((v > 0.5) & (v < 2.0), np.sin(v) + 2.0, 0.0), tail=("compact", 0.5, 2.0)
    )


@pytest.mark.parametrize("alpha", [0.4, 1.3])
@pytest.mark.parametrize("u", [0.8, 1.5, 3.0])
def test_saigo_compact_support(u, alpha):
    # a rule across the jump at either end of the support would not converge;
    # off 0 v^zeta is part of the integrand, so zeta = -1.5 is integrable
    beta, gam = -0.2, 0.5
    for zeta in (1.0, -1.5):

        def h(v):
            return v**zeta * hyp2f1(alpha + beta, -gam, alpha, 1.0 - v / u) * (np.sin(v) + 2.0)

        if u <= 2.0:  # the kernel (u - v)^(alpha - 1) as quad's algebraic weight
            expect = integrate.quad(h, 0.5, u, weight="alg", wvar=(0.0, alpha - 1.0))[0]
        else:
            expect = integrate.quad(lambda v: (u - v) ** (alpha - 1.0) * h(v), 0.5, 2.0)[0]
        val = saigo_first(_sin_box(), u, zeta=zeta, alpha=alpha, beta=beta, gamma=gam)
        want = expect * u ** (-zeta - alpha) * rgamma(alpha)
        np.testing.assert_allclose(val, want, rtol=1e-9)


@pytest.mark.parametrize("f", [power_times_exp(0.7, 1.3), _sin_box(), _box_from_zero()])
@pytest.mark.parametrize("u", [0.8, 1.5, 3.0])
def test_saigo_without_gamma_is_kober_first_bit_for_bit(f, u):
    # 2F1(alpha + beta, 0; alpha; z) = 1 exactly, and both run one body
    val = saigo_first(f, u, zeta=1.0, alpha=0.7, beta=-0.2, gamma=0.0)
    assert val == kober_first(f, u, zeta=1.0, alpha=0.7)


def test_saigo_generic_frozen_value():
    val = saigo_first(power(1.5), 0.9, zeta=1.2, alpha=0.6, beta=-0.2, gamma=0.5)
    np.testing.assert_allclose(val, SAIGO_GENERIC, rtol=1e-9)


def test_saigo_divergent_kernel_rejected():
    with pytest.raises(HypergeometricNonConvergent):
        saigo_first(power(1.0), 1.0, zeta=1.0, alpha=0.5, beta=0.3, gamma=0.1)


def test_saigo_terminating_kernel_allowed_despite_negative_gap():
    # gamma - beta < 0 but -gamma = -2 terminates the series, the kernel stays
    # bounded and the whole integrand is w^(-1/2) times a quartic:
    # int_0^1 w^(-1/2) (1-w)^2 (1 - 12w + 16w^2) dw = 16/315
    val = saigo_first(power(1.0), 1.0, zeta=1.0, alpha=0.5, beta=2.5, gamma=2.0)
    np.testing.assert_allclose(val, 16.0 / (315.0 * math.sqrt(math.pi)), rtol=1e-10)


# ---------------------------------------------------------------------------
# fractional derivatives


def test_derivative_power_frozen_value():
    val = frac_derivative(power(1.0), 1.0, alpha=0.5)
    np.testing.assert_allclose(val, D_HALF_V_AT_1, rtol=1e-13)


@given(st.floats(0.3, 3.0), st.floats(0.1, 1.9), st.floats(0.3, 3.0))
@settings(max_examples=60, deadline=None)
def test_derivative_inverts_rl_on_powers(lam, alpha, x):
    # D^a applied to the closed form of I^a v^lam returns v^lam
    c = gamma(lam + 1.0) * rgamma(lam + 1.0 + alpha)
    val = frac_derivative(power(lam + alpha, coeff=c), x, alpha=alpha)
    np.testing.assert_allclose(val, x**lam, rtol=1e-10)


def _series_derivative_exp(x, alpha, rate=1.0, coeff=1.0, lam=0.0):
    # term-by-term derivative of coeff v^lam e^(-rate v); the Gamma ratio is
    # taken in log space so late terms do not overflow before they decay
    total = 0.0
    c = coeff
    for n in range(160):
        num, den = n + lam + 1.0, n + lam + 1.0 - alpha
        ratio = gammasgn(num) * gammasgn(den) * math.exp(gammaln(num) - gammaln(den))
        total += c * ratio * x ** (n + lam - alpha)
        c *= -rate / (n + 1.0)
    return total


def test_derivative_exponential_family():
    val = frac_derivative(exp_decay(1.0), 1.3, alpha=0.5)
    np.testing.assert_allclose(val, _series_derivative_exp(1.3, 0.5), rtol=1e-10)


def test_derivative_exponential_family_order_above_one():
    val = frac_derivative(exp_decay(2.0), 0.8, alpha=1.6)
    np.testing.assert_allclose(val, _series_derivative_exp(0.8, 1.6, rate=2.0), rtol=1e-9)


def test_derivative_callback_stencil():
    f = callback(lambda v: np.exp(-v), smooth_order=6)
    val = frac_derivative(f, 1.3, alpha=0.5)
    np.testing.assert_allclose(val, _series_derivative_exp(1.3, 0.5), rtol=1e-5)


def test_derivative_power_times_exp_stencil():
    val = frac_derivative(power_times_exp(2.0, 1.0), 0.9, alpha=1.7)
    expect = _series_derivative_exp(0.9, 1.7, lam=2.0)
    np.testing.assert_allclose(val, expect, rtol=1e-5)


def _mp_derivative_damped_cosine(x, alpha, rate, freq):
    # D^a f = I^(m-a) f^(m) + sum_{i<m} f^(i)(0) x^(i-a) / Gamma(i+1-a) for
    # f = e^(-rate v) (2 + cos(freq v)), with f^(n) in closed form; the
    # integral is taken in u = (x - t)^(m-a), which removes its endpoint
    # singularity
    with mp.workdps(40):
        r, x, alpha = mp.mpf(rate), mp.mpf(x), mp.mpf(alpha)
        z = mp.mpc(-r, freq)
        m = int(mp.floor(alpha)) + 1
        beta = m - alpha

        def deriv(n, t):
            return 2 * (-r) ** n * mp.exp(-r * t) + mp.re(z**n * mp.exp(z * t))

        head = mp.quad(lambda u: deriv(m, x - u ** (1 / beta)), [0, x**beta])
        head /= beta * mp.gamma(beta)
        tail = sum(deriv(i, 0) * x ** (i - alpha) / mp.gamma(i + 1 - alpha) for i in range(m))
        return float(head + tail)


@pytest.mark.parametrize(
    "x, alpha",
    [
        (0.3196855883331926, 1.8589480972216357),
        (0.02, 0.5),
        (0.05, 1.3),
        (0.1, 1.95),
        (0.3, 0.9),
        (0.7, 1.7),
        (1.0, 0.4),
        (2.0, 1.85),
        (3.5, 1.1),
        (5.0, 0.7),
    ],
)
def test_derivative_callback_near_the_origin_against_mpmath(x, alpha):
    # the difference step scales with x: I^(m-a) f has a branch point at 0
    rate, freq = 1.7607138101729745, 1.7353170016172448
    f = callback(lambda v: np.exp(-rate * v) * (2.0 + np.cos(freq * v)), smooth_order=4)
    want = _mp_derivative_damped_cosine(x, alpha, rate, freq)
    np.testing.assert_allclose(frac_derivative(f, x, alpha=alpha), want, rtol=1e-5)


def test_derivative_requires_declared_smoothness():
    with pytest.raises(NonDifferentiable):
        frac_derivative(callback(lambda v: v), 1.0, alpha=0.5)


# ---------------------------------------------------------------------------
# multivariable operators


def test_multivar_first_separable_matches_joint():
    fs = [power(2.0), exp_decay(1.0)]
    u, zeta, alpha = (1.2, 0.8), (1.0, 0.5), (0.5, 1.3)
    sep = multivar_op("first", fs, u, zeta=zeta, alpha=alpha)
    joint = multivar_op("first", lambda a, b: a**2 * np.exp(-b), u, zeta=zeta, alpha=alpha)
    np.testing.assert_allclose(sep, joint, rtol=1e-9)


def test_multivar_second_separable_matches_joint():
    sep = multivar_op(
        "second", [power(-3.0), power(-2.5)], (2.0, 1.5), zeta=(2.0, 1.5), alpha=(0.5, 0.9)
    )
    joint = multivar_op(
        "second",
        lambda a, b: a**-3.0 * b**-2.5,
        (2.0, 1.5),
        zeta=(2.0, 1.5),
        alpha=(0.5, 0.9),
    )
    np.testing.assert_allclose(sep, joint, rtol=1e-9)


def test_multivar_second_separable_matches_joint_exponential_tails():
    fs = [exp_decay(1.0), power_times_exp(1.0, 0.7)]
    u, zeta, alpha = (0.8, 1.7), (0.6, 1.4), (0.5, 1.2)
    sep = multivar_op("second", fs, u, zeta=zeta, alpha=alpha)
    joint = multivar_op(
        "second", lambda a, b: np.exp(-a) * b * np.exp(-0.7 * b), u, zeta=zeta, alpha=alpha
    )
    np.testing.assert_allclose(sep, joint, rtol=1e-9)


@pytest.mark.parametrize(
    "kind, zeta, message",
    [
        ("first", -1.0, "zeta[1] must exceed -1 for a joint integrand"),
        ("second", 0.0, "zeta[1] must be positive for a joint second-kind integrand"),
    ],
)
def test_multivar_joint_rejects_zeta_at_the_bound(kind, zeta, message):
    with pytest.raises(TailDivergence, match=re.escape(message)):
        multivar_op(
            kind, lambda a, b: np.exp(-a - b), (1.0, 1.0), zeta=(1.0, zeta), alpha=(0.5, 0.5)
        )


def test_multivar_three_variables_product_of_shifts():
    val = multivar_op(
        "first", [power(1.0)] * 3, (1.0, 2.0, 3.0), zeta=(1.0,) * 3, alpha=(0.5,) * 3
    )
    expect = 6.0 * (gamma(3.0) / gamma(3.5)) ** 3
    np.testing.assert_allclose(val, expect, rtol=1e-11)


def _one_slab_multivar(kind, f, u, zeta, alpha, n):
    # the n-node tensor estimate built on the whole grid at once
    vs, ws = [], []
    for uj, zj, aj in zip(u, zeta, alpha):
        t, w = jacobi_rule_01(n, aj - 1.0, zj if kind == "first" else zj - 1.0)
        vs.append(uj * t if kind == "first" else uj / t)
        ws.append(w / gamma(aj))
    grid = np.meshgrid(*vs, indexing="ij", sparse=True)
    vals = np.broadcast_to(np.asarray(f(*grid), dtype=float), (n,) * len(vs))
    for w in reversed(ws):
        vals = vals @ w
    return float(vals)


@pytest.mark.parametrize("kind", ["first", "second"])
@pytest.mark.parametrize(
    "k, f",
    [
        (2, lambda a, b: np.exp(-a - b) / (1.0 + a * b)),
        (2, lambda a, b: np.exp(-b)),
        (3, lambda a, b, c: np.exp(-a - c) / (1.0 + a * b + c)),
        (3, lambda a, b, c: np.exp(-a * c - c)),
    ],
)
def test_multivar_slabs_match_one_slab(kind, k, f, monkeypatch):
    # small slabs (uneven at k = 2, one row each at k = 3); the second and
    # fourth integrands ignore an argument and come back broadcast
    monkeypatch.setattr(quadrature, "CHUNK_ENTRIES", 1000)
    u, zeta, alpha = (1.1, 0.7, 1.6)[:k], (0.8, 1.3, 0.6)[:k], (0.5, 1.2, 0.9)[:k]
    val, info = multivar_op(kind, f, u, zeta=zeta, alpha=alpha, full_output=True)
    expect = _one_slab_multivar(kind, f, u, zeta, alpha, info.nodes)
    np.testing.assert_allclose(val, expect, rtol=1e-13)


@pytest.mark.parametrize("k", [2, 3])
def test_multivar_refuses_a_joint_output_off_the_grid(k):
    # f(a) flattened cannot be placed on the k-axis grid: refused at the
    # first slab of the first estimate, not spread along another axis
    calls = []

    def f(*vs):
        calls.append(1)
        return np.exp(-vs[0].ravel())

    u, zeta, alpha = (1.0, 2.0, 0.7)[:k], (1.0, 0.3, 0.8)[:k], (0.5, 1.5, 1.1)[:k]
    with pytest.raises(DomainError, match="returned shape"):
        multivar_op("first", f, u, zeta=zeta, alpha=alpha)
    assert len(calls) == 1


def test_multivar_nonsmooth_joint_integrand():
    # a genuinely non-separable integrand, checked against a dblquad oracle
    u, zeta, alpha = (1.0, 1.0), (1.0, 0.6), (0.5, 0.8)
    val = multivar_op(
        "first", lambda a, b: 1.0 / (1.0 + a + b), u, zeta=zeta, alpha=alpha
    )
    expect = float(
        mp.quad(
            lambda t1, t2: (1 - t1) ** -0.5
            * t1
            * (1 - t2) ** -0.2
            * t2**0.6
            / (1 + t1 + t2),
            [0, 1],
            [0, 1],
        )
        / (mp.gamma(0.5) * mp.gamma(0.8))
    )
    np.testing.assert_allclose(val, expect, rtol=1e-8)


def test_multivar_rejects_too_many_variables():
    with pytest.raises(DomainError):
        multivar_op(
            "first", [power(1.0)] * 4, (1.0,) * 4, zeta=(1.0,) * 4, alpha=(0.5,) * 4
        )


def test_multivar_shape_mismatch():
    with pytest.raises(DomainError):
        multivar_op("first", [power(1.0)], (1.0, 2.0), zeta=(1.0,), alpha=(0.5,))


def test_mixed_derivative_separable_matches_joint():
    sep = multivar_frac_derivative([power(2.0), power(1.5)], (1.1, 0.9), alpha=(0.5, 0.7))
    joint = multivar_frac_derivative(
        lambda a, b: a**2 * b**1.5, (1.1, 0.9), alpha=(0.5, 0.7)
    )
    np.testing.assert_allclose(sep, joint, rtol=1e-6)


def test_mixed_derivative_closed_form():
    val = multivar_frac_derivative([power(2.0), power(1.0)], (1.0, 1.0), alpha=(0.5, 0.5))
    expect = (gamma(3.0) * rgamma(2.5)) * (gamma(2.0) * rgamma(1.5))
    np.testing.assert_allclose(val, expect, rtol=1e-10)


def test_quad_config_tightening_improves_noise_floor():
    loose = kober_first(exp_decay(1.0), 1.0, zeta=0.5, alpha=0.75, q=QuadConfig(base_nodes=8))
    tight = kober_first(exp_decay(1.0), 1.0, zeta=0.5, alpha=0.75)
    np.testing.assert_allclose(loose, tight, rtol=1e-7)


def test_mixed_derivative_one_factor_list_at_one_variable():
    val = multivar_frac_derivative([exp_decay(1.0)], (1.2,), alpha=(0.5,))
    assert val == frac_derivative(exp_decay(1.0), 1.2, alpha=0.5)


def test_mixed_derivative_refuses_a_factor_list_of_the_wrong_length():
    factors = [exp_decay(1.0), power(1.5), exp_decay(2.0)]
    with pytest.raises(DomainError, match="one factor per variable"):
        multivar_frac_derivative(factors, (1.0, 0.8), alpha=(0.5, 0.7))


def _infos(info):
    return info if isinstance(info, list) else [info]


@pytest.mark.parametrize(
    "op",
    [
        lambda **kw: kober_first(power(2.0), 1.0, zeta=1.0, alpha=0.5, **kw),
        lambda **kw: kober_second(exp_decay(1.0), 1.0, zeta=1.5, alpha=0.5, **kw),
        lambda **kw: riemann_liouville(exp_decay(1.5), 0.4, alpha=0.7, **kw),
        lambda **kw: riemann_liouville(exp_decay(1.5), 0.0, alpha=0.7, **kw),  # exact zero
        lambda **kw: weyl_right(power(-3.0), 0.4, alpha=0.7, **kw),
        lambda **kw: weyl_right(exp_decay(1.0), 0.0, alpha=0.7, **kw),
        lambda **kw: weyl_left(exp_growth(0.5), -1.0, alpha=0.8, **kw),
        lambda **kw: saigo_first(power(1.5), 0.9, zeta=1.2, alpha=0.8, beta=-0.5, gamma=0.5, **kw),
        lambda **kw: mellin_numeric_1d(exp_decay(1.0), 1.5, **kw),
        lambda **kw: multivar_op(
            "first", lambda a, b: np.exp(-a - b), (1.0, 2.0), zeta=(1.0, 0.3), alpha=(0.5, 1.5), **kw
        ),
        lambda **kw: multivar_op(
            "second", lambda a, b: np.exp(-a - b), (1.0, 2.0), zeta=(1.0, 1.3), alpha=(0.5, 1.5), **kw
        ),
        lambda **kw: multivar_op(
            "first", [power(1.0), exp_decay(1.0)], (1.0, 2.0), zeta=(1.0, 0.3), alpha=(0.5, 1.5), **kw
        ),
    ],
)
def test_quadrature_operators_return_python_floats(op):
    # one result type: a Python float, never a numpy scalar, for the value
    # and for every QuadInfo.last_delta
    val, info = op(full_output=True)
    assert type(val) is float and type(op()) is float
    assert all(type(i.last_delta) is float for i in _infos(info))


@pytest.mark.parametrize(
    "derivative",
    [
        lambda: frac_derivative(power(1.5), 0.9, alpha=0.6),  # closed form
        lambda: frac_derivative(exp_decay(1.0), 0.9, alpha=0.6),  # Riemann-Liouville path
        lambda: multivar_frac_derivative(power(1.5), (0.9,), alpha=(0.6,)),
        lambda: multivar_frac_derivative([power(1.5), exp_decay(1.0)], (0.9, 1.2), alpha=(0.6, 0.4)),
        lambda: multivar_frac_derivative(lambda a, b: np.exp(-a - b), (0.9, 1.2), alpha=(0.6, 0.4)),
    ],
)
def test_fractional_derivatives_return_python_floats(derivative):
    # the same result type as the quadrature-backed operators, on every path
    assert type(derivative()) is float
