import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from kober.errors import DomainError, RatioOverflow
from kober.matgamma import GammaRatioSpec, gamma_p, gamma_ratio, ln_gamma_p, ln_gamma_ratio

# int over 2x2 SPD matrices below I of |X|^(a-3/2) |I-X|^(b-3/2) dX at a = b = 2,
# evaluated by exact reduction of the normalizing constant: pi/45
BETA22_NORMALIZATION = 0.06981317007977318


def test_p1_reduces_to_ordinary_gamma():
    for a in (0.3, 1.0, 2.5, 7.25):
        np.testing.assert_allclose(ln_gamma_p(1, a), gammaln(a), rtol=1e-14)


def test_p2_closed_form():
    # Gamma_2(a) = sqrt(pi) Gamma(a) Gamma(a - 1/2)
    a = 2.0
    expect = 0.5 * math.log(math.pi) + gammaln(a) + gammaln(a - 0.5)
    np.testing.assert_allclose(ln_gamma_p(2, a), expect, rtol=1e-14)


def test_p3_explicit_product():
    a = 3.1
    expect = 1.5 * math.log(math.pi) + gammaln(a) + gammaln(a - 0.5) + gammaln(a - 1.0)
    np.testing.assert_allclose(ln_gamma_p(3, a), expect, rtol=1e-14)


def test_beta22_normalization_constant():
    val = math.exp(2.0 * ln_gamma_p(2, 2.0) - ln_gamma_p(2, 4.0))
    np.testing.assert_allclose(val, BETA22_NORMALIZATION, rtol=1e-13)
    np.testing.assert_allclose(val, math.pi / 45.0, rtol=1e-13)


@pytest.mark.parametrize("p,a", [(2, 0.5), (3, 1.0), (2, 0.49), (4, 1.4)])
def test_domain_boundary_rejected(p, a):
    with pytest.raises(DomainError):
        ln_gamma_p(p, a)


@given(st.integers(1, 4), st.floats(0.2, 8.0))
@settings(max_examples=100, deadline=None)
def test_recurrence_in_the_argument(p, x):
    # Gamma_p(a+1) = Gamma_p(a) * prod_i (a - i/2) for i = 0..p-1
    a = x + (p - 1) / 2.0 + 0.05
    lhs = ln_gamma_p(p, a + 1.0)
    logs = [math.log(a - i / 2.0) for i in range(p)]
    rhs = ln_gamma_p(p, a) + sum(logs)
    # near its zeros (x = 1, 2) math.lgamma errs by a few ulps of 1, not of
    # its value, so where ln Gamma_p(a + 1) crosses 0 (p = 1, a near 1) a
    # relative test alone fails; the floor is a few ulps of the summands
    summands = [lhs, ln_gamma_p(p, a)] + logs
    floor = 8.0 * np.finfo(float).eps * sum(max(1.0, abs(t)) for t in summands)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=floor)


def test_gamma_p_plain_value():
    np.testing.assert_allclose(gamma_p(1, 2.5), 1.329340388179137, rtol=1e-14)


def test_gamma_p_overflow_is_reported():
    with pytest.raises(RatioOverflow):
        gamma_p(2, 400.0)


def test_gamma_ratio_cancels_huge_terms():
    # each factor overflows float64 on its own; the ratio is moderate
    spec = GammaRatioSpec(p=2, numerator=(301.0,), denominator=(300.0,))
    expect = gammaln(301.0) + gammaln(300.5) - gammaln(300.0) - gammaln(299.5)
    np.testing.assert_allclose(ln_gamma_ratio(spec), expect, rtol=1e-13)
    np.testing.assert_allclose(gamma_ratio(spec), math.exp(expect), rtol=1e-12)


def test_gamma_ratio_multiple_factors():
    spec = GammaRatioSpec(p=1, numerator=(1.5, 2.0), denominator=(2.5, 1.0))
    np.testing.assert_allclose(
        gamma_ratio(spec), math.gamma(1.5) * math.gamma(2.0) / math.gamma(2.5), rtol=1e-13
    )


def test_gamma_ratio_overflow_raised():
    spec = GammaRatioSpec(p=1, numerator=(300.0,), denominator=(1.0,))
    with pytest.raises(RatioOverflow):
        gamma_ratio(spec)
    # the log form still works
    assert ln_gamma_ratio(spec) == pytest.approx(gammaln(300.0))
