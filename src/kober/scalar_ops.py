"""Scalar and multivariable fractional integral operators of Kober type.

All operators are evaluated by Gauss-Jacobi quadrature after a substitution
that maps the integration range onto (0, 1) and absorbs the kernel's endpoint
singularities into the quadrature weight:

  first kind   g(u) = (1/Gamma(a)) int_0^1 (1-t)^(a-1) t^z f(u t) dt
  second kind  g(u) = (1/Gamma(a)) int_0^1 (1-t)^(a-1) t^(z-1) f(u/t) dt

with a the fractional order and z the index parameter.  Known power behaviour
of the integrand family at the singular endpoint is absorbed into the weight as
well, so the remaining integrand is smooth.  One axis map (_axis) serves
kober_first, riemann_liouville, saigo_first, every integral over a bounded
interval and each variable of multivar_op's joint integrand: a compact support
only moves the interval's ends.  kober_second and the joint second kind take it
by K2_(z,a) f(u) = K1_(z-1,a)[f(1/.)](1/u) (_reciprocal): a power tail v^(-m)
of f becomes zero order m, an exponential one max(1 - z, 0) and a support
[lo, hi] [1/hi, 1/lo].  weyl_right, weyl_left and mtransform.mellin_numeric_1d
share one half-line body, int_0^inf w^(s-1) f(w) dw: a Jacobi head on (0, 1)
and a tail set by f's declared decay.  On a support [lo, hi] that body is the
first kind at x = hi with alpha = 1, and weyl_right past 0 the first kind on
f(-.) from -hi at -x.  Every estimate is a quadrature.doubling_sum, the joint
one a piece over the grid of its axis maps.
"""

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import (
    DomainError,
    HypergeometricNonConvergent,
    NonDifferentiable,
    TailDivergence,
)
from .matgamma import MAX_SLOTS
from .quadrature import (
    EXACT_ZERO,
    QuadConfig,
    _check_order,
    doubling_sum,
    jacobi_rule_01,
    quad_operator,
    scipy_special,
)

# for the 2F1 and frac_derivative's closed forms.  The operators divide by
# math.gamma(alpha): past alpha = 171.6 it raises OverflowError, and so
# RatioOverflow, where scipy's inf would make the value a silent 0.0
_gamma = scipy_special("gamma")
_rgamma = scipy_special("rgamma")
_digamma = scipy_special("digamma")
_scipy_hyp2f1 = scipy_special("hyp2f1")
# no caller: kept because the benchmark's tracer hooks this name
roots_laguerre = scipy_special("roots_laguerre")

# largest x with exp(-x) above the double underflow threshold
EXP_HORIZON = 745.0


# ---------------------------------------------------------------------------
# test function families


@dataclass(frozen=True)
class TestFunction1D:
    """A function on (0, infinity) with declared endpoint behaviour.

    Without fn it is the law f(v) = coeff v^lam e^(-rate v), one parameter
    row per family:

      power(lam)                   lam,    rate = 0        tail ("power", -lam)
      exp_decay(rate)              lam = 0, rate > 0       tail ("exp", rate)
      power_times_exp(lam, rate)   lam,    rate > 0        tail ("exp", rate)
      exp_growth(rate)             lam = 0, rate -> -rate  left_tail ("exp", rate)

    each with zero_order = lam.  With fn (a callback) f is fn itself.
    zero_order declares f(v) ~ C v^zero_order as v -> 0+; tail declares the
    behaviour at infinity as ("exp", rate), ("power", m) for ~ C v^(-m), or
    ("compact", lo, hi) for support contained in [lo, hi].  family is only a
    label for messages.
    """

    family: str
    lam: float = 0.0
    rate: float = 0.0
    coeff: float = 1.0
    fn: Callable | None = None
    zero_order: float = 0.0
    tail: tuple | None = None
    left_tail: tuple | None = None
    smooth_order: int | None = None

    def __call__(self, v):
        v = np.asarray(v, dtype=float)
        if self.fn is not None:
            return self.fn(v)
        out = np.full(v.shape, self.coeff)
        if self.lam:
            out = out * v**self.lam
        if self.rate:
            out = out * np.exp(-self.rate * v)
        return out

    def split_power(self):
        """Return (order, residual) with f(v) = v^order residual(v) and the
        residual smooth and finite at zero."""
        order = self.zero_order
        if order == 0.0:
            return 0.0, self
        if self.fn is None:
            return order, replace(self, lam=0.0, zero_order=0.0)
        return order, lambda v: self.fn(v) / np.asarray(v) ** order


def law(lam, rate, coeff, family):
    """f(v) = coeff v^lam e^(-rate v), tails set from the sign of rate: an
    exponential tail for rate > 0, a power tail v^lam for rate = 0 and an
    exponential left tail for rate < 0."""
    tail = ("exp", rate) if rate > 0 else ("power", -lam) if rate == 0 else None
    left_tail = ("exp", -rate) if rate < 0 else None
    return TestFunction1D(
        family, lam=lam, rate=rate, coeff=coeff, zero_order=lam, tail=tail, left_tail=left_tail
    )


def power(lam, coeff=1.0):
    return law(lam, 0.0, coeff, "power")


def exp_decay(rate=1.0, coeff=1.0):
    if rate <= 0:
        raise DomainError("exp_decay requires a positive rate")
    return law(0.0, rate, coeff, "exp_decay")


def power_times_exp(lam, rate=1.0, coeff=1.0):
    if rate <= 0:
        raise DomainError("power_times_exp requires a positive rate")
    return law(lam, rate, coeff, "power_times_exp")


def exp_growth(rate=1.0, coeff=1.0):
    if rate <= 0:
        raise DomainError("exp_growth requires a positive rate")
    return law(0.0, -rate, coeff, "exp_growth")


def callback(fn, zero_order=0.0, tail=None, left_tail=None, smooth_order=None):
    return TestFunction1D(
        "callback",
        fn=fn,
        zero_order=zero_order,
        tail=tail,
        left_tail=left_tail,
        smooth_order=smooth_order,
    )


def as_test_function(f):
    if isinstance(f, TestFunction1D):
        return f
    if callable(f):
        return callback(f)
    raise DomainError(f"expected a TestFunction1D or callable, got {type(f)!r}")


# ---------------------------------------------------------------------------
# Gauss hypergeometric function on [0, 1)

GAP_DELTA = 5e-4  # the gap offset below which gauss_2f1 interpolates


def _is_nonpositive_int(x):
    # exact: a tolerance would drop the small offset that the connection
    # formulas keep; below 1e-300, where 1/x overflows, x counts as 0
    return round(x) <= 0 and (x == round(x) or abs(x) < 1e-300)


def _pole_distance(x):
    """Distance from x to the nearest nonpositive integer."""
    return abs(x - min(round(x), 0))


def _terminating_2f1(a, b, c, z):
    """2F1(a, b; c; z) when a or b is a nonpositive integer -n: n + 1 terms."""
    n = -round(max(x for x in (a, b) if _is_nonpositive_int(x)))
    term = total = np.ones_like(z)
    for k in range(n):
        term = term * ((a + k) * (b + k) / ((c + k) * (k + 1.0))) * z
        total = total + term
    return total


def _psi(x):
    """digamma, stepped up to x >= 1 by psi(x) = psi(x + 1) - 1/x: beside
    its poles scipy's digamma keeps only absolute accuracy (2.4e-5 relative
    at x = -2 + 2.5e-12)."""
    n = max(0, math.ceil(1.0 - x))
    return _digamma(x + n) - math.fsum(1.0 / (x + j) for j in range(n))


def _connection_2f1(a, b, c, ca, cb, s, w):
    """2F1(a, b; c; 1 - w) for w < 1/2 and s = c - a - b not a whole number,
    by DLMF 15.8.4: two series in w, summed by scipy.  ca = c - a and
    cb = c - b come from the caller, who knows which sum keeps its digits."""
    # Gamma(c) first in each product: a tiny c next to a tiny a or b would
    # otherwise overflow or underflow
    gc = _gamma(c)
    return gc * _rgamma(ca) * _rgamma(cb) * _gamma(s) * _scipy_hyp2f1(
        a, b, 1.0 - s, w
    ) + gc * _rgamma(a) * _rgamma(b) * _gamma(-s) * w**s * _scipy_hyp2f1(ca, cb, 1.0 + s, w)


def _whole_gap_2f1(a, b, c, ca, cb, m, w):
    """2F1(a, b; c; 1 - w) for c - a - b a whole number m and w < 1/2, by
    DLMF 15.8.10 (Abramowitz & Stegun 15.3.10-15.3.12).  With M = |m| and
    (lo, hi) = ((a, b), (cb, ca)) for m >= 0, ((cb, ca), (a, b)) for m < 0,
    where cb = c - b = a + m and ca = c - a = b + m:

      F / Gamma(c) = pref sum_{k<M} (lo_a)_k (lo_b)_k (M-k-1)! / (k! Gamma(hi_a) Gamma(hi_b)) (-w)^k
                     - pref (-w)^M / (Gamma(lo_a) Gamma(lo_b)) sum_k (hi_a)_k (hi_b)_k / (k! (k+M)!) w^k
                       [ln w - psi(k+1) - psi(k+M+1) + psi(hi_a+k) + psi(hi_b+k)]

    with pref = w^m for m < 0 (Euler's transformation) and 1 otherwise; the
    series converges like 2^-k.
    """
    big_m = abs(m)
    gc = _gamma(c)  # first in each product, as in _connection_2f1
    if m >= 0:
        lo_a, lo_b, hi_a, hi_b, pref = a, b, cb, ca, 1.0
        r_lo, r_hi = gc * _rgamma(a) * _rgamma(b), gc * _rgamma(hi_a) * _rgamma(hi_b)
    else:
        lo_a, lo_b, hi_a, hi_b, pref = cb, ca, a, b, w ** float(m)
        # 1/Gamma(lo) = (lo)_M / Gamma(hi): a small a or b keeps its digits
        r_hi = gc * _rgamma(a) * _rgamma(b)
        r_lo = r_hi * math.prod((cb + j) * (ca + j) for j in range(big_m))
    finite = np.zeros_like(w)
    term = np.ones_like(w)
    for k in range(big_m):
        finite = finite + term * math.factorial(big_m - k - 1)
        term = term * ((lo_a + k) * (lo_b + k) / (k + 1.0)) * -w
    finite = finite * r_hi

    log_w = np.log(w)
    psi = _psi(hi_a) + _psi(hi_b) - _digamma(1.0) - _digamma(big_m + 1.0)
    term = np.full_like(w, 1.0 / math.factorial(big_m))
    total = term * (log_w + psi)
    quiet = 0
    for k in range(1000):
        term = term * ((hi_a + k) * (hi_b + k) / ((k + 1.0) * (k + big_m + 1.0))) * w
        # psi(x + 1) = psi(x) + 1/x for each of the four digamma terms
        psi += 1.0 / (hi_a + k) + 1.0 / (hi_b + k) - 1.0 / (k + 1.0) - 1.0 / (k + big_m + 1.0)
        inc = term * (log_w + psi)
        total = total + inc
        if np.all(np.abs(inc) <= 1e-16 * np.maximum(np.abs(total), 1e-300)):
            quiet += 1
            if quiet >= 2:
                return pref * (finite - (-w) ** big_m * (r_lo * total))
        else:
            quiet = 0
    raise HypergeometricNonConvergent("2F1 log-case series did not converge within 1000 terms")


def _nonterminating_2f1(a, b, c, ca, cb, s, z):
    """scipy.special.hyp2f1 (its power series) for z <= 0.9; above, DLMF
    15.8.10 when s = c - a - b is a whole number and DLMF 15.8.4 otherwise."""
    out = np.empty_like(z)
    near = z > 0.9
    out[~near] = _scipy_hyp2f1(a, b, c, z[~near])
    if np.any(near):
        w = 1.0 - z[near]
        if s == round(s):
            out[near] = _whole_gap_2f1(a, b, c, ca, cb, round(s), w)
        else:
            out[near] = _connection_2f1(a, b, c, ca, cb, s, w)
    return out


def gauss_2f1(a, b, c, z):
    """Gauss hypergeometric 2F1(a, b; c; z), real parameters, 0 <= z < 1.

    Terminating cases (a or b a nonpositive integer) are summed exactly.
    Otherwise scipy.special.hyp2f1 (its power series) for z <= 0.9, and for
    larger z a connection formula in w = 1 - z whose two series scipy sums:
    DLMF 15.8.4 when the gap s = c - a - b is off a whole number m by
    |delta| >= GAP_DELTA, DLMF 15.8.10 when it is m.  In between 15.8.4
    cancels two Gamma(+-s) terms, so the value is the degree-6 polynomial in
    delta through delta = 0, +-GAP_DELTA, +-2 GAP_DELTA, +-3 GAP_DELTA.  Its
    nodes move c, or, when c is within 0.1 of a pole, the upper parameter
    farther from a nonpositive integer.

    Against mpmath at 40 digits (8000 draws: a, b in (-3, 3), round(s) in
    -2..3, delta = 0 or |delta| in [1e-12, 1e-2], z up to 1 - 1e-8), with a
    and b at least 1e-3 from the nonpositive integers and c 1e-4 from a
    pole, the worst relative error is 1.5e-14 at delta = 0, 6.2e-12 inside
    GAP_DELTA and 3.4e-12 outside.  Closer to those integers the worst is
    2.2e-9, a thirtieth of what moving a, b and c by 1e-12 relative does to
    F.  For s <= 0, z > 1 - 1e-8 raises HypergeometricNonConvergent, as does
    a value that is not finite.
    """
    scalar = np.isscalar(z) or np.asarray(z).ndim == 0
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(z < 0.0) or np.any(z >= 1.0):
        raise DomainError("gauss_2f1 is evaluated on 0 <= z < 1 only")
    if _is_nonpositive_int(c):
        raise DomainError(f"2F1 lower parameter c={c} is a nonpositive integer")

    s = c - a - b
    m = round(s)
    x = (s - m) / GAP_DELTA
    if _is_nonpositive_int(a) or _is_nonpositive_int(b):
        out = _terminating_2f1(a, b, c, z)
    elif s <= 0.0 and np.any(z > 1.0 - 1e-8):
        raise HypergeometricNonConvergent(f"2F1 diverges as z -> 1 when c - a - b = {s:.6g} <= 0")
    elif abs(x) >= 1.0:
        out = _nonterminating_2f1(a, b, c, c - a, c - b, s, z)
    else:
        move_c = _pole_distance(c) >= 0.1
        if not move_c and _pole_distance(a) > _pole_distance(b):
            a, b = b, a
        nodes = (-3, -2, -1, 0, 1, 2, 3)
        out = np.zeros_like(z)
        for k in nodes:
            weight = math.prod((x - j) / (k - j) for j in nodes if j != k)
            if weight != 0.0:
                # the moved parameter, correctly rounded, gives the gap sk; c - a
                # and c - b are formed from the parameters that stay put
                sk = m + k * GAP_DELTA
                if move_c:
                    node = (a, b, math.fsum((a, b, sk)), b + sk, a + sk)
                else:
                    node = (a, math.fsum((c, -a, -sk)), c, c - a, a + sk)
                out = out + weight * _nonterminating_2f1(*node, sk, z)
    if not np.all(np.isfinite(out)):
        raise HypergeometricNonConvergent(f"2F1({a}, {b}; {c}; z) is not finite on the given z")
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# one dimensional operators


def _check_point(u, name="u"):
    u = float(u)
    if not u > 0:
        raise DomainError(f"evaluation point {name} must be positive, got {u}")
    return u


def _axis(f, x, alpha, zeta, lead, a=0.0, kernel=None):
    """x^(lead-zeta-alpha)/Gamma(alpha) int_a^x (x-v)^(alpha-1) v^zeta kernel(v/x) f(v) dv
    = c sum_i w_i g_i on the Jacobi rule (t_i, w_i) of exponents ab, (v_i, g_i)
    = points(t_i): the one map (ab, points, c) of every integral over a bounded
    interval, None where it is exactly zero.  a != 0 only with zeta = 0 and
    lead = alpha, and then x and a may be negative, as in weyl_right's
    reflected call.  A compact support [lo, hi] of f narrows the interval to
    [lo, min(x, hi)], lo clipped at a; an exponential tail with rate r ends it
    at EXP_HORIZON / r, past which f underflows.  A Jacobi weight absorbs
    v^(zeta + f's zero order) only when lo = 0, and for x <= hi also
    (x-v)^(alpha-1).  Past hi, w = x - v = near (far/near)^t with near = x - hi
    and far = x - lo turns (x-v)^(alpha-1) dv, nearly singular at v = hi when
    near is small, into the smooth ln(far/near) w^alpha dt."""
    compact = f.tail is not None and f.tail[0] == "compact"
    lo, hi = (max(f.tail[1], a), f.tail[2]) if compact else (a, math.inf)
    if f.tail is not None and f.tail[0] == "exp":  # f underflows past the horizon
        hi = EXP_HORIZON / f.tail[1]
    if x <= lo or lo >= hi:
        return None
    order, res = f.split_power() if lo == 0.0 else (0.0, f)
    b = zeta + order if lo == 0.0 else 0.0  # the power of v in the weight
    if b <= -1.0:
        raise TailDivergence(f"v^zeta f(v) ~ v^{b} is not integrable at 0")

    if x <= hi:
        span = x - lo

        def points(t):
            v = lo + span * t
            vals = np.asarray(res(v), dtype=float)
            if lo and zeta:
                vals = vals * v**zeta
            if kernel is not None:  # v/x, and t itself when lo = 0 and span = x
                vals = kernel(lo / x + t * (span / x)) * vals
            return v, vals

        # span = x when lo = 0
        scale = x ** (lead - zeta - alpha) * span**alpha if lo else span ** (lead + order)
        return (alpha - 1.0, b), points, scale / math.gamma(alpha)

    near, far = x - hi, x - lo
    log_ratio = math.log1p((hi - lo) / near)

    def points(t):
        # v runs from hi at t = 0 to lo at t = 1, where v / (1 - t) stays
        # finite for lo = 0
        v = lo - far * np.expm1((t - 1.0) * log_ratio)
        vals = np.asarray(res(v), dtype=float) * (far * np.exp((t - 1.0) * log_ratio)) ** alpha
        vals = vals * (v**zeta if lo else (v / (1.0 - t)) ** b)
        if kernel is not None:
            vals = kernel(v / x) * vals
        return v, vals

    scale = x ** (lead - zeta - alpha) * log_ratio
    return (b, 0.0), points, scale / math.gamma(alpha)


def _first_kind(f, x, alpha, zeta, lead, q, a=0.0, kernel=None):
    """The axis map of f (_axis) as a one-axis doubling_sum piece."""
    axis = _axis(f, x, alpha, zeta, lead, a, kernel)
    if axis is None:
        return EXACT_ZERO
    return doubling_sum(q, [((axis[0],), lambda t: axis[1](t)[1], axis[2])])


@quad_operator
def kober_first(f, u, *, zeta, alpha, q):
    """Kober fractional integral of the first kind,

    g(u) = u^(-zeta-alpha)/Gamma(alpha) * int_0^u (u-v)^(alpha-1) v^zeta f(v) dv.
    """
    return _first_kind(as_test_function(f), _check_point(u), alpha, zeta, 0.0, q)


def _reciprocal(f, u, zeta):
    """(g, x, zeta - 1 + s), K2_(zeta,a) f(u) = K1_(zeta-1+s,a) g(x) at x = 1/u
    with g(w) = f(1/w) (x/w)^s: s = m for a power tail v^(-m), max(1 - zeta, 0)
    for an exponential one, 0 for none, and 1 - zeta for a support [lo, hi],
    mapped to [1/hi, 1/lo], so that no power of x leaves the float range."""
    x, kind, tail, s = 1.0 / u, f.tail and f.tail[0], None, 0.0
    if kind == "compact":  # lo = 0 maps to an unbounded support
        tail, s = ("compact", 1.0 / f.tail[2], 1.0 / f.tail[1] if f.tail[1] else math.inf), 1 - zeta
    elif kind == "power":
        s = f.tail[1]
        if zeta + s <= 0:
            raise TailDivergence(
                f"second kind integral diverges: zeta + m = {zeta + s} <= 0 "
                f"for declared tail v^({-s})"
            )
    elif kind == "exp":
        s = max(1.0 - zeta, 0.0)
    elif kind is not None:
        raise TailDivergence(f"unsupported tail declaration {f.tail!r}")
    return callback(lambda w: f(1.0 / w) * (x / w) ** s, tail=tail), x, zeta - 1.0 + s


@quad_operator
def kober_second(f, u, *, zeta, alpha, q):
    """Kober fractional integral of the second kind,

    g(u) = u^zeta/Gamma(alpha) * int_u^inf v^(-zeta-alpha) (v-u)^(alpha-1) f(v) dv,

    the first kind on f(1/.) at 1/u (_reciprocal).
    """
    f = as_test_function(f)
    u = _check_point(u)
    if f.tail is None:
        raise TailDivergence("kober_second needs a declared tail to integrate to infinity")
    g, x, index = _reciprocal(f, u, zeta)
    return _first_kind(g, x, alpha, index, 0.0, q)


@quad_operator
def riemann_liouville(f, x, *, alpha, a=0.0, q):
    """Left-sided Riemann-Liouville integral of order alpha from terminal a,

    (1/Gamma(alpha)) int_a^x (x-v)^(alpha-1) f(v) dv.
    """
    x = float(x)
    if x < a:
        raise DomainError(f"riemann_liouville needs x >= a, got x={x}, a={a}")
    return _first_kind(as_test_function(f), x, alpha, 0.0, alpha, q, a=a)


def _half_line(f, s, q):
    """int_0^inf w^(s-1) f(w) dw for a function with declared endpoint behaviour.

    A compact support [lo, hi] is the first kind at x = hi with alpha = 1 and
    zeta = s - 1, so no rule crosses a jump of f at either end.  Otherwise
    the integral is split at 1; the head absorbs w^(s-1) and the declared
    power of f at zero into a Jacobi weight on (0, 1), the tail uses the
    declared decay (a reciprocal Jacobi substitution for a power tail,
    octave Gauss-Legendre segments out to EXP_HORIZON / rate for an
    exponential tail).  All segments share one rule, so f is evaluated once
    per estimate on the (segments x nodes) grid.
    """
    order, res = f.split_power()
    if f.tail is None:
        raise TailDivergence("the integral needs a declared tail to reach infinity")
    kind = f.tail[0]
    if kind == "power" and s >= f.tail[1]:
        raise TailDivergence(
            f"int_0^inf w^(s-1) f(w) dw diverges at infinity: "
            f"s = {s} >= declared decay {f.tail[1]}"
        )
    if kind not in ("power", "exp", "compact"):
        raise TailDivergence(f"unsupported tail declaration {f.tail!r}")
    if s + order <= 0.0 and (kind != "compact" or f.tail[1] <= 0.0):
        raise DomainError(
            f"int_0^inf w^(s-1) f(w) dw diverges at zero: s + zero order = {s + order} <= 0"
        )
    if kind == "compact":
        return _first_kind(f, f.tail[2], 1.0, s - 1.0, s, q)

    pieces = [(((0.0, s - 1.0 + order),), res, 1.0)]
    if kind == "power":
        m = f.tail[1]

        def tail(t):
            w = 1.0 / t
            return np.asarray(f(w), dtype=float) * w**m

        pieces.append((((0.0, m - s - 1.0),), tail, 1.0))
    else:
        n_seg = max(1, math.ceil(math.log2(EXP_HORIZON) - math.log2(f.tail[1])))
        lo, hi = np.array([(2.0**i, 2.0 ** (i + 1)) for i in range(n_seg)]).T[:, :, None]

        def seg(t):
            w = lo + (hi - lo) * t
            # f on the flat grid, as a callback may return a flat array; the
            # product broadcasts a callback's scalar output
            vals = ((hi - lo) * w ** (s - 1.0)).ravel() * np.asarray(f(w.ravel()), dtype=float)
            return vals.reshape(w.shape).sum(axis=0)

        pieces.append(((None,), seg, 1.0))
    return doubling_sum(q, pieces)


@quad_operator
def weyl_right(f, x, *, alpha, q):
    """Right-sided Weyl fractional integral,
    (1/Gamma(alpha)) int_x^inf (v-x)^(alpha-1) f(v) dv
      = (1/Gamma(alpha)) int_0^inf w^(alpha-1) f(x+w) dw,
    the half-line body that mellin_numeric_1d shares, at s = alpha.  At x = 0
    the body takes f itself with its zero order.  Past 0 a compact support
    [lo, hi] makes it the left integral of f(-.) from -hi, taken at -x: the
    first-kind body, reflected by the exact map v -> -v.  Any other tail
    gives the half-line body f(x + w)."""
    f = as_test_function(f)
    x = float(x)
    if x < 0:
        raise DomainError(f"weyl_right is evaluated at x >= 0, got {x}")
    gamma_a = math.gamma(alpha)  # RatioOverflow before f is evaluated
    scale = 1.0
    if x == 0.0:
        g = f
    elif f.tail is not None and f.tail[0] == "compact":
        _, lo, hi = f.tail
        g = callback(lambda v: f(-v), tail=("compact", -hi, -lo))
        return _first_kind(g, -x, alpha, 0.0, alpha, q, a=-hi)
    else:
        # f(x + w) may be singular at w = -x.  w = c u with c = x keeps that
        # point a unit away from the head rule's end and, for a power tail,
        # leaves the tail's f(x (1 + 1/t)) t^-m smooth at any x.  An
        # exponential tail caps c at 1, where its octave segments start, and
        # floors it at 2^-40, which bounds their number
        scale, tail = x, f.tail
        if tail is not None and tail[0] == "exp":
            scale = min(max(x, 2.0**-40), 1.0)
            tail = ("exp", tail[1] * scale)
        g = callback(lambda u: f(x + scale * u), tail=tail)
    try:
        val, info = _half_line(g, alpha, q)
    except DomainError as exc:  # only at x = 0, from f's own zero order
        raise TailDivergence(f"weyl_right: {exc}") from None
    return scale**alpha * val / gamma_a, info


@quad_operator
def weyl_left(f, x, *, alpha, q):
    """Left-sided Weyl integral, (1/Gamma(alpha)) int_{-inf}^x (x-v)^(alpha-1) f(v) dv
      = (1/Gamma(alpha)) int_0^inf w^(alpha-1) f(x-w) dw,
    by the half-line body of weyl_right and mellin_numeric_1d, at any real x.

    Requires decay of f towards minus infinity, declared through left_tail.
    """
    f = as_test_function(f)
    x = float(x)
    if f.left_tail is None:
        raise TailDivergence("weyl_left needs a declared left tail")
    gamma_a = math.gamma(alpha)  # RatioOverflow before f is evaluated
    val, info = _half_line(callback(lambda w: f(x - w), tail=f.left_tail), alpha, q)
    return val / gamma_a, info


@quad_operator
def saigo_first(f, u, *, zeta, alpha, beta, gamma, q):
    """Saigo-type operator of the first kind: the first-kind ratio convolution
    with weight t^zeta 2F1(alpha+beta, -gamma; alpha; 1-t) inside the kernel.

    Reduces to kober_first when the hypergeometric factor is constant
    (beta = -alpha or gamma = 0).
    """
    f = as_test_function(f)
    u = _check_point(u)
    s = gamma - beta  # controls the 2F1 factor as its argument approaches 1
    if s <= 0.0 and not (
        _is_nonpositive_int(alpha + beta) or _is_nonpositive_int(-gamma)
    ):
        raise HypergeometricNonConvergent(
            f"Saigo kernel diverges near the lower endpoint: gamma - beta = {s:.6g} <= 0"
        )

    def kernel(t):
        return gauss_2f1(alpha + beta, -gamma, alpha, 1.0 - t)

    return _first_kind(f, u, alpha, zeta, 0.0, q, kernel=kernel)


# ---------------------------------------------------------------------------
# fractional derivatives


def _central_derivative(g, x, m, q):
    """The mixed partial of orders m of g at the point x (one entry per
    variable) by tensor central differences, with one Richardson step per
    variable, the first innermost.  The step of variable j is
    |x_j| rel_tol^(1/(m_j+4)), scaled to x_j because g may have a branch
    point at 0, and at most x_j/(m_j+2) so that every node stays positive."""
    h = [
        min(abs(xj) * q.rel_tol ** (1.0 / (mj + 4)), xj / (mj + 2.0))
        for xj, mj in zip(x, m)
    ]

    def plain(steps):
        total = 0.0
        for js in itertools.product(*(range(mj + 1) for mj in m)):
            coef = math.prod((-1.0) ** j * math.comb(mj, j) for j, mj in zip(js, m))
            pts = [xj + (mj / 2.0 - j) * s for xj, mj, j, s in zip(x, m, js, steps)]
            total += coef * g(*pts)
        return total / math.prod(s**mj for s, mj in zip(steps, m))

    def richardson(steps, axis):
        if axis < 0:
            return plain(steps)
        half = list(steps)
        half[axis] /= 2.0
        return (4.0 * richardson(half, axis - 1) - richardson(steps, axis - 1)) / 3.0

    return richardson(h, len(x) - 1)


def frac_derivative(f, x, *, alpha, q=None):
    """Fractional derivative of order alpha > 0 at x > 0: the m-th ordinary
    derivative of the (m - alpha)-order Riemann-Liouville integral, with
    m = floor(alpha) + 1, as a Python float."""
    f = as_test_function(f)
    q = q or QuadConfig()
    _check_order(alpha)
    x = _check_point(x, "x")
    m = int(math.floor(alpha)) + 1

    if f.fn is None and f.rate == 0:
        if f.lam <= -1.0:
            raise DomainError("power exponent must exceed -1 for the derivative")
        val = f.coeff * _gamma(f.lam + 1.0) * _rgamma(f.lam + 1.0 - alpha) * x ** (f.lam - alpha)
        return float(val)

    if f.fn is None and f.lam == 0 and f.rate > 0:
        # split off the initial values so the remaining integral is smooth:
        # the m-th derivative of the (m-alpha)-order integral of f equals
        # I^(m-alpha) f^(m) + sum_i f^(i)(0) x^(i-alpha) / Gamma(i+1-alpha)
        deriv_m = exp_decay(rate=f.rate, coeff=f.coeff * (-f.rate) ** m)
        out = riemann_liouville(deriv_m, x, alpha=m - alpha, q=q)
        for i in range(m):
            out += f.coeff * (-f.rate) ** i * x ** (i - alpha) * _rgamma(i + 1.0 - alpha)
        return float(out)

    if f.fn is not None and (f.smooth_order is None or f.smooth_order < m):
        raise NonDifferentiable(
            f"callback must declare smooth_order >= {m} for a derivative of order {alpha}"
        )

    def g(t):
        return riemann_liouville(f, t, alpha=m - alpha, q=q)

    return _central_derivative(g, [x], [m], q)


# ---------------------------------------------------------------------------
# multivariable operators with product kernels


def _check_multivar(u, *params):
    u = [_check_point(x) for x in np.atleast_1d(u)]
    k = len(u)
    if not 1 <= k <= MAX_SLOTS:
        raise DomainError(f"number of variables must be 1..{MAX_SLOTS}, got {k}")
    params = [[float(v) for v in np.atleast_1d(p)] for p in params]
    if any(len(p) != k for p in params):
        raise DomainError("each order and index needs one value per evaluation point")
    return u, *params, k


@quad_operator
def multivar_op(kind, f, u, *, zeta, alpha, q, axes=None):
    """Multivariable Kober-type operator with a product kernel.

    kind is "first" or "second".  f is either a sequence of TestFunction1D
    (separable integrand) or a joint callable of k broadcastable arrays.
    A joint callable is one doubling_sum piece over the grid of kober_first's
    (kober_second's) k axis maps, in slabs along the first variable
    (quadrature.grid_sum).  axes declares its variables, one TestFunction1D
    each, else zero order 0 and no tail.  It must return the broadcast shape
    of its arguments, 1 along any it ignores, or a scalar, else DomainError
    is raised.  With full_output a separable integrand's info is the list of
    per-variable QuadInfo.
    """
    u, zeta, alpha, k = _check_multivar(u, zeta, alpha)
    if kind not in ("first", "second"):
        raise DomainError(f"kind must be 'first' or 'second', got {kind!r}")

    if isinstance(f, (list, tuple)):
        fs = [as_test_function(g) for g in f]
        if len(fs) != k:
            raise DomainError("separable integrand must supply one factor per variable")
        # the tensor-product quadrature of a separable integrand factors
        # exactly into the per-variable quadratures
        op = kober_first if kind == "first" else kober_second
        parts = [
            op(fs[j], u[j], zeta=zeta[j], alpha=alpha[j], q=q, full_output=True)
            for j in range(k)
        ]
        return float(np.prod([p[0] for p in parts])), [p[1] for p in parts]

    if not callable(f):
        raise DomainError("joint integrand must be callable")
    axes = [TestFunction1D("undeclared")] * k if axes is None else axes
    if len(axes) != k:
        raise DomainError(f"axes must declare each of the {k} variables, got {len(axes)}")
    second, rules, c = kind == "second", [], 1.0
    for j, (axis, x, z, a) in enumerate(zip(axes, u, zeta, alpha)):
        axis = callback(lambda v: 1.0, axis.zero_order, axis.tail)  # valued 1: the map weights f
        if second:
            axis, x, z = _reciprocal(axis, x, z)
        try:
            m = _axis(axis, x, a, z, 0.0)
        except TailDivergence:
            bound = f"exceed {-1.0 - axis.zero_order:g} for a joint"
            bound = "be positive for a joint second-kind" if second else bound
            raise TailDivergence(f"zeta[{j}] must {bound} integrand") from None
        if m is None:  # an empty axis
            return EXACT_ZERO

        def rule(n, ab=m[0], points=m[1]):  # f's arguments v (1/v, second kind)
            t, w = jacobi_rule_01(n, *ab)
            v, vals = points(t)
            return 1.0 / v if second else v, w * vals

        rules.append(rule)
        c *= m[2]
    return doubling_sum(q, [(tuple(rules), f, c)])


def multivar_frac_derivative(f, x, *, alpha, q=None):
    """Mixed fractional derivative with per-variable orders: the mixed
    partial of order (m_1, ..., m_k) of the multivariable Riemann-Liouville
    integral of orders (m_j - alpha_j)."""
    q = q or QuadConfig()
    x, alpha, k = _check_multivar(x, alpha)
    if isinstance(f, (list, tuple)):
        if len(f) != k:
            raise DomainError("separable integrand must supply one factor per variable")
        return math.prod(frac_derivative(g, xj, alpha=aj, q=q) for g, xj, aj in zip(f, x, alpha))
    if k == 1:
        return frac_derivative(f, x[0], alpha=alpha[0], q=q)

    m = [int(math.floor(a)) + 1 for a in alpha]
    beta = [m[j] - alpha[j] for j in range(k)]

    # the first-kind product operator with zeta = 0 equals the plain
    # Riemann-Liouville product integral divided by prod_j x_j^beta_j
    def rl(*t):
        val = multivar_op("first", f, t, zeta=(0.0,) * k, alpha=beta, q=q)
        return val * math.prod(tj**bj for tj, bj in zip(t, beta))

    return _central_derivative(rl, x, m, q)
