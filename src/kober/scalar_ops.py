"""Scalar and multivariable fractional integral operators of Kober type.

All operators are evaluated by Gauss-Jacobi quadrature after a substitution
that maps the integration range onto (0, 1) and absorbs the kernel's endpoint
singularities into the quadrature weight:

  first kind   g(u) = (1/Gamma(a)) int_0^1 (1-t)^(a-1) t^z f(u t) dt
  second kind  g(u) = (1/Gamma(a)) int_0^1 (1-t)^(a-1) t^(z-1) f(u/t) dt

with a the fractional order and z the index parameter.  Known power behaviour
of the integrand family at the singular endpoint is absorbed into the weight
as well, so the remaining integrand is smooth.
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
from .quadrature import (
    CHUNK_ENTRIES,
    EXACT_ZERO,
    QuadConfig,
    _check_order,
    converge_doubling,
    jacobi_rule_01,
    laguerre_rule,
    legendre_rule_01,
    quad_operator,
    roots_laguerre,  # noqa: F401  (re-exported: Gauss-Laguerre builds are timed under this name)
    scipy_special,
)

MAX_VARS = 3

# scipy's ufuncs, not math.gamma: the output bits stay those of scipy
_gamma = scipy_special("gamma")
_rgamma = scipy_special("rgamma")
_digamma = scipy_special("digamma")


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

    def mellin(self, s):
        """Known Mellin transform int_0^infty v^(s-1) f(v) dv, or None."""
        if self.fn is None and self.rate > 0 and s + self.lam > 0:
            return self.coeff * _gamma(s + self.lam) * self.rate ** (-(s + self.lam))
        return None


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


def _series_2f1(a, b, c, z):
    z = np.asarray(z, dtype=float)
    term = np.ones_like(z)
    total = np.ones_like(z)
    quiet = 0
    for n in range(100000):
        term = term * ((a + n) * (b + n) / ((c + n) * (n + 1.0))) * z
        total = total + term
        if np.all(np.abs(term) <= 1e-16 * np.maximum(np.abs(total), 1e-300)):
            quiet += 1
            if quiet >= 2:
                return total
        else:
            quiet = 0
    raise HypergeometricNonConvergent(
        "2F1 series did not converge within 100000 terms"
    )


def _is_nonpositive_int(x):
    return abs(x - round(x)) < 1e-12 and round(x) <= 0


def _whole_gap_2f1(a, b, c, z):
    """2F1(a, b; c; z) for 1/2 < z < 1 when c - a - b is within 1e-10 of a
    whole number m, by DLMF 15.8.10 (Abramowitz & Stegun 15.3.10-15.3.12):

      F / Gamma(c) = sum_{k<m} (a)_k (b)_k (m-k-1)! / (k! Gamma(a+m) Gamma(b+m)) (-w)^k
                     - (-w)^m / (Gamma(a) Gamma(b)) sum_k (a+m)_k (b+m)_k / (k! (k+m)!) w^k
                       [ln w - psi(k+1) - psi(k+m+1) + psi(a+k+m) + psi(b+k+m)]

    with w = 1 - z < 1/2, so the series converges like 2^-k.  A gap m < 0
    goes through Euler's transformation F(a, b; c; z) = w^(c-a-b)
    F(c-a, c-b; c; z) first.  The formula is evaluated at b shifted by
    delta = c - a - b - m, so that c - a - b is exactly m.
    """
    w = 1.0 - z
    m = round(c - a - b)
    pref = 1.0
    if m < 0:
        pref = w ** (c - a - b)
        a, m = c - a, -m
    b = c - a - m
    if _is_nonpositive_int(a) or _is_nonpositive_int(b):
        return pref * _series_2f1(a, b, c, z)
    finite = np.zeros_like(w)
    term = np.ones_like(w)
    for k in range(m):
        finite = finite + term * math.factorial(m - k - 1)
        term = term * ((a + k) * (b + k) / (k + 1.0)) * -w
    finite = finite * (_rgamma(a + m) * _rgamma(b + m))

    log_w = np.log(w)
    psi = _digamma(a + m) + _digamma(b + m) - _digamma(1.0) - _digamma(m + 1.0)
    term = np.full_like(w, 1.0 / math.factorial(m))
    total = term * (log_w + psi)
    quiet = 0
    for k in range(1000):
        term = term * ((a + m + k) * (b + m + k) / ((k + 1.0) * (k + m + 1.0))) * w
        # psi(x + 1) = psi(x) + 1/x for each of the four digamma terms
        psi += 1.0 / (a + m + k) + 1.0 / (b + m + k) - 1.0 / (k + 1.0) - 1.0 / (k + m + 1.0)
        inc = term * (log_w + psi)
        total = total + inc
        if np.all(np.abs(inc) <= 1e-16 * np.maximum(np.abs(total), 1e-300)):
            quiet += 1
            if quiet >= 2:
                series = (-w) ** m * (_rgamma(a) * _rgamma(b)) * total
                return pref * _gamma(c) * (finite - series)
        else:
            quiet = 0
    raise HypergeometricNonConvergent("2F1 log-case series did not converge within 1000 terms")


def gauss_2f1(a, b, c, z):
    """Gauss hypergeometric 2F1(a, b; c; z), real parameters, 0 <= z < 1.

    Power series for z <= 1/2; for larger z the series is resummed through
    the linear transformation in terms of 1 - z.  When c - a - b is within
    delta < 1e-10 of a whole number that transformation degenerates, and the
    logarithmic connection formula DLMF 15.8.10 is used instead, after
    Euler's transformation F(a, b; c; z) = (1-z)^(c-a-b) F(c-a, c-b; c; z)
    for a gap below zero.  It returns F at b moved by delta onto the whole
    gap, so its relative error is delta |dF/db| / |F|: median 0.8 delta and
    within 3 delta for about four in five Saigo-type parameter sets, more
    near zeros of F (450 delta seen at |F| = 0.009).  Terminating cases (a or
    b a nonpositive integer) are summed exactly for any z.
    """
    scalar = np.isscalar(z) or np.asarray(z).ndim == 0
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if np.any(z < 0.0) or np.any(z >= 1.0):
        raise DomainError("gauss_2f1 is evaluated on 0 <= z < 1 only")
    if _is_nonpositive_int(c):
        raise DomainError(f"2F1 lower parameter c={c} is a nonpositive integer")

    if _is_nonpositive_int(a) or _is_nonpositive_int(b):
        out = _series_2f1(a, b, c, z)
        return float(out[0]) if scalar else out

    out = np.empty_like(z)
    s = c - a - b
    near = z > 0.5
    if np.any(~near):
        out[~near] = _series_2f1(a, b, c, z[~near])
    if np.any(near):
        zn = z[near]
        if s <= 0.0 and np.any(zn > 1.0 - 1e-8):
            raise HypergeometricNonConvergent(
                f"2F1 diverges as z -> 1 when c - a - b = {s:.6g} <= 0"
            )
        if abs(s - round(s)) < 1e-10:
            out[near] = _whole_gap_2f1(a, b, c, zn)
        else:
            w = 1.0 - zn
            c1 = _gamma(c) * _gamma(s) * _rgamma(c - a) * _rgamma(c - b)
            c2 = _gamma(c) * _gamma(-s) * _rgamma(a) * _rgamma(b)
            out[near] = c1 * _series_2f1(a, b, a + b - c + 1.0, w) + c2 * w**s * _series_2f1(
                c - a, c - b, s + 1.0, w
            )
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# one dimensional operators


def _check_point(u, name="u"):
    u = float(u)
    if not u > 0:
        raise DomainError(f"evaluation point {name} must be positive, got {u}")
    return u


def _ratio_weight_exponent(zeta, order):
    b = zeta + order
    if b <= -1.0:
        raise TailDivergence(
            f"v^zeta f(v) with zeta={zeta} and f ~ v^{order} is not integrable at 0"
        )
    return b


def _window(f, x, alpha, power, pref, below, q):
    """pref/Gamma(alpha) int |x-v|^(alpha-1) v^power f(v) dv over the part of
    f's compact support [lo, hi] below x (below, the first kind) or above x
    (the second kind and Weyl).  A Jacobi rule absorbs the kernel
    singularity at v = x when x lies in the support, a Legendre rule covers
    [lo, hi] when it does not, and a support wholly on the other side of x
    gives EXACT_ZERO."""
    _, lo, hi = f.tail
    if (x <= lo) if below else (x >= hi):
        return EXACT_ZERO
    scale = pref / _gamma(alpha)
    if lo <= x <= hi:
        width = x - lo if below else hi - x
        step = -width if below else width

        def estimate(n):
            t, w = jacobi_rule_01(n, 0.0, alpha - 1.0)
            v = x + step * t
            vals = np.asarray(f(v), dtype=float) * v**power
            return scale * width**alpha * float(w @ vals)

    else:

        def estimate(n):
            t, w = legendre_rule_01(n)
            v = lo + (hi - lo) * t
            vals = np.asarray(f(v), dtype=float) * np.abs(x - v) ** (alpha - 1.0) * v**power
            return scale * (hi - lo) * float(w @ vals)

    return converge_doubling(estimate, q)


@quad_operator
def kober_first(f, u, *, zeta, alpha, q):
    """Kober fractional integral of the first kind,

    g(u) = u^(-zeta-alpha)/Gamma(alpha) * int_0^u (u-v)^(alpha-1) v^zeta f(v) dv.
    """
    f = as_test_function(f)
    u = _check_point(u)
    if f.tail is not None and f.tail[0] == "compact":
        return _window(f, u, alpha, zeta, u ** (-zeta - alpha), True, q)
    order, res = f.split_power()
    b = _ratio_weight_exponent(zeta, order)
    scale = u**order / _gamma(alpha)

    def estimate(n):
        t, w = jacobi_rule_01(n, alpha - 1.0, b)
        return scale * float(w @ np.asarray(res(u * t), dtype=float))

    return converge_doubling(estimate, q)


@quad_operator
def kober_second(f, u, *, zeta, alpha, q):
    """Kober fractional integral of the second kind,

    g(u) = u^zeta/Gamma(alpha) * int_u^inf v^(-zeta-alpha) (v-u)^(alpha-1) f(v) dv,
    computed through v = u/t on (0, 1).
    """
    f = as_test_function(f)
    u = _check_point(u)
    if f.tail is None:
        raise TailDivergence("kober_second needs a declared tail to integrate to infinity")
    kind = f.tail[0]
    if kind == "compact":
        return _window(f, u, alpha, -zeta - alpha, u**zeta, False, q)
    if kind == "power":
        m = f.tail[1]
        if zeta + m <= 0:
            raise TailDivergence(
                f"second kind integral diverges: zeta + m = {zeta + m} <= 0 "
                f"for declared tail v^({-m})"
            )
        b = zeta - 1.0 + m

        def estimate(n):
            t, w = jacobi_rule_01(n, alpha - 1.0, b)
            v = u / t
            vals = np.asarray(f(v), dtype=float) * (v / u) ** m
            return float(w @ vals) / _gamma(alpha)

    elif kind == "exp":
        # keep any integrable power of t in the weight; the decay of f(u/t)
        # makes the residual integrand vanish to all orders at t = 0
        b = max(zeta - 1.0, 0.0)
        shift = zeta - 1.0 - b

        def estimate(n):
            t, w = jacobi_rule_01(n, alpha - 1.0, b)
            vals = np.asarray(f(u / t), dtype=float) * t**shift
            return float(w @ vals) / _gamma(alpha)

    else:
        raise TailDivergence(f"unsupported tail declaration {f.tail!r}")
    return converge_doubling(estimate, q)


@quad_operator
def riemann_liouville(f, x, *, alpha, a=0.0, q):
    """Left-sided Riemann-Liouville integral of order alpha from terminal a,

    (1/Gamma(alpha)) int_a^x (x-v)^(alpha-1) f(v) dv.
    """
    f = as_test_function(f)
    x = float(x)
    if x < a:
        raise DomainError(f"riemann_liouville needs x >= a, got x={x}, a={a}")
    if x == a:
        return EXACT_ZERO
    span = x - a
    if a == 0.0:
        order, res = f.split_power()
        if order <= -1.0:
            raise TailDivergence(f"f ~ v^{order} is not integrable at the terminal 0")
    else:
        order, res = 0.0, f
    scale = span ** (alpha + order) / _gamma(alpha)

    def estimate(n):
        t, w = jacobi_rule_01(n, alpha - 1.0, order)
        return scale * float(w @ np.asarray(res(a + span * t), dtype=float))

    return converge_doubling(estimate, q)


def _weyl_tail_exp(f, x, alpha, w0, rate, n):
    """int_{w0}^inf w^(alpha-1) f(x+w) dw for the law f = coeff v^lam e^(-rate v),
    rate > 0, with the decay paired against the Gauss-Laguerre weight
    analytically."""
    n = min(n, 128)
    y, wl = laguerre_rule(n)
    w = w0 + y / rate
    vals = w ** (alpha - 1.0) * (f.coeff * (x + w) ** f.lam)
    return math.exp(-rate * (x + w0)) / rate * float(wl @ vals)


def _weyl_tail_exp_segments(f, x, alpha, w0, rate, n):
    """Geometric Gauss-Legendre segments for callbacks with exponential decay."""
    total = 0.0
    lo = w0
    t, w = legendre_rule_01(min(n, 64))
    for _ in range(40):
        hi = 2.0 * lo
        v = lo + (hi - lo) * t
        seg = (hi - lo) * float(w @ (v ** (alpha - 1.0) * np.asarray(f(x + v), dtype=float)))
        total += seg
        if abs(seg) <= 1e-16 * max(abs(total), 1e-300) or rate * lo > 745.0:
            return total
        lo = hi
    return total


@quad_operator
def weyl_right(f, x, *, alpha, q):
    """Right-sided Weyl fractional integral,
    (1/Gamma(alpha)) int_x^inf (v-x)^(alpha-1) f(v) dv."""
    f = as_test_function(f)
    x = float(x)
    if x < 0:
        raise DomainError(f"weyl_right is evaluated at x >= 0, got {x}")
    tail = f.tail
    if tail is None:
        raise TailDivergence("weyl_right needs a declared tail to integrate to infinity")

    kind = tail[0]
    if kind == "compact":
        return _window(f, x, alpha, 0.0, 1.0, False, q)

    if kind == "power":
        m = tail[1]
        if m <= alpha:
            raise TailDivergence(
                f"weyl_right diverges: declared tail v^({-m}) is too slow for order {alpha}"
            )
    elif kind != "exp":
        raise TailDivergence(f"unsupported tail declaration {tail!r}")

    # head behaviour: for x = 0 the integrand may carry f's power at zero
    head_order = 0.0
    head_res = f
    if x == 0.0:
        head_order, head_res = f.split_power()
        if alpha + head_order <= 0.0:
            raise TailDivergence(
                f"integrand w^(alpha-1) f(w) with f ~ w^{head_order} diverges at 0"
            )

    rate = tail[1] if kind == "exp" else None
    w0 = q.tail_cutoff if q.tail_cutoff is not None else max(1.0, x)

    def estimate(n):
        t, w = jacobi_rule_01(n, 0.0, alpha - 1.0 + head_order)
        head = w0 ** (alpha + head_order) * float(
            w @ np.asarray(head_res(x + w0 * t), dtype=float)
        )
        if kind == "exp":
            if f.fn is None:
                tail_val = _weyl_tail_exp(f, x, alpha, w0, rate, n)
            else:
                tail_val = _weyl_tail_exp_segments(f, x, alpha, w0, rate, n)
        else:
            m = tail[1]
            t2, w2 = jacobi_rule_01(n, 0.0, m - alpha - 1.0)
            v = x + w0 / t2
            tail_val = w0**alpha * float(
                w2 @ (np.asarray(f(v), dtype=float) * t2 ** (-m))
            )
        return (head + tail_val) / _gamma(alpha)

    return converge_doubling(estimate, q)


@quad_operator
def weyl_left(f, x, *, alpha, q):
    """Left-sided Weyl integral, (1/Gamma(alpha)) int_{-inf}^x (x-v)^(alpha-1) f(v) dv.

    Requires decay of f towards minus infinity, declared through left_tail.
    """
    f = as_test_function(f)
    x = float(x)
    if f.left_tail is None:
        raise TailDivergence("weyl_left needs a declared left tail")
    if f.fn is None and f.lam == 0.0:
        # f(2x - v) = coeff e^(-2 rate x) e^(rate v), rate < 0: an exponential decay in v
        mirrored = exp_decay(rate=-f.rate, coeff=f.coeff * math.exp(-2.0 * f.rate * x))
    else:
        mirrored = callback(lambda v: f(2.0 * x - v), tail=f.left_tail)
    return weyl_right(mirrored, x, alpha=alpha, q=q, full_output=True)


@quad_operator
def saigo_first(f, u, *, zeta, alpha, beta, gamma, q):
    """Saigo-type operator of the first kind: the first-kind ratio convolution
    with weight t^(zeta-1) 2F1(alpha+beta, -gamma; alpha; 1-t) inside the kernel.

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
    order, res = f.split_power()
    b = _ratio_weight_exponent(zeta, order)
    scale = u**order / _gamma(alpha)

    def estimate(n):
        t, w = jacobi_rule_01(n, alpha - 1.0, b)
        hyp = gauss_2f1(alpha + beta, -gamma, alpha, 1.0 - t)
        return scale * float(w @ (hyp * np.asarray(res(u * t), dtype=float)))

    return converge_doubling(estimate, q)


# ---------------------------------------------------------------------------
# fractional derivatives


def _central_derivative(g, x, m, q):
    """The mixed partial of orders m of g at the point x (one entry per
    variable) by tensor central differences, with one Richardson step per
    variable, the first innermost.  The step of variable j is
    (1 + |x_j|) rel_tol^(1/(m_j+4)), at most x_j/(m_j+2) so that every node
    stays positive."""
    h = [
        min((1.0 + abs(xj)) * q.rel_tol ** (1.0 / (mj + 4)), xj / (mj + 2.0))
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
    m = floor(alpha) + 1."""
    f = as_test_function(f)
    q = q or QuadConfig()
    _check_order(alpha)
    x = _check_point(x, "x")
    m = int(math.floor(alpha)) + 1

    if f.fn is None and f.rate == 0:
        if f.lam <= -1.0:
            raise DomainError("power exponent must exceed -1 for the derivative")
        return f.coeff * _gamma(f.lam + 1.0) * _rgamma(f.lam + 1.0 - alpha) * x ** (f.lam - alpha)

    if f.fn is None and f.lam == 0 and f.rate > 0:
        # split off the initial values so the remaining integral is smooth:
        # the m-th derivative of the (m-alpha)-order integral of f equals
        # I^(m-alpha) f^(m) + sum_i f^(i)(0) x^(i-alpha) / Gamma(i+1-alpha)
        deriv_m = exp_decay(rate=f.rate, coeff=f.coeff * (-f.rate) ** m)
        out = riemann_liouville(deriv_m, x, alpha=m - alpha, q=q)
        for i in range(m):
            out += f.coeff * (-f.rate) ** i * x ** (i - alpha) * _rgamma(i + 1.0 - alpha)
        return out

    if f.fn is not None and (f.smooth_order is None or f.smooth_order < m):
        raise NonDifferentiable(
            f"callback must declare smooth_order >= {m} for a derivative of order {alpha}"
        )

    def g(t):
        return riemann_liouville(f, t, alpha=m - alpha, q=q)

    return _central_derivative(g, [x], [m], q)


# ---------------------------------------------------------------------------
# multivariable operators with product kernels


def _check_multivar(u, zeta, alpha):
    u = [float(x) for x in np.atleast_1d(u)]
    zeta = [float(z) for z in np.atleast_1d(zeta)]
    alpha = [float(a) for a in np.atleast_1d(alpha)]
    k = len(u)
    if not 1 <= k <= MAX_VARS:
        raise DomainError(f"number of variables must be 1..{MAX_VARS}, got {k}")
    if len(zeta) != k or len(alpha) != k:
        raise DomainError("zeta and alpha must match the number of evaluation points")
    for x in u:
        _check_point(x)
    return u, zeta, alpha, k


@quad_operator
def multivar_op(kind, f, u, *, zeta, alpha, q):
    """Multivariable Kober-type operator with a product kernel.

    kind is "first" or "second".  f is either a sequence of TestFunction1D
    (separable integrand) or a joint callable of k broadcastable arrays.
    A joint callable is evaluated in slabs along the first variable of at
    most CHUNK_ENTRIES (2^18) grid entries each, every slab contracted with
    the weights before the next one is built.  With full_output the info of
    a separable integrand is the list of per-variable QuadInfo.
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
    # first kind v = u t with weight t^zeta, second kind v = u / t with t^(zeta-1)
    bs = zeta if kind == "first" else [z - 1.0 for z in zeta]
    for j, b in enumerate(bs):
        if b <= -1.0:
            raise TailDivergence(
                f"zeta[{j}] must exceed -1 for a joint integrand"
                if kind == "first"
                else f"zeta[{j}] must be positive for a joint second-kind integrand"
            )

    def estimate(n):
        axes = []
        for j in range(k):
            t, w = jacobi_rule_01(n, alpha[j] - 1.0, bs[j])
            v = u[j] * t if kind == "first" else u[j] / t
            axes.append((v, w / _gamma(alpha[j])))
        (v0, w0), rest = axes[0], axes[1:]
        others = np.meshgrid(v0[:1], *[v for v, _ in rest], indexing="ij", sparse=True)[1:]
        rows = max(1, CHUNK_ENTRIES // n ** (k - 1))
        total = 0.0
        for i in range(0, n, rows):
            slab = v0[i : i + rows].reshape((-1,) + (1,) * (k - 1))
            shape = (len(slab),) + (n,) * (k - 1)
            vals = np.asarray(f(slab, *others), dtype=float)
            if vals.shape != shape:
                vals = np.broadcast_to(vals, shape)
            for _, w in reversed(rest):
                vals = vals @ w
            total += float(w0[i : i + rows] @ vals)
        return total

    return converge_doubling(estimate, q)


def multivar_frac_derivative(f, x, *, alpha, q=None):
    """Mixed fractional derivative with per-variable orders (k <= 2):
    the mixed partial of order (m_1, ..., m_k) of the multivariable
    Riemann-Liouville integral of orders (m_j - alpha_j)."""
    q = q or QuadConfig()
    alpha = [float(a) for a in np.atleast_1d(alpha)]
    x = [float(v) for v in np.atleast_1d(x)]
    k = len(alpha)
    if len(x) != k:
        raise DomainError("x and alpha must have the same length")
    if k == 1:
        return frac_derivative(f, x[0], alpha=alpha[0], q=q)
    if k != 2:
        raise DomainError("mixed fractional derivatives support at most two variables")

    if isinstance(f, (list, tuple)):
        fs = [as_test_function(g) for g in f]
        out = 1.0
        for j in range(k):
            out *= frac_derivative(fs[j], x[j], alpha=alpha[j], q=q)
        return out

    m = [int(math.floor(a)) + 1 for a in alpha]
    beta = [m[j] - alpha[j] for j in range(k)]

    # the first-kind product operator with zeta = 0 equals the plain
    # Riemann-Liouville product integral divided by x_j^beta_j
    def rl2(t1, t2):
        val = multivar_op("first", f, (t1, t2), zeta=(0.0, 0.0), alpha=beta, q=q)
        return val * t1 ** beta[0] * t2 ** beta[1]

    return _central_derivative(rl2, x, m, q)
