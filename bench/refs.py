"""Reference values computed apart from the program under test.

Nothing here imports kober.  Closed forms use scipy.special; Saigo values and
derivatives of callbacks use scipy.integrate.quad with an algebraic endpoint
weight.  self_test() checks the closed forms themselves against numerical
integration (scipy.integrate.quad and mpmath.quad), so that a wrong reference
stops the benchmark instead of passing or failing the program.
"""

import math

import mpmath as mp
import numpy as np
from scipy import integrate
from scipy.special import gamma, gammaln, hyp2f1, rgamma

# scipy.special.hyperu is off by 2e-7 relative at some arguments this
# benchmark draws (a=1.355, b=-1.089, x=3.743), and scipy.special.hyp2f1
# returns -inf near z = 1 when c - a - b is a whole number; the confluent
# functions therefore come from mpmath, and 2F1 falls back to it
mp.mp.dps = 20


def hyp1f1(a, b, x):
    return float(mp.hyp1f1(a, b, x))


def hyperu(a, b, x):
    return float(mp.hyperu(a, b, x))


# ---------------------------------------------------------------------------
# matrix gamma


def ln_gamma_p(p, a):
    """ln Gamma_p(a) = p(p-1)/4 ln(pi) + sum_{i<p} ln Gamma(a - i/2)."""
    if not a > (p - 1) / 2.0:
        raise ValueError(f"Gamma_{p}({a}) is outside its domain a > {(p - 1) / 2.0}")
    return 0.25 * p * (p - 1) * math.log(math.pi) + sum(
        float(gammaln(a - 0.5 * i)) for i in range(p)
    )


def det_power_matrix(kind, p, pairs, lams, dets):
    """Matrix operator of either kind on prod |V_j|^lam_j at arguments with
    determinants dets: a gamma ratio per slot times |U_j|^lam_j."""
    half = (p + 1) / 2.0
    ln = 0.0
    for (zeta, alpha), lam, det in zip(pairs, lams, dets):
        a = zeta - lam if kind == "second" else zeta + half + lam
        ln += ln_gamma_p(p, a) - ln_gamma_p(p, a + alpha) + lam * math.log(det)
    return math.exp(ln)


def transform_second(p, pairs, s):
    """M-transform of the second-kind operator on exp(-sum tr V_j):
    prod_j Gamma_p(zeta_j+s_j) / Gamma_p(zeta_j+s_j+alpha_j) * Gamma_p(s_j)."""
    ln = 0.0
    for (zeta, alpha), sj in zip(pairs, s):
        ln += ln_gamma_p(p, zeta + sj) - ln_gamma_p(p, zeta + sj + alpha) + ln_gamma_p(p, sj)
    return math.exp(ln)


# ---------------------------------------------------------------------------
# scalar operators on f(v) = v^lam exp(-rate v) (rate 0: pure power)


def kober_first(zeta, alpha, lam, rate, u):
    """(1/Gamma(a)) int_0^1 (1-t)^(a-1) t^zeta f(u t) dt."""
    c = zeta + lam + 1.0
    val = math.exp(gammaln(c) - gammaln(c + alpha)) * u**lam
    return val * (hyp1f1(c, c + alpha, -rate * u) if rate else 1.0)


def kober_second(zeta, alpha, lam, rate, u):
    """(1/Gamma(a)) int_0^1 (1-t)^(a-1) t^(zeta-1) f(u / t) dt."""
    if rate:
        return math.exp(-rate * u) * u**lam * hyperu(alpha, 1.0 - zeta + lam, rate * u)
    return math.exp(gammaln(zeta - lam) - gammaln(zeta - lam + alpha)) * u**lam


def riemann_liouville(alpha, lam, rate, x):
    """(1/Gamma(a)) int_0^x (x-v)^(a-1) f(v) dv."""
    c = lam + 1.0
    val = math.exp(gammaln(c) - gammaln(c + alpha)) * x ** (lam + alpha)
    return val * (hyp1f1(c, c + alpha, -rate * x) if rate else 1.0)


def weyl_right(alpha, lam, rate, x):
    """(1/Gamma(a)) int_x^inf (v-x)^(a-1) f(v) dv; rate 0 needs lam < -alpha."""
    if not rate:
        m = -lam
        return math.exp(gammaln(m - alpha) - gammaln(m)) * x ** (alpha - m)
    if lam == 0.0:
        return rate ** (-alpha) * math.exp(-rate * x)
    return x ** (lam + alpha) * math.exp(-rate * x) * hyperu(alpha, alpha + lam + 1.0, rate * x)


def weyl_left_growth(alpha, rate, x):
    """(1/Gamma(a)) int_-inf^x (x-v)^(a-1) exp(rate v) dv."""
    return rate ** (-alpha) * math.exp(rate * x)


def mellin(lam, rate, s):
    """int_0^inf v^(s-1) v^lam exp(-rate v) dv."""
    return math.exp(gammaln(s + lam) - (s + lam) * math.log(rate))


def frac_derivative_power(alpha, lam, x):
    return float(gamma(lam + 1.0) * rgamma(lam + 1.0 - alpha)) * x ** (lam - alpha)


def _rl_closed(beta, rate, x, coeff):
    """I^beta of coeff * exp(-rate v) at x, beta > 0."""
    return coeff * x**beta / math.gamma(beta + 1.0) * hyp1f1(1.0, beta + 1.0, -rate * x)


def frac_derivative_exp(alpha, rate, x):
    """d^m/dx^m I^(m-alpha) exp(-rate v) = I^(m-alpha) f^(m) + sum_i f^(i)(0) x^(i-alpha)/Gamma(i+1-alpha)."""
    m = int(math.floor(alpha)) + 1
    out = _rl_closed(m - alpha, rate, x, (-rate) ** m)
    for i in range(m):
        out += (-rate) ** i * x ** (i - alpha) * float(rgamma(i + 1.0 - alpha))
    return out


def damped_cos(rate, freq, order):
    """The order-th derivative of exp(-rate v) cos(freq v), as a numpy function."""
    # exp(-rate v) cos(freq v) = Re exp(-(rate - i freq) v); each derivative
    # multiplies by -(rate - i freq)
    c = (-(rate - 1j * freq)) ** order

    def fn(v):
        v = np.asarray(v, dtype=float)
        return np.real(c * np.exp(-(rate - 1j * freq) * v))

    return fn


def frac_derivative_damped_cos(alpha, rate, freq, x):
    """Fractional derivative of exp(-rate v) cos(freq v) at x by quadrature of
    I^(m-alpha) f^(m) plus the initial-value terms."""
    m = int(math.floor(alpha)) + 1
    fm = damped_cos(rate, freq, m)
    beta = m - alpha
    # int_0^x (x-v)^(beta-1) f^(m)(v) dv, algebraic weight at the upper end
    val, _ = integrate.quad(
        lambda v: float(fm(v)), 0.0, x, weight="alg", wvar=(0.0, beta - 1.0),
        epsabs=0.0, epsrel=1e-12, limit=200,
    )
    out = val / math.gamma(beta)
    for i in range(m):
        out += float(damped_cos(rate, freq, i)(0.0)) * x ** (i - alpha) * float(
            rgamma(i + 1.0 - alpha)
        )
    return out


def saigo_first(zeta, alpha, beta, gam, lam, rate, u):
    """(1/Gamma(a)) int_0^1 (1-t)^(a-1) t^zeta 2F1(a+beta, -gamma; a; 1-t) f(u t) dt,
    by adaptive quadrature with scipy's 2F1 (mpmath's where scipy's fails)."""

    a, b = alpha + beta, -gam

    def g(t):
        h = float(hyp2f1(a, b, alpha, 1.0 - t))
        if not math.isfinite(h):
            h = float(mp.hyp2f1(a, b, alpha, 1.0 - t))
        return h * u**lam * math.exp(-rate * u * t)

    val, _ = integrate.quad(
        g, 0.0, 1.0, weight="alg", wvar=(zeta + lam, alpha - 1.0),
        epsabs=0.0, epsrel=1e-12, limit=200,
    )
    return val / math.gamma(alpha)


# ---------------------------------------------------------------------------
# self-test: the closed forms above against numerical integration


def _quad_alg(fn, a, b):
    val, _ = integrate.quad(fn, 0.0, 1.0, weight="alg", wvar=(a, b), epsabs=0.0, epsrel=1e-13, limit=200)
    return val


def self_test():
    """Raise AssertionError when a closed form disagrees with direct numerical
    integration; return the number of comparisons made."""
    checks = []

    # Gamma_p: p = 1 as the Euler integral, p = 2 as the cone integral over
    # [[x, y], [y, z]] > 0 with y = r sqrt(xz), p = 3 through the Schur
    # complement recursion Gamma_3(a) = pi Gamma(a) Gamma_2(a - 1/2)
    def euler(a):
        return mp.quad(lambda x: x ** (a - 1) * mp.exp(-x), [0, 1, mp.inf])

    def cone2(a):
        return euler(a) ** 2 * mp.quad(lambda r: (1 - r * r) ** (a - 1.5), [-1, 0, 1])

    for a in (1.3, 2.7):
        checks.append(("gamma_1", math.exp(ln_gamma_p(1, a)), float(euler(a))))
        checks.append(("gamma_2", math.exp(ln_gamma_p(2, a)), float(cone2(a))))
        checks.append(("gamma_3", math.exp(ln_gamma_p(3, a + 0.5)), float(mp.pi * euler(a + 0.5) * cone2(a))))

    # scalar operator closed forms against their defining integrals
    for zeta, alpha, lam, rate, u in ((0.7, 0.6, 0.0, 1.3, 0.8), (1.6, 1.4, 0.8, 0.7, 2.1), (1.2, 0.9, 0.5, 0.0, 1.7)):
        first = _quad_alg(lambda t: (u * t) ** lam * math.exp(-rate * u * t), zeta, alpha - 1.0)
        checks.append(("kober_first", kober_first(zeta, alpha, lam, rate, u), first / math.gamma(alpha)))
        second = _quad_alg(
            lambda t: (u / t) ** lam * math.exp(-rate * u / t) if t > 0 else 0.0, zeta - 1.0, alpha - 1.0
        )
        checks.append(("kober_second", kober_second(zeta, alpha, lam, rate, u), second / math.gamma(alpha)))
        rl = _quad_alg(lambda t: (u * t) ** lam * math.exp(-rate * u * t), 0.0, alpha - 1.0)
        checks.append(("riemann_liouville", riemann_liouville(alpha, lam, rate, u), u**alpha * rl / math.gamma(alpha)))
    for alpha, lam, rate, x in ((0.6, 0.0, 1.2, 0.9), (1.3, 0.7, 0.8, 1.5), (0.5, -2.0, 0.0, 1.1)):
        # substitute w = y^(1/alpha) to remove the endpoint power
        wr, _ = integrate.quad(
            lambda y: (x + y ** (1.0 / alpha)) ** lam * math.exp(-rate * (x + y ** (1.0 / alpha))),
            0.0, np.inf, epsabs=0.0, epsrel=1e-12, limit=400,
        )
        checks.append(("weyl_right", weyl_right(alpha, lam, rate, x), wr / math.gamma(alpha + 1.0)))
    for lam, rate, s in ((0.0, 1.0, 1.4), (0.6, 1.7, 0.9)):
        mel, _ = integrate.quad(lambda v: v ** (s - 1 + lam) * math.exp(-rate * v), 0.0, np.inf, epsabs=0.0, epsrel=1e-12, limit=400)
        checks.append(("mellin", mellin(lam, rate, s), mel))
    for alpha, rate, x in ((0.4, 1.1, 0.9), (1.6, 0.6, 1.8)):
        checks.append(("frac_derivative_exp", frac_derivative_exp(alpha, rate, x), frac_derivative_damped_cos(alpha, rate, 0.0, x)))
    # exp(-r v) cos(w v) = Re exp(-c v) with c = r - i w: the closed form of
    # frac_derivative_exp, taken at complex rate
    for alpha, rate, freq, x in ((0.6, 1.3, 1.7, 1.2), (1.4, 0.8, 0.9, 2.3)):
        c = mp.mpc(rate, -freq)
        m = int(math.floor(alpha)) + 1
        beta = m - alpha
        val = (-c) ** m * x**beta / mp.gamma(beta + 1) * mp.hyp1f1(1, beta + 1, -c * x)
        val += sum((-c) ** i * mp.mpf(x) ** (i - alpha) * mp.rgamma(i + 1 - alpha) for i in range(m))
        checks.append(("frac_derivative_damped_cos", frac_derivative_damped_cos(alpha, rate, freq, x), float(mp.re(val))))
    for alpha, lam, x in ((0.5, 1.0, 1.0),):
        checks.append(("frac_derivative_power", frac_derivative_power(alpha, lam, x), 2.0 / math.sqrt(math.pi)))
    # the Saigo kernel collapses to the first kind at gamma = 0
    checks.append(("saigo_collapse", saigo_first(0.9, 0.7, 0.3, 0.0, 0.6, 0.9, 1.4), kober_first(0.9, 0.7, 0.6, 0.9, 1.4)))

    bad = [(name, a, b) for name, a, b in checks if not abs(a - b) <= 1e-9 * abs(b)]
    if bad:
        raise AssertionError("reference self-test failed: " + "; ".join(f"{n}: {a!r} vs {b!r}" for n, a, b in bad))
    return len(checks)


if __name__ == "__main__":
    print(f"{self_test()} reference checks passed")
