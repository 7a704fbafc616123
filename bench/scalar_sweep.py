"""scalar-sweep: tabulating scalar operators over fresh parameter sets.

Each round draws its parameter sets from (seed, round), so no set repeats in
a run and every set builds its quadrature rules once, then reuses them at
each of its points.  The composition of a round is fixed by COMPOSITION; only
the parameter values change from round to round.
"""

import math
from dataclasses import dataclass

import numpy as np

import refs
from kober import mtransform, scalar_ops

DEFAULT_TOL = 1e-8  # quadrature converges at rel_tol 1e-9
DERIVATIVE_TOL = 2e-4  # central differences of a callback lose digits to the step
# fractional derivatives cross zero; their error is taken relative to
# max(|ref|, DERIVATIVE_FLOOR) instead of |ref|
DERIVATIVE_FLOOR = 0.25
# callback derivatives are taken at x + CALLBACK_SHIFT, x in (0.3, 3.0)
CALLBACK_SHIFT = 0.6


@dataclass
class Call:
    """One operator call at point x: run(x) calls into kober and is timed,
    ref(x) is computed apart from kober."""

    family: str
    x: float
    run: object
    ref: object
    tol: float
    label: str
    floor: float = 0.0

    def close(self, value, ref):
        return abs(value - ref) <= self.tol * max(abs(ref), self.floor)


def _input(kind, rng):
    """(lam, rate) of f(v) = v^lam exp(-rate v); rate 0 is a pure power."""
    lam = 0.0 if kind == "exp" else float(rng.uniform(-0.4, 1.6))
    rate = 0.0 if kind == "power" else float(rng.uniform(0.5, 2.0))
    return lam, rate


def _f(lam, rate):
    if rate == 0.0:
        return scalar_ops.power(lam)
    if lam == 0.0:
        return scalar_ops.exp_decay(rate)
    return scalar_ops.power_times_exp(lam, rate)


def _order_pair(rng):
    return float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.3, 1.9))


# Each builder draws one parameter set and returns (run(x), ref(x), tol,
# description); x is one evaluation point.


def _kober_first(kind, rng):
    zeta, alpha = _order_pair(rng)
    lam, rate = _input(kind, rng)
    f = _f(lam, rate)
    return (
        lambda x: scalar_ops.kober_first(f, x, zeta=zeta, alpha=alpha),
        lambda x: refs.kober_first(zeta, alpha, lam, rate, x),
        DEFAULT_TOL, f"zeta={zeta} alpha={alpha} lam={lam} rate={rate}",
    )


def _kober_second(kind, rng):
    zeta, alpha = _order_pair(rng)
    lam, rate = _input(kind, rng)
    if rate == 0.0:
        lam = min(lam, zeta - 0.3)  # the power law needs zeta > lam
    f = _f(lam, rate)
    return (
        lambda x: scalar_ops.kober_second(f, x, zeta=zeta, alpha=alpha),
        lambda x: refs.kober_second(zeta, alpha, lam, rate, x),
        DEFAULT_TOL, f"zeta={zeta} alpha={alpha} lam={lam} rate={rate}",
    )


def _riemann_liouville(kind, rng):
    _, alpha = _order_pair(rng)
    lam, rate = _input(kind, rng)
    f = _f(lam, rate)
    return (
        lambda x: scalar_ops.riemann_liouville(f, x, alpha=alpha),
        lambda x: refs.riemann_liouville(alpha, lam, rate, x),
        DEFAULT_TOL, f"alpha={alpha} lam={lam} rate={rate}",
    )


def _weyl_right(kind, rng):
    _, alpha = _order_pair(rng)
    lam, rate = _input(kind, rng)
    if rate == 0.0:
        lam = -(alpha + 0.4 + abs(lam))  # v^-m converges for m > alpha
    f = _f(lam, rate)
    return (
        lambda x: scalar_ops.weyl_right(f, x, alpha=alpha),
        lambda x: refs.weyl_right(alpha, lam, rate, x),
        DEFAULT_TOL, f"alpha={alpha} lam={lam} rate={rate}",
    )


def _weyl_left(kind, rng):
    _, alpha = _order_pair(rng)
    _, rate = _input(kind, rng)
    f = scalar_ops.exp_growth(rate)
    return (
        lambda x: scalar_ops.weyl_left(f, x, alpha=alpha),
        lambda x: refs.weyl_left_growth(alpha, rate, x),
        DEFAULT_TOL, f"alpha={alpha} rate={rate}",
    )


def _saigo(kind, rng):
    zeta, alpha = _order_pair(rng)
    lam, rate = _input(kind, rng)
    # beta < 0 keeps the 2F1 kernel positive, so no value sits near zero,
    # where a purely relative stopping rule cannot be met; gamma - beta in
    # (1.15, 1.85) or (2.15, 2.85) stays off the whole numbers of the
    # family below
    beta = float(rng.uniform(-0.8, -0.05))
    gamma = beta + float(rng.integers(1, 3) + rng.uniform(0.15, 0.85))
    f = _f(lam, rate)
    return (
        lambda x: scalar_ops.saigo_first(f, x, zeta=zeta, alpha=alpha, beta=beta, gamma=gamma),
        lambda x: refs.saigo_first(zeta, alpha, beta, gamma, lam, rate, x),
        DEFAULT_TOL, f"zeta={zeta} alpha={alpha} beta={beta} gamma={gamma} lam={lam} rate={rate}",
    )


def _saigo_whole(kind, rng):
    """gamma - beta = 1: round inputs such as beta = -0.5, gamma = 0.5.  The
    parameters stay in a narrow band: one call costs 0.4-0.9 s, and across
    wider bands that cost moves by a factor of two."""
    zeta = float(rng.uniform(1.25, 1.3))
    alpha = float(rng.uniform(0.98, 1.02))
    beta = round(float(rng.uniform(-0.55, -0.45)), 2)
    gamma = beta + 1.0
    lam = float(rng.uniform(0.55, 0.6))
    f = scalar_ops.power(lam)
    return (
        lambda x: scalar_ops.saigo_first(f, x, zeta=zeta, alpha=alpha, beta=beta, gamma=gamma),
        lambda x: refs.saigo_first(zeta, alpha, beta, gamma, lam, 0.0, x),
        DEFAULT_TOL, f"zeta={zeta} alpha={alpha} beta={beta} gamma={gamma} lam={lam}",
    )


def _frac_derivative(kind, rng):
    # an order just below a whole number leaves the inner integral a Jacobi
    # weight exponent near -1, where the doublings run out; see CHANGES.md
    alpha = float(rng.integers(0, 2) + rng.uniform(0.2, 0.9))
    lam, rate = _input(kind, rng)
    shift = 0.0
    if kind == "power":
        lam = abs(lam)
        f = scalar_ops.power(lam)
        ref = lambda x: refs.frac_derivative_power(alpha, lam, x)  # noqa: E731
        tol = DEFAULT_TOL
    elif kind == "exp":
        f = scalar_ops.exp_decay(rate)
        ref = lambda x: refs.frac_derivative_exp(alpha, rate, x)  # noqa: E731
        tol = DEFAULT_TOL
    else:
        # exp(-rate v) (2 + cos(freq v)) > 0: the inner integrals stay away
        # from zero, where the relative stopping rule cannot be met; points
        # below 0.9 meet the central-difference step's error (see CHANGES.md)
        shift = CALLBACK_SHIFT
        rate = float(rng.uniform(0.5, 2.0))
        freq = float(rng.uniform(0.5, 2.0))
        f = scalar_ops.callback(
            lambda v: np.exp(-rate * np.asarray(v)) * (2.0 + np.cos(freq * np.asarray(v))),
            smooth_order=4,
        )
        ref = lambda x: (  # noqa: E731
            2.0 * refs.frac_derivative_damped_cos(alpha, rate, 0.0, x + shift)
            + refs.frac_derivative_damped_cos(alpha, rate, freq, x + shift)
        )
        tol = DERIVATIVE_TOL
        lam = freq
    return (
        lambda x: scalar_ops.frac_derivative(f, x + shift, alpha=alpha),
        ref, tol, f"alpha={alpha} lam/freq={lam} rate={rate} x=x+{shift}",
    )


def _mellin(kind, rng):
    lam, rate = _input(kind, rng)
    f = _f(lam, rate)
    shift = max(0.0, -lam)  # points x + shift keep s + lam > 0
    return (
        lambda x: mtransform.mellin_numeric_1d(f, x + shift),
        lambda x: refs.mellin(lam, rate, x + shift),
        DEFAULT_TOL, f"lam={lam} rate={rate} s=x+{shift}",
    )


def _multivar(k):
    def build(kind, rng):
        """A joint callable the program cannot split; the reference is the
        product of the per-axis closed forms.  Axis inputs are exp(-r v) or
        v exp(-r v), smooth enough for the tensor rule to settle at 128 nodes."""
        op = "first" if rng.random() < 0.5 else "second"
        zetas = rng.uniform(0.5, 2.0, size=k)
        alphas = rng.uniform(0.4, 1.6, size=k)
        rates = rng.uniform(0.6, 1.6, size=k)
        lams = np.zeros(k) if kind == "exp" else (np.arange(k) % 2).astype(float)

        def joint(*vs):
            out = 1.0
            for v, lam, rate in zip(vs, lams, rates):
                out = out * v**lam * np.exp(-rate * v)
            return out

        axis_ref = refs.kober_first if op == "first" else refs.kober_second

        def ref(x):
            return math.prod(
                axis_ref(z, a, lam, r, x * (1.0 + 0.25 * j))
                for j, (z, a, lam, r) in enumerate(zip(zetas, alphas, lams, rates))
            )

        def run(x):
            us = [x * (1.0 + 0.25 * j) for j in range(k)]
            return scalar_ops.multivar_op(op, joint, us, zeta=list(zetas), alpha=list(alphas))

        return run, ref, DEFAULT_TOL, f"{op} zeta={list(zetas)} alpha={list(alphas)} lam={list(lams)} rate={list(rates)}"

    return build


# (family, builder, inputs cycled over the sets, sets per round, points per
# set, point range)
COMPOSITION = (
    ("kober_first", _kober_first, ("power", "exp", "power_exp"), 24, 4, (0.3, 3.0)),
    ("kober_second", _kober_second, ("power", "exp", "power_exp"), 24, 4, (0.3, 3.0)),
    ("riemann_liouville", _riemann_liouville, ("power", "exp", "power_exp"), 24, 4, (0.3, 3.0)),
    ("weyl_right", _weyl_right, ("power", "exp", "power_exp"), 24, 4, (0.3, 3.0)),
    ("weyl_left", _weyl_left, ("exp",), 8, 4, (0.2, 2.0)),
    ("saigo_first", _saigo, ("power", "exp", "power_exp"), 24, 2, (0.3, 3.0)),
    ("saigo_first_whole", _saigo_whole, ("power",), 1, 1, (1.0, 1.1)),
    ("frac_derivative", _frac_derivative, ("power", "exp", "callback"), 24, 2, (0.3, 3.0)),
    ("mellin_numeric_1d", _mellin, ("exp", "power_exp"), 16, 2, (0.4, 2.5)),
    ("multivar_op_k2", _multivar(2), ("exp", "power_exp"), 8, 2, (0.3, 2.0)),
    ("multivar_op_k3", _multivar(3), ("exp", "power_exp"), 6, 1, (0.3, 2.0)),
)


def make_round(seed, index):
    """The calls of round `index`; index -1 is the warm-up round."""
    rng = np.random.default_rng([seed, index + 1, 0x5CA1])
    calls = []
    for family, build, kinds, n_sets, n_points, (lo, hi) in COMPOSITION:
        for i in range(n_sets):
            kind = kinds[i % len(kinds)]
            run, ref, tol, desc = build(kind, rng)
            for x in rng.uniform(lo, hi, size=n_points):
                x = float(x)
                floor = DERIVATIVE_FLOOR if family == "frac_derivative" else 0.0
                calls.append(Call(family, x, run, ref, tol, f"{family}[{kind} {desc}] at {x!r}", floor))
    return calls
