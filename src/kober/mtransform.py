"""Mellin-type transform checks for the fractional integral operators.

The transform of a function g of k SPD arguments is

  M{g}(s) = int prod_j |U_j|^(s_j-(p+1)/2) g(U_1..U_k) dU_1..dU_k

over the positive definite cone.  For operator outputs this factors into a
closed-form ratio of matrix gamma functions times the transform of the input
function, prod_j Gamma_p(a_j) / Gamma_p(a_j + alpha_j).  Its argument a_j(s),
zeta_j + ((p+1)/2 - s_j) (first kind) or zeta_j + s_j (second kind), lives
in matrix_ops._gamma_args alone: at s = 0 it gives the operator's beta
proposal, at s = (p+1)/2 the density-mode beta draw.  s is one value for
every slot or one per slot, in the domain where every a_j > (p-1)/2.  The
verification computes the left side numerically, by direct quadrature at
p = 1 and by Monte Carlo over the density-mode sampler at p >= 2, and
compares against the closed form.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import scalar_ops, smallmat
from .errors import DomainError, ProposalDomainError, QuadratureNotConverged, RatioOverflow
from .matgamma import GammaRatioSpec, gamma_ratio
from .matrix_ops import (
    MCConfig,
    _density_mode_logdets,
    _gamma_args,
    _mc_expectation,
    _operator_draws,
    _per_slot,
    density_constant,
)
from .quadrature import (
    QuadConfig,
    converge_doubling,
    grid_sum,
    jacobi_rule_01,
    legendre_rule_01,
    quad_operator,
)
from .randmat import wishart_factor

# verify_transform passes a p = 1 quadrature point within this relative
# error, a p >= 2 Monte Carlo point within 3 s.e. and this relative cap
QUAD_TOL = 1e-6
MC_REL_CAP = 0.02
# the p = 1 tensor transform's doubling.  A slot has about 2 n^2 nodes and a
# k = 2 callback's joint grid about 4 n^4 values, so it starts at 32 nodes.
# The second kind converges only like n^(-2 (s + zeta)), from the u^zeta
# term of its output at u -> 0: at (zeta, alpha, s) = (1.5, 0.7, 0.6) a
# tenfold smaller rel_tol would need a 256-node rule, and scipy to build it
TENSOR_Q = QuadConfig(base_nodes=32, rel_tol=QUAD_TOL / 100)


# ---------------------------------------------------------------------------
# transform points and reports


def _transform_args(params, s):
    """(s, a): s as one float per slot, a single value standing for every
    slot, and the kind's Gamma_p arguments a_j(s) (matrix_ops._gamma_args).
    DomainError for a wrong number of values, or where some a_j <= (p-1)/2,
    the pole of Gamma_p at which the transform diverges."""
    s, _ = _per_slot("transform variables", s, params.k)
    args = _gamma_args(params, s)
    bound = (params.p - 1) / 2.0
    for j, a in enumerate(args):
        if not a > bound:
            raise DomainError(
                f"slot {j}: the {params.kind}-kind transform needs its Gamma_p argument "
                f"above (p-1)/2 = {bound}, got {a} at s = {s[j]}"
            )
    return s, args


@dataclass(frozen=True)
class TransformReport:
    """Outcome of one transform identity check at one s point.

    status is "pass", "fail" or "domain-error"; se carries the Monte Carlo
    standard error or the last doubling delta of the p = 1 quadrature
    (QuadInfo.last_delta), whichever applies.
    """

    s: tuple
    lhs: float | None
    se: float | None
    rhs: float | None
    ratio: float | None
    tol: float
    passed: bool
    status: str
    note: str = ""


# ---------------------------------------------------------------------------
# closed-form gamma ratios


def _gamma_ratio(params, s, kind):
    """prod_j Gamma_p(a_j) / Gamma_p(a_j + alpha_j) at the kind's arguments
    a_j(s) (_transform_args)."""
    if params.kind != kind:
        raise DomainError(f"params.kind must be {kind!r}")
    _, args = _transform_args(params, s)
    den = tuple(a + alpha for a, (_, alpha) in zip(args, params.pairs))
    return gamma_ratio(GammaRatioSpec(params.p, tuple(args), den))


def gamma_ratio_first(params, s):
    """prod_j Gamma_p((p+1)/2+zeta_j-s_j) / Gamma_p((p+1)/2+alpha_j+zeta_j-s_j)."""
    return _gamma_ratio(params, s, "first")


def gamma_ratio_second(params, s):
    """prod_j Gamma_p(zeta_j+s_j) / Gamma_p(alpha_j+zeta_j+s_j)."""
    return _gamma_ratio(params, s, "second")


# ---------------------------------------------------------------------------
# numerical Mellin transform on (0, infinity)


@quad_operator
def mellin_numeric_1d(f, s, *, q):
    """int_0^inf x^(s-1) f(x) dx for a function with declared endpoint
    behaviour, by the half-line body it shares with the Weyl integrals."""
    return scalar_ops._half_line(scalar_ops.as_test_function(f), float(s), q)


# ---------------------------------------------------------------------------
# p = 1 tensor quadrature of the transform: one sum per slot for a law, the
# joint grid for a callback


def _slot_nodes(kind, zeta, alpha, s, axis):
    """n -> (x, c), one slot's flat nodes and coefficients: sum c f(x) is the
    n-node estimate of the slot's transform of the operator output.

    The inner operator rule over t in (0, 1) takes f at x = u / t with the
    weight (1-t)^(alpha-1) t^(zeta-1) and t^(-lam) (second kind), or at
    x = u t with (1-t)^(alpha-1) t^(zeta+lam) (first kind), lam being the
    slot's declared zero order.  The outer integral of u^(s-1+lam) over u has
    a Jacobi head on (0, 1).  The second kind's tail is u = 1/tau with
    Gauss-Legendre in tau.  The first kind's middle is u = S^tau on (1, S),
    S = max(100 / rate, 2), up to which the inner t-rule still resolves the
    decay scale 1 / (rate u) of f(u t); its far range u > S takes the inner
    integral over w = u t directly, on (0, cap) with cap = 50 / rate, below
    which the exponential tail keeps all of f's mass.  Every rule has n
    nodes, and c folds in 1/Gamma(alpha) and x^(-lam).
    """
    lam = axis.zero_order
    if axis.tail is None or axis.tail[0] != "exp":
        raise DomainError("the tensor transform path needs exponential slot tails")
    rate = axis.tail[1]
    if s + lam <= 0.0:
        raise DomainError(f"transform diverges at zero: s + zero order = {s + lam} <= 0")
    if kind == "second" and zeta < 1.0 + lam:
        raise DomainError(
            "the tensor transform path needs zeta >= 1 + the slot zero "
            f"order for uniform accuracy, got zeta = {zeta}, order = {lam}"
        )
    if kind == "first" and zeta + lam <= -1.0:
        raise DomainError(f"first kind needs zeta + zero order > -1, got {zeta + lam}")
    try:
        gamma_a = math.gamma(alpha)
    except OverflowError:
        raise RatioOverflow(f"Gamma({alpha}) exceeds the floating range") from None
    big = max(100.0 / rate, 2.0)
    cap = 50.0 / rate

    def nodes(n):
        u, w_u = jacobi_rule_01(n, 0.0, s - 1.0 + lam)
        tau, w_tau = legendre_rule_01(n)
        if kind == "second":
            t, w_t = jacobi_rule_01(n, alpha - 1.0, zeta - 1.0)
            u = np.append(u, 1.0 / tau)
            w_u = np.append(w_u, w_tau * tau ** (-s - 1.0 - lam))
            x = np.outer(u, 1.0 / t).ravel()
            c = np.outer(w_u, w_t * t ** (-lam)).ravel()
        else:
            t, w_t = jacobi_rule_01(n, alpha - 1.0, zeta + lam)
            mid = big**tau
            u = np.append(u, mid)
            w_u = np.append(w_u, math.log(big) * w_tau * mid ** (s + lam))
            # far range u = S/tau: there the output is u^(-zeta-1)/Gamma(alpha)
            # times int_0^cap (1-w/u)^(alpha-1) w^(zeta+lam) fhat(w) dw, the
            # kernel u^(-zeta-alpha) (u-w)^(alpha-1) regrouped to stay finite
            # at large alpha, and u^(s-1) du u^(-zeta-1) is S^(s-zeta-1)
            # tau^(zeta-s) dtau.  f's mass past the cap is below e^-50
            rho, w_rho = jacobi_rule_01(n, 0.0, zeta + lam)
            tau_far, w_far = jacobi_rule_01(n, 0.0, zeta - s)
            kern = (1.0 - (cap / big) * tau_far[:, None] * rho[None, :]) ** (alpha - 1.0)
            w_w = big ** (s - zeta - 1.0) * cap ** (zeta + lam + 1.0) * w_rho
            x = np.append(np.outer(u, t), cap * rho)
            c = np.append(np.outer(w_u, w_t), (w_far[:, None] * kern).sum(axis=0) * w_w)
        return x, c * x ** (-lam) / gamma_a

    return nodes


def _joint_values(f, *xs):
    """f.value on the p = 1 slot stacks x[..., None, None] of the grid
    arrays xs, which must come back with exactly their broadcast shape; a
    callback that indexes v[:, i, j] instead of v[..., i, j] collapses a
    broadcast axis and is refused here."""
    vs = [x[..., None, None] for x in xs]
    shape = np.broadcast_shapes(*(x.shape for x in xs))
    vals = f.value(vs)
    if np.shape(vals) != shape:
        raise DomainError(
            f"f.value returned shape {np.shape(vals)} for slot stacks "
            f"{[v.shape for v in vs]}, expected {shape}; index slots as v[..., i, j]"
        )
    return vals


def mtransform_quadrature(params, f, s, *, axes=None):
    """M-transform of the operator output by tensor quadrature at p = 1:
    (value, QuadInfo) from converge_doubling under TENSOR_Q.

    Each slot's n-node estimate sums its flat nodes (_slot_nodes).  A law is
    a product over its slots (f.scalar_axes()), so the tensor sum factors
    exactly into the product of the slot sums; a callback is evaluated
    jointly on the product grid of the slots' flat nodes (quadrature.grid_sum).
    Either way no gamma function or closed-form transform enters, so the
    result is an independent numerical route to the closed form.  axes
    overrides the per-slot endpoint declarations, which joint callback
    functions cannot carry themselves; a law's values still come from its
    own slot factors.  A zero order that f does not have is folded out again
    exactly, so it costs nodes rather than digits: x^(1/2) declared on e^(-x)
    leaves a singular x^(-1/2) in the sum and takes a slot past 512 nodes,
    where a joint grid of 4 n^4 values cannot follow.  At k = 2 a callback's
    slots reach f.value as mutually broadcastable stacks of shapes
    (rows, 1, 1, 1) and (1, n2, 1, 1): it must index them as v[..., i, j]
    and return shape (rows, n2), else DomainError is raised.  A callback
    without axes, or axes of a length other than k, raises DomainError, and
    so does a callback of three slots, whose joint grid is out of reach.
    """
    if params.p != 1:
        raise DomainError("the quadrature transform path needs p = 1")
    if f.k != params.k:
        raise DomainError(f"{f.family} has {f.k} slots, the operator {params.k}")
    pt, _ = _transform_args(params, s)
    factors = None if f.fn is not None else f.scalar_axes()
    declared = axes or factors
    if declared is None or len(declared) != params.k:
        got = "none" if axes is None else len(axes)
        raise DomainError(f"{f.family} needs axes, one scalar law per slot: {params.k}, got {got}")
    slots = [
        _slot_nodes(params.kind, zeta, alpha, sj, axis)
        for (zeta, alpha), sj, axis in zip(params.pairs, pt, declared)
    ]
    if factors is None and params.k > 2:  # 2n^2 + n first-kind, 2n^2 second-kind nodes a slot
        size = math.prod(len(nodes(TENSOR_Q.base_nodes)[0]) for nodes in slots)
        raise DomainError(f"a callback's joint grid has {size:.3g} values at the doubling's first level")

    def estimate(n):
        flat = [nodes(n) for nodes in slots]
        if factors is not None:
            # fsum, not a BLAS dot: the bits do not depend on the thread count
            # (tolist: fsum reads Python floats faster than numpy scalars)
            sums = [math.fsum((c * fj(x)).tolist()) for (x, c), fj in zip(flat, factors)]
            return math.prod(sums)
        return grid_sum(lambda *xs: _joint_values(f, *xs), *zip(*flat))

    return converge_doubling(estimate, TENSOR_Q)


# ---------------------------------------------------------------------------
# Monte Carlo transform routes


def mtransform_mc(params, f, s, mc=None, chain=None):
    """Transform of the operator output via the density interpretation.

    The operator output equals density_constant * (normalizer of f) * the
    density of the density-mode draws (density_mode_sample), so the
    transform is that constant times the joint moment
    E prod_j |U_j|^(s_j-(p+1)/2).  The moment reads only log|U_j|, so no
    matrix is drawn, only chi-squares (matrix_ops._density_mode_logdets).
    DomainError where f's own transform diverges at s, and for callbacks
    and b = 0 laws, which have no normalised Wishart law.
    """
    mc = mc or MCConfig()
    pt, _ = _transform_args(params, s)
    f.mellin(pt)  # raises DomainError where f's own transform diverges
    if f.wishart_params() is None:
        raise DomainError(
            f"family {f.family!r} has no normalised sampler for the density route"
        )
    scale = density_constant(params, chain) * f.normalizer()
    shifts = [sj - (params.p + 1) / 2.0 for sj in pt]

    def vals_fn(rng, m):
        logs = 0.0
        for sh, log_u in zip(shifts, _density_mode_logdets(params, f, rng, m, chain)):
            logs = logs + sh * log_u
        return np.exp(logs)

    return _mc_expectation(vals_fn, mc, scale=scale)


def mtransform_mc_operator(params, f, s, mc=None):
    """Transform of the operator output by importance sampling over U.

    Draws U_j from a proposal matched to the operator output, then W_j and
    the value of f through the body of kober_matrix_second
    (matrix_ops._operator_draws), and averages proposal-corrected values of
    |U|^(s-(p+1)/2) * (operator estimate at U).  Independent of the density
    interpretation used by mtransform_mc.  Every slot's proposal factor is
    drawn before the beta factors.

    Second kind only.  U_j ~ 0.5 * Wishart(2 s_j), which cancels the |U|
    factor of the weight; for inputs with exponential decay the remaining
    weight exp(tr U) f(R W^(-1) R') stays bounded because tr(R W^(-1) R')
    >= tr U.  R is the proposal's own Bartlett factor over sqrt(2), so
    U = R R' and log|U| = 2 sum_i log R_ii; R = U^(1/2) H with H orthogonal,
    and the law of W^(-1) is invariant under H, so R W^(-1) R' has the law of
    U^(1/2) W^(-1) U^(1/2).  DomainError where f's own transform diverges
    at s (only families with a closed-form transform are checked), and for
    a law with trace coefficient b < 1 (det_power, wishart_density), whose
    weight exp(tr U - b tr V) is unbounded: the estimator's variance
    diverges.  A zeta_j <= (p-1)/2 is refused as well: its
    beta(zeta_j, alpha_j) proposal does not exist.

    The first kind is refused.  Its output decays like |U|^(-zeta-(p+1)/2),
    so the conditional variance of a single W draw falls off at only half
    the rate of the squared mean, and the importance-weighted second moment
    diverges for every U proposal drawn independently of W once s_j passes
    (zeta_j + 1) / 2.  Use mtransform_mc, or mtransform_quadrature at p = 1.
    """
    if params.kind != "second":
        raise ProposalDomainError(
            "the operator-route transform supports the second kind only; the "
            "first kind has power tails that leave every independent proposal "
            "with unbounded weight variance (use the density route instead)"
        )
    mc = mc or MCConfig()
    pt, _ = _transform_args(params, s)
    f.mellin(pt)  # raises DomainError where f's own transform diverges
    if f.fn is None and f.b < 1:
        raise DomainError(f"{f.family} has b < 1: the unbounded weight's variance diverges")
    p = params.p
    if not all(zeta > (p - 1) / 2.0 for zeta, _ in params.pairs):
        raise DomainError(f"the operator-route transform needs zeta > (p-1)/2, got {params.pairs}")

    dfs = [max(2.0 * sj, p - 0.5) for sj in pt]
    # the proposal normalisers Gamma_p(df0/2) of Wishart(df0, I/2), density
    # |U|^(df0/2-(p+1)/2) exp(-tr U) / Gamma_p(df0/2), join the numerator
    scale, vals = _operator_draws("second", params, f, extra=[df0 / 2.0 for df0 in dfs])

    def vals_fn(rng, m):
        logs = 0.0
        ts, log_u = [], []
        for df0, sj in zip(dfs, pt):
            t = wishart_factor(p, df0, rng, m)  # U = T T' / 2, R = T / sqrt(2)
            ts.append(t)
            log_u.append(smallmat.logdet(t) - p * math.log(2.0))
            logs = logs + (sj - df0 / 2.0) * log_u[-1] + 0.5 * smallmat.gram_trace(t)
        return vals(rng, m, ts, log_u, 0.5) * np.exp(logs)

    return _mc_expectation(vals_fn, mc, scale=scale)


# ---------------------------------------------------------------------------
# the verification driver


def verify_transform(kind, params, f, s_grid, mc=None):
    """Check the transform identity of the operator on a grid of s points.

    Returns one TransformReport per point.  At p = 1 the left side is the
    tensor quadrature and the tolerance is QUAD_TOL relative; at p >= 2 it
    is the density-route Monte Carlo, passing within 3 standard errors and
    the relative cap MC_REL_CAP.  Out-of-domain points are reported, not
    raised, and so is a p = 1 doubling that does not settle: a "fail" with
    no lhs and the QuadratureNotConverged message in note.
    """
    if kind != params.kind:
        raise DomainError(f"kind {kind!r} does not match params.kind {params.kind!r}")
    reports = []
    for s in s_grid:
        pt = tuple(float(v) for v in np.atleast_1d(s))  # reported as given if its length is wrong
        lhs = se = rhs = None
        tol, status, note = QUAD_TOL, "fail", ""
        try:
            pt = _per_slot("transform variables", pt, params.k)[0]
            _transform_args(params, pt)
            fstar = f.mellin(pt)
            if fstar is None:
                raise DomainError(
                    f"family {f.family!r} has no closed-form transform to verify against"
                )
            rhs = _gamma_ratio(params, pt, kind) * fstar
            if params.p == 1:
                lhs, info = mtransform_quadrature(params, f, pt)
                se = info.last_delta
                ok = abs(lhs / rhs - 1.0) < QUAD_TOL
            else:
                est = mtransform_mc(params, f, pt, mc)
                lhs, se, tol = est.value, est.se, MC_REL_CAP
                ok = abs(lhs - rhs) < 3.0 * se and abs(lhs / rhs - 1.0) < MC_REL_CAP
            status = "pass" if ok else "fail"
        except QuadratureNotConverged as exc:
            note = f"QuadratureNotConverged: {exc}"
        except DomainError as exc:
            lhs = se = rhs = None
            status, note = "domain-error", str(exc)
        reports.append(
            TransformReport(
                s=pt, lhs=lhs, se=se, rhs=rhs, ratio=None if lhs is None else lhs / rhs,
                tol=tol, passed=status == "pass", status=status, note=note,
            )
        )
    return reports
