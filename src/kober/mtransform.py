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
from .errors import DomainError, ProposalDomainError, RatioOverflow, TailDivergence
from .matgamma import GammaRatioSpec, gamma_ratio
from .matrix_ops import (
    MCConfig,
    _density_mode_factors,
    _gamma_args,
    _mc_expectation,
    _operator_draws,
    _per_slot,
    density_constant,
)
from .quadrature import (
    contract_slabs,
    jacobi_rule_01,
    legendre_rule_01,
    quad_operator,
)
from .randmat import wishart_factor

# tensor quadrature drops a node whose coefficient times its tail bound is
# below this share of its axis total
PRUNE_REL = 1e-17
# verify_transform passes a p = 1 quadrature point within this relative
# error, a p >= 2 Monte Carlo point within 3 s.e. and this relative cap
QUAD_TOL = 1e-6
MC_REL_CAP = 0.02


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
    standard error or the quadrature doubling delta, whichever applies.
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
# p = 1 operator output curves with declared behaviour


def operator_curve_1d(kind, zeta, alpha, f, q=None):
    """The p = 1 operator output as a new function with declared behaviour.

    Wraps pointwise quadrature of the first or second kind operator applied
    to f; the zero order and tail of the output follow from those of f, so
    the result can be fed back into mellin_numeric_1d.
    """
    f = scalar_ops.as_test_function(f)
    if f.tail is None:
        raise TailDivergence("the operator curve needs an input with a declared tail")
    order, _ = f.split_power()

    if kind == "second":
        out_zero = order
        if f.tail[0] == "exp":
            out_tail = ("exp", f.tail[1])
        elif f.tail[0] == "power":
            out_tail = ("power", f.tail[1])
        else:
            out_tail = ("compact", 0.0, f.tail[2])
            if f.tail[1] > 0.0:
                # input mass sits away from zero, so the t^(zeta-1) kernel
                # weight alone sets the output's vanishing rate
                out_zero = zeta
        if zeta <= order:
            raise DomainError(
                f"second-kind output is unbounded at zero: zeta = {zeta} <= "
                f"zero order {order} of the input"
            )
        op = scalar_ops.kober_second
    elif kind == "first":
        # the output decays like u^-(zeta+1) once the input has moments of
        # order zeta; slower-decaying inputs cap the decay at their own rate
        out_zero = order
        d = zeta + 1.0
        if f.tail[0] == "power":
            d = min(d, f.tail[1])
        out_tail = ("power", d)
        op = scalar_ops.kober_first
    else:
        raise DomainError(f"kind must be 'first' or 'second', got {kind!r}")

    def fn(u):
        u = np.atleast_1d(np.asarray(u, dtype=float))
        return np.array([op(f, ui, zeta=zeta, alpha=alpha, q=q) for ui in u])

    return scalar_ops.callback(fn, zero_order=out_zero, tail=out_tail)


# ---------------------------------------------------------------------------
# p = 1 tensor quadrature of the transform: one sum per slot for a law, the
# joint grid for a callback


def _axis_product_nodes(kind, zeta, alpha, s, axis, n_outer, n_inner):
    """Flat nodes x and coefficients c with M-slot contribution sum c * fhat(x).

    fhat is the slot function divided by its declared zero-order power; the
    coefficients fold together the outer Mellin rule over u, the inner
    operator rule, and the gamma normalisation.  Second kind: x = u / t with
    the outer integral split into a Jacobi head on (0, 1) and geometric
    Gauss-Legendre segments out to the decay horizon.  First kind: x = u * t
    on a head and a mid range, then a far range u > S where the inner
    integral is taken over w = u t directly, on a fixed grid below the decay
    horizon, so the input's scale stays resolved while u grows without bound.
    """
    lam = axis.zero_order
    if axis.tail is None or axis.tail[0] != "exp":
        raise DomainError("the tensor transform path needs exponential slot tails")
    rate = axis.tail[1]
    if s + lam <= 0.0:
        raise DomainError(f"transform diverges at zero: s + zero order = {s + lam} <= 0")
    try:
        gamma_a = math.gamma(alpha)
    except OverflowError:
        raise RatioOverflow(f"Gamma({alpha}) exceeds the floating range") from None

    if kind == "second":
        if zeta < 1.0 + lam:
            raise DomainError(
                "the tensor transform path needs zeta >= 1 + the slot zero "
                f"order for uniform accuracy, got zeta = {zeta}, order = {lam}"
            )
        t_in, w_in = jacobi_rule_01(n_inner, alpha - 1.0, zeta - 1.0)
        # the inner residual carries t^-lam so that dividing f by x^lam at
        # the ratio node keeps the absorbed powers consistent
        c_in = w_in * t_in ** (-lam) / gamma_a
        ratio = 1.0 / t_in
        # segment contributions fall off like exp(-rate u); beyond this
        # horizon they are orders of magnitude below the quadrature target
        horizon = 60.0
        n_seg = max(1, math.ceil(math.log2(max(horizon / rate, 2.0))))
    else:
        d = zeta + 1.0
        if zeta + lam <= -1.0:
            raise DomainError(f"first kind needs zeta + zero order > -1, got {zeta + lam}")
        t_in, w_in = jacobi_rule_01(n_inner, alpha - 1.0, zeta + lam)
        c_in = w_in / gamma_a
        ratio = t_in
        # the segments end at S = 2^n_seg, up to which the inner t-rule
        # still resolves the decay scale 1/(rate u) of f(u t)
        cap = 50.0 / rate
        n_seg = max(0, math.ceil(math.log2(max(2.0 * cap, 1.0))))

    # head: u in (0, 1), x = u t or u / t stays within the resolved scale of f
    u_h, w_h = jacobi_rule_01(n_outer, 0.0, s - 1.0 + lam)
    xs = [np.outer(u_h, ratio)]
    cs = [np.outer(w_h, c_in)]
    # octave segments of Gauss-Legendre from u = 1
    t_gl, w_gl = legendre_rule_01(max(16, (2 * n_outer) // 3))
    lo = 1.0
    for _ in range(n_seg):
        hi = 2.0 * lo
        u = lo + (hi - lo) * t_gl
        w_u = (hi - lo) * w_gl * u ** (s - 1.0 + lam)
        xs.append(np.outer(u, ratio))
        cs.append(np.outer(w_u, c_in))
        lo = hi

    if kind == "first":
        # far range: u = S/tau > S >= 2 cap, inner integral over w = u t on a
        # fixed grid (0, cap); beyond the cap the integrand is below the
        # floating underflow of the exponential tail
        S = 2.0**n_seg
        w_nodes, w_w = jacobi_rule_01(n_inner, 0.0, zeta + lam)
        w_far = cap * w_nodes
        tau, w_tau = jacobi_rule_01(n_outer, 0.0, d - s - 1.0)
        u_far = S / tau
        # M contribution: S^s sum_i w_tau_i tau_i^-d g(u_i) with
        # g(u) = u^(-zeta-1)/Gamma(a) int_0^cap (1-w/u)^(a-1) w^(zeta+lam) fhat(w) dw
        # (the kernel u^(-zeta-a) (u-w)^(a-1) regrouped to stay finite at large a)
        pref = S**s * w_tau * tau ** (-d) * u_far ** (-zeta - 1.0)
        kern = (1.0 - w_far[None, :] / u_far[:, None]) ** (alpha - 1.0)
        c_far = (
            cap ** (zeta + lam + 1.0)
            / gamma_a
            * (pref[:, None] * kern * w_w[None, :]).sum(axis=0)
        )
        xs.append(w_far)
        cs.append(c_far)

    x = np.concatenate([a.ravel() for a in xs])
    c = np.concatenate([a.ravel() for a in cs])
    return x, c


def _joint_values(f, vs, shape):
    """f.value on the slot stacks vs, which must come back with exactly the
    broadcast shape; a callback that indexes v[:, i, j] instead of
    v[..., i, j] collapses a broadcast axis and is refused here."""
    vals = f.value(vs)
    if np.shape(vals) != shape:
        raise DomainError(
            f"f.value returned shape {np.shape(vals)} for slot stacks "
            f"{[v.shape for v in vs]}, expected {shape}; index slots as v[..., i, j]"
        )
    return vals


def _tensor_transform_p1(kind, params, f, pt, n_outer, n_inner, axes=None):
    """M-transform of the operator output by tensor quadrature, p = 1, k <= 2.

    A law is a product over its slots (f.scalar_axes()), so the tensor sum
    factors exactly into one axis sum per slot, prod_j sum_i c_ji f_j(x_ji);
    a callback is evaluated jointly on the product grid.  Either way no
    gamma function or closed-form transform enters, so the result is an
    independent numerical route to the closed form.  axes overrides the
    per-slot endpoint declarations, which joint callback functions cannot
    carry themselves; a law's values still come from its own slot factors.

    Each axis folds x^(-lam) of its zero order into the coefficients and
    keeps only the nodes with |c| exp(-rate x) >= PRUNE_REL times the axis
    sum of |c| exp(-rate x), rate being the declared exponential tail.  This
    relies on the declarations (axes included): where |f| / prod x_j^lam_j
    is at most K prod exp(-rate_j x_j), the dropped nodes of an axis carry
    less than n_dropped * PRUNE_REL of K times the product of the axis sums.
    For a callback at k = 2, slabs of x1 of shape (rows, 1, 1, 1)
    (quadrature.contract_slabs) are broadcast against x2 of shape
    (1, n2, 1, 1), so f still sees every kept joint pair; f.value must
    broadcast its slots (index them as v[..., i, j]) and return exactly the
    shape (rows, n2), or DomainError is raised.
    """
    factors = None if f.fn is not None else f.scalar_axes()
    if axes is None:
        axes = factors
    coeffs = []
    grids = []
    for (zeta, alpha), sj, axis in zip(params.pairs, pt, axes):
        x, c = _axis_product_nodes(kind, zeta, alpha, sj, axis, n_outer, n_inner)
        bound = np.abs(c) * np.exp(-axis.tail[1] * x)
        keep = bound >= PRUNE_REL * bound.sum()
        x = x[keep]
        grids.append(x)
        coeffs.append(c[keep] * x ** (-axis.zero_order))
    if factors is not None:
        # fsum, not a BLAS dot: the bits do not depend on the thread count
        # (tolist: fsum reads Python floats faster than numpy scalars)
        return math.prod(
            math.fsum((c * fj(x)).tolist()) for c, fj, x in zip(coeffs, factors, grids)
        )

    stacks = [g[..., None, None] for g in np.meshgrid(*grids, indexing="ij", sparse=True)]

    def slab(i, j):
        a = stacks[0][i:j]
        return _joint_values(f, [a] + stacks[1:], (len(a),) + tuple(x.size for x in grids[1:]))

    return contract_slabs(slab, coeffs[0], coeffs[1:])


def mtransform_quadrature(params, f, s, *, n_outer=48, n_inner=64, axes=None):
    """Numerical transform of the operator output at p = 1, with error estimate.

    Returns (value, delta) where delta compares against a coarser rule.
    Both rules drop the nodes whose coefficient times the declared tail
    bound exp(-rate x) is below PRUNE_REL of its axis total, so the slot
    tails declared by f's family, or by axes for callbacks, must hold.
    At k = 2 a callback's slots reach f.value as mutually broadcastable
    stacks of shapes (rows, 1, 1, 1) and (1, n2, 1, 1): it must index them
    as v[..., i, j] and return shape (rows, n2), else DomainError is raised.
    """
    if params.p != 1:
        raise DomainError("the quadrature transform path needs p = 1")
    if params.k > 2:
        raise DomainError("the quadrature transform path covers k <= 2")
    if f.k != params.k:
        raise DomainError(f"{f.family} has {f.k} slots, the operator {params.k}")
    pt, _ = _transform_args(params, s)
    val = _tensor_transform_p1(params.kind, params, f, pt, n_outer, n_inner, axes=axes)
    coarse = _tensor_transform_p1(
        params.kind, params, f, pt, max(24, n_outer // 2), max(32, n_inner // 2), axes=axes
    )
    return val, abs(val - coarse)


# ---------------------------------------------------------------------------
# Monte Carlo transform routes


def mtransform_mc(params, f, s, mc=None, chain=None):
    """Transform of the operator output via the density interpretation.

    The operator output equals density_constant * (normalizer of f) * the
    density of the density-mode draws, so the transform is that constant
    times the joint moment E prod_j |U_j|^(s_j-(p+1)/2), with log|U_j| taken
    from the factors of the draw.  DomainError where f's own transform
    diverges at s.
    """
    mc = mc or MCConfig()
    pt, _ = _transform_args(params, s)
    f.mellin(pt)  # raises DomainError where f's own transform diverges
    sampler = f.sampler()
    norm = f.normalizer()
    if sampler is None or norm is None:
        raise DomainError(
            f"family {f.family!r} has no normalised sampler for the density route"
        )
    scale = density_constant(params, chain) * norm
    shifts = [sj - (params.p + 1) / 2.0 for sj in pt]

    def vals_fn(rng, m):
        draws = _density_mode_factors(params, sampler, rng, m, chain)
        logs = 0.0
        for sh, (_, _, logdet_u) in zip(shifts, draws):
            logs = logs + sh * logdet_u
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
    scale, _, vals = _operator_draws("second", params, f, extra=[df0 / 2.0 for df0 in dfs])

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
    raised.
    """
    if kind != params.kind:
        raise DomainError(f"kind {kind!r} does not match params.kind {params.kind!r}")
    reports = []
    for s in s_grid:
        pt = tuple(float(v) for v in np.atleast_1d(s))  # reported as given if its length is wrong
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
                lhs, se = mtransform_quadrature(params, f, pt)
                tol = QUAD_TOL
                ok = abs(lhs / rhs - 1.0) < QUAD_TOL
            else:
                est = mtransform_mc(params, f, pt, mc)
                lhs, se, tol = est.value, est.se, MC_REL_CAP
                ok = abs(lhs - rhs) < 3.0 * se and abs(lhs / rhs - 1.0) < MC_REL_CAP
            reports.append(
                TransformReport(
                    s=pt, lhs=lhs, se=se, rhs=rhs, ratio=lhs / rhs,
                    tol=tol, passed=ok, status="pass" if ok else "fail",
                )
            )
        except DomainError as exc:
            reports.append(
                TransformReport(
                    s=pt, lhs=None, se=None, rhs=None, ratio=None,
                    tol=QUAD_TOL, passed=False, status="domain-error", note=str(exc),
                )
            )
    return reports
