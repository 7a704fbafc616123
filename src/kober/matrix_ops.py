"""Kober-type fractional operators in one or several SPD matrix arguments.

Both operator kinds are evaluated by exact importance sampling: the change of
variables W = U^(1/2) V^(-1) U^(1/2) (second kind) or W = U^(-1/2) V U^(-1/2)
(first kind) maps each matrix integral onto the region O < W < I, where the
kernel becomes a type-1 matrix-beta density up to a gamma-ratio constant.
The estimator is therefore unbiased with the proposal normalization supplying
the constant, and errors come only from Monte Carlo noise.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import smallmat
from .errors import ChainDomainError, DomainError, MomentDivergence, ProposalDomainError
from .matgamma import check_dim, ln_gamma_p
from .randmat import (
    DEFAULT_SEED,
    BetaMatParams,
    RngStream,
    matrix_beta_factor,
    sample_wishart,
)
from .spd import require_spd, sym_sqrt

MAX_CHUNK = 200000


@dataclass(frozen=True)
class MatrixOpParams:
    """Operator parameters: kind ("first" or "second"), dimension p, number of
    matrix arguments k, and per-argument (zeta_j, alpha_j) pairs."""

    kind: str
    p: int
    k: int
    pairs: tuple

    def __post_init__(self):
        if self.kind not in ("first", "second"):
            raise DomainError(f"kind must be 'first' or 'second', got {self.kind!r}")
        check_dim(self.p)
        if not 1 <= self.k <= 3:
            raise DomainError(f"number of matrix arguments k={self.k} outside 1..3")
        if len(self.pairs) != self.k:
            raise DomainError(f"need {self.k} (zeta, alpha) pairs, got {len(self.pairs)}")
        bound = (self.p - 1) / 2.0
        for zeta, alpha in self.pairs:
            if not alpha > bound:
                raise DomainError(f"alpha={alpha} must exceed (p-1)/2 = {bound}")
            if self.kind == "first" and not zeta > bound:
                raise DomainError(f"first kind needs zeta > (p-1)/2, got {zeta}")
            if self.kind == "second" and not zeta > bound - (self.p + 1) / 2.0:
                raise ProposalDomainError(
                    f"second kind proposal needs zeta > {bound - (self.p + 1) / 2.0}, "
                    f"got {zeta}"
                )


@dataclass(frozen=True)
class MCConfig:
    n_samples: int = 100000
    seed: int = DEFAULT_SEED
    n_streams: int = 16
    antithetic: bool = False

    def __post_init__(self):
        if self.n_samples < 1000:
            raise DomainError(f"n_samples={self.n_samples} below the minimum of 1000")
        if self.n_streams < 2:
            raise DomainError("batch-means standard errors need at least 2 streams")


@dataclass(frozen=True)
class Estimate:
    value: float
    se: float
    n: int


@dataclass(frozen=True)
class ChainSpec:
    """Chain-parameter rule and its inputs.

    beta_2_9:   b_j = zeta_{j+1} + ... + zeta_k + (k - j)         (zeta: k values)
    gamma_3_5:  g_j = zeta_{j+1} + ... + zeta_{k+1}               (zeta: k+1 values)
    delta_2_12: d_j = zeta_{j+1} + ... + zeta_k + b_j + ... + b_k (zeta, beta: k values)
    """

    rule: str
    zeta: tuple
    beta: tuple | None = None


def param_chain(spec):
    """Second-shape parameters for the chain decomposition, one per slot."""
    zeta = [float(z) for z in spec.zeta]
    if spec.rule == "beta_2_9":
        k = len(zeta)
        return [sum(zeta[j + 1 :]) + (k - 1 - j) for j in range(k)]
    if spec.rule == "gamma_3_5":
        if len(zeta) < 2:
            raise ChainDomainError("gamma_3_5 needs zeta_1..zeta_{k+1}, at least two values")
        k = len(zeta) - 1
        return [sum(zeta[j + 1 :]) for j in range(k)]
    if spec.rule == "delta_2_12":
        if spec.beta is None or len(spec.beta) != len(zeta):
            raise ChainDomainError("delta_2_12 needs beta values matching zeta")
        beta = [float(b) for b in spec.beta]
        k = len(zeta)
        return [sum(zeta[j + 1 :]) + sum(beta[j:]) for j in range(k)]
    raise ChainDomainError(f"unknown chain rule {spec.rule!r}")


# ---------------------------------------------------------------------------
# test function families on tuples of SPD matrices


@dataclass(frozen=True)
class MatrixTestFunction:
    """A function of k SPD p x p matrix arguments V_1..V_k.

    Without fn it is the law

      f = exp(sum_j [c + a_j log|V_j| - b tr V_j]),

    one parameter row (a_j, b, c) per family:

      det_power(lam)           a_j = lam_j,               b = 0,   c = 0
      exp_neg_trace            a_j = 0,                   b = 1,   c = 0
      det_power_times_exp(g)   a_j = g_j - (p+1)/2,       b = 1,   c = 0
      wishart_density(df)      a_j = df/2 - (p+1)/2,      b = 1/2,
                               c = -(p df/2 ln 2 + ln Gamma_p(df/2))

    The law needs only log|V_j| and tr V_j, and a term whose coefficient is
    0 is never computed.  With fn (matrix_callback) f is fn of the dense
    slot stacks.  family is only a label for messages.
    """

    family: str
    p: int
    k: int = 1
    a: tuple = ()
    b: float = 0.0
    c: float = 0.0
    fn: Callable | None = None

    def law(self, logdet, trace, shape):
        """The law from per-slot summaries: logdet(j) = log|V_j| and
        trace(j) = tr V_j, each called only where its coefficient is
        nonzero; shape is the broadcast leading shape of the slots."""
        logs = self.k * self.c
        for j, a in enumerate(self.a):
            if a:
                logs = logs + a * logdet(j)
            if self.b:
                logs = logs - self.b * trace(j)
        out = np.exp(logs)
        return out if np.shape(out) == shape else np.full(shape, out)

    def value(self, vs):
        """Batched evaluation: vs is a list of k stacks of shape (..., p, p)
        whose leading shapes broadcast against each other, e.g. (n, p, p)
        each, or (rows, 1, p, p) and (1, n2, p, p) from the p = 1 tensor
        quadrature; returns the broadcast leading shape.  Callbacks must
        index the slots as v[..., i, j], not v[:, i, j].  The law takes
        log|V_j| from the Cholesky factor of V_j (NotPositiveDefinite if a
        stack member is not positive definite)."""
        if self.fn is not None:
            return np.asarray(self.fn(*vs), dtype=float)
        return self.law(
            lambda j: smallmat.logdet(smallmat.cholesky(smallmat.entries(vs[j]))),
            lambda j: sum(vs[j][..., i, i] for i in range(self.p)),
            np.broadcast_shapes(*(np.shape(v)[:-2] for v in vs)),
        )

    def mellin(self, s):
        """Closed-form M-transform, the integral of prod |V_j|^(s_j-(p+1)/2) f
        over the SPD cone: prod_j e^c Gamma_p(s_j+a_j) b^(-p(s_j+a_j)), or
        None for callbacks and b = 0.  Raises DomainError where the integral
        diverges (a Gamma_p argument at or below (p-1)/2)."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        if len(s) != self.k:
            raise DomainError(f"need {self.k} transform variables, got {len(s)}")
        if self.fn is not None or not self.b:
            return None
        total = 0.0
        for sj, a in zip(s, self.a):
            arg = sj + a
            if not arg > (self.p - 1) / 2.0:
                raise DomainError(
                    f"the transform of {self.family} diverges at s = {sj}: "
                    f"Gamma_p argument {arg} <= (p-1)/2 = {(self.p - 1) / 2.0}"
                )
            total += self.c + ln_gamma_p(self.p, arg) - self.p * arg * math.log(self.b)
        return math.exp(total)

    def normalizer(self):
        """Integral of f over the cone (None when it diverges)."""
        return self.mellin(((self.p + 1) / 2.0,) * self.k)

    def sampler(self):
        """Returns draw(stream_or_rng, size) -> list of (n, p, p) following the
        normalized density f / normalizer, V_j ~ Wishart(2 (a_j + (p+1)/2), I)
        / (2 b), or None for callbacks and b = 0."""
        if self.fn is not None or not self.b:
            return None
        dfs = [2.0 * (a + (self.p + 1) / 2.0) for a in self.a]

        def draw(stream, size):
            return [sample_wishart(self.p, d, stream, size) / (2.0 * self.b) for d in dfs]

        return draw

    def scalar_axes(self):
        """The per-slot p = 1 scalar laws e^c v^a_j e^(-b v) in scalar_ops
        terms, whose product over the slots is f."""
        from . import scalar_ops

        if self.p != 1 or self.fn is not None:
            raise DomainError(f"{self.family} has no p = 1 scalar counterpart")
        return [scalar_ops.law(a, self.b, math.exp(self.c), self.family) for a in self.a]

    def as_scalar(self):
        """The p=1, k=1 scalar counterpart in scalar_ops terms."""
        if self.k != 1:
            raise DomainError("scalar reduction needs p = 1 and k = 1")
        return self.scalar_axes()[0]


def _per_slot(name, values, k):
    """values as one float per slot: a single value is repeated over k slots,
    any other count but k is refused."""
    values = tuple(float(x) for x in np.atleast_1d(values))
    k = k or len(values)
    if len(values) == 1:
        values = values * k
    if len(values) != k:
        raise DomainError(f"{name} needs 1 or k = {k} values, got {len(values)}")
    return values, k


def det_power(p, lam, k=None):
    lam, k = _per_slot("det_power", lam, k)
    return MatrixTestFunction("det_power", p=p, k=k, a=lam)


def exp_neg_trace(p, k=1):
    return MatrixTestFunction("exp_neg_trace", p=p, k=k, a=(0.0,) * k, b=1.0)


def det_power_times_exp(p, gamma, k=None):
    gamma, k = _per_slot("det_power_times_exp", gamma, k)
    for g in gamma:
        if not g > (p - 1) / 2.0:
            raise DomainError(f"det_power_times_exp needs gamma > (p-1)/2, got {g}")
    a = tuple(g - (p + 1) / 2.0 for g in gamma)
    return MatrixTestFunction("det_power_times_exp", p=p, k=k, a=a, b=1.0)


def wishart_density(p, df, k=1):
    if not df > p - 1:
        raise DomainError(f"wishart_density needs df > p - 1, got {df}")
    half = df / 2.0
    c = -(p * half * math.log(2.0) + ln_gamma_p(p, half))
    return MatrixTestFunction(
        "wishart_density", p=p, k=k, a=(half - (p + 1) / 2.0,) * k, b=0.5, c=c
    )


def matrix_callback(p, fn, k=1):
    return MatrixTestFunction("callback", p=p, k=k, fn=fn)


def _f_of_factors(f, shape, factor, logdet, scale=1.0):
    """f at V_j = scale C_j C_j' with C_j = factor(j) and log|V_j| = logdet(j),
    for factor stacks a Monte Carlo route already holds.  The law reads
    log|V_j| and tr V_j = scale sum C_j^2 with no dense V; callbacks get
    the dense stacks."""
    if f.fn is not None:
        return f.value([scale * smallmat.stack(smallmat.gram(factor(j))) for j in range(f.k)])
    return f.law(logdet, lambda j: scale * smallmat.gram_trace(factor(j)), shape)


# ---------------------------------------------------------------------------
# Monte Carlo aggregation


def _aggregate(batch_means, scale, n_total, max_abs, sum_abs):
    batch_means = np.asarray(batch_means, dtype=float)
    value = float(batch_means.mean()) * scale
    spread = float(batch_means.std(ddof=1))
    se = spread / math.sqrt(len(batch_means)) * abs(scale)
    est = Estimate(value=value, se=se, n=n_total)
    if spread > 0.0:
        worst = float(np.abs(batch_means - batch_means.mean()).max())
        if worst > 5.0 * spread:
            raise MomentDivergence(
                f"stream batch means disagree by {worst / spread:.1f} spreads; "
                "the integrand may have no finite second moment",
                partial=est,
            )
    if n_total >= 1000 and sum_abs > 0.0 and max_abs > 0.2 * sum_abs:
        raise MomentDivergence(
            "a single draw dominates the Monte Carlo sum; moment likely divergent",
            partial=est,
        )
    return est


def _mc_expectation(vals_fn, mc, scale=1.0):
    """Mean of vals_fn draws across mc.n_streams substreams, scaled.

    vals_fn(rng, m) -> array of m values.  Standard error by batch means.
    """
    n_each = -(-mc.n_samples // mc.n_streams)
    if mc.antithetic and n_each % 2:
        n_each += 1
    batch_means = []
    max_abs = 0.0
    sum_abs = 0.0
    n_total = 0
    for i in range(mc.n_streams):
        rng = RngStream(mc.seed, i).generator()
        total = 0.0
        done = 0
        while done < n_each:
            m = min(MAX_CHUNK, n_each - done)
            if mc.antithetic and m % 2:
                m += 1
            vals = np.asarray(vals_fn(rng, m), dtype=float)
            if not np.all(np.isfinite(vals)):
                raise MomentDivergence(
                    "non-finite Monte Carlo values encountered", partial=None
                )
            total += float(vals.sum())
            max_abs = max(max_abs, float(np.abs(vals).max()))
            sum_abs += float(np.abs(vals).sum())
            done += m
        batch_means.append(total / done)
        n_total += done
    return _aggregate(batch_means, scale, n_total, max_abs, sum_abs)


# ---------------------------------------------------------------------------
# the operators


def _proposal_for_second(p, zeta, alpha):
    """Beta proposal and reweighting power for one second-kind slot."""
    bound = (p - 1) / 2.0
    if zeta > bound:
        return BetaMatParams(p, zeta, alpha), 0.0
    shift = (p + 1) / 2.0
    if zeta + shift <= bound:
        raise ProposalDomainError(
            f"zeta={zeta} is below the reweighted proposal domain at p={p}"
        )
    # reweight from beta(zeta+shift, alpha) with |W|^(-shift) weights
    return BetaMatParams(p, zeta + shift, alpha), shift


def _operator_arguments(kind, params, f, U):
    """Per slot the root U^(1/2) as a smallmat matrix and log|U|, for an
    operator of the given kind."""
    if params.kind != kind:
        raise DomainError(f"params.kind must be {kind!r}")
    U = [require_spd(u, "operator argument") for u in U]
    if len(U) != params.k:
        raise DomainError(f"need {params.k} matrix arguments, got {len(U)}")
    if f.k != params.k:
        raise DomainError(f"{f.family} has {f.k} slots, the operator {params.k}")
    roots = [smallmat.entries(sym_sqrt(u)) for u in U]
    log_u = [smallmat.logdet(smallmat.cholesky(smallmat.entries(u))) for u in U]
    return roots, log_u


def kober_matrix_second(params, f, U, mc=None):
    """Second-kind operator value at (U_1..U_k), Monte Carlo estimate.

    Each slot reduces exactly to an expectation over W_j ~ matrix-beta:
    value = prod_j Gamma_p(z_j)/Gamma_p(z_j+a_j) * E[ f(U^(1/2) W^(-1) U^(1/2)) ].
    W^(-1) and |W| come from the triangular factor K of each beta draw, so
    V = C C' with C = U^(1/2) K^(-T) and log|V| = log|U| - log|W|.
    """
    mc = mc or MCConfig()
    roots, log_u = _operator_arguments("second", params, f, U)
    props = []
    ln_scale = 0.0
    for zeta, alpha in params.pairs:
        prm, shift = _proposal_for_second(params.p, zeta, alpha)
        props.append((prm, shift))
        ln_scale += ln_gamma_p(params.p, prm.a) - ln_gamma_p(params.p, prm.a + alpha)

    def vals_fn(rng, m):
        ks = [matrix_beta_factor(prm, rng, m, mc.antithetic) for prm, _ in props]
        out = _f_of_factors(
            f, (m,),
            lambda j: smallmat.matmul(roots[j], smallmat.inv_factor(ks[j])),
            lambda j: log_u[j] - smallmat.logdet(ks[j]),
        )
        logw = 0.0
        for (_, shift), k in zip(props, ks):
            if shift:
                logw = logw - shift * smallmat.logdet(k)
        if isinstance(logw, np.ndarray):
            out = out * np.exp(logw)
        return out

    return _mc_expectation(vals_fn, mc, scale=math.exp(ln_scale))


def kober_matrix_first(params, f, U, mc=None):
    """First-kind operator value at (U_1..U_k), Monte Carlo estimate.

    value = prod_j Gamma_p(z_j+(p+1)/2)/Gamma_p(z_j+(p+1)/2+a_j)
            * E[ f(U^(1/2) W U^(1/2)) ], W_j ~ matrix-beta(z_j+(p+1)/2, a_j).
    With W = K K' from the beta factor, V = C C' with C = U^(1/2) K and
    log|V| = log|U| + log|W|.
    """
    mc = mc or MCConfig()
    roots, log_u = _operator_arguments("first", params, f, U)
    shift = (params.p + 1) / 2.0
    props = [BetaMatParams(params.p, zeta + shift, alpha) for zeta, alpha in params.pairs]
    ln_scale = sum(
        ln_gamma_p(params.p, prm.a) - ln_gamma_p(params.p, prm.a + prm.b) for prm in props
    )

    def vals_fn(rng, m):
        ks = [matrix_beta_factor(prm, rng, m, mc.antithetic) for prm in props]
        return _f_of_factors(
            f, (m,),
            lambda j: smallmat.matmul(roots[j], ks[j]),
            lambda j: log_u[j] + smallmat.logdet(ks[j]),
        )

    return _mc_expectation(vals_fn, mc, scale=math.exp(ln_scale))


# ---------------------------------------------------------------------------
# density interpretation


def _beta_shapes(params, chain):
    """Per slot the shapes (a_j, b_j) of the density-mode beta draws:
    a_j = z_j + (p+1)/2 (second kind) or z_j (first kind), and b_j = alpha_j
    or, with a ChainSpec, the chain-derived second shape, of which there
    must be exactly k."""
    seconds = [alpha for _, alpha in params.pairs]
    if chain is not None:
        seconds = param_chain(chain)
        if len(seconds) != params.k:
            raise ChainDomainError("chain rule output length does not match k")
    half = (params.p + 1) / 2.0 if params.kind == "second" else 0.0
    return [(zeta + half, b) for (zeta, _), b in zip(params.pairs, seconds)]


def density_constant(params, chain=None):
    """The constant c with operator output = c * (a probability density).

    Second kind: prod_j Gamma_p(z_j+(p+1)/2)/Gamma_p(b_j+z_j+(p+1)/2);
    first kind: prod_j Gamma_p(z_j)/Gamma_p(z_j+a_j).  With a ChainSpec, the
    chain-derived second shapes replace alpha_j slot by slot.
    """
    total = 0.0
    for a, b in _beta_shapes(params, chain):
        total += ln_gamma_p(params.p, a) - ln_gamma_p(params.p, a + b)
    return math.exp(total)


def _density_mode_factors(params, f_sampler, stream, size, chain, antithetic):
    """The draws of density_mode_sample as factors: per slot (C, B, log|U|)
    with U = C B B' C', C the Cholesky factor of V and B the triangular
    factor of Y (second kind) or of Y^(-1) (first kind)."""
    shapes = _beta_shapes(params, chain)
    rng = stream.generator() if isinstance(stream, RngStream) else stream
    vs = f_sampler(rng, size)
    if len(vs) != params.k:
        raise DomainError(f"f_sampler returned {len(vs)} blocks, need {params.k}")
    out = []
    for (a, b), v in zip(shapes, vs):
        c = smallmat.cholesky(smallmat.entries(v))
        k = matrix_beta_factor(BetaMatParams(params.p, a, b), rng, size, antithetic)
        if params.kind == "second":
            out.append((c, k, smallmat.logdet(c) + smallmat.logdet(k)))
        else:
            out.append((c, smallmat.inv_factor(k), smallmat.logdet(c) - smallmat.logdet(k)))
    return out


def density_mode_sample(params, f_sampler, stream, size, chain=None, antithetic=False):
    """Draws (U_1..U_k) from the density proportional to the operator output.

    f_sampler(stream, size) -> list of V_j draws from the normalized f.
    Second kind: U_j = C_j Y_j C_j', Y_j ~ beta(z_j+(p+1)/2, b_j);
    first kind:  U_j = C_j Y_j^(-1) C_j', Y_j ~ beta(z_j, a_j);
    C_j is the Cholesky factor of V_j.  C_j = V_j^(1/2) H_j with H_j
    orthogonal, and the beta law is invariant under Y -> H'YH, so U_j has the
    law of V_j^(1/2) Y_j V_j^(1/2).
    """
    return [
        smallmat.stack(smallmat.congruence(c, b))
        for c, b, _ in _density_mode_factors(params, f_sampler, stream, size, chain, antithetic)
    ]
