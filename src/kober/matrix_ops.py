"""Kober-type fractional operators in one or several SPD matrix arguments.

Both operator kinds are evaluated by exact importance sampling: the change of
variables W = U^(1/2) V^(-1) U^(1/2) (second kind) or W = U^(-1/2) V U^(-1/2)
(first kind) maps each matrix integral onto the region O < W < I, where the
kernel becomes a type-1 matrix-beta density up to a gamma-ratio constant.
The estimator is therefore unbiased with the proposal normalization supplying
the constant, and errors come only from Monte Carlo noise.

A law that reads only log|V_j| (det_power: b = 0, no callback) needs only
log|W_j| of each beta draw, and log|V_j| = log|U_j| +- log|W_j|.  Such an
estimate draws log|W_j| from ceil(p/2) univariate betas (Muirhead 1982,
Thm 3.3.3, with Legendre duplication; randmat.matrix_beta_logdet) and forms
no W.  Every other law and every callback draws the triangular beta factor
K_j of W_j = K_j K_j'.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import smallmat
from .errors import ChainDomainError, DomainError, MomentDivergence, ProposalDomainError
from .matgamma import MAX_SLOTS, GammaRatioSpec, check_dim, checked_exp, gamma_ratio, ln_gamma_p
from .randmat import (
    DEFAULT_SEED,
    BetaMatParams,
    RngStream,
    StreamBatch,
    _resolve_rng,
    matrix_beta_factor,
    matrix_beta_logdet,
    wishart_factor,
    wishart_logdet,
)
from .spd import require_spd

# an estimate draws consecutive whole streams together, up to this many
# draws per pass of the sampler and factor algebra; a stream of more draws
# is a pass of its own, drawn in chunks of at most MAX_CHUNK
BATCH_DRAWS = 4096
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
        if not 1 <= self.k <= MAX_SLOTS:
            raise DomainError(f"number of matrix arguments k={self.k} outside 1..{MAX_SLOTS}")
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
    """Monte Carlo settings: about n_samples draws in all, split evenly over
    n_streams independent RngStream(seed, i) substreams (the count rounded up
    to a whole number per stream).  The estimate is the mean of the stream
    means and its standard error their spread (batch means).  How the
    streams are drawn, alone or batched with their neighbours, changes
    neither: the bits depend only on these three fields."""

    n_samples: int = 100000
    seed: int = DEFAULT_SEED
    n_streams: int = 16

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
        nonzero, so trace may be None when b = 0; shape is the broadcast
        leading shape of the slots."""
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
        return checked_exp(total, f"the transform of {self.family} at s = {s.tolist()}")

    def normalizer(self):
        """Integral of f over the cone (None when it diverges)."""
        return self.mellin(((self.p + 1) / 2.0,) * self.k)

    def wishart_params(self):
        """(dfs, scale) with V_j = scale^2 S_j, S_j ~ Wishart(dfs[j], I),
        following the normalized density f / normalizer: dfs[j] =
        2 (a_j + (p+1)/2) and scale = 1 / sqrt(2 b).  None for callbacks and
        b = 0."""
        if self.fn is not None or not self.b:
            return None
        return [2.0 * (a + (self.p + 1) / 2.0) for a in self.a], 1.0 / math.sqrt(2.0 * self.b)

    def sampler(self):
        """Returns draw(stream_or_rng, size) -> per slot the lower-triangular
        factor C_j, a smallmat stack of size members, of V_j = C_j C_j'
        following the normalized density f / normalizer: C_j is scale times
        the Bartlett factor of Wishart(dfs[j], I) (wishart_params).  None for
        callbacks and b = 0."""
        law = self.wishart_params()
        if law is None:
            return None
        dfs, scale = law

        def draw(stream, size):
            rng = _resolve_rng(stream)
            return [
                [[None if x is None else x * scale for x in row]
                 for row in wishart_factor(self.p, d, rng, size)]
                for d in dfs
            ]

        return draw

    def scalar_axes(self):
        """The per-slot p = 1 scalar laws e^c v^a_j e^(-b v) in scalar_ops
        terms, whose product over the slots is f."""
        from . import scalar_ops

        if self.p != 1 or self.fn is not None:
            raise DomainError(f"{self.family} has no p = 1 scalar counterpart")
        return [scalar_ops.law(a, self.b, math.exp(self.c), self.family) for a in self.a]


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
    if n_total >= 1000 and sum_abs > 0.0 and max_abs > 0.2 * sum_abs:
        raise MomentDivergence(
            "a single draw dominates the Monte Carlo sum; moment likely divergent",
            partial=est,
        )
    return est


def _mc_expectation(vals_fn, mc, scale=1.0):
    """Mean of vals_fn draws across mc.n_streams substreams, scaled.

    vals_fn(rng, m) -> array of m values, one per draw, each a function of
    that draw's random numbers only; rng is a randmat.StreamBatch.  The
    standard error comes from the stream means (batch means).  Consecutive
    streams are drawn as one StreamBatch of at most BATCH_DRAWS draws, so
    vals_fn runs once per batch; each stream's values are a contiguous
    slice of the batch's, and its sum, max |v| and sum |v| are taken from
    that slice in stream order, so the estimate is bit for bit that of
    drawing every stream alone.  A stream of more than BATCH_DRAWS draws is
    a batch of its own, drawn in chunks of at most MAX_CHUNK.
    """
    n_each = -(-mc.n_samples // mc.n_streams)
    per_batch = max(1, BATCH_DRAWS // n_each)
    batch_means = []
    max_abs = 0.0
    sum_abs = 0.0
    for first in range(0, mc.n_streams, per_batch):
        gens = [
            RngStream(mc.seed, i).generator()
            for i in range(first, min(first + per_batch, mc.n_streams))
        ]
        totals = [0.0] * len(gens)
        for start in range(0, n_each, MAX_CHUNK):
            m = min(MAX_CHUNK, n_each - start)
            vals = np.asarray(vals_fn(StreamBatch(gens, m), m * len(gens)), dtype=float)
            if not np.all(np.isfinite(vals)):
                raise MomentDivergence(
                    "non-finite Monte Carlo values encountered", partial=None
                )
            for i, v in enumerate(vals.reshape(len(gens), m)):
                totals[i] += float(v.sum())
                v = np.abs(v)
                max_abs = max(max_abs, float(v.max()))
                sum_abs += float(v.sum())
        batch_means.extend(t / n_each for t in totals)
    return _aggregate(batch_means, scale, n_each * mc.n_streams, max_abs, sum_abs)


# ---------------------------------------------------------------------------
# the operators


def _gamma_args(params, s):
    """Per slot the Gamma_p argument a_j(s), s one value per slot, of the
    kind's transform ratio prod_j Gamma_p(a_j) / Gamma_p(a_j + alpha_j):
    zeta_j + ((p+1)/2 - s_j) (first kind) or zeta_j + s_j (second kind).
    a_j(0) shapes the operator's beta proposal, a_j((p+1)/2) the
    density-mode beta draw; this order of operations keeps both exact."""
    half = (params.p + 1) / 2.0
    if params.kind == "first":
        return [zeta + (half - sj) for sj, (zeta, _) in zip(s, params.pairs)]
    return [zeta + sj for sj, (zeta, _) in zip(s, params.pairs)]


def _proposals(params):
    """Per slot the beta proposal and the power of |W| that reweights it:
    beta(a_j(0), alpha_j), or, where a_j(0) <= (p-1)/2 (second kind,
    z <= (p-1)/2), beta(a_j((p+1)/2), alpha_j) with |W|^(-(p+1)/2) weights
    (MatrixOpParams refuses a z at which that proposal fails too)."""
    bound, half = (params.p - 1) / 2.0, (params.p + 1) / 2.0
    at_zero, at_half = (_gamma_args(params, [s] * params.k) for s in (0.0, half))
    return [
        (BetaMatParams(params.p, a, alpha), 0.0) if a > bound
        else (BetaMatParams(params.p, b, alpha), half)
        for a, b, (_, alpha) in zip(at_zero, at_half, params.pairs)
    ]


def _operator_draws(kind, params, f, extra=()):
    """(scale, vals) of the operator of the given kind: scale is
    the Gamma_p ratio of the slots' beta proposals, with Gamma_p(x) of each
    x in extra in the numerator.  vals(rng, m, roots, log_u, c) is f at m
    beta draws W_j = K_j K_j' per slot, weighted by |W_j|^(-power), at
    V_j = c C_j C_j' with C_j = R_j K_j (first kind) or R_j K_j^(-T), for
    roots R_j = roots[j] with c R_j R_j' = U_j and log|U_j| = log_u[j].  A
    det_only law reads log|V_j| = log|U_j| +- log|W_j| alone, drawn from
    ceil(p/2) univariate betas per slot (randmat.matrix_beta_logdet), and
    needs no roots."""
    det_only = f.fn is None and not f.b
    sign = 1.0 if kind == "first" else -1.0
    props = _proposals(params)
    scale = gamma_ratio(GammaRatioSpec(
        params.p,
        tuple(prm.a for prm, _ in props) + tuple(extra),
        tuple(prm.a + prm.b for prm, _ in props),
    ))

    def vals(rng, m, roots, log_u, c):
        if det_only:
            logw = [matrix_beta_logdet(prm, rng, m) for prm, _ in props].__getitem__
            out = f.law(lambda j: log_u[j] + sign * logw(j), None, (m,))
        else:
            ks = [matrix_beta_factor(prm, rng, m) for prm, _ in props]

            def logw(j):
                return smallmat.logdet(ks[j])

            def factor(j):
                return smallmat.matmul(
                    roots[j], ks[j] if kind == "first" else smallmat.inv_factor(ks[j])
                )

            out = _f_of_factors(f, (m,), factor, lambda j: log_u[j] + sign * logw(j), c)
        weight = 0.0
        for j, (_, power) in enumerate(props):
            if power:
                weight = weight - power * logw(j)
        if isinstance(weight, np.ndarray):
            out = out * np.exp(weight)
        return out

    return scale, vals


def _kober_matrix(kind, params, f, U, mc):
    """The operator of the given kind at (U_1..U_k): _operator_draws with
    each slot's root R the Cholesky factor of U = R R', and log|U| from R.
    U^(1/2) = R H' (H orthogonal) would give the same law, as W and H W H'
    share it (Muirhead 1982, Thm 3.3.1), with other draws except at p = 1."""
    if params.kind != kind:
        raise DomainError(f"params.kind must be {kind!r}")
    U = [require_spd(u, "operator argument") for u in U]
    if len(U) != params.k:
        raise DomainError(f"need {params.k} matrix arguments, got {len(U)}")
    if f.k != params.k:
        raise DomainError(f"{f.family} has {f.k} slots, the operator {params.k}")
    mc = mc or MCConfig()
    scale, vals = _operator_draws(kind, params, f)
    roots = [smallmat.cholesky(smallmat.entries(u)) for u in U]
    log_u = [smallmat.logdet(r) for r in roots]
    return _mc_expectation(lambda rng, m: vals(rng, m, roots, log_u, 1.0), mc, scale=scale)


def kober_matrix_second(params, f, U, mc=None):
    """Second-kind operator value at (U_1..U_k), Monte Carlo estimate.

    Each slot reduces exactly to an expectation over W_j ~ matrix-beta:
    value = prod_j Gamma_p(z_j)/Gamma_p(z_j+a_j) * E[ f(U^(1/2) W^(-1) U^(1/2)) ].
    For det_power only log|V| = log|U| - log|W| is needed, and log|W| is
    drawn from ceil(p/2) univariate betas (Muirhead 1982, Thm 3.3.3, with
    Legendre duplication; randmat.matrix_beta_logdet).  Otherwise
    W^(-1) and |W| come from the triangular factor K of each beta draw, so
    V = C C' with C = R K^(-T), R the Cholesky factor of U = R R'.
    """
    return _kober_matrix("second", params, f, U, mc)


def kober_matrix_first(params, f, U, mc=None):
    """First-kind operator value at (U_1..U_k), Monte Carlo estimate.

    value = prod_j Gamma_p(z_j+(p+1)/2)/Gamma_p(z_j+(p+1)/2+a_j)
            * E[ f(U^(1/2) W U^(1/2)) ], W_j ~ matrix-beta(z_j+(p+1)/2, a_j).
    For det_power only log|V| = log|U| + log|W| is needed, and log|W| is
    drawn from ceil(p/2) univariate betas (Muirhead 1982, Thm 3.3.3, with
    Legendre duplication; randmat.matrix_beta_logdet).  Otherwise
    W = K K' comes from the beta factor, and V = C C' with C = R K, R the
    Cholesky factor of U = R R'.
    """
    return _kober_matrix("first", params, f, U, mc)


# ---------------------------------------------------------------------------
# density interpretation


def _beta_shapes(params, chain):
    """Per slot the shapes (a_j((p+1)/2), b_j) of the density-mode beta
    draws (_gamma_args: z_j + (p+1)/2 for the second kind, z_j for the
    first), with b_j = alpha_j or, with a ChainSpec, the chain-derived
    second shape, of which there must be exactly k."""
    seconds = [alpha for _, alpha in params.pairs]
    if chain is not None:
        seconds = param_chain(chain)
        if len(seconds) != params.k:
            raise ChainDomainError("chain rule output length does not match k")
    return list(zip(_gamma_args(params, [(params.p + 1) / 2.0] * params.k), seconds))


def density_constant(params, chain=None):
    """The constant c with operator output = c * (a probability density).

    Second kind: prod_j Gamma_p(z_j+(p+1)/2)/Gamma_p(b_j+z_j+(p+1)/2);
    first kind: prod_j Gamma_p(z_j)/Gamma_p(z_j+a_j).  With a ChainSpec, the
    chain-derived second shapes replace alpha_j slot by slot.
    """
    shapes = _beta_shapes(params, chain)
    return gamma_ratio(GammaRatioSpec(
        params.p, tuple(a for a, _ in shapes), tuple(a + b for a, b in shapes)
    ))


def density_mode_sample(params, f_sampler, stream, size, chain=None):
    """Draws (U_1..U_k) from the density proportional to the operator output.

    f_sampler(stream, size) -> per slot the lower-triangular factor C_j, a
    smallmat stack, of V_j = C_j C_j' drawn from the normalized f (as
    MatrixTestFunction.sampler returns).
    Second kind: U_j = C_j Y_j C_j', Y_j ~ beta(z_j+(p+1)/2, b_j);
    first kind:  U_j = C_j Y_j^(-1) C_j', Y_j ~ beta(z_j, a_j).
    C_j = V_j^(1/2) H_j with H_j orthogonal, and the beta law is invariant
    under Y -> H'YH, so U_j has the law of V_j^(1/2) Y_j V_j^(1/2).
    """
    shapes = _beta_shapes(params, chain)
    rng = _resolve_rng(stream)
    cs = f_sampler(rng, size)
    if len(cs) != params.k:
        raise DomainError(f"f_sampler returned {len(cs)} blocks, need {params.k}")
    out = []
    for (a, b), c in zip(shapes, cs):
        k = matrix_beta_factor(BetaMatParams(params.p, a, b), rng, size)
        y = k if params.kind == "second" else smallmat.inv_factor(k)
        out.append(smallmat.stack(smallmat.congruence(c, y)))
    return out


def _density_mode_logdets(params, f, stream, size, chain=None):
    """Per slot log|U_j| of density_mode_sample draws with f.sampler(), and
    no U_j: log|U_j| = log|V_j| + log|Y_j| (second kind) or - log|Y_j|
    (first kind).  log|V_j| is drawn from the chi-squares of the Bartlett
    diagonal of f's Wishart law (wishart_params, randmat.wishart_logdet),
    log|Y_j| from ceil(p/2) univariate betas (randmat.matrix_beta_logdet),
    slot by slot, V_j before Y_j."""
    dfs, scale = f.wishart_params()
    rng = _resolve_rng(stream)
    sign = 1.0 if params.kind == "second" else -1.0
    out = []
    for df, (a, b) in zip(dfs, _beta_shapes(params, chain)):
        log_v = wishart_logdet(params.p, df, rng, size) + 2.0 * params.p * math.log(scale)
        out.append(log_v + sign * matrix_beta_logdet(BetaMatParams(params.p, a, b), rng, size))
    return out
