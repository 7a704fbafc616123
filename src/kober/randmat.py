"""Seeded sampling of Wishart, matrix-beta and Dirichlet-chain random matrices.

All samplers are pure functions of an RngStream value: identical (seed,
stream_id) pairs reproduce identical draws.  Batches are stacked along the
leading axis with shape (n, p, p); wishart_factor and matrix_beta_factor
return the lower-triangular factors of the draws as smallmat stacks, from
which inverses and log-determinants follow without a decomposition.  An
estimate that reads only determinants draws no matrix: wishart_logdet
draws log|S| of a Wishart S from the p chi-squares of its Bartlett
diagonal, and matrix_beta_logdet draws log|X| of a matrix-beta X from
ceil(p/2) univariate betas.
"""

from dataclasses import dataclass

import numpy as np

from . import smallmat
from .errors import ChainDomainError, DomainError
from .matgamma import check_dim, ln_gamma_p
from .spd import _chain

DEFAULT_SEED = 0xE4DE17


@dataclass(frozen=True)
class RngStream:
    """A reproducible substream: (seed, stream_id) -> independent generator."""

    seed: int = DEFAULT_SEED
    stream_id: int = 0

    def generator(self):
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.default_rng(ss)


@dataclass(frozen=True)
class BetaMatParams:
    """Shape parameters of the type-1 matrix-variate beta on O < X < I."""

    p: int
    a: float
    b: float

    def __post_init__(self):
        check_dim(self.p)
        bound = (self.p - 1) / 2.0
        if not (self.a > bound and self.b > bound):
            raise DomainError(
                f"beta shapes ({self.a}, {self.b}) must both exceed (p-1)/2 = {bound}"
            )


def _resolve_rng(stream):
    if isinstance(stream, RngStream):
        return stream.generator()
    if isinstance(stream, np.random.Generator):
        return stream
    raise DomainError(f"expected RngStream or Generator, got {type(stream)!r}")


def _bartlett_diagonal(p, df, rng, size):
    """The squared Bartlett diagonal of W_p(df, I) draws: chi-square draws
    with df - i + 1 degrees of freedom, i = 1..p, in that order."""
    check_dim(p)
    if not df > p - 1:
        raise DomainError(f"Wishart needs df > p - 1, got df={df} at p={p}")
    return [rng.chisquare(df - i, size=size) for i in range(p)]


def wishart_factor(p, df, stream, size=1):
    """Bartlett factor T of W_p(df, I) draws S = T T', as a smallmat stack.

    T is lower triangular: T_ii is the square root of a chi-square draw with
    df - i + 1 degrees of freedom (i = 1..p) and the subdiagonal entries are
    standard normal.
    """
    rng = _resolve_rng(stream)
    t = [[None] * p for _ in range(p)]
    for i, x in enumerate(_bartlett_diagonal(p, df, rng, size)):
        t[i][i] = np.sqrt(x)
    lower = [(i, j) for i in range(p) for j in range(i)]  # np.tril_indices(p, -1) order
    normals = rng.standard_normal((size, len(lower))).T.copy()
    for (i, j), z in zip(lower, normals):
        t[i][j] = z
    return t


def wishart_logdet(p, df, stream, size=1):
    """log|S| of W_p(df, I) draws S, without S: the sum of the logs of the
    Bartlett diagonal's chi-squares, the draws with which wishart_factor
    on the same stream begins."""
    return sum(np.log(x) for x in _bartlett_diagonal(p, df, _resolve_rng(stream), size))


def sample_wishart(p, df, stream, size=1):
    """Draws from the standard Wishart W_p(df, I), df > p-1 real, as an
    (size, p, p) stack: T T' of the Bartlett factor T of wishart_factor."""
    return smallmat.stack(smallmat.gram(wishart_factor(p, df, stream, size)))


def matrix_beta_factor(params, stream, size=1):
    """Lower-triangular factor K of type-1 matrix-beta draws X = K K'.

    With S1 = T1 T1' ~ W_p(2a, I) and S2 ~ W_p(2b, I) independent and
    S1 + S2 = L L' (Cholesky), X = L^(-1) S1 L^(-T) ~ beta(a, b), so
    K = L^(-1) T1 (Muirhead 1982, Aspects of Multivariate Statistical Theory,
    Thm 3.3.1).  The symmetric-root construction (S1+S2)^(-1/2) S1
    (S1+S2)^(-1/2) has the same law; the two differ draw by draw by an
    orthogonal conjugation X -> H'XH, so |X|, tr X and tr X^(-1) agree per
    draw.  X^(-1) and |X| follow from K (smallmat.inv_factor, smallmat.logdet)
    without a decomposition of X.
    """
    rng = _resolve_rng(stream)
    t1 = wishart_factor(params.p, 2.0 * params.a, rng, size)
    t2 = wishart_factor(params.p, 2.0 * params.b, rng, size)
    # S1 + S2 is the Gram product of the p x 2p block row [T1 T2]
    s = smallmat.gram([r1 + r2 for r1, r2 in zip(t1, t2)])
    return smallmat.matmul(smallmat.tri_inv(smallmat.cholesky(s)), t1)


def matrix_beta_logdet(params, stream, size=1):
    """log|X| of type-1 matrix-beta draws X ~ beta_p(a, b), without X.

    |X| has the law of u_1 ... u_p with u_i ~ beta(a - (i-1)/2, b)
    independent (Muirhead 1982, Aspects of Multivariate Statistical Theory,
    Thm 3.3.3).  By Legendre's duplication formula a pair u_i u_(i+1), of
    shapes (c, b) and (c - 1/2, b), has the law of v^2 with
    v ~ beta(2c - 1, 2b): their Mellin moments agree.  So u_1 u_2, u_3 u_4,
    ... are drawn as one beta each, and for odd p u_p alone.  Each beta of
    shapes (g, h) is x / (x + y), x ~ chi2(2g) and y ~ chi2(2h), drawn in
    that order, pair by pair.  The logs are summed rather than the betas
    multiplied first: near the bound a first shape, 2a - 1 at p = 2 or
    a - (p-1)/2 at p = 3, is near 0, and then P(beta < t) is about
    t^shape, so a product can underflow to 0 where every factor, and so
    every log, is still finite.
    """
    rng = _resolve_rng(stream)
    a, b, p = params.a, params.b, params.p

    def log_beta(g, h):
        x = rng.chisquare(2.0 * g, size=size)
        return np.log(x / (x + rng.chisquare(2.0 * h, size=size)))

    out = 0.0
    for i in range(0, p - 1, 2):
        out = out + 2.0 * log_beta(2.0 * (a - i / 2.0) - 1.0, 2.0 * b)
    if p % 2:
        out = out + log_beta(a - (p - 1) / 2.0, b)
    return out


def sample_matrix_beta(params, stream, size=1):
    """Type-1 matrix beta draws, an (size, p, p) stack of X = K K' with K
    from matrix_beta_factor.  The law is that of (S1+S2)^(-1/2) S1
    (S1+S2)^(-1/2) with S1 ~ W_p(2a, I) and S2 ~ W_p(2b, I) independent;
    single draws differ from that construction by an orthogonal conjugation."""
    return smallmat.stack(smallmat.gram(matrix_beta_factor(params, stream, size)))


def sample_dirichlet_chain(pairs, stream, size=1):
    """Chain-distributed (X_1..X_k) from independent Y_j ~ matrix-beta(pairs[j]).

    pairs is the list of derived BetaMatParams, one per chain slot (the
    parameter arithmetic lives in matrix_ops.param_chain; this sampler is
    distribution rule agnostic).  The draws go through the congruence chain
    of spd.dirichlet_chain_forward, X_j = L_(j-1) Y_j L_(j-1)' with L_(j-1)
    the Cholesky factor of S_(j-1), S_j = S_(j-1) - X_j, S_0 = I, one slot
    at a time; S_(j-1)^(1/2) = L_(j-1) H' (H orthogonal) would give the same
    law, as Y_j and H Y_j H' share it (Muirhead 1982, Thm 3.3.1).
    """
    if not pairs:
        raise ChainDomainError("chain needs at least one beta parameter pair")
    p = pairs[0].p
    if any(prm.p != p for prm in pairs):
        raise ChainDomainError("all chain slots must share the dimension p")
    rng = _resolve_rng(stream)
    ys = (smallmat.entries(sample_matrix_beta(prm, rng, size)) for prm in pairs)
    return _chain(p, ys, forward=True)


# closed-form determinant moments used as oracles for the samplers


def wishart_det_moment(p, df, h):
    """E|X|^h = 2^(p h) Gamma_p(df/2 + h) / Gamma_p(df/2) for X ~ W_p(df, I)."""
    return float(
        np.exp(p * h * np.log(2.0) + ln_gamma_p(p, df / 2.0 + h) - ln_gamma_p(p, df / 2.0))
    )


def matrix_beta_det_moment(params, h):
    """E|X|^h for the type-1 matrix beta."""
    p, a, b = params.p, params.a, params.b
    return float(
        np.exp(
            ln_gamma_p(p, a + h) + ln_gamma_p(p, a + b) - ln_gamma_p(p, a) - ln_gamma_p(p, a + b + h)
        )
    )
