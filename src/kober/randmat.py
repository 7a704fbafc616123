"""Seeded sampling of Wishart, matrix-beta and Dirichlet-chain random matrices.

All samplers are pure functions of an RngStream value: identical (seed,
stream_id) pairs reproduce identical draws.  Batches are stacked along the
leading axis with shape (n, p, p); wishart_factor and matrix_beta_factor
return the lower-triangular factors of the draws as smallmat stacks, from
which inverses and log-determinants follow without a decomposition.
"""

from dataclasses import dataclass

import numpy as np

from . import smallmat
from .errors import ChainDomainError, DomainError
from .matgamma import check_dim, ln_gamma_p
from .spd import _chain_forward

DEFAULT_SEED = 0xE4DE17


@dataclass(frozen=True)
class RngStream:
    """A reproducible substream: (seed, stream_id) -> independent generator."""

    seed: int = DEFAULT_SEED
    stream_id: int = 0

    def generator(self):
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.default_rng(ss)


class StreamBatch:
    """Several generators drawn as one stack: a draw of n * len(generators)
    values makes, on each generator in turn, the same call at size n that
    drawing its n values alone would make, and concatenates the results
    along the leading axis.  Each generator's values are therefore one
    contiguous slice, bit for bit the values it gives alone.  Only the
    methods the samplers here use are provided."""

    def __init__(self, generators, n):
        self.generators = list(generators)
        self.n = n

    def _draw(self, method, args, size):
        shape = size if isinstance(size, tuple) else (size,)
        if shape[0] != self.n * len(self.generators):
            raise DomainError(
                f"a batch of {len(self.generators)} streams of {self.n} draws "
                f"cannot draw {shape[0]}"
            )
        one = (self.n,) + shape[1:] if isinstance(size, tuple) else self.n
        return np.concatenate([getattr(g, method)(*args, size=one) for g in self.generators])

    def chisquare(self, df, size):
        return self._draw("chisquare", (df,), size)

    def standard_normal(self, size):
        return self._draw("standard_normal", (), size)


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
    if isinstance(stream, (np.random.Generator, StreamBatch)):
        return stream
    raise DomainError(f"expected RngStream, StreamBatch or Generator, got {type(stream)!r}")


def wishart_factor(p, df, stream, size=1):
    """Bartlett factor T of W_p(df, I) draws S = T T', as a smallmat stack.

    T is lower triangular: T_ii is the square root of a chi-square draw with
    df - i + 1 degrees of freedom (i = 1..p) and the subdiagonal entries are
    standard normal.
    """
    check_dim(p)
    if not df > p - 1:
        raise DomainError(f"Wishart needs df > p - 1, got df={df} at p={p}")
    rng = _resolve_rng(stream)
    t = [[None] * p for _ in range(p)]
    for i in range(p):
        t[i][i] = np.sqrt(rng.chisquare(df - i, size=size))
    lower = [(i, j) for i in range(p) for j in range(i)]  # np.tril_indices(p, -1) order
    normals = rng.standard_normal((size, len(lower))).T.copy()
    for (i, j), z in zip(lower, normals):
        t[i][j] = z
    return t


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
    of spd.dirichlet_chain_forward, X_j = S_{j-1}^{1/2} Y_j S_{j-1}^{1/2},
    S_j = S_{j-1} - X_j, S_0 = I, one slot at a time.
    """
    if not pairs:
        raise ChainDomainError("chain needs at least one beta parameter pair")
    p = pairs[0].p
    if any(prm.p != p for prm in pairs):
        raise ChainDomainError("all chain slots must share the dimension p")
    rng = _resolve_rng(stream)
    ys = (sample_matrix_beta(prm, rng, size) for prm in pairs)
    return _chain_forward(ys, (size, p, p))


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
