"""Elementwise kernels for stacks of small p x p matrices, p in 1..MAX_DIM.

A stack of n matrices is held entry by entry: a p x p nested list whose
entry [i][j] is a contiguous array of length n, a float shared by every
member of the stack, or None for a structural zero (the upper triangle of
a lower-triangular factor).  Each kernel is the textbook scalar algorithm
run with whole-stack array operations, so a batch costs a few dozen numpy
calls however large n is, with no LAPACK call per matrix, and products skip
the structural zeros.  Kernels never write into their inputs, so a result
may share entry arrays with an input, and a symmetric result holds the same
array at [i][j] and [j][i].

An SPD matrix S is carried by a triangular factor T with a positive
diagonal and S = T T' (lower for cholesky and the samplers in randmat);
from it, S^(-1) = T^(-T) T^(-1) has the upper factor inv_factor(T) and
log|S| = 2 sum_i log T_ii, with no fresh decomposition.
"""

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite
from .matgamma import MAX_DIM


def entries(x):
    """A stack (..., p, p), or a single (p, p) matrix as floats, entry by
    entry; each entry has the stack's leading shape."""
    x = np.asarray(x, dtype=float)
    if x.ndim < 2 or x.shape[-1] != x.shape[-2]:
        raise DimensionMismatch(f"expected (p, p) or (..., p, p), got shape {x.shape}")
    p = x.shape[-1]
    if not 1 <= p <= MAX_DIM:
        raise DimensionMismatch(f"matrix dimension {p} outside 1..{MAX_DIM}")
    if x.ndim == 2:
        return [[float(v) for v in row] for row in x]
    e = np.ascontiguousarray(np.moveaxis(x, (-2, -1), (0, 1)))
    return [[e[i, j] for j in range(p)] for i in range(p)]


def stack(a):
    """The (n, p, p) array of an entry-by-entry stack."""
    p = len(a)
    shape = np.broadcast_shapes(*(np.shape(v) for row in a for v in row if v is not None))
    out = np.zeros(shape + (p, p))
    for i, row in enumerate(a):
        for j, v in enumerate(row):
            if v is not None:
                out[..., i, j] = v
    return out


def _dot(pairs):
    """sum x * y over the pairs, skipping structural zeros (None if all are)."""
    acc = None
    for x, y in pairs:
        if x is not None and y is not None:
            if acc is None:
                acc = x * y
            else:
                acc += x * y  # acc is a fresh product, never an input entry
    return acc


def _minus(x, s):
    """x - s, either of which may be a structural zero."""
    if s is None:
        return x
    return -s if x is None else x - s


def transpose(a):
    return [list(col) for col in zip(*a)]


def matmul(a, b):
    """A B."""
    cols = transpose(b)
    return [[_dot(zip(row, col)) for col in cols] for row in a]


def gram(a):
    """A A' for a p x m stack A (rows of any common length m)."""
    p = len(a)
    out = [[None] * p for _ in range(p)]
    for i in range(p):
        for j in range(i + 1):
            out[i][j] = out[j][i] = _dot(zip(a[i], a[j]))
    return out


def gram_trace(a):
    """tr(A A'), the sum of the squared entries of A."""
    return sum(_dot(zip(row, row)) for row in a)


def congruence(m, t):
    """M S M' for the SPD stack S = T T' given by its factor T."""
    return gram(matmul(m, t))


def cholesky(a):
    """Lower-triangular T with T T' = A; a non-positive pivot in any member
    raises NotPositiveDefinite."""
    p = len(a)
    t = [[None] * p for _ in range(p)]
    for j in range(p):
        pivot = _minus(a[j][j], _dot((x, x) for x in t[j][:j]))
        if not np.all(pivot > 0.0):
            raise NotPositiveDefinite(
                f"Cholesky pivot {j} is not positive (min {np.min(pivot):.3e})"
            )
        t[j][j] = np.sqrt(pivot)
        for i in range(j + 1, p):
            v = _minus(a[i][j], _dot(zip(t[i][:j], t[j][:j])))
            t[i][j] = None if v is None else v / t[j][j]
    return t


def tri_inv(t):
    """Inverse of a lower-triangular stack, by forward substitution."""
    p = len(t)
    out = [[None] * p for _ in range(p)]
    for i in range(p):
        out[i][i] = 1.0 / t[i][i]
        for j in range(i):
            s = _dot((t[i][k], out[k][j]) for k in range(j, i))
            out[i][j] = None if s is None else -s * out[i][i]
    return out


def inv_factor(t):
    """The upper-triangular factor T^(-T) of (T T')^(-1), T lower triangular."""
    return transpose(tri_inv(t))


def logdet(t):
    """log|T T'| = 2 sum_i log T_ii for a triangular factor T."""
    return 2.0 * sum(np.log(t[i][i]) for i in range(len(t)))
