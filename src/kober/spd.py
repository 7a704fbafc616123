"""Symmetric positive definite matrix utilities and change-of-variable Jacobians.

Matrices are plain numpy arrays of shape (p, p), or (..., p, p) for batches.
The packed coordinate convention used for finite-difference Jacobians is the
upper triangle in row-major order: (x11, x12, ..., x1p, x22, x23, ...).

Every congruence by an SPD S (the chain map here, the operators' roots in
matrix_ops) takes the lower Cholesky factor L of S = L L', not S^(1/2).  As
L = S^(1/2) H with H orthogonal and the matrix beta is invariant under
Y -> H Y H' (Muirhead 1982, Thm 3.3.1; Gupta & Nagar 2000, ch. 5), L Y L'
has the law of S^(1/2) Y S^(1/2), and |L| = |S|^(1/2) gives the same
Jacobian |S|^((p+1)/2).
"""

from dataclasses import dataclass

import numpy as np

from . import smallmat
from .errors import DimensionMismatch, DomainError, NotPositiveDefinite, OutOfRange, SingularMatrix
from .matgamma import check_dim


@dataclass(frozen=True)
class SpdCheck:
    is_pd: bool
    min_eigenvalue: float


def _as_square(a):
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    check_dim(a.shape[-1])
    return a


def require_symmetric(a):
    """a symmetrized, after checking that its entries are finite
    (DomainError) and that it is symmetric within 1e-10 (1 + max |a_ij|)
    (DimensionMismatch)."""
    a = _as_square(a)
    big = np.abs(a).max()
    if not np.isfinite(big):
        raise DomainError("matrix has a non-finite entry")
    at = np.swapaxes(a, -1, -2)
    if np.abs(a - at).max() > 1e-10 * (1.0 + big):
        raise DimensionMismatch("matrix is not symmetric")
    return 0.5 * (a + at)


def pack(a):
    """Packed upper-triangle coordinates of a symmetric matrix, row-major."""
    a = require_symmetric(a)
    p = a.shape[-1]
    iu = np.triu_indices(p)
    return a[..., iu[0], iu[1]]


def unpack(v, p):
    """Inverse of pack: rebuild the full symmetric matrix."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != p * (p + 1) // 2:
        raise DimensionMismatch(f"packed length {v.shape[-1]} does not match p={p}")
    iu = np.triu_indices(p)
    out = np.zeros(v.shape[:-1] + (p, p))
    out[..., iu[0], iu[1]] = v
    lower = np.swapaxes(out, -1, -2).copy()
    out = out + lower
    diag = np.arange(p)
    out[..., diag, diag] *= 0.5
    return out


def spd_check(a):
    a = require_symmetric(a)
    w = np.linalg.eigvalsh(a)
    mn = float(w.min())
    return SpdCheck(is_pd=mn > 0.0, min_eigenvalue=mn)


def require_spd(a, what="matrix"):
    """a symmetrized, after checking it is symmetric and positive definite."""
    a = require_symmetric(a)
    mn = float(np.linalg.eigvalsh(a).min())
    if not mn > 0.0:
        raise NotPositiveDefinite(f"{what} is not positive definite (min eigenvalue {mn:.3e})")
    return a


def sym_sqrt(a):
    """The symmetric positive definite square root, by eigendecomposition;
    no congruence in the library takes it (see above)."""
    w, q = np.linalg.eigh(require_symmetric(a))
    if not w.min() > 0.0:
        raise NotPositiveDefinite(
            f"the square root requires a positive definite matrix (min eigenvalue {w.min():.3e})"
        )
    return (q * np.sqrt(w)[..., None, :]) @ np.swapaxes(q, -1, -2)


def loewner_lt(a, b):
    """True iff a < b in the Loewner order, i.e. b - a is positive definite."""
    a = require_symmetric(a)
    b = require_symmetric(b)
    if a.shape != b.shape:
        raise DimensionMismatch("operands of loewner_lt must share a shape")
    return spd_check(b - a).is_pd


def jac_congruence(a):
    """Jacobian magnitude of the congruence x -> a x a' on symmetric matrices."""
    a = _as_square(a)
    d = float(np.linalg.det(a))
    if d == 0.0:
        raise SingularMatrix("congruence by a singular matrix has no inverse")
    p = a.shape[-1]
    return abs(d) ** (p + 1)


def jac_inverse(y):
    """Jacobian magnitude of the matrix inversion map on SPD matrices."""
    y = require_spd(y, "inversion point")
    p = y.shape[-1]
    return float(np.linalg.det(y)) ** (-(p + 1))


def dirichlet_chain_forward(ys):
    """Map independent coordinates (y_1..y_k) to chain coordinates (x_1..x_k).

    x_j = L_(j-1) y_j L_(j-1)', with S_0 = I, S_j = S_(j-1) - x_j and
    L_j the lower Cholesky factor of S_j; S_j = L_(j-1) (I - y_j) L_(j-1)'
    is the congruence form under which the complement of every partial sum
    factors, so independent beta y_j give chain-distributed x_j, as they
    would with S_(j-1)^(1/2) for L_(j-1) (see above).  For p = 1 it reduces
    to stick breaking x_j = y_j prod_{i<j}(1 - y_i).
    """
    ys = [require_symmetric(y) for y in ys]
    return _chain(ys[0].shape[-1], map(smallmat.entries, ys), forward=True)


def dirichlet_chain_inverse(xs):
    """Inverse of dirichlet_chain_forward: y_j = L_r^(-1) x_j L_r^(-T), with
    L_r the lower Cholesky factor of I - x_1 - ... - x_(j-1), requiring every
    partial complement I - x_1 - ... - x_j to stay positive definite."""
    xs = [require_symmetric(x) for x in xs]
    return _chain(xs[0].shape[-1], map(smallmat.entries, xs), forward=False)


# both directions of the chain map refuse a complement S_j whose smallest
# eigenvalue is at most this margin, so the forward map's output always
# maps back
CHAIN_MARGIN = 1e-12


def _chain(p, items, forward):
    """Both chain maps over an iterable of symmetric p x p smallmat stacks,
    taken as they come, as dense stacks: with L the Cholesky factor of
    S_(j-1), forward maps y_j to x_j = L y_j L', inverse x_j to
    y_j = L^(-1) x_j L^(-T); both step S_j = S_(j-1) - x_j, so the inverse
    meets the forward map's factors.  OutOfRange where S_j - CHAIN_MARGIN I
    has no Cholesky factor; the congruences take S_j's own, so stay exact."""
    s = [[1.0 if a == b else None for b in range(p)] for a in range(p)]
    margin = [[CHAIN_MARGIN if a == b else None for b in range(p)] for a in range(p)]
    out = []
    for j, item in enumerate(items, start=1):
        t = smallmat.cholesky(s)
        x = smallmat.sandwich(t, item) if forward else item
        out.append(x if forward else smallmat.sandwich(smallmat.tri_inv(t), x))
        s = smallmat.sub(s, x)
        try:
            smallmat.cholesky(smallmat.sub(s, margin))
        except NotPositiveDefinite:
            w = np.linalg.eigvalsh(smallmat.stack(s)).min()
            what = f"chain coordinate y_{j}" if forward else f"partial sum x_1 + ... + x_{j}"
            raise OutOfRange(
                f"{what} reaches the boundary (complement min eigenvalue {w:.3e})"
            ) from None
    return [smallmat.stack(x) for x in out]


def jac_dirichlet_chain(ys):
    """Jacobian magnitude of dirichlet_chain_forward at (y_1..y_k).

    Equals prod_j det(I - y_j)^((k-j)(p+1)/2); the j = k factor is 1.
    """
    ys = [require_symmetric(y) for y in ys]
    k = len(ys)
    p = ys[0].shape[-1]
    out = 1.0
    for j, y in enumerate(ys, start=1):
        d = float(np.linalg.det(np.eye(p) - y))
        if d <= 0.0:
            raise OutOfRange("chain coordinate reaches the boundary of O < y < I")
        out *= d ** ((k - j) * (p + 1) / 2.0)
    return out


def fd_jacobian_det(map_fn, point):
    """Jacobian determinant magnitude of a packed-coordinate map, by central
    differences with step 1e-5 (1 + max |point|).

    map_fn takes and returns 1-d packed coordinate arrays of equal length.
    """
    x0 = np.asarray(point, dtype=float)
    n = x0.size
    step = 1e-5 * (1.0 + float(np.abs(x0).max()))
    cols = np.empty((n, n))
    for i in range(n):
        delta = np.zeros(n)
        delta[i] = step
        fp = np.asarray(map_fn(x0 + delta), dtype=float)
        fm = np.asarray(map_fn(x0 - delta), dtype=float)
        if fp.size != n or fm.size != n:
            raise DimensionMismatch("map_fn must preserve the coordinate dimension")
        cols[:, i] = (fp - fm) / (2.0 * step)
    return abs(float(np.linalg.det(cols)))
