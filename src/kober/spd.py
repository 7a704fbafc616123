"""Symmetric positive definite matrix utilities and change-of-variable Jacobians.

Matrices are plain numpy arrays of shape (p, p), or (..., p, p) for batches.
The packed coordinate convention used for finite-difference Jacobians is the
upper triangle in row-major order: (x11, x12, ..., x1p, x22, x23, ...).
"""

from dataclasses import dataclass

import numpy as np

from . import smallmat
from .errors import DimensionMismatch, NotPositiveDefinite, OutOfRange, SingularMatrix
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


def require_symmetric(a, tol=1e-10):
    a = _as_square(a)
    if not np.allclose(a, np.swapaxes(a, -1, -2), rtol=0.0, atol=tol * (1.0 + np.abs(a).max())):
        raise DimensionMismatch("matrix is not symmetric")
    return 0.5 * (a + np.swapaxes(a, -1, -2))


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
    a = require_symmetric(a)
    chk = spd_check(a)
    if not chk.is_pd:
        raise NotPositiveDefinite(
            f"{what} is not positive definite (min eigenvalue {chk.min_eigenvalue:.3e})"
        )
    return a


def _spd_power(a, power):
    """A^power, power = +-1/2, for a stack of SPD matrices: closed form at
    p = 2, eigendecomposition otherwise (and for 2 x 2 members the closed
    form cannot certify as positive definite)."""
    if a.shape[-1] == 2:
        tr = (a[..., 0, 0] + a[..., 1, 1])[..., None, None]
        det = (a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0])[..., None, None]
        if np.all(tr > 0.0) and np.all(det > 0.0):
            # A^(1/2) = (A + s I) / t with s = |A|^(1/2), t = (tr A + 2 s)^(1/2);
            # its inverse, the adjugate over the determinant s, is
            # ((tr A + s) I - A) / (s t)
            s = np.sqrt(det)
            t = np.sqrt(tr + 2.0 * s)
            if power > 0:
                return (a + s * np.eye(2)) / t
            return ((tr + s) * np.eye(2) - a) / (s * t)
    w, q = np.linalg.eigh(a)
    if w.min() <= 0.0:
        raise NotPositiveDefinite(
            f"matrix power {power} requires a positive definite matrix "
            f"(min eigenvalue {w.min():.3e})"
        )
    return (q * (w**power)[..., None, :]) @ np.swapaxes(q, -1, -2)


def sym_sqrt(a, check=True):
    """Symmetric positive definite square root: closed form at p = 2,
    eigendecomposition at p = 1 and 3."""
    a = require_symmetric(a) if check else np.asarray(a, dtype=float)
    return _spd_power(a, 0.5)


def sym_inv_sqrt(a, check=True):
    """Symmetric inverse square root, the inverse of sym_sqrt's root."""
    a = require_symmetric(a) if check else np.asarray(a, dtype=float)
    return _spd_power(a, -0.5)


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
    """Map independent-coordinates (y_1..y_k) to chain coordinates (x_1..x_k).

    x_j = S_{j-1}^{1/2} y_j S_{j-1}^{1/2} with the complement recursion
    S_0 = I, S_j = S_{j-1} - x_j = S_{j-1}^{1/2} (I - y_j) S_{j-1}^{1/2};
    this is the congruence form under which the complement of every partial
    sum factors, so independent y_j give chain-distributed x_j.  For p = 1 it
    reduces to stick breaking x_j = y_j prod_{i<j}(1 - y_i).
    """
    ys = [require_symmetric(y) for y in ys]
    return _chain_forward(ys, ys[0].shape)


# both directions of the chain map refuse a complement S_j whose smallest
# eigenvalue is at most this margin, so the forward map's output always
# maps back
CHAIN_MARGIN = 1e-12


def _check_complement(s, what):
    """OutOfRange unless every member of the stack s has its smallest
    eigenvalue above CHAIN_MARGIN, i.e. s - CHAIN_MARGIN I has a Cholesky
    factor; the eigenvalues are computed only for the message."""
    try:
        smallmat.cholesky(smallmat.entries(s - CHAIN_MARGIN * np.eye(s.shape[-1])))
    except NotPositiveDefinite:
        w = np.linalg.eigvalsh(s).min()
        raise OutOfRange(
            f"{what} reaches the boundary (complement min eigenvalue {w:.3e})"
        ) from None


def _chain_forward(ys, shape):
    """The congruence loop of dirichlet_chain_forward over an iterable of
    symmetric stacks of the given shape, taken as they come."""
    eye = np.broadcast_to(np.eye(shape[-1]), shape)
    xs = []
    s = eye.copy()
    for j, y in enumerate(ys, start=1):
        root = sym_sqrt(s, check=False)
        xs.append(root @ y @ root)
        s = root @ (eye - y) @ root
        _check_complement(s, f"chain coordinate y_{j}")
    return xs


def dirichlet_chain_inverse(xs):
    """Inverse of dirichlet_chain_forward.

    y_j = (I - x_1 - ... - x_{j-1})^{-1/2} x_j (I - x_1 - ... - x_{j-1})^{-1/2},
    requiring every partial complement I - x_1 - ... - x_j to stay positive
    definite.
    """
    xs = [require_symmetric(x) for x in xs]
    p = xs[0].shape[-1]
    remainder = np.broadcast_to(np.eye(p), xs[0].shape).copy()
    ys = []
    for j, x in enumerate(xs, start=1):
        r = sym_inv_sqrt(remainder, check=False)
        ys.append(r @ x @ np.swapaxes(r, -1, -2))
        remainder = remainder - x
        what = f"partial sum x_1 + ... + x_{j}"
        _check_complement(remainder, "total sum of chain coordinates" if j == len(xs) else what)
    return ys


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


def fd_jacobian_det(map_fn, point, step=None):
    """Jacobian determinant magnitude of a packed-coordinate map, by central
    differences.

    map_fn takes and returns 1-d packed coordinate arrays of equal length.
    """
    x0 = np.asarray(point, dtype=float)
    n = x0.size
    if step is None:
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
