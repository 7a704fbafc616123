"""Gauss-Jacobi based quadrature plumbing shared by the operator evaluators.

Endpoint singularities of the operator kernels are absorbed into the Jacobi
weight (1-t)^a t^b on (0, 1); node counts are doubled until two successive
estimates agree to the requested relative tolerance.  doubling_sum is the one
body of every such estimate, on one axis or on the joint grid of several, and
grid_sum the one sum over a joint grid.
"""

import math
from dataclasses import dataclass
from functools import lru_cache, wraps
from importlib import import_module

import numpy as np

from .errors import DomainError, QuadratureNotConverged, RatioOverflow


# grid_sum (multivariable operators, the p = 1 tensor transform of callbacks)
# builds and contracts its joint grid in slabs of at most this many entries,
# 512 kB of float64, so each slab and its temporaries stay in cache; one
# k = 3 joint-grid call raises a process's peak memory by about 2 MB at this
# size and 6 MB at 2^18
CHUNK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class QuadConfig:
    base_nodes: int = 64
    max_doublings: int = 6
    rel_tol: float = 1e-9


@dataclass(frozen=True)
class QuadInfo:
    nodes: int
    last_delta: float


# an operator result that is exactly zero, reached without quadrature
EXACT_ZERO = (0.0, QuadInfo(nodes=0, last_delta=0.0))


def scipy_special(name):
    """scipy.special.<name>, imported on the first call: `import kober` leaves
    scipy unloaded, so commands that build no rule and call no special
    function start without it."""
    fn = None

    def call(*args):
        nonlocal fn
        if fn is None:
            fn = getattr(import_module("scipy.special"), name)
        return fn(*args)

    return call


# rules of up to this many nodes come from _gauss_jacobi, larger ones from
# scipy, whose O(n^2) root finder overtakes the dense O(n^3) eigensolver
# above it (256 nodes: 5.0 against 3.6 ms; 1024: 169 against 54 ms)
DENSE_NODES = 128

# scipy's root finders, loaded at the first rule build above DENSE_NODES
_roots_jacobi = scipy_special("roots_jacobi")
_roots_legendre = scipy_special("roots_legendre")


def _gauss_jacobi(n, a, b):
    """The n-node Gauss rule for int_-1^1 (1-x)^a (1+x)^b f(x) dx by Golub and
    Welsch (1969): the nodes are the eigenvalues of the symmetric Jacobi
    matrix of the monic three-term recurrence, and the weights, proportional
    to 1 / ((1 - x_i^2) prod_(j != i) (x_i - x_j)^2), are summed in logs and
    scaled to the mass 2^(a+b+1) B(a+1, b+1)."""
    # a + 1 and b + 1 are exact for exponents near -1, so every sum below
    # adds terms of one sign and keeps its relative accuracy there
    a1, b1 = a + 1.0, b + 1.0
    c = a1 + b1  # a + b + 2
    k = np.arange(1.0, n)
    s = 2.0 * (k - 1.0) + c  # 2k + a + b
    diag = np.append((b - a) / c, (b - a) * (b + a) / (s * (s + 2.0)))
    sub = 4.0 * k * (k - 1.0 + a1) * (k - 1.0 + b1) / (s * s * (s + 1.0))
    # times (k + a + b) / (s - 1), which is 1 at k = 1, 0 / 0 when a + b = -1
    sub[1:] *= (k[1:] - 2.0 + c) / (s[1:] - 1.0)
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(np.sqrt(sub), 1), UPLO="U")
    gaps = np.abs(x[:, None] - x)
    np.fill_diagonal(gaps, 1.0)
    log_w = -np.log1p(-x) - np.log1p(x) - 2.0 * np.log(gaps).sum(axis=1)
    w = np.exp(log_w - log_w.max())
    log_mass = (c - 1.0) * math.log(2.0) + math.lgamma(a1) + math.lgamma(b1) - math.lgamma(c)
    return x, w * (math.exp(log_mass) / w.sum())


@lru_cache(maxsize=512)
def jacobi_rule_01(n, a, b):
    """Nodes and weights for int_0^1 (1-t)^a t^b f(t) dt; exponents > -1."""
    if a <= -1.0 or b <= -1.0:
        raise DomainError(f"Jacobi weight exponents must exceed -1, got ({a}, {b})")
    x, w = (_gauss_jacobi if n <= DENSE_NODES else _roots_jacobi)(n, a, b)
    return _frozen(0.5 * (x + 1.0), w * 0.5 ** (a + b + 1.0))


@lru_cache(maxsize=64)
def legendre_rule_01(n):
    """Nodes and weights for int_0^1 f(t) dt."""
    x, w = _gauss_jacobi(n, 0.0, 0.0) if n <= DENSE_NODES else _roots_legendre(n)
    return _frozen(0.5 * (x + 1.0), 0.5 * w)


def _frozen(*arrays):
    # cached rules are shared by every caller, so an in-place update by one
    # would silently corrupt the rule for all later ones
    for a in arrays:
        a.setflags(write=False)
    return arrays


def converge_doubling(evaluate, q: QuadConfig):
    """Double the node count until successive estimates stabilise.

    evaluate(n) must return the n-node estimate. Returns (value, QuadInfo);
    raises RatioOverflow at the first estimate that is not finite, and
    QuadratureNotConverged when the doubling budget is exhausted.
    """

    def finite(n):
        val = evaluate(n)
        if not math.isfinite(val):
            raise RatioOverflow(f"the {n}-node estimate is {val}: the integrand is out of range")
        return val

    n = q.base_nodes
    prev = finite(n)
    delta = np.inf
    for _ in range(q.max_doublings):
        n *= 2
        cur = finite(n)
        delta = abs(cur - prev)
        if delta <= q.rel_tol * max(abs(cur), 1e-300):
            return cur, QuadInfo(nodes=n, last_delta=float(delta))
        prev = cur
    raise QuadratureNotConverged(
        f"no convergence after {q.max_doublings} doublings "
        f"(final nodes {n}, last delta {delta:.3e})"
    )


def doubling_sum(q, pieces):
    """converge_doubling of the n-node estimate sum_j c_j S_j, the terms
    added in the order of the pieces: the one body of every doubling
    estimate.  A piece (rules, g, c) names one rule per axis, the nodes and
    weights of jacobi_rule_01(n, *ab) for a pair ab, of legendre_rule_01(n)
    for None, or rule(n) for a callable rule.  S_j is w @ g(t) on one axis,
    where a scalar g(t), such as a callback's constant output, stands for its
    value at every node, and grid_sum(g, nodes, weights) on two or more."""

    def estimate(n):
        total = None
        for rules, g, c in pieces:
            axes = [ab(n) if callable(ab) else legendre_rule_01(n) if ab is None
                    else jacobi_rule_01(n, *ab) for ab in rules]
            if len(axes) > 1:
                s = grid_sum(g, *zip(*axes))
            else:
                (t, w), = axes
                vals = np.asarray(g(t), dtype=float)
                s = w @ vals if vals.ndim else w.sum() * vals
            term = c * float(s)
            total = term if total is None else total + term
        return total

    return converge_doubling(estimate, q)


def grid_sum(g, nodes, weights):
    """sum_(i, j..) weights_1[i] prod weights_j[..] g(nodes_1[i], nodes_2[..], ..)
    over the joint grid of the k axes.

    g receives one array per axis, axis j of its own dimension: the first
    axis's rows (rows, 1, ..), the others (1, .., n_j, ..), and returns the
    slab of shape (rows, n_2, ..., n_k), or of ndim k with 1 on the axes it
    ignores, or a scalar; any other shape raises DomainError.  The first
    axis is split into rows of CHUNK_ENTRIES // (the size of the other
    axes), at least one; each slab is contracted with the other axes'
    weights last to first, then with the first axis's, before the next slab
    is built.
    """
    first, others = weights[0], weights[1:]
    k = len(nodes)
    sizes = tuple(len(w) for w in others)
    rest = np.meshgrid(*nodes, indexing="ij", sparse=True)[1:]
    rows = max(1, CHUNK_ENTRIES // math.prod(sizes))
    total = 0.0
    for i in range(0, len(first), rows):
        head = nodes[0][i : i + rows].reshape((-1,) + (1,) * (k - 1))
        shape = (len(head),) + sizes
        # vals stays alive until the next slab replaces it: freed within the
        # iteration, a 2 MB slab left the top of the heap free to be trimmed,
        # and every next slab faulted its pages in again (the k = 2 tensor
        # transform ran 3x slower, mostly in system time)
        vals = np.asarray(g(head, *rest), dtype=float)
        if vals.ndim not in (0, k) or any(m not in (1, n) for m, n in zip(vals.shape, shape)):
            raise DomainError(
                f"the joint integrand returned shape {vals.shape} on a slab of shape {shape}"
            )
        out = np.broadcast_to(vals, shape)
        for w in reversed(others):
            out = out @ w
        total += float(first[i : i + rows] @ out)
    return total


def _check_order(alpha):
    if not alpha > 0:
        raise DomainError(f"fractional order must be positive, got {alpha}")


def quad_operator(op):
    """The result contract of the quadrature-backed operators.

    op returns (value, QuadInfo) and receives q as a QuadConfig.  The
    decorated operator takes q=None for the default QuadConfig, checks that
    every fractional order in alpha (a scalar, or one per variable) is
    positive, and returns the value as a Python float, or (value, QuadInfo)
    with full_output=True; QuadInfo.last_delta is a Python float as well,
    and nodes == 0 where the result is exactly zero without quadrature.  A
    float overflow, and so a value that is not finite, raises RatioOverflow;
    numpy's overflow warnings are off for the call (once, not at each
    evaluation of the integrand), as the error takes their place.
    """

    @wraps(op)
    def run(*args, q=None, full_output=False, **params):
        for a in np.atleast_1d(params.get("alpha", ())):
            _check_order(a)
        try:
            with np.errstate(over="ignore"):
                val, info = op(*args, q=q or QuadConfig(), **params)
        except OverflowError as exc:  # e.g. a power of a point near 0 or inf
            raise RatioOverflow(f"{op.__name__}: a value exceeds the floating range") from exc
        val = float(val)
        if not math.isfinite(val):
            raise RatioOverflow(f"{op.__name__}: the value {val} is out of the floating range")
        if full_output:
            return val, info
        return val

    return run
