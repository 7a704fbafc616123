"""Gauss-Jacobi based quadrature plumbing shared by the operator evaluators.

Endpoint singularities of the operator kernels are absorbed into the Jacobi
weight (1-t)^a t^b on (0, 1); node counts are doubled until two successive
estimates agree to the requested relative tolerance.
"""

import math
from dataclasses import dataclass
from functools import lru_cache, wraps
from importlib import import_module

import numpy as np

from .errors import DomainError, QuadratureNotConverged, RatioOverflow


# joint-grid evaluators (multivariable operators, the p = 1 tensor transform
# of callbacks) build and contract their grids in slabs of at most this many
# entries, 512 kB of float64, so each slab and its temporaries stay in cache;
# one k = 3 joint-grid call raises a process's peak memory by about 2 MB at
# this size and 6 MB at 2^18
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


# scipy's root finders, loaded at the first rule build
_roots_jacobi = scipy_special("roots_jacobi")
_roots_legendre = scipy_special("roots_legendre")


@lru_cache(maxsize=512)
def jacobi_rule_01(n, a, b):
    """Nodes and weights for int_0^1 (1-t)^a t^b f(t) dt; exponents > -1."""
    if a <= -1.0 or b <= -1.0:
        raise DomainError(f"Jacobi weight exponents must exceed -1, got ({a}, {b})")
    x, w = _roots_jacobi(n, a, b)
    return _frozen(0.5 * (x + 1.0), w * 0.5 ** (a + b + 1.0))


@lru_cache(maxsize=64)
def legendre_rule_01(n):
    """Nodes and weights for int_0^1 f(t) dt."""
    x, w = _roots_legendre(n)
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
            return cur, QuadInfo(nodes=n, last_delta=delta)
        prev = cur
    raise QuadratureNotConverged(
        f"no convergence after {q.max_doublings} doublings "
        f"(final nodes {n}, last delta {delta:.3e})"
    )


def doubling_sum(q, pieces):
    """converge_doubling of the n-node estimate sum_j c_j w_j @ g_j(t_j), the
    terms added in the order of the pieces.  A piece (ab, g, c) has the
    nodes t_j and weights w_j of jacobi_rule_01(n, *ab), or of
    legendre_rule_01(n) for ab None; a scalar g_j(t_j), such as a callback's
    constant output, stands for its value at every node."""

    def estimate(n):
        total = None
        for ab, g, c in pieces:
            t, w = legendre_rule_01(n) if ab is None else jacobi_rule_01(n, *ab)
            vals = np.asarray(g(t), dtype=float)
            term = c * float(w @ vals if vals.ndim else w.sum() * vals)
            total = term if total is None else total + term
        return total

    return converge_doubling(estimate, q)


def contract_slabs(values, first, others):
    """sum_(i, j..) first_i prod others_j values[i, j..] over a joint grid.

    The first axis is split into rows of CHUNK_ENTRIES // (the size of the
    other axes), at least one.  values(i, j) returns the grid's rows i:j, of
    shape (rows, n_2, ..., n_k); each slab is contracted with the other
    axes' weights last to first, then with the first axis's, before the next
    slab is built.
    """
    rows = max(1, CHUNK_ENTRIES // math.prod(len(w) for w in others))
    total = 0.0
    for i in range(0, len(first), rows):
        # vals stays alive until the next slab replaces it: freed within the
        # iteration, a 2 MB slab left the top of the heap free to be trimmed,
        # and every next slab faulted its pages in again (the k = 2 tensor
        # transform ran 3x slower, mostly in system time)
        vals = values(i, i + rows)
        out = vals
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
    positive, and returns the value, or (value, QuadInfo) with
    full_output=True; QuadInfo has nodes == 0 where the result is exactly
    zero without quadrature.  A float overflow raises RatioOverflow.
    """

    @wraps(op)
    def run(*args, q=None, full_output=False, **params):
        for a in np.atleast_1d(params.get("alpha", ())):
            _check_order(a)
        try:
            val, info = op(*args, q=q or QuadConfig(), **params)
        except OverflowError as exc:  # e.g. a power of a point near 0 or inf
            raise RatioOverflow(f"{op.__name__}: a value exceeds the floating range") from exc
        if full_output:
            return val, info
        return val

    return run
