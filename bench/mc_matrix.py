"""mc-matrix: a fixed list of seeded matrix-variate Monte Carlo estimates.

The list is drawn once per run from the seed and repeated in every round, so
each round does the same work and must return the same bits.  No quadrature
runs here: the time goes to the samplers in randmat, the roots in spd and the
batched inverse and log-determinant in matrix_ops.
"""

from dataclasses import dataclass

import numpy as np

import refs
from kober import matrix_ops, mtransform

N_SAMPLES = 16000  # draws per estimate, spread over the default 16 streams
N_SE = 8.0  # gate: |estimate - reference| <= N_SE standard errors ...
REL_CAP = 0.15  # ... and <= REL_CAP relative


@dataclass
class Item:
    """One estimate: run() calls into kober and is timed; ref is computed
    apart from kober."""

    label: str
    run: object
    ref: float


def _spd(rng, p):
    g = rng.standard_normal((p, p))
    return g @ g.T / p + 0.5 * np.eye(p)


def _mc(rng, n_samples):
    return matrix_ops.MCConfig(n_samples=n_samples, seed=int(rng.integers(1, 2**31 - 1)))


def _det_power_item(kind, p, k, rng, n_samples):
    """kober_matrix_{first,second} on prod |V_j|^lam_j.  The sign of lam keeps
    each factor |W_j|^(+-lam_j) at most 1, so the estimator is bounded."""
    bound = (p - 1) / 2.0
    pairs, lams, us = [], [], []
    for _ in range(k):
        alpha = bound + float(rng.uniform(0.3, 2.0))
        if kind == "second":
            # within ~0.2 of the bound the beta draws can be singular, which
            # the inverse does not survive; see CHANGES.md
            zeta = bound + float(rng.uniform(0.8, 2.5))
            lam = float(rng.uniform(-0.8, 0.0))
        else:
            zeta = bound + float(rng.uniform(0.2, 2.5))
            lam = float(rng.uniform(0.0, 1.2))
        pairs.append((zeta, alpha))
        lams.append(lam)
        us.append(_spd(rng, p))
    params = matrix_ops.MatrixOpParams(kind, p, k, tuple(pairs))
    f = matrix_ops.det_power(p, lams)
    mc = _mc(rng, n_samples)
    op = "kober_matrix_" + kind
    ref = refs.det_power_matrix(kind, p, pairs, lams, [float(np.prod(np.linalg.eigvalsh(u))) for u in us])
    return Item(
        f"{op} p={p} k={k} pairs={pairs} lam={lams} seed={mc.seed}",
        lambda: getattr(matrix_ops, op)(params, f, tuple(us), mc),
        ref,
    )


def _exp_trace_item(kind, zetas, rng, n_samples):
    """p = 1 operator on exp(-sum v_j); zeta <= 0 in the second kind is the
    reweighted proposal."""
    pairs = [(z, float(rng.uniform(0.3, 2.0))) for z in zetas]
    # the second kind's relative variance grows with u: exp(-u / W) is
    # carried by the rare W near 1
    us = [float(rng.uniform(0.3, 1.2)) for _ in zetas]
    params = matrix_ops.MatrixOpParams(kind, 1, len(zetas), tuple(pairs))
    f = matrix_ops.exp_neg_trace(1, len(zetas))
    mc = _mc(rng, n_samples)
    axis = refs.kober_first if kind == "first" else refs.kober_second
    ref = float(np.prod([axis(z, a, 0.0, 1.0, u) for (z, a), u in zip(pairs, us)]))
    op = "kober_matrix_" + kind
    args = tuple(np.array([[u]]) for u in us)
    return Item(
        f"{op} exp_neg_trace p=1 pairs={pairs} u={us} seed={mc.seed}",
        lambda: getattr(matrix_ops, op)(params, f, args, mc),
        ref,
    )


def _transform_item(route, p, rng, n_samples):
    """Second-kind transform of the operator on exp(-tr V).  s stays where the
    density route has a finite fourth moment (s > (p+1)/2 - 1/4) and the
    operator route's Wishart proposal has df = 2s >= 2.9 (p = 2) or 3.9
    (p = 3).  zeta well above alpha keeps the beta draws near I, where the
    operator route's weights stay near 1."""
    bound = (p - 1) / 2.0
    zeta = bound + float(rng.uniform(2.5, 4.0))
    alpha = bound + float(rng.uniform(0.3, 0.8))
    s = float(rng.uniform(1.45, 2.2)) if p == 2 else float(rng.uniform(1.95, 2.3))
    params = matrix_ops.MatrixOpParams("second", p, 1, ((zeta, alpha),))
    f = matrix_ops.exp_neg_trace(p, 1)
    mc = _mc(rng, n_samples)
    return Item(
        f"{route} p={p} zeta={zeta} alpha={alpha} s={s} seed={mc.seed}",
        lambda: getattr(mtransform, route)(params, f, s, mc),
        refs.transform_second(p, [(zeta, alpha)], [s]),
    )


def make_items(seed, n_samples=N_SAMPLES):
    rng = np.random.default_rng([seed, 0x3C])
    items = [
        _det_power_item(kind, p, k, rng, n_samples)
        for kind in ("first", "second")
        for p in (1, 2, 3)
        for k in (1, 2, 3)
    ]
    items.append(_exp_trace_item("first", [float(rng.uniform(0.2, 2.0))], rng, n_samples))
    items.append(_exp_trace_item("second", [float(rng.uniform(0.3, 2.0))], rng, n_samples))
    items.append(
        _exp_trace_item(
            "second", [float(rng.uniform(0.3, 2.0)), float(rng.uniform(-0.6, -0.1))], rng, n_samples
        )
    )
    for route in ("mtransform_mc", "mtransform_mc_operator"):
        for p in (2, 3):
            items.append(_transform_item(route, p, rng, n_samples))
    return items


def check(item, est):
    """None when the estimate passes the gate, else a message."""
    err = abs(est.value - item.ref)
    if err <= N_SE * est.se and err <= REL_CAP * abs(item.ref):
        return None
    return (
        f"{item.label}: {est.value!r} +- {est.se!r} against {item.ref!r} "
        f"({err / est.se:.2f} s.e., {err / abs(item.ref):.3g} relative)"
    )
