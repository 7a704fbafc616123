"""Named verification suites behind the command line interface.

Each suite runs a deterministic batch of identity checks at desk scale and
reports one case row per check: closed forms against quadrature, Jacobian
determinants against finite differences, moment formulas against Monte
Carlo, and the transform identities along both numerical routes.  Every
case carries the identifier of the law it exercises, the expected and
observed values, the applicable tolerance, and a pass flag.
"""

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import scalar_ops
from .matrix_ops import (
    MatrixOpParams,
    MCConfig,
    exp_neg_trace,
)
from .mtransform import (
    gamma_ratio_second,
    mtransform_mc,
    mtransform_mc_operator,
    verify_transform,
)
from .randmat import (
    BetaMatParams,
    RngStream,
    matrix_beta_det_moment,
    sample_dirichlet_chain,
    sample_matrix_beta,
    sample_wishart,
    wishart_det_moment,
)
from .spd import (
    dirichlet_chain_forward,
    dirichlet_chain_inverse,
    fd_jacobian_det,
    jac_congruence,
    jac_dirichlet_chain,
    jac_inverse,
    pack,
    unpack,
)


@dataclass(frozen=True)
class CaseResult:
    """One verified identity: expected vs observed with its tolerance."""

    id: str
    ref: str
    expected: float | str
    got: float | str
    se: float | None
    tol: float
    passed: bool


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    seed: int
    cases: list = field(default_factory=list)
    elapsed_ms: float = 0.0

    @property
    def all_passed(self):
        return all(c.passed for c in self.cases)


def _close_cases(checks, tol):
    """One case per (id, law, expected, got) of checks, passing within tol
    relative."""
    cases = []
    for cid, ref, expected, got in checks:
        expected, got = float(expected), float(got)
        passed = abs(got - expected) <= tol * max(abs(expected), 1e-300)
        cases.append(CaseResult(cid, ref, expected, got, None, tol, passed))
    return cases


def _mc_case(cid, ref, expected, got, se):
    """A Monte Carlo value against expected, passing within 3 standard errors."""
    expected, got, se = float(expected), float(got), float(se)
    return CaseResult(cid, ref, expected, got, se, 3.0, abs(got - expected) <= 3.0 * se)


def _mean_case(cid, ref, want, vals):
    """The sample mean of vals against want."""
    return _mc_case(cid, ref, want, vals.mean(), vals.std(ddof=1) / math.sqrt(len(vals)))


# name -> suite(seed, p=None, n_samples=None) -> SuiteResult, in run order
SUITES = {}


def _suite(name):
    """Register cases(seed, p, n_samples) -> [CaseResult] as the suite name,
    timed into a SuiteResult."""

    def register(cases):
        def suite(seed, p=None, n_samples=None):
            t0 = time.perf_counter()
            found = cases(seed, p, n_samples)
            return SuiteResult(name, seed, found, (time.perf_counter() - t0) * 1e3)

        SUITES[name] = suite
        return suite

    return register


# ---------------------------------------------------------------------------
# scalar closed forms


@_suite("scalar-closed-forms")
def suite_scalar_closed_forms(seed, p, n_samples):
    return _close_cases(_scalar_checks(), 1e-8)


def _scalar_checks():
    """(id, law, closed form, operator value) of each scalar case, in order."""
    for zeta, alpha, lam, u in [(1.0, 0.5, 2.0, 1.0), (0.3, 1.2, 1.5, 0.7), (2.0, 0.8, 0.0, 2.5)]:
        want = math.gamma(zeta + lam + 1.0) / math.gamma(zeta + lam + 1.0 + alpha) * u**lam
        got = scalar_ops.kober_first(scalar_ops.power(lam), u, zeta=zeta, alpha=alpha)
        yield f"kober1-power-z{zeta}-a{alpha}-l{lam}-u{u}", "first-kind-power-moment-law", want, got

    for zeta, alpha, lam, u in [(1.5, 0.5, -1.2, 1.0), (2.0, 1.1, -0.4, 0.6), (1.8, 0.7, 0.5, 2.0)]:
        want = math.gamma(zeta - lam) / math.gamma(zeta - lam + alpha) * u**lam
        got = scalar_ops.kober_second(scalar_ops.power(lam), u, zeta=zeta, alpha=alpha)
        yield (
            f"kober2-power-z{zeta}-a{alpha}-l{lam}-u{u}", "second-kind-power-moment-law", want, got
        )

    for alpha, lam, x in [(0.5, 2.0, 1.0), (1.3, 0.7, 2.0)]:
        want = math.gamma(lam + 1.0) / math.gamma(lam + 1.0 + alpha) * x ** (lam + alpha)
        got = scalar_ops.riemann_liouville(scalar_ops.power(lam), x, alpha=alpha)
        yield f"rl-power-a{alpha}-l{lam}-x{x}", "left-integral-power-law", want, got

    for alpha, rate, x in [(0.7, 1.0, 1.0), (0.4, 2.0, 0.0), (2.5, 1.0, 5.0)]:
        want = rate ** (-alpha) * math.exp(-rate * x)
        got = scalar_ops.weyl_right(scalar_ops.exp_decay(rate), x, alpha=alpha)
        yield f"weyl-exp-a{alpha}-r{rate}-x{x}", "right-integral-exp-eigenfunction", want, got

    alpha, m, x = 0.6, 3.0, 1.5
    want = math.gamma(m - alpha) / math.gamma(m) * x ** (alpha - m)
    got = scalar_ops.weyl_right(scalar_ops.power(-m), x, alpha=alpha)
    yield f"weyl-power-a{alpha}-m{m}-x{x}", "right-integral-power-law", want, got


# ---------------------------------------------------------------------------
# change-of-variable Jacobians


def _random_spd(rng, p, scale=1.0):
    a = rng.standard_normal((p, p))
    return scale * (a @ a.T + 0.1 * np.eye(p))


@_suite("jacobians")
def suite_jacobians(seed, p, n_samples):
    return _close_cases(_jacobian_checks(seed, p), 1e-3)


def _jacobian_checks(seed, p):
    """(id, law, closed form, finite-difference value) of each Jacobian case,
    in the order of their random draws."""
    ps = [p] if p else [1, 2]
    n_points = 5

    for pp in ps:
        rng = RngStream(seed, 900 + pp).generator()
        psz = pp * (pp + 1) // 2
        for i in range(n_points):
            a = rng.standard_normal((pp, pp)) + np.eye(pp)
            x = _random_spd(rng, pp)
            want = jac_congruence(a)
            got = fd_jacobian_det(
                lambda v: pack(a @ unpack(v, pp) @ a.T), pack(x)
            )
            yield f"congruence-p{pp}-{i}", "congruence-volume-element", want, got

        for i in range(n_points):
            x = _random_spd(rng, pp)
            want = jac_inverse(x)
            got = fd_jacobian_det(
                lambda v: pack(np.linalg.inv(unpack(v, pp))), pack(x)
            )
            yield f"inverse-p{pp}-{i}", "inverse-volume-element", want, got

        for k in (2, 3):
            for i in range(2):
                ys = [
                    0.5 * unpack(0.4 * rng.random(psz) + 0.2, pp) + 0.15 * np.eye(pp)
                    for _ in range(k)
                ]
                ys = [0.5 * (y + y.T) for y in ys]
                want = jac_dirichlet_chain(ys)

                def fwd(flat, k=k, pp=pp, psz=psz):
                    blocks = [unpack(flat[j * psz : (j + 1) * psz], pp) for j in range(k)]
                    xs = dirichlet_chain_forward(blocks)
                    return np.concatenate([pack(xx) for xx in xs])

                got = fd_jacobian_det(fwd, np.concatenate([pack(y) for y in ys]))
                yield f"chain-p{pp}-k{k}-{i}", "triangular-chain-volume-element", want, got


# ---------------------------------------------------------------------------
# moment formulas of the random matrix layer


@_suite("beta-moments")
def suite_beta_moments(seed, p, n_samples):
    n = int(n_samples or 100000)
    cases = []
    ps = [p] if p else [1, 2]

    for pp in ps:
        df = 2.0 * pp + 1.5
        for h in (1.0, 1.7):
            w = sample_wishart(pp, df, RngStream(seed, 10 + pp), size=n)
            cases.append(
                _mean_case(
                    f"wishart-det-p{pp}-h{h}",
                    "wishart-determinant-moment",
                    wishart_det_moment(pp, df, h),
                    np.exp(h * np.linalg.slogdet(w)[1]),
                )
            )

        prm = BetaMatParams(pp, 1.2 + 0.5 * pp, 2.0)
        for h in (1.0, 2.3):
            x = sample_matrix_beta(prm, RngStream(seed, 20 + pp), size=n)
            cases.append(
                _mean_case(
                    f"beta-det-p{pp}-h{h}",
                    "type1-beta-determinant-moment",
                    matrix_beta_det_moment(prm, h),
                    np.exp(h * np.linalg.slogdet(x)[1]),
                )
            )

    return cases


@_suite("dirichlet-chain")
def suite_dirichlet_chain(seed, p, n_samples):
    n = int(n_samples or 100000)
    pp = p or 2
    cases = []

    pairs = [BetaMatParams(pp, 1.5 + 0.5 * j, 2.5 + 0.5 * j) for j in range(3)]
    ys = [
        sample_matrix_beta(prm, RngStream(seed, 30 + j), size=4)
        for j, prm in enumerate(pairs)
    ]
    xs = dirichlet_chain_forward(ys)
    back = dirichlet_chain_inverse(xs)
    err = max(float(np.abs(b - y).max()) for b, y in zip(back, ys))
    cases.append(
        CaseResult(
            f"chain-roundtrip-p{pp}-k3",
            "chain-independence-roundtrip",
            0.0, err, None, 1e-10, err <= 1e-10,
        )
    )

    pairs2 = [BetaMatParams(pp, 2.5, 4.0), BetaMatParams(pp, 2.0, 2.5)]
    xs2 = sample_dirichlet_chain(pairs2, RngStream(seed, 40), size=n)
    ys2 = dirichlet_chain_inverse(xs2)
    for j, prm in enumerate(pairs2):
        cases.append(
            _mean_case(
                f"chain-recovered-beta-p{pp}-slot{j}",
                "chain-component-beta-law",
                matrix_beta_det_moment(prm, 1.0),
                np.exp(np.linalg.slogdet(ys2[j])[1]),
            )
        )

    return cases


# ---------------------------------------------------------------------------
# transform identities


def _report_case(cid, ref, rep):
    expected = float(rep.rhs) if rep.rhs is not None else "domain-error"
    got = float(rep.lhs) if rep.lhs is not None else rep.status
    se = float(rep.se) if rep.se is not None else None
    return CaseResult(cid, ref, expected, got, se, float(rep.tol), bool(rep.passed))


def _transform_cases(kind, seed, p, n_samples):
    """The cases of the mtransform-first and mtransform-second suites."""
    ref = f"{kind}-kind-transform-factorization"
    cases = []
    if p in (None, 1):
        prm = MatrixOpParams(kind, 1, 1, ((1.5, 0.7),))
        f = exp_neg_trace(1, 1)
        grid = [0.6, 0.9, 1.3, 1.8, 2.4]
        for rep in verify_transform(kind, prm, f, grid):
            cases.append(_report_case(f"{kind}-p1-k1-s{rep.s[0]}", ref, rep))
        prm2 = MatrixOpParams(kind, 1, 2, ((1.5, 0.7), (2.2, 1.1)))
        f2 = exp_neg_trace(1, 2)
        for rep in verify_transform(kind, prm2, f2, [(1.3, 0.8), (0.7, 1.6)]):
            cases.append(_report_case(f"{kind}-p1-k2-s{rep.s[0]}-{rep.s[1]}", ref, rep))
        if kind == "first":
            # the domain bound must be reported, not crossed
            rep = verify_transform(kind, prm, f, [2.8])[0]
            cases.append(
                CaseResult(
                    "first-p1-k1-out-of-domain", "first-kind-transform-domain",
                    "domain-error", rep.status, None, 0.0,
                    rep.status == "domain-error",
                )
            )
    if p in (None, 2):
        prm = MatrixOpParams(kind, 2, 1, ((1.8, 0.9),))
        f = exp_neg_trace(2, 1)
        mc = MCConfig(n_samples=int(n_samples or 200000), seed=seed, n_streams=8)
        for rep in verify_transform(kind, prm, f, [1.2, 1.9], mc):
            cases.append(_report_case(f"{kind}-p2-k1-s{rep.s[0]}", ref, rep))
    return cases


_suite("mtransform-first")(functools.partial(_transform_cases, "first"))
_suite("mtransform-second")(functools.partial(_transform_cases, "second"))


@_suite("density-identity")
def suite_density_identity(seed, p, n_samples):
    pp = p or 2
    n = int(n_samples or 200000)
    cases = []

    prm = MatrixOpParams("second", pp, 1, ((1.8, 0.9),))
    f = exp_neg_trace(pp, 1)
    for s in (1.2, 1.6):
        a = mtransform_mc(prm, f, s, MCConfig(n_samples=n, seed=seed, n_streams=8))
        b = mtransform_mc_operator(
            prm, f, s, MCConfig(n_samples=n, seed=seed + 1, n_streams=8)
        )
        cases.append(
            _mc_case(
                f"density-vs-operator-p{pp}-s{s}",
                "density-normalization-identity",
                b.value, a.value, math.hypot(a.se, b.se),
            )
        )

    if pp == 1:
        want = gamma_ratio_second(prm, 1.6) * f.mellin((1.6,))
        a = mtransform_mc(prm, f, 1.6, MCConfig(n_samples=n, seed=seed, n_streams=8))
        cases.append(
            _mc_case(
                "density-vs-closed-p1-s1.6", "density-normalization-identity", want, a.value, a.se
            )
        )

    return cases


def run_suite(name, seed, p=None, n_samples=None):
    if name not in SUITES:
        raise KeyError(name)
    return SUITES[name](seed, p=p, n_samples=n_samples)
