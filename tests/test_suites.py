import tracemalloc

import numpy as np
import pytest

from kober import suites
from kober.errors import DomainError
from kober.matrix_ops import BATCH_DRAWS
from kober.randmat import (
    DEFAULT_SEED,
    BetaMatParams,
    RngStream,
    sample_dirichlet_chain,
    sample_matrix_beta,
    sample_wishart,
)
from kober.spd import dirichlet_chain_inverse
from kober.suites import SUITES, run_suite

MOMENT_SUITES = ("beta-moments", "dirichlet-chain")

# printed (%.12g) p = 1 quadrature results of the transform suites at the
# default seed, as the doubling tensor route gives them
P1_TRANSFORM_GOT = {
    "mtransform-first": {
        "first-p1-k1-s0.6": "1.00183940824",
        "first-p1-k1-s0.9": "0.818399249874",
        "first-p1-k1-s1.3": "0.85678812163",
        "first-p1-k1-s1.8": "1.36260224616",
        "first-p1-k1-s2.4": "10.1503916991",
        "first-p1-k2-s1.3-0.8": "0.372835034066",
        "first-p1-k2-s0.7-1.6": "0.470055934444",
    },
    "mtransform-second": {
        "second-p1-k1-s0.6": "0.929571831377",
        "second-p1-k1-s0.9": "0.604025102773",
        "second-p1-k1-s1.3": "0.452736219558",
        "second-p1-k1-s1.8": "0.416551671332",
        "second-p1-k1-s2.4": "0.491930671331",
        "second-p1-k2-s1.3-0.8": "0.154738922113",
        "second-p1-k2-s0.7-1.6": "0.158836270312",
    },
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_runs_green(name):
    # p=1 keeps the transform suites on the fast quadrature route; the
    # density suite keeps its default sample count so 3 s.e. has headroom
    n = None if name == "density-identity" else 30000
    res = run_suite(name, seed=11, p=1, n_samples=n)
    assert res.suite == name
    assert res.seed == 11
    assert res.cases
    failed = [c.id for c in res.cases if not c.passed]
    assert not failed, failed


def test_suite_results_are_deterministic():
    a = run_suite("beta-moments", seed=5, n_samples=20000)
    b = run_suite("beta-moments", seed=5, n_samples=20000)
    assert [(c.id, c.expected, c.got, c.se) for c in a.cases] == [
        (c.id, c.expected, c.got, c.se) for c in b.cases
    ]


def test_suite_case_fields_are_complete():
    res = run_suite("scalar-closed-forms", seed=1)
    for c in res.cases:
        assert c.id and c.ref
        assert isinstance(c.passed, bool)
        assert c.tol > 0


def test_dimension_filter_restricts_cases():
    res = run_suite("jacobians", seed=2, p=2)
    assert all("p2" in c.id for c in res.cases)


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        run_suite("mystery", seed=0)


def test_first_kind_suite_reports_the_domain_bound():
    res = run_suite("mtransform-first", seed=4, p=1)
    marked = [c for c in res.cases if c.id == "first-p1-k1-out-of-domain"]
    assert len(marked) == 1
    assert marked[0].got == "domain-error"
    assert marked[0].passed


@pytest.mark.parametrize("name", sorted(P1_TRANSFORM_GOT))
def test_p1_transform_values_are_pinned(name):
    res = run_suite(name, seed=DEFAULT_SEED, p=1)
    got = {c.id: "%.12g" % c.got for c in res.cases if c.id in P1_TRANSFORM_GOT[name]}
    assert got == P1_TRANSFORM_GOT[name]


def _traced_peak(name, n):
    tracemalloc.start()
    try:
        run_suite(name, seed=DEFAULT_SEED, n_samples=n)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", MOMENT_SUITES)
def test_moment_suite_memory_stays_flat_in_n(name):
    # the draws come in passes of BATCH_DRAWS and only their log-dets are
    # kept, so past the passes' own arrays the peak grows by a few float64
    # values per draw: the log-det arrays and their temporaries, no
    # (n, p, p) stack (4 values a draw at p = 2)
    run_suite(name, seed=DEFAULT_SEED, n_samples=10)
    small = _traced_peak(name, None)
    assert small < 6e6
    assert _traced_peak(name, 400000) - small <= 5 * 8 * (400000 - 100000)


def _recorded_draws(name, n, monkeypatch):
    """id -> the per-draw values that reach _mean_case in the suite at n."""
    seen = {}
    monkeypatch.setattr(suites, "_mean_case", lambda cid, ref, want, v: seen.update({cid: v}))
    run_suite(name, seed=DEFAULT_SEED, n_samples=n)
    return seen


@pytest.mark.parametrize("n", [1, BATCH_DRAWS, BATCH_DRAWS + 1, 2 * BATCH_DRAWS + 3])
@pytest.mark.parametrize("name", MOMENT_SUITES)
def test_every_draw_reaches_the_mean(name, n, monkeypatch):
    seen = _recorded_draws(name, n, monkeypatch)
    assert len(seen) == {"beta-moments": 8, "dirichlet-chain": 2}[name]
    assert all(len(vals) == n for vals in seen.values())


@pytest.mark.parametrize("name", MOMENT_SUITES)
def test_moment_suite_refuses_a_negative_draw_count(name):
    # a count below 1 makes no pass, which would leave the moment cases out
    with pytest.raises(DomainError, match="at least one draw"):
        run_suite(name, seed=DEFAULT_SEED, n_samples=-5)


def _one_block_values(name, seed, n):
    """id -> per-draw values from one draw of n and LAPACK slogdet of the
    dense stacks, the suites' calls for n <= BATCH_DRAWS."""
    out = {}
    if name == "beta-moments":
        for pp in (1, 2):
            df = 2.0 * pp + 1.5
            ld = np.linalg.slogdet(sample_wishart(pp, df, RngStream(seed, 10 + pp), size=n))[1]
            out.update({f"wishart-det-p{pp}-h{h}": np.exp(h * ld) for h in (1.0, 1.7)})
            prm = BetaMatParams(pp, 1.2 + 0.5 * pp, 2.0)
            ld = np.linalg.slogdet(sample_matrix_beta(prm, RngStream(seed, 20 + pp), size=n))[1]
            out.update({f"beta-det-p{pp}-h{h}": np.exp(h * ld) for h in (1.0, 2.3)})
    else:
        pairs = [BetaMatParams(2, 2.5, 4.0), BetaMatParams(2, 2.0, 2.5)]
        ys = dirichlet_chain_inverse(sample_dirichlet_chain(pairs, RngStream(seed, 40), size=n))
        for j, y in enumerate(ys):
            out[f"chain-recovered-beta-p2-slot{j}"] = np.exp(np.linalg.slogdet(y)[1])
    return out


@pytest.mark.parametrize("n", [1000, BATCH_DRAWS])
@pytest.mark.parametrize("name", MOMENT_SUITES)
def test_one_pass_matches_a_one_block_slogdet(name, n, monkeypatch):
    seen = _recorded_draws(name, n, monkeypatch)
    want = _one_block_values(name, DEFAULT_SEED, n)
    assert seen.keys() == want.keys()
    for cid, vals in seen.items():
        np.testing.assert_allclose(vals, want[cid], rtol=1e-12, err_msg=cid)
