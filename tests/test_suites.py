import pytest

from kober.randmat import DEFAULT_SEED
from kober.suites import SUITES, run_suite

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
