import math

import numpy as np
import pytest
from scipy import stats

import kober.scalar_ops as so
from kober import matrix_ops, mtransform, smallmat
from kober.errors import DomainError, KoberError, MomentDivergence, ProposalDomainError
from kober.matgamma import ln_gamma_p
from kober.matrix_ops import (
    ChainSpec,
    MatrixOpParams,
    MCConfig,
    _density_mode_logdets,
    _f_of_factors,
    density_constant,
    density_mode_sample,
    det_power,
    det_power_times_exp,
    exp_neg_trace,
    kober_matrix_first,
    kober_matrix_second,
    matrix_callback,
    param_chain,
    wishart_density,
)
from kober.randmat import (
    BetaMatParams,
    RngStream,
    StreamBatch,
    matrix_beta_det_moment,
    matrix_beta_factor,
    wishart_det_moment,
)

U22 = np.array([[2.0, 0.3], [0.3, 1.0]])


def within_se(est, expect, k=3.0):
    assert abs(est.value - expect) < k * max(est.se, 1e-15), (est, expect)


# ---------------------------------------------------------------------------
# parameter chains


def test_chain_beta_rule_k1_is_zero():
    assert param_chain(ChainSpec("beta_2_9", (1.0,))) == [0]


def test_chain_beta_rule_pattern():
    np.testing.assert_allclose(
        param_chain(ChainSpec("beta_2_9", (1.0, 2.0, 3.0))), [7.0, 4.0, 0.0]
    )


def test_chain_gamma_rule():
    np.testing.assert_allclose(param_chain(ChainSpec("gamma_3_5", (1.0, 1.0, 1.0))), [2.0, 1.0])


def test_chain_delta_rule():
    np.testing.assert_allclose(
        param_chain(ChainSpec("delta_2_12", (0.0, 1.0), beta=(0.5, 0.5))), [2.0, 0.5]
    )


def test_chain_rule_validation():
    from kober.errors import ChainDomainError

    with pytest.raises(ChainDomainError):
        param_chain(ChainSpec("delta_2_12", (1.0, 2.0)))
    with pytest.raises(ChainDomainError):
        param_chain(ChainSpec("nonsense", (1.0,)))


# ---------------------------------------------------------------------------
# parameter domains


def test_params_validation():
    with pytest.raises(DomainError):
        MatrixOpParams("first", 2, 1, ((0.5, 1.5),))  # zeta at the boundary
    with pytest.raises(ProposalDomainError):
        MatrixOpParams("second", 2, 1, ((-1.0, 1.5),))
    with pytest.raises(DomainError):
        MatrixOpParams("second", 2, 2, ((2.0, 1.5),))
    with pytest.raises(DomainError):
        MCConfig(n_samples=100)


def test_operators_refuse_the_other_kind():
    first = MatrixOpParams("first", 2, 1, ((1.5, 1.5),))
    second = MatrixOpParams("second", 2, 1, ((1.5, 1.5),))
    f = exp_neg_trace(2)
    with pytest.raises(DomainError):
        kober_matrix_first(second, f, [U22])
    with pytest.raises(DomainError):
        kober_matrix_second(first, f, [U22])


# ---------------------------------------------------------------------------
# estimators against closed forms


def test_second_kind_scalar_reduction():
    params = MatrixOpParams("second", 1, 1, ((2.0, 0.5),))
    est = kober_matrix_second(
        params, det_power(1, -3.0), [np.array([[2.0]])], MCConfig(n_samples=200000, seed=5)
    )
    scalar = so.kober_second(so.power(-3.0), 2.0, zeta=2.0, alpha=0.5)
    within_se(est, scalar)


def test_first_kind_scalar_reduction():
    params = MatrixOpParams("first", 1, 1, ((1.0, 0.5),))
    est = kober_matrix_first(
        params, det_power(1, 2.0), [np.array([[1.0]])], MCConfig(n_samples=200000, seed=6)
    )
    scalar = so.kober_first(so.power(2.0), 1.0, zeta=1.0, alpha=0.5)
    within_se(est, scalar)


def test_first_kind_constant_function_is_exact():
    params = MatrixOpParams("first", 1, 1, ((1.0, 0.5),))
    est = kober_matrix_first(
        params, det_power(1, 0.0), [np.array([[1.0]])], MCConfig(n_samples=2000, seed=7)
    )
    assert est.se == 0.0
    np.testing.assert_allclose(est.value, math.gamma(2.0) / math.gamma(2.5), rtol=1e-13)


def test_second_kind_det_power_closed_form_p2():
    # f = |V|^(-c) reduces exactly: |U|^(-c) Gamma_p(z+c)/Gamma_p(z+a+c)
    z, a, c = 2.0, 1.5, 2.0
    params = MatrixOpParams("second", 2, 1, ((z, a),))
    est = kober_matrix_second(
        params, det_power(2, -c), [U22], MCConfig(n_samples=400000, seed=8)
    )
    closed = np.linalg.det(U22) ** (-c) * math.exp(ln_gamma_p(2, z + c) - ln_gamma_p(2, z + a + c))
    within_se(est, closed)


def test_second_kind_fallback_proposal():
    # zeta below (p-1)/2 forces the reweighted proposal; result stays unbiased
    params = MatrixOpParams("second", 2, 1, ((0.25, 1.5),))
    est = kober_matrix_second(
        params, det_power(2, -3.0), [np.eye(2)], MCConfig(n_samples=400000, seed=9)
    )
    closed = math.exp(ln_gamma_p(2, 3.25) - ln_gamma_p(2, 4.75))
    within_se(est, closed)


def test_congruence_equivariance_det_power():
    # same seed: the W draws coincide, so the det_power estimate transforms
    # exactly by |A A'|^(-c) under U -> A U A'
    a = np.array([[1.2, 0.0], [0.4, 0.8]])
    params = MatrixOpParams("second", 2, 1, ((2.0, 1.5),))
    mc = MCConfig(n_samples=50000, seed=10)
    est1 = kober_matrix_second(params, det_power(2, -2.0), [U22], mc)
    est2 = kober_matrix_second(params, det_power(2, -2.0), [a @ U22 @ a.T], mc)
    np.testing.assert_allclose(
        est2.value / est1.value, np.linalg.det(a @ a.T) ** -2.0, rtol=1e-12
    )


def test_second_kind_separable_k2_product():
    params = MatrixOpParams("second", 2, 2, ((2.0, 1.5), (2.5, 1.0)))
    est = kober_matrix_second(
        params, det_power(2, -2.0, k=2), [np.eye(2), np.eye(2)],
        MCConfig(n_samples=200000, seed=11),
    )
    closed = math.exp(ln_gamma_p(2, 4.0) - ln_gamma_p(2, 5.5)) * math.exp(
        ln_gamma_p(2, 4.5) - ln_gamma_p(2, 5.5)
    )
    within_se(est, closed)


def test_first_kind_separable_k2_matches_univariate_product():
    params2 = MatrixOpParams("first", 2, 2, ((2.0, 1.5), (2.5, 1.0)))
    est2 = kober_matrix_first(
        params2, det_power(2, 1.0, k=2), [U22, np.eye(2)],
        MCConfig(n_samples=300000, seed=12),
    )
    parts = []
    for i, (zeta, alpha) in enumerate(params2.pairs):
        params1 = MatrixOpParams("first", 2, 1, ((zeta, alpha),))
        u = [U22, np.eye(2)][i]
        parts.append(
            kober_matrix_first(
                params1, det_power(2, 1.0), [u], MCConfig(n_samples=300000, seed=13 + i)
            )
        )
    prod = parts[0].value * parts[1].value
    se = abs(prod) * math.hypot(
        parts[0].se / parts[0].value, parts[1].se / parts[1].value
    ) + est2.se
    assert abs(est2.value - prod) < 3.0 * se


def test_divergent_moment_is_flagged():
    # f = |V|^3 makes E|W|^(-3) infinite for zeta = 2 at p = 1
    params = MatrixOpParams("second", 1, 1, ((2.0, 1.5),))
    with pytest.raises(MomentDivergence):
        kober_matrix_second(
            params, det_power(1, 3.0), [np.array([[1.0]])], MCConfig(n_samples=100000, seed=15)
        )


def test_wrong_kind_rejected():
    params = MatrixOpParams("second", 1, 1, ((2.0, 1.5),))
    with pytest.raises(DomainError):
        kober_matrix_first(params, det_power(1, 1.0), [np.array([[1.0]])])


# ---------------------------------------------------------------------------
# test function families


def test_callback_matches_det_power():
    f1 = det_power(2, -2.0)
    f2 = matrix_callback(2, lambda v: np.linalg.det(v) ** -2.0)
    vs = [np.stack([U22, np.eye(2), 2.0 * np.eye(2)])]
    np.testing.assert_allclose(f1.value(vs), f2.value(vs), rtol=1e-12)


def test_exp_neg_trace_value():
    f = exp_neg_trace(2)
    np.testing.assert_allclose(
        f.value([U22[None]]), [math.exp(-3.0)], rtol=1e-14
    )


def test_mellin_wishart_density_matches_moments():
    f = wishart_density(2, 5.0)
    # the transform at s is E|V|^(s-3/2) for V ~ W_2(5, I)
    np.testing.assert_allclose(
        f.mellin(2.5), wishart_det_moment(2, 5.0, 1.0), rtol=1e-12
    )


def test_mellin_det_power_has_no_closed_form():
    assert det_power(2, -2.0).mellin(2.0) is None


def test_normalizer_det_power_times_exp():
    f = det_power_times_exp(2, 3.0)
    np.testing.assert_allclose(f.normalizer(), math.exp(ln_gamma_p(2, 3.0)), rtol=1e-12)


@pytest.mark.parametrize(
    "f",
    [
        det_power(1, 1.7),
        exp_neg_trace(1),
        det_power_times_exp(1, 2.5),
        wishart_density(1, 4.0),
    ],
)
def test_scalar_reduction_values_agree(f):
    scalar = f.scalar_axes()[0]
    for v in (0.3, 1.0, 2.7):
        np.testing.assert_allclose(
            f.value([np.array([[[v]]])]), [scalar(v)], rtol=1e-12
        )


def test_sampler_matches_declared_density():
    # draws from det_power_times_exp should reproduce its M-transform ratio
    f = det_power_times_exp(2, 3.0)
    vs = f.sampler()(RngStream(16), 200000)
    d = np.exp(smallmat.logdet(vs[0]))
    expect = f.mellin(2.5) / f.normalizer()  # E|V|^1
    se = d.std(ddof=1) / math.sqrt(len(d))
    assert abs(d.mean() - expect) < 3.0 * se


def test_sampler_slots_draw_apart_from_one_stream():
    # one RngStream feeds every slot; each slot must not restart it
    cs = exp_neg_trace(2, 2).sampler()(RngStream(1), 5)
    assert not np.array_equal(smallmat.stack(cs[0]), smallmat.stack(cs[1]))


# ---------------------------------------------------------------------------
# density interpretation


def test_density_constant_examples():
    np.testing.assert_allclose(
        density_constant(MatrixOpParams("second", 1, 1, ((0.0, 1.0),))), 1.0, rtol=1e-14
    )
    np.testing.assert_allclose(
        density_constant(MatrixOpParams("second", 2, 1, ((1.0, 1.5),))),
        math.exp(ln_gamma_p(2, 2.5) - ln_gamma_p(2, 4.0)),
        rtol=1e-13,
    )


def test_density_constant_product_structure():
    one = density_constant(MatrixOpParams("second", 2, 1, ((1.0, 1.5),)))
    two = density_constant(MatrixOpParams("second", 2, 2, ((1.0, 1.5), (1.0, 1.5))))
    np.testing.assert_allclose(two, one**2, rtol=1e-13)


def test_density_constant_with_chain_shapes():
    params = MatrixOpParams("second", 1, 2, ((1.0, 0.5), (2.0, 0.5)))
    chain = ChainSpec("gamma_3_5", (1.0, 2.0, 1.5))
    got = density_constant(params, chain)
    b = param_chain(chain)  # [3.5, 1.5]
    expect = math.exp(
        ln_gamma_p(1, 2.0) - ln_gamma_p(1, 2.0 + b[0]) + ln_gamma_p(1, 3.0) - ln_gamma_p(1, 3.0 + b[1])
    )
    np.testing.assert_allclose(got, expect, rtol=1e-13)


def test_density_mode_sample_rejects_chain_of_other_length():
    from kober.errors import ChainDomainError

    # four gamma_3_5 zeta values give three second shapes, one more than k
    params = MatrixOpParams("second", 2, 2, ((1.8, 0.9), (1.5, 0.8)))
    chain = ChainSpec("gamma_3_5", zeta=(1.8, 1.5, 1.2, 0.7))
    f = exp_neg_trace(2, 2)
    with pytest.raises(ChainDomainError):
        density_mode_sample(params, f.sampler(), RngStream(3), 1000, chain=chain)


def test_density_mode_sample_second_kind_moments():
    # |U| = |V||Y| with independent factors
    params = MatrixOpParams("second", 2, 1, ((2.0, 1.5),))
    f = wishart_density(2, 5.0)
    us = density_mode_sample(params, f.sampler(), RngStream(17), 200000)
    d = np.linalg.det(us[0])
    expect = matrix_beta_det_moment(BetaMatParams(2, 3.5, 1.5), 1.0) * wishart_det_moment(
        2, 5.0, 1.0
    )
    se = d.std(ddof=1) / math.sqrt(len(d))
    assert abs(d.mean() - expect) < 3.0 * se


def test_density_mode_sample_first_kind_moments():
    params = MatrixOpParams("first", 2, 1, ((2.0, 1.5),))
    f = wishart_density(2, 5.0)
    us = density_mode_sample(params, f.sampler(), RngStream(18), 400000)
    d = np.linalg.det(us[0])
    expect = wishart_det_moment(2, 5.0, 1.0) * matrix_beta_det_moment(
        BetaMatParams(2, 2.0, 1.5), -1.0
    )
    se = d.std(ddof=1) / math.sqrt(len(d))
    assert abs(d.mean() - expect) < 3.0 * se


@pytest.mark.parametrize(
    "kind,p,f,chain",
    [
        ("second", 2, wishart_density(2, 5.0), None),
        ("first", 2, det_power_times_exp(2, 2.2), None),
        ("second", 3, exp_neg_trace(3), None),
        ("first", 3, wishart_density(3, 4.5), None),
        ("second", 2, exp_neg_trace(2, 2), ChainSpec("gamma_3_5", zeta=(1.8, 1.5, 1.2))),
    ],
)
def test_density_mode_logdets_follow_the_sampled_law(kind, p, f, chain):
    # two samples of log|U_j|: the density route's univariate draws against
    # the log-determinants of density_mode_sample's dense draws
    pairs = ((1.9, 1.3), (1.6, 1.2))[: f.k]
    params = MatrixOpParams(kind, p, f.k, pairs)
    fast = _density_mode_logdets(params, f, RngStream(60, p), 20000, chain)
    slow = density_mode_sample(params, f.sampler(), RngStream(61, p), 20000, chain)
    assert len(fast) == len(slow) == f.k
    for a, u in zip(fast, slow):
        sign, logdet = np.linalg.slogdet(u)
        assert np.all(sign == 1.0)
        assert stats.ks_2samp(a, logdet).pvalue > 0.01


def test_density_mode_logdets_batch_slices_are_each_streams_own_draws():
    params = MatrixOpParams("first", 3, 2, ((1.9, 1.3), (1.6, 1.2)))
    f = det_power_times_exp(3, (2.2, 1.7))
    batch = StreamBatch([RngStream(62, i).generator() for i in range(3)], 5)
    got = _density_mode_logdets(params, f, batch, 15)
    alone = [_density_mode_logdets(params, f, RngStream(62, i), 5) for i in range(3)]
    for j, slot in enumerate(got):
        assert np.array_equal(slot, np.concatenate([a[j] for a in alone]))


# a callback reads the dense V, and det(V) ** lam is inf or NaN where V is
# singular or has lost definiteness
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_singular_beta_draw_is_a_kober_error():
    # zeta within 0.3 of (p-1)/2 gives beta draws whose W^(-1) is past the
    # conditioning a dense V = R W^(-1) R' (U = R R') can hold; a callback
    # takes the factor route and gets that dense V, so each seed must either
    # raise a KoberError (never a numpy LinAlgError) or return within 4 s.e.
    # of Gamma_3(zeta-lam)/Gamma_3(zeta-lam+alpha)
    zeta, alpha, lam = 1.2723987583241692, 2.5964093921226046, -0.574512041226322
    prm = MatrixOpParams("second", 3, 1, ((zeta, alpha),))
    f = matrix_callback(3, lambda v: np.linalg.det(v) ** lam)
    want = math.exp(ln_gamma_p(3, zeta - lam) - ln_gamma_p(3, zeta - lam + alpha))
    for seed in range(1, 9):
        try:
            est = kober_matrix_second(prm, f, (np.eye(3),), MCConfig(n_samples=16000, seed=seed))
        except KoberError:
            continue
        within_se(est, want, k=4.0)


def test_near_bound_second_kind_takes_log_det_from_univariate_betas():
    # the input of test_singular_beta_draw_is_a_kober_error as det_power:
    # log|W| comes from p univariate betas and no W is formed, so a W with
    # a tiny eigenvalue costs nothing; every seed must return within 4 s.e.
    zeta, alpha, lam = 1.2723987583241692, 2.5964093921226046, -0.574512041226322
    prm = MatrixOpParams("second", 3, 1, ((zeta, alpha),))
    f = det_power(3, -0.574512041226322)
    want = math.exp(ln_gamma_p(3, zeta - lam) - ln_gamma_p(3, zeta - lam + alpha))
    for seed in range(1, 41):
        est = kober_matrix_second(prm, f, (np.eye(3),), MCConfig(n_samples=16000, seed=seed))
        within_se(est, want, k=4.0)


def test_per_slot_tuple_needs_one_or_k_values():
    with pytest.raises(DomainError):
        det_power(2, (1.0, 2.0, 3.0), k=2)
    with pytest.raises(DomainError):
        det_power_times_exp(2, (2.0, 3.0), k=3)
    assert det_power(2, (1.5,), k=3).a == (1.5, 1.5, 1.5)
    assert det_power_times_exp(2, (2.0, 3.0)).k == 2


def _law_families(p, k):
    return [
        det_power(p, (0.7, -0.4)[:k]),
        exp_neg_trace(p, k),
        det_power_times_exp(p, (p / 2.0 + 0.3, p / 2.0 + 1.1)[:k]),
        wishart_density(p, p + 1.5, k),
    ]


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2])
def test_factor_summaries_match_dense_value(p, k):
    # V_j = C_j C_j' as the operators form it: C = R K^(-T) with
    # log|V| = log|U| - log|W| (second kind) or C = R K with
    # log|V| = log|U| + log|W| (first kind), W = K K' a beta draw and R any
    # root of U = R R', here its Cholesky factor
    rng = np.random.default_rng(40 + p)
    n = 500
    us = []
    for _ in range(k):
        g = rng.standard_normal((p, p))
        us.append(g @ g.T / p + 0.5 * np.eye(p))
    roots = [smallmat.cholesky(smallmat.entries(u)) for u in us]
    log_u = [math.log(np.linalg.det(u)) for u in us]
    ks = [matrix_beta_factor(BetaMatParams(p, 4.0 + p, 4.0 + p), rng, n) for _ in range(k)]
    forms = [
        (lambda j: smallmat.matmul(roots[j], smallmat.inv_factor(ks[j])),
         lambda j: log_u[j] - smallmat.logdet(ks[j])),
        (lambda j: smallmat.matmul(roots[j], ks[j]),
         lambda j: log_u[j] + smallmat.logdet(ks[j])),
    ]
    for factor, logdet in forms:
        dense = [smallmat.stack(smallmat.gram(factor(j))) for j in range(k)]
        for f in _law_families(p, k):
            np.testing.assert_allclose(
                _f_of_factors(f, (n,), factor, logdet), f.value(dense), rtol=1e-12
            )
            # V = C C' / 2, as in the operator-route transform
            np.testing.assert_allclose(
                _f_of_factors(
                    f, (n,), factor, lambda j: logdet(j) - p * math.log(2.0), scale=0.5
                ),
                f.value([0.5 * v for v in dense]),
                rtol=1e-12,
            )


# ---------------------------------------------------------------------------
# batched streams against drawing each stream alone


def _per_stream_expectation(vals_fn, mc, scale=1.0):
    """The estimate drawn stream by stream: each RngStream's own generator
    goes to vals_fn, chunk by chunk, as if no stream were batched."""
    n_each = -(-mc.n_samples // mc.n_streams)
    means, max_abs, sum_abs = [], 0.0, 0.0
    for i in range(mc.n_streams):
        rng = RngStream(mc.seed, i).generator()
        total = 0.0
        for start in range(0, n_each, matrix_ops.MAX_CHUNK):
            vals = np.asarray(vals_fn(rng, min(matrix_ops.MAX_CHUNK, n_each - start)))
            assert np.all(np.isfinite(vals))
            total += float(vals.sum())
            max_abs = max(max_abs, float(np.abs(vals).max()))
            sum_abs += float(np.abs(vals).sum())
        means.append(total / n_each)
    return matrix_ops._aggregate(means, scale, n_each * mc.n_streams, max_abs, sum_abs)


def assert_same_as_per_stream(monkeypatch, run):
    batched = run()
    with monkeypatch.context() as mp:
        for mod in (matrix_ops, mtransform):
            mp.setattr(mod, "_mc_expectation", _per_stream_expectation)
        alone = run()
    assert batched == alone  # value, se and n, bit for bit
    return batched


def _operator_case(kind, p, k, rng, law="det_power"):
    """Operator inputs at (kind, p, k); law det_power (each estimate reads
    log|V_j| only) or det_power_times_exp (the beta factor route)."""
    bound = (p - 1) / 2.0
    pairs = tuple(
        (bound + float(rng.uniform(0.9, 2.0)), bound + float(rng.uniform(0.3, 1.5)))
        for _ in range(k)
    )
    lams = [float(rng.uniform(-0.6, 0.0) if kind == "second" else rng.uniform(0.0, 1.0))
            for _ in range(k)]
    us = []
    for _ in range(k):
        g = rng.standard_normal((p, p))
        us.append(g @ g.T / p + 0.5 * np.eye(p))
    if law == "det_power":
        f = det_power(p, lams)
    else:
        f = det_power_times_exp(p, [(p + 1) / 2.0 + abs(lam) for lam in lams])
    return MatrixOpParams(kind, p, k, pairs), f, tuple(us)


@pytest.mark.parametrize("kind", ["first", "second"])
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_batched_operator_matches_per_stream(monkeypatch, kind, p, k):
    # 10 000 draws over 16 streams: 625 per stream, batches of 6, 6 and 4
    params, f, us = _operator_case(kind, p, k, np.random.default_rng([p, k, kind == "first"]))
    op = kober_matrix_first if kind == "first" else kober_matrix_second
    mc = MCConfig(n_samples=10000, seed=60 + 3 * p + k)
    assert_same_as_per_stream(monkeypatch, lambda: op(params, f, us, mc))


@pytest.mark.parametrize("kind", ["first", "second"])
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_batched_trace_law_operator_matches_per_stream(monkeypatch, kind, p, k):
    # the grid above on det_power_times_exp, which takes the beta factor route
    params, f, us = _operator_case(
        kind, p, k, np.random.default_rng([p, k, kind == "first"]), "det_power_times_exp"
    )
    op = kober_matrix_first if kind == "first" else kober_matrix_second
    mc = MCConfig(n_samples=10000, seed=60 + 3 * p + k)
    assert_same_as_per_stream(monkeypatch, lambda: op(params, f, us, mc))


class _FactorCalled(Exception):
    pass


def test_only_laws_beyond_log_det_build_beta_factors(monkeypatch):
    # det_power reads log|W| alone and never builds a beta factor, also in
    # a reweighted second-kind slot (zeta = 0.2 <= (p-1)/2); a law with a
    # trace and a callback need the factor
    def refuse(*args, **kwargs):
        raise _FactorCalled

    monkeypatch.setattr(matrix_ops, "matrix_beta_factor", refuse)
    mc = MCConfig(n_samples=2000, seed=96)
    us = (U22, np.eye(2))
    cases = [
        (kober_matrix_first, MatrixOpParams("first", 2, 2, ((1.2, 0.9), (1.6, 1.1))), 0.7),
        (kober_matrix_second, MatrixOpParams("second", 2, 2, ((0.2, 1.3), (1.4, 0.9))), -1.2),
    ]
    for op, params, lam in cases:
        est = op(params, det_power(2, lam, k=2), us, mc)
        assert math.isfinite(est.value) and est.se > 0.0
        for f in (
            exp_neg_trace(2, 2),
            det_power_times_exp(2, 2.0, k=2),
            matrix_callback(2, lambda v1, v2: np.exp(-v1[..., 0, 0] - v2[..., 1, 1]), k=2),
        ):
            with pytest.raises(_FactorCalled):
                op(params, f, us, mc)


def test_batched_reweighted_slot_and_callback_match_per_stream(monkeypatch):
    # slot 1 has zeta below (p-1)/2 and takes the reweighted proposal
    params = MatrixOpParams("second", 2, 2, ((0.2, 1.3), (1.4, 0.9)))
    us = (U22, np.eye(2))
    mc = MCConfig(n_samples=8000, seed=71)
    assert_same_as_per_stream(
        monkeypatch, lambda: kober_matrix_second(params, exp_neg_trace(2, 2), us, mc)
    )
    f = matrix_callback(2, lambda v1, v2: np.exp(-v1[..., 0, 0] - v2[..., 1, 1]), k=2)
    assert_same_as_per_stream(monkeypatch, lambda: kober_matrix_second(params, f, us, mc))


@pytest.mark.parametrize("p", [2, 3])
def test_batched_transform_routes_match_per_stream(monkeypatch, p):
    params = MatrixOpParams("second", p, 1, ((p / 2.0 + 2.5, p / 2.0 + 0.2),))
    f = exp_neg_trace(p, 1)
    mc = MCConfig(n_samples=6000, seed=80 + p)
    for route in (mtransform.mtransform_mc, mtransform.mtransform_mc_operator):
        assert_same_as_per_stream(monkeypatch, lambda: route(params, f, p / 2.0 + 0.6, mc))


def test_partial_last_batch_and_uneven_split_match_per_stream(monkeypatch):
    params, f, us = _operator_case("first", 2, 2, np.random.default_rng(90))
    # 1000 draws per stream: one batch of 4 streams, then a batch of 1
    mc = MCConfig(n_samples=5000, n_streams=5, seed=91)
    assert_same_as_per_stream(monkeypatch, lambda: kober_matrix_first(params, f, us, mc))
    # 10 001 draws over 16 streams: rounded up to 626 each
    mc = MCConfig(n_samples=10001, seed=92)
    est = assert_same_as_per_stream(monkeypatch, lambda: kober_matrix_first(params, f, us, mc))
    assert est.n == 16 * 626


def test_oversized_stream_is_drawn_in_chunks(monkeypatch):
    # 10 000 draws per stream exceed BATCH_DRAWS: each stream is a batch of
    # its own, drawn in chunks of 3000, 3000, 3000 and 1000
    monkeypatch.setattr(matrix_ops, "MAX_CHUNK", 3000)
    calls = []
    real = matrix_ops.StreamBatch

    def spy(gens, n):
        calls.append((len(gens), n))
        return real(gens, n)

    monkeypatch.setattr(matrix_ops, "StreamBatch", spy)
    params, f, us = _operator_case("second", 2, 1, np.random.default_rng(93))
    mc = MCConfig(n_samples=20000, n_streams=2, seed=94)
    assert_same_as_per_stream(monkeypatch, lambda: kober_matrix_second(params, f, us, mc))
    assert calls == [(1, 3000), (1, 3000), (1, 3000), (1, 1000)] * 2


def test_non_finite_value_in_a_later_stream_of_a_batch_raises():
    # 4 streams of 1000 draws are one batch; only the batch's last value,
    # which belongs to its last stream, is infinite
    def fn(v):
        out = np.exp(-v[..., 0, 0])
        out[-1] = np.inf
        return out

    params = MatrixOpParams("first", 1, 1, ((1.0, 1.5),))
    with pytest.raises(MomentDivergence):
        kober_matrix_first(
            params, matrix_callback(1, fn), (np.eye(1),), MCConfig(n_samples=4000, n_streams=4)
        )
