import numpy as np
import pytest
from scipy import stats
from scipy.special import digamma, gammaln

from kober import smallmat
from kober.errors import ChainDomainError, DomainError
from kober.randmat import (
    BetaMatParams,
    RngStream,
    matrix_beta_det_moment,
    matrix_beta_factor,
    matrix_beta_logdet,
    sample_dirichlet_chain,
    sample_matrix_beta,
    sample_wishart,
    wishart_det_moment,
    wishart_factor,
    wishart_logdet,
)
from kober.spd import dirichlet_chain_forward, dirichlet_chain_inverse


def mean_within(values, expect, k=3.0):
    values = np.asarray(values, dtype=float)
    se = values.std(ddof=1) / np.sqrt(len(values))
    assert abs(values.mean() - expect) < k * se, (values.mean(), expect, se)


def test_streams_reproduce_bit_for_bit():
    a = sample_wishart(2, 5.0, RngStream(42, 7), size=16)
    b = sample_wishart(2, 5.0, RngStream(42, 7), size=16)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = sample_wishart(2, 5.0, RngStream(42, 0), size=4)
    b = sample_wishart(2, 5.0, RngStream(42, 1), size=4)
    assert not np.allclose(a, b)


def test_wishart_p1_is_chi_square():
    x = sample_wishart(1, 6.0, RngStream(1), size=100000)[:, 0, 0]
    mean_within(x, 6.0)
    # KS against the chi-square distribution itself
    assert stats.kstest(x, "chi2", args=(6.0,)).pvalue > 0.01


def test_wishart_mean_is_df_times_identity():
    x = sample_wishart(2, 5.0, RngStream(2), size=100000)
    se = x.std(axis=0, ddof=1) / np.sqrt(x.shape[0])
    assert np.all(np.abs(x.mean(axis=0) - 5.0 * np.eye(2)) < 3.0 * se)


def mean_entries_within(x, expect, k=4.0):
    # every entry of the sample mean, diagonal and off-diagonal
    se = x.std(axis=0, ddof=1) / np.sqrt(x.shape[0])
    assert np.all(np.abs(x.mean(axis=0) - expect) < k * se), (x.mean(axis=0), expect, se)


@pytest.mark.parametrize("p", [2, 3])
def test_wishart_mean_entries(p):
    mean_entries_within(sample_wishart(p, 4.3, RngStream(21), size=100000), 4.3 * np.eye(p))


@pytest.mark.parametrize("p", [2, 3])
def test_matrix_beta_mean_entries(p):
    # E[X] = a/(a+b) I; the off-diagonal means see the orientation of each
    # draw, which the determinant moments do not
    prm = BetaMatParams(p, 2.0, 1.5)
    x = sample_matrix_beta(prm, RngStream(22), size=100000)
    mean_entries_within(x, prm.a / (prm.a + prm.b) * np.eye(p))


def test_wishart_determinant_moment():
    x = sample_wishart(2, 5.0, RngStream(3), size=100000)
    mean_within(np.linalg.det(x), wishart_det_moment(2, 5.0, 1.0))


def test_wishart_real_df_determinant_moment():
    x = sample_wishart(2, 3.7, RngStream(4), size=100000)
    mean_within(np.linalg.det(x), wishart_det_moment(2, 3.7, 1.0))


def test_wishart_rejects_small_df():
    with pytest.raises(DomainError):
        sample_wishart(3, 1.9, RngStream(0))


def test_matrix_beta_p1_matches_scalar_beta():
    x = sample_matrix_beta(BetaMatParams(1, 2.0, 3.0), RngStream(5), size=10000)[:, 0, 0]
    assert stats.kstest(x, "beta", args=(2.0, 3.0)).pvalue > 0.01


def test_matrix_beta_eigenvalues_strictly_inside():
    x = sample_matrix_beta(BetaMatParams(2, 2.0, 1.5), RngStream(6), size=100000)
    ev = np.linalg.eigvalsh(x)
    assert ev.min() > 1e-10 and ev.max() < 1.0 - 1e-10


@pytest.mark.parametrize("p,a,b", [(2, 2.0, 1.5), (2, 3.0, 3.0), (3, 2.5, 2.0)])
def test_matrix_beta_determinant_moment(p, a, b):
    prm = BetaMatParams(p, a, b)
    x = sample_matrix_beta(prm, RngStream(7), size=100000)
    mean_within(np.linalg.det(x), matrix_beta_det_moment(prm, 1.0))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_matrix_beta_logdet_moments(p):
    # |X|^h for h down to -0.4 keeps a finite variance: a - (p-1)/2 = 1.3
    prm = BetaMatParams(p, (p - 1) / 2.0 + 1.3, (p - 1) / 2.0 + 0.7)
    logdet = matrix_beta_logdet(prm, RngStream(30 + p), size=200000)
    for h in (-0.4, 0.5, 1.3):
        mean_within(np.exp(h * logdet), matrix_beta_det_moment(prm, h), k=4.0)
    # E log|X| = sum_i psi(a - i/2) - psi(a + b - i/2), i = 0..p-1
    expect = sum(digamma(prm.a - i / 2.0) - digamma(prm.a + prm.b - i / 2.0) for i in range(p))
    mean_within(logdet, expect, k=4.0)


@pytest.mark.parametrize("p", [2, 3])
def test_matrix_beta_logdet_matches_factor_law(p):
    # two samples of log|X|, from p univariate betas and from the factor
    prm = BetaMatParams(p, p / 2.0 + 0.4, p / 2.0 + 0.9)
    fast = matrix_beta_logdet(prm, RngStream(34 + p), size=20000)
    slow = smallmat.logdet(matrix_beta_factor(prm, RngStream(36 + p), size=20000))
    assert stats.ks_2samp(fast, slow).pvalue > 0.01


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("gap", [0.05, 0.3])
def test_matrix_beta_logdet_moments_near_the_bound(p, gap):
    # the last univariate beta has first shape a - (p-1)/2 = gap; at p = 2
    # it is paired with beta(a, b), at p = 3 it is drawn alone
    prm = BetaMatParams(p, (p - 1) / 2.0 + gap, (p - 1) / 2.0 + 0.8)
    logdet = matrix_beta_logdet(prm, RngStream(50 + p), size=200000)
    assert np.all(np.isfinite(logdet))
    for h in (0.5, 1.3):
        mean_within(np.exp(h * logdet), matrix_beta_det_moment(prm, h), k=4.0)
    expect = sum(digamma(prm.a - i / 2.0) - digamma(prm.a + prm.b - i / 2.0) for i in range(p))
    mean_within(logdet, expect, k=4.0)


@pytest.mark.parametrize("p,df", [(1, 0.7), (2, 1.4), (3, 6.0)])
def test_wishart_logdet_is_the_bartlett_factors_logdet(p, df):
    # the same chi-squares on the same stream: the log-determinant of the
    # factor that wishart_factor goes on to build
    got = wishart_logdet(p, df, RngStream(44, p), size=1000)
    expect = smallmat.logdet(wishart_factor(p, df, RngStream(44, p), size=1000))
    np.testing.assert_allclose(got, expect, rtol=1e-13, atol=1e-13)
    with pytest.raises(DomainError):
        wishart_logdet(p, p - 1.0, RngStream(44, p), size=10)


def test_matrix_beta_det_moment_scalar_reduction():
    # at p=1 the determinant moment is the ordinary beta moment B(a+h,b)/B(a,b)
    got = matrix_beta_det_moment(BetaMatParams(1, 2.0, 3.0), 1.5)
    expect = np.exp(gammaln(3.5) + gammaln(5.0) - gammaln(2.0) - gammaln(6.5))
    np.testing.assert_allclose(got, expect, rtol=1e-12)


def test_matrix_beta_complement_symmetry():
    # X ~ beta(a,b) implies I - X ~ beta(b,a); compare determinant moments
    x = sample_matrix_beta(BetaMatParams(2, 2.0, 1.5), RngStream(8), size=100000)
    comp = np.linalg.det(np.eye(2) - x)
    mean_within(comp, matrix_beta_det_moment(BetaMatParams(2, 1.5, 2.0), 1.0))


def test_matrix_beta_domain():
    with pytest.raises(DomainError):
        BetaMatParams(2, 0.5, 2.0)


def test_chain_single_slot_is_plain_beta():
    prm = BetaMatParams(2, 2.0, 3.0)
    xs = sample_dirichlet_chain([prm], RngStream(9), size=8)
    direct = sample_matrix_beta(prm, RngStream(9), size=8)
    np.testing.assert_allclose(xs[0], direct, atol=1e-12)


def test_chain_scalar_dirichlet_moments():
    # (X1, X2) scalar Dirichlet(a1, a2; a3): E[X1^m X2^n] in closed form
    a1, a2, a3 = 1.5, 2.0, 2.5

    def dir_moment(m, n):
        a = a1 + a2 + a3
        return np.exp(
            gammaln(a1 + m) + gammaln(a2 + n) + gammaln(a)
            - gammaln(a1) - gammaln(a2) - gammaln(a + m + n)
        )

    pairs = [BetaMatParams(1, a1, a2 + a3), BetaMatParams(1, a2, a3)]
    xs = sample_dirichlet_chain(pairs, RngStream(10), size=100000)
    x1, x2 = xs[0][:, 0, 0], xs[1][:, 0, 0]
    for m, n in [(1, 0), (0, 1), (1, 1), (2, 1)]:
        mean_within(x1**m * x2**n, dir_moment(m, n))


@pytest.mark.parametrize("p", [2, 3])
def test_chain_slot_means(p):
    # the chain law itself, for any factor L_1 of I - X_1: E X_1 = c_1 I and
    # E X_2 = E[L_1 Y_2 L_1'] = c_2 E[I - X_1] = c_2 (1 - c_1) I, with
    # c_j = a_j / (a_j + b_j) the mean of Y_j ~ beta_p(a_j, b_j)
    pairs = [BetaMatParams(p, 2.0, 3.0), BetaMatParams(p, 1.5, 2.5)]
    c1, c2 = (prm.a / (prm.a + prm.b) for prm in pairs)
    xs = sample_dirichlet_chain(pairs, RngStream(14, p), size=20000)
    for x, c in zip(xs, (c1, c2 * (1.0 - c1))):
        want = c * np.eye(p)
        for i in range(p):
            for j in range(p):
                mean_within(x[:, i, j], want[i, j], k=4.0)


def test_chain_sum_stays_below_identity():
    pairs = [BetaMatParams(2, 2.0, 3.0)] * 3
    xs = sample_dirichlet_chain(pairs, RngStream(11), size=100000)
    top = np.linalg.eigvalsh(sum(xs)).max()
    assert top < 1.0


def test_chain_round_trip():
    pairs = [BetaMatParams(2, 2.0, 3.0)] * 3
    xs = sample_dirichlet_chain(pairs, RngStream(12), size=100)
    ys = dirichlet_chain_inverse(xs)
    for i in range(100):
        back = dirichlet_chain_forward([y[i] for y in ys])
        for j in range(3):
            np.testing.assert_allclose(back[j], xs[j][i], atol=1e-10)


def test_chain_recovered_coordinates_independent_betas():
    # the inverse chain returns the independent Y_j; their determinants are
    # uncorrelated and each follows its own beta determinant-moment law
    pairs = [BetaMatParams(2, 2.5, 4.0), BetaMatParams(2, 2.0, 2.5)]
    n = 100000
    xs = sample_dirichlet_chain(pairs, RngStream(13), size=n)
    ys = dirichlet_chain_inverse(xs)
    d = [np.linalg.det(y) for y in ys]
    corr = np.corrcoef(d[0], d[1])[0, 1]
    assert abs(corr) < 3.0 / np.sqrt(n)
    for dj, prm in zip(d, pairs):
        mean_within(dj, matrix_beta_det_moment(prm, 1.0))


def test_chain_scalar_inverse_reduction():
    # p=1, k=2: Y2 = X2 / (1 - X1)
    xs = [np.array([[0.2]]), np.array([[0.3]])]
    ys = dirichlet_chain_inverse(xs)
    np.testing.assert_allclose(ys[0][0, 0], 0.2, rtol=1e-14)
    np.testing.assert_allclose(ys[1][0, 0], 0.3 / 0.8, rtol=1e-14)


def test_chain_needs_a_pair():
    with pytest.raises(ChainDomainError):
        sample_dirichlet_chain([], RngStream(0))
