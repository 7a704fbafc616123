import numpy as np
import pytest

from kober import smallmat
from kober.errors import DimensionMismatch, NotPositiveDefinite

RTOL = 1e-12


def spd_stack(rng, p, n=500):
    # well-conditioned SPD matrices: every eigenvalue at least 0.5
    g = rng.standard_normal((n, p, p))
    return g @ np.swapaxes(g, -1, -2) / p + 0.5 * np.eye(p)


def close(got, want):
    # entries that cancel to ~0 are held to RTOL of the matrix scale
    scale = np.abs(want).max(axis=(-2, -1), keepdims=True)
    np.testing.assert_allclose(got / scale, want / scale, rtol=RTOL, atol=RTOL)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_entries_stack_round_trip(p):
    x = spd_stack(np.random.default_rng(1), p)
    assert np.array_equal(smallmat.stack(smallmat.entries(x)), x)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_cholesky_matches_numpy(p):
    s = spd_stack(np.random.default_rng(2), p)
    close(smallmat.stack(smallmat.cholesky(smallmat.entries(s))), np.linalg.cholesky(s))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_gram_and_matmul_match_numpy(p):
    rng = np.random.default_rng(3)
    a = rng.standard_normal((500, p, p))
    b = rng.standard_normal((500, p, p))
    ea, eb = smallmat.entries(a), smallmat.entries(b)
    close(smallmat.stack(smallmat.gram(ea)), a @ np.swapaxes(a, -1, -2))
    close(smallmat.stack(smallmat.matmul(ea, eb)), a @ b)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_triangular_inverse_matches_numpy(p):
    t = np.linalg.cholesky(spd_stack(np.random.default_rng(4), p))
    close(smallmat.stack(smallmat.tri_inv(smallmat.entries(t))), np.linalg.inv(t))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_spd_inverse_and_logdet_from_factor(p):
    s = spd_stack(np.random.default_rng(5), p)
    t = smallmat.cholesky(smallmat.entries(s))
    close(smallmat.stack(smallmat.gram(smallmat.inv_factor(t))), np.linalg.inv(s))
    np.testing.assert_allclose(smallmat.logdet(t), np.linalg.slogdet(s)[1], rtol=RTOL, atol=RTOL)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_congruence_matches_numpy(p):
    rng = np.random.default_rng(6)
    s = spd_stack(rng, p)
    m = rng.standard_normal((500, p, p))
    t = smallmat.cholesky(smallmat.entries(s))
    want = m @ s @ np.swapaxes(m, -1, -2)
    close(smallmat.stack(smallmat.congruence(smallmat.entries(m), t)), want)
    # a single matrix, held as floats, broadcasts over the stack
    m0 = m[0]
    close(smallmat.stack(smallmat.congruence(smallmat.entries(m0), t)), m0 @ s @ m0.T)


def test_cholesky_rejects_indefinite_member():
    s = spd_stack(np.random.default_rng(7), 2, n=4)
    s[2] = np.diag([1.0, -1e-3])
    with pytest.raises(NotPositiveDefinite):
        smallmat.cholesky(smallmat.entries(s))


def test_entries_rejects_dimension_above_cap():
    with pytest.raises(DimensionMismatch):
        smallmat.entries(np.eye(4))
