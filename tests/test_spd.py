import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kober.errors import DimensionMismatch, DomainError, NotPositiveDefinite, OutOfRange
from kober.spd import (
    dirichlet_chain_forward,
    dirichlet_chain_inverse,
    fd_jacobian_det,
    jac_congruence,
    jac_dirichlet_chain,
    jac_inverse,
    loewner_lt,
    pack,
    require_spd,
    require_symmetric,
    spd_check,
    sym_inv_sqrt,
    sym_sqrt,
    unpack,
)


def rand_spd(rng, p, scale=1.0):
    a = rng.normal(size=(p, p))
    return scale * (a @ a.T + p * np.eye(p))


def rand_contraction(rng, p, scale=0.05):
    # an SPD matrix strictly below the identity in the Loewner order
    while True:
        y = rand_spd(rng, p, scale)
        if spd_check(np.eye(p) - y).is_pd:
            return y


@pytest.mark.parametrize("p", [1, 2, 3])
def test_pack_unpack_round_trip(p):
    rng = np.random.default_rng(3)
    x = rand_spd(rng, p)
    np.testing.assert_allclose(unpack(pack(x), p), x, atol=1e-14)


def test_pack_length():
    rng = np.random.default_rng(4)
    assert pack(rand_spd(rng, 3)).shape == (6,)


def test_spd_check_reports_min_eigenvalue():
    chk = spd_check(np.diag([2.0, 0.5]))
    assert chk.is_pd
    np.testing.assert_allclose(chk.min_eigenvalue, 0.5)
    assert not spd_check(np.diag([1.0, -1e-3])).is_pd


def test_require_spd_raises():
    with pytest.raises(NotPositiveDefinite):
        require_spd(np.diag([1.0, 0.0]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_require_spd_refuses_a_non_finite_entry_without_a_warning(bad):
    a = np.tile(np.eye(2), (3, 1, 1))
    a[1, 0, 1] = a[1, 1, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="non-finite"):
            require_spd(a)


def test_symmetry_tolerance_is_relative_to_the_largest_entry():
    a = np.array([[4.0, 1.0], [1.0, 3.0]])
    tol = 1e-10 * (1.0 + 4.0)
    for off, ok in ((0.9 * tol, True), (1.1 * tol, False)):
        b = a.copy()
        b[0, 1] += off
        if ok:
            np.testing.assert_allclose(require_symmetric(b), 0.5 * (b + b.T), rtol=0, atol=0)
        else:
            with pytest.raises(DimensionMismatch, match="not symmetric"):
                require_symmetric(b)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_sym_sqrt_round_trip(p):
    rng = np.random.default_rng(5)
    x = rand_spd(rng, p)
    r = sym_sqrt(x)
    np.testing.assert_allclose(r @ r, x, rtol=1e-12, atol=1e-12)
    ri = sym_inv_sqrt(x)
    np.testing.assert_allclose(ri @ x @ ri, np.eye(p), rtol=1e-12, atol=1e-12)


def test_sym_sqrt_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        sym_sqrt(np.diag([1.0, -2.0]))


def test_loewner_order():
    a = np.diag([0.2, 0.3])
    b = np.diag([0.5, 0.6])
    assert loewner_lt(a, b)
    assert not loewner_lt(b, a)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_congruence_jacobian_matches_finite_differences(p):
    rng = np.random.default_rng(7)
    a = rng.normal(size=(p, p))
    x0 = rand_spd(rng, p)
    fd = abs(fd_jacobian_det(lambda v: pack(a @ unpack(v, p) @ a.T), pack(x0)))
    np.testing.assert_allclose(jac_congruence(a), fd, rtol=1e-6)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_inverse_jacobian_matches_finite_differences(p):
    rng = np.random.default_rng(8)
    x0 = rand_spd(rng, p)
    fd = abs(fd_jacobian_det(lambda v: pack(np.linalg.inv(unpack(v, p))), pack(x0)))
    np.testing.assert_allclose(jac_inverse(x0), fd, rtol=1e-6)


@pytest.mark.parametrize("p,k", [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)])
def test_dirichlet_chain_round_trip(p, k):
    rng = np.random.default_rng(9)
    ys = [rand_contraction(rng, p) for _ in range(k)]
    xs = dirichlet_chain_forward(ys)
    back = dirichlet_chain_inverse(xs)
    for y, y2 in zip(ys, back):
        np.testing.assert_allclose(y, y2, atol=1e-12)


@pytest.mark.parametrize("p,k", [(1, 3), (2, 2), (2, 3), (3, 2)])
def test_dirichlet_chain_jacobian_matches_finite_differences(p, k):
    rng = np.random.default_rng(10)
    ys = [rand_contraction(rng, p) for _ in range(k)]
    d = p * (p + 1) // 2

    def fwd(v):
        ys_ = [unpack(v[i * d : (i + 1) * d], p) for i in range(k)]
        return np.concatenate([pack(x) for x in dirichlet_chain_forward(ys_)])

    v0 = np.concatenate([pack(y) for y in ys])
    fd = abs(fd_jacobian_det(fwd, v0))
    np.testing.assert_allclose(jac_dirichlet_chain(ys), fd, rtol=1e-6)


@given(st.lists(st.floats(0.01, 0.6), min_size=2, max_size=3))
@settings(max_examples=50, deadline=None)
def test_scalar_chain_is_stick_breaking(fracs):
    # at p = 1 the forward chain is x_j = y_j * prod_{i<j} (1 - y_i)
    ys = [np.array([[f]]) for f in fracs]
    xs = dirichlet_chain_forward(ys)
    left = 1.0
    for f, x in zip(fracs, xs):
        np.testing.assert_allclose(x[0, 0], f * left, rtol=1e-12)
        left *= 1.0 - f
    # partial sums stay inside the simplex
    assert sum(x[0, 0] for x in xs) < 1.0


def test_chain_forward_rejects_non_contraction():
    ys = [np.array([[0.5]]), np.array([[1.2]])]
    with pytest.raises((OutOfRange, NotPositiveDefinite)):
        dirichlet_chain_forward(ys)


def test_chain_inverse_rejects_mass_at_boundary():
    xs = [np.array([[0.7]]), np.array([[0.3]])]
    with pytest.raises((OutOfRange, NotPositiveDefinite)):
        dirichlet_chain_inverse(xs)


def test_chain_boundary_is_the_same_in_both_directions():
    # the complement after y_2 is 0.5e-13, inside the boundary margin: the
    # forward map must refuse it as the inverse does, or the round trip hold
    ys = [np.array([[0.5]]), np.array([[1.0 - 1e-13]])]
    try:
        xs = dirichlet_chain_forward(ys)
    except OutOfRange:
        with pytest.raises(OutOfRange):
            dirichlet_chain_inverse([np.array([[0.5]]), np.array([[0.5 * (1.0 - 1e-13)]])])
    else:
        for y, y2 in zip(ys, dirichlet_chain_inverse(xs)):
            np.testing.assert_allclose(y, y2, rtol=1e-9)
