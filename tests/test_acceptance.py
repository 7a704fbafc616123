"""Acceptance checks.

One test per shipped claim, each asserting the advertised tolerance and
time budget and printing a single summary line.  These are the checks a
release is gated on; the per-module test files cover the same ground in
more depth but without the budgets.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.special import hyp1f1

from kober.cli import main as cli_main
from kober.matgamma import gamma_p, ln_gamma_p
from kober.matrix_ops import (
    MatrixOpParams,
    MCConfig,
    exp_neg_trace,
    kober_matrix_first,
    kober_matrix_second,
)
from kober.mtransform import (
    mtransform_mc,
    mtransform_mc_operator,
    verify_transform,
)
from kober.randmat import (
    BetaMatParams,
    RngStream,
    matrix_beta_det_moment,
    sample_dirichlet_chain,
    sample_matrix_beta,
)
from kober.scalar_ops import (
    callback,
    exp_decay,
    frac_derivative,
    kober_first,
    kober_second,
    power,
    riemann_liouville,
    saigo_first,
    weyl_right,
)
from kober.spd import (
    dirichlet_chain_forward,
    dirichlet_chain_inverse,
    fd_jacobian_det,
    jac_congruence,
    jac_dirichlet_chain,
    jac_inverse,
    pack,
    unpack,
)
from kober.suites import SUITES, CaseResult, SuiteResult


def _report(num, name, detail):
    print(f"[criterion {num:02d}] {name}: PASS ({detail})")


def _rel(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


# ---------------------------------------------------------------------------
# 1. scalar operators against closed forms


def test_criterion_01_scalar_closed_forms():
    t0 = time.perf_counter()
    worst = 0.0

    for zeta, alpha, lam, u in [(1.0, 0.5, 2.0, 1.0), (0.3, 1.2, 1.5, 0.7), (2.0, 0.8, 0.0, 2.5)]:
        want = math.gamma(zeta + lam + 1.0) / math.gamma(zeta + lam + 1.0 + alpha) * u**lam
        worst = max(worst, _rel(kober_first(power(lam), u, zeta=zeta, alpha=alpha), want))
    # frozen spot value: zeta=1, alpha=1/2, f = v^2 at u = 1 is 6/Gamma(4.5)
    worst = max(worst, _rel(kober_first(power(2.0), 1.0, zeta=1.0, alpha=0.5), 0.51583047638652))

    for zeta, alpha, lam, u in [(1.5, 0.5, -1.2, 1.0), (2.0, 1.1, -0.4, 0.6), (1.8, 0.7, 0.5, 2.0)]:
        want = math.gamma(zeta - lam) / math.gamma(zeta - lam + alpha) * u**lam
        worst = max(worst, _rel(kober_second(power(lam), u, zeta=zeta, alpha=alpha), want))

    for alpha, lam, x in [(0.5, 2.0, 1.0), (1.3, 0.7, 2.0)]:
        want = math.gamma(lam + 1.0) / math.gamma(lam + 1.0 + alpha) * x ** (lam + alpha)
        worst = max(worst, _rel(riemann_liouville(power(lam), x, alpha=alpha), want))

    for alpha, rate, x in [(0.7, 1.0, 1.0), (0.4, 2.0, 0.0), (2.5, 1.0, 5.0)]:
        want = rate ** (-alpha) * math.exp(-rate * x)
        worst = max(worst, _rel(weyl_right(exp_decay(rate), x, alpha=alpha), want))

    want = math.gamma(2.4) / math.gamma(3.0) * 1.5 ** (0.6 - 3.0)
    worst = max(worst, _rel(weyl_right(power(-3.0), 1.5, alpha=0.6), want))

    elapsed = time.perf_counter() - t0
    assert worst < 1e-8
    assert elapsed < 5.0
    _report(1, "scalar closed forms", f"max rel err {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Saigo operator: collapse and independent quadrature oracle


def _saigo_oracle(zeta, alpha, beta, gamma_par, lam, u):
    # independent route: tanh-sinh quadrature of the kernel after w = 1 - t,
    # with the hypergeometric factor from a separate implementation
    import mpmath as mp

    with mp.workdps(30):
        val = mp.quad(
            lambda w: mp.power(w, alpha - 1.0)
            * mp.power(1.0 - w, zeta + lam)
            * mp.hyp2f1(alpha + beta, -gamma_par, alpha, w),
            [0, 1],
        )
        return float(u**lam * val / mp.gamma(alpha))


def test_criterion_02_saigo_collapse_and_oracle():
    t0 = time.perf_counter()

    rng = np.random.default_rng(424242)
    worst_collapse = 0.0
    for _ in range(10):
        zeta = rng.uniform(0.3, 1.5)
        alpha = rng.uniform(0.2, 1.2)
        lam = rng.uniform(0.0, 2.0)
        u = rng.uniform(0.3, 2.0)
        base = kober_first(power(lam), u, zeta=zeta, alpha=alpha)
        red = saigo_first(power(lam), u, zeta=zeta, alpha=alpha, beta=-alpha, gamma=0.7)
        worst_collapse = max(worst_collapse, _rel(red, base))
    assert worst_collapse < 1e-9

    worst_oracle = 0.0
    for zeta, alpha, beta, gamma_par, lam, u in [
        (1.2, 0.6, -0.2, 0.5, 1.5, 0.9),
        (0.8, 0.9, 0.3, 1.4, 0.0, 1.3),
        (1.0, 0.5, 2.5, 2.0, 1.0, 1.0),
    ]:
        got = saigo_first(power(lam), u, zeta=zeta, alpha=alpha, beta=beta, gamma=gamma_par)
        want = _saigo_oracle(zeta, alpha, beta, gamma_par, lam, u)
        worst_oracle = max(worst_oracle, _rel(got, want))
    assert worst_oracle < 1e-7

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(
        2, "Saigo collapse and oracle",
        f"collapse {worst_collapse:.2e}, oracle {worst_oracle:.2e}, {elapsed:.2f}s",
    )


def test_saigo_whole_gap_against_oracle():
    # gamma - beta = 1 puts the kernel's 2F1 on its logarithmic case
    zeta, alpha, beta, gamma_par, lam, u = 1.2, 0.8, -0.5, 0.5, 1.5, 0.9
    got = saigo_first(power(lam), u, zeta=zeta, alpha=alpha, beta=beta, gamma=gamma_par)
    want = _saigo_oracle(zeta, alpha, beta, gamma_par, lam, u)
    assert _rel(got, want) < 1e-9


@pytest.mark.parametrize("gap", [1.0 - 1e-9, 1.0 + 1e-9, 2.0 + 3e-6])
def test_saigo_near_whole_gap_against_oracle(gap):
    # gamma - beta just off a whole number: the kernel's 2F1 takes the quartic
    # in the gap offset
    zeta, alpha, beta, lam, u = 1.27, 1.0, -0.5, 0.58, 1.07
    gamma_par = beta + gap
    got = saigo_first(power(lam), u, zeta=zeta, alpha=alpha, beta=beta, gamma=gamma_par)
    want = _saigo_oracle(zeta, alpha, beta, gamma_par, lam, u)
    assert _rel(got, want) < 1e-8


# ---------------------------------------------------------------------------
# 3. fractional derivative


def test_criterion_03_fractional_derivative():
    t0 = time.perf_counter()

    worst = 0.0
    for alpha in (0.3, 0.7, 1.5):
        for lam in (1.0, 2.5):
            for x in (0.8, 1.4):
                want = math.gamma(lam + 1.0) / math.gamma(lam + 1.0 - alpha) * x ** (lam - alpha)
                worst = max(worst, _rel(frac_derivative(power(lam), x, alpha=alpha), want))
    assert worst < 1e-5

    # derivative of the integral returns the original function: the order-a
    # integral of e^(-v) is x^a e^(-x) 1F1(a; 1+a; x) / Gamma(1+a)
    worst_comp = 0.0
    for alpha, x in [(0.7, 1.1), (0.4, 0.9)]:
        c = 1.0 / math.gamma(1.0 + alpha)

        def integral(v, alpha=alpha, c=c):
            v = np.asarray(v, dtype=float)
            return c * v**alpha * np.exp(-v) * hyp1f1(alpha, 1.0 + alpha, v)

        got = frac_derivative(
            callback(integral, zero_order=alpha, smooth_order=6), x, alpha=alpha
        )
        want = math.exp(-x)
        worst_comp = max(worst_comp, _rel(got, want))
        direct = riemann_liouville(exp_decay(1.0), x, alpha=alpha)
        assert _rel(integral(x), direct) < 1e-9
    assert worst_comp < 1e-5

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(
        3, "fractional derivative",
        f"power law {worst:.2e}, composition {worst_comp:.2e}, {elapsed:.2f}s",
    )


# ---------------------------------------------------------------------------
# 4. volume-element Jacobians against finite differences


def test_criterion_04_jacobians_vs_finite_differences():
    t0 = time.perf_counter()

    n_checked = 0
    worst = 0.0
    for p in (1, 2):
        rng = np.random.default_rng(1000 + p)
        psz = p * (p + 1) // 2

        def rand_spd(scale=1.0):
            a = rng.normal(size=(p, p))
            return scale * (a @ a.T + 0.1 * np.eye(p))

        for _ in range(3):
            a = rng.normal(size=(p, p)) + np.eye(p)
            fd = fd_jacobian_det(lambda v: pack(a @ unpack(v, p) @ a.T), pack(rand_spd()))
            worst = max(worst, _rel(fd, jac_congruence(a)))
            n_checked += 1

        for _ in range(3):
            x = rand_spd()
            fd = fd_jacobian_det(lambda v: pack(np.linalg.inv(unpack(v, p))), pack(x))
            worst = max(worst, _rel(fd, jac_inverse(x)))
            n_checked += 1

        for k in (1, 2):
            for _ in range(2):
                ys = [
                    0.5 * unpack(0.4 * rng.random(psz) + 0.2, p) + 0.15 * np.eye(p)
                    for _ in range(k)
                ]
                ys = [0.5 * (y + y.T) for y in ys]

                def fwd(flat, k=k, p=p, psz=psz):
                    blocks = [unpack(flat[j * psz : (j + 1) * psz], p) for j in range(k)]
                    return np.concatenate(
                        [pack(x) for x in dirichlet_chain_forward(blocks)]
                    )

                fd = fd_jacobian_det(fwd, np.concatenate([pack(y) for y in ys]))
                worst = max(worst, _rel(fd, jac_dirichlet_chain(ys)))
                n_checked += 1

    elapsed = time.perf_counter() - t0
    assert n_checked == 20
    assert worst < 1e-3
    assert elapsed < 10.0
    _report(4, "Jacobians vs finite differences", f"20 points, max rel err {worst:.2e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 5. matrix gamma function and the beta normalization integral


def test_criterion_05_beta_normalization_and_gamma_recurrence():
    t0 = time.perf_counter()

    # recurrence in the dimension and the scalar reduction
    worst_exact = 0.0
    for a in (1.3, 2.0, 3.7, 5.25):
        worst_exact = max(worst_exact, _rel(gamma_p(1, a), math.gamma(a)))
        for p in (2, 3):
            want = math.pi ** ((p - 1) / 2.0) * math.gamma(a) * gamma_p(p - 1, a - 0.5)
            worst_exact = max(worst_exact, _rel(gamma_p(p, a), want))
    assert worst_exact < 1e-12

    # the normalization integral of the p=2 matrix beta density, estimated by
    # importance sampling from a nearby beta law: the weights must mean to 1
    p, n = 2, 2000000
    a1, b1 = 2.3, 1.8
    a0, b0 = 2.0, 2.0
    x = sample_matrix_beta(BetaMatParams(p, a0, b0), RngStream(5), size=n)
    ld_x = np.linalg.slogdet(x)[1]
    ld_c = np.linalg.slogdet(np.eye(p) - x)[1]
    ln_c1 = ln_gamma_p(p, a1 + b1) - ln_gamma_p(p, a1) - ln_gamma_p(p, b1)
    ln_c0 = ln_gamma_p(p, a0 + b0) - ln_gamma_p(p, a0) - ln_gamma_p(p, b0)
    w = np.exp(ln_c1 - ln_c0 + (a1 - a0) * ld_x + (b1 - b0) * ld_c)
    est = float(w.mean())
    se = float(w.std(ddof=1)) / math.sqrt(n)
    dev = abs(est - 1.0) / se
    assert dev < 3.0

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(
        5, "beta normalization and gamma recurrence",
        f"exact {worst_exact:.2e}, normalization {est:.6f} ({dev:.2f} s.e.), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 6. Dirichlet chain round trip and recovered coordinates


def test_criterion_06_chain_roundtrip_and_recovered_moments():
    t0 = time.perf_counter()

    pairs = [BetaMatParams(2, 1.5 + 0.5 * j, 2.5 + 0.5 * j) for j in range(3)]
    ys = [
        sample_matrix_beta(prm, RngStream(77, j), size=100)
        for j, prm in enumerate(pairs)
    ]
    xs = dirichlet_chain_forward(ys)
    back = dirichlet_chain_inverse(xs)
    worst_rt = max(float(np.abs(b - y).max()) for b, y in zip(back, ys))
    assert worst_rt < 1e-10

    pairs2 = [BetaMatParams(2, 2.5, 4.0), BetaMatParams(2, 2.0, 2.5)]
    n = 100000
    xs2 = sample_dirichlet_chain(pairs2, RngStream(78), size=n)
    ys2 = dirichlet_chain_inverse(xs2)
    worst_dev = 0.0
    for y, prm in zip(ys2, pairs2):
        want = matrix_beta_det_moment(prm, 1.0)
        vals = np.linalg.det(y)
        se = float(vals.std(ddof=1)) / math.sqrt(n)
        worst_dev = max(worst_dev, abs(float(vals.mean()) - want) / se)
    assert worst_dev < 3.0

    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(
        6, "chain round trip and recovered moments",
        f"round trip {worst_rt:.2e}, moments within {worst_dev:.2f} s.e., {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 7. matrix operator estimators against scalar quadrature, with the
#    Monte Carlo error decaying as 1/sqrt(N)


def test_criterion_07_matrix_estimators_p1_and_error_decay():
    t0 = time.perf_counter()

    f1 = exp_neg_trace(1, 1)
    worst_dev = 0.0
    for kind, mat_fn, quad_fn in [
        ("first", kober_matrix_first, kober_first),
        ("second", kober_matrix_second, kober_second),
    ]:
        prm = MatrixOpParams(kind, 1, 1, ((1.5, 0.7),))
        for u in (0.7, 1.5):
            est = mat_fn(prm, f1, [u * np.eye(1)], MCConfig(n_samples=100000, seed=21, n_streams=16))
            want = quad_fn(exp_decay(1.0), u, zeta=1.5, alpha=0.7)
            worst_dev = max(worst_dev, abs(est.value - want) / est.se)
    assert worst_dev < 3.0

    prm = MatrixOpParams("first", 1, 1, ((1.5, 0.7),))
    ns = [10000, 100000, 1000000]
    log_se = []
    for n in ns:
        ses = [
            kober_matrix_first(
                prm, f1, [np.eye(1)], MCConfig(n_samples=n, seed=sd, n_streams=16)
            ).se
            for sd in range(12)
        ]
        log_se.append(math.log(sum(ses) / len(ses)))
    slope = float(np.polyfit(np.log(ns), log_se, 1)[0])
    assert abs(slope + 0.5) < 0.05

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(
        7, "matrix estimators and error decay",
        f"quadrature match within {worst_dev:.2f} s.e., slope {slope:.3f}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 8. second-kind transform identity


def test_criterion_08_second_kind_transform():
    t0 = time.perf_counter()

    prm1 = MatrixOpParams("second", 1, 1, ((1.5, 0.7),))
    reps = verify_transform("second", prm1, exp_neg_trace(1, 1), [0.6, 0.9, 1.3, 1.8, 2.4])
    worst_ratio = max(abs(r.ratio - 1.0) for r in reps)
    assert all(r.passed for r in reps)

    prm2 = MatrixOpParams("second", 1, 2, ((1.5, 0.7), (2.2, 1.1)))
    grid2 = [(1.3, 0.8), (0.7, 1.6), (1.1, 1.1), (1.7, 0.9), (0.8, 1.4)]
    reps2 = verify_transform("second", prm2, exp_neg_trace(1, 2), grid2)
    worst_ratio = max(worst_ratio, max(abs(r.ratio - 1.0) for r in reps2))
    assert all(r.passed for r in reps2)
    assert worst_ratio < 1e-6

    prm_mc = MatrixOpParams("second", 2, 1, ((1.8, 0.9),))
    mc = MCConfig(n_samples=1000000, seed=3, n_streams=16)
    reps_mc = verify_transform("second", prm_mc, exp_neg_trace(2, 1), [1.2, 1.9], mc)
    worst_dev = max(abs(r.lhs - r.rhs) / r.se for r in reps_mc)
    worst_rel = max(abs(r.ratio - 1.0) for r in reps_mc)
    assert all(r.passed for r in reps_mc)
    assert worst_dev < 3.0 and worst_rel < 0.02

    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    _report(
        8, "second-kind transform identity",
        f"p=1 ratio err {worst_ratio:.2e}, p=2 within {worst_dev:.2f} s.e. "
        f"(rel {worst_rel:.4f}), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 9. first-kind transform identity with its domain bound


def test_criterion_09_first_kind_transform():
    t0 = time.perf_counter()

    prm1 = MatrixOpParams("first", 1, 1, ((1.5, 0.7),))
    reps = verify_transform("first", prm1, exp_neg_trace(1, 1), [0.4, 1.0, 1.6, 2.2, 2.45])
    worst_ratio = max(abs(r.ratio - 1.0) for r in reps)
    assert all(r.passed for r in reps)

    # the pole of the closed form sits at s = zeta + 1; beyond it the
    # transform must refuse rather than return a number
    oob = verify_transform("first", prm1, exp_neg_trace(1, 1), [2.8])[0]
    assert oob.status == "domain-error"
    assert oob.lhs is None and oob.rhs is None

    prm2 = MatrixOpParams("first", 1, 2, ((1.5, 0.7), (2.2, 1.1)))
    grid2 = [(1.3, 0.8), (0.7, 1.6), (2.0, 2.8), (1.1, 2.2), (2.3, 1.5)]
    reps2 = verify_transform("first", prm2, exp_neg_trace(1, 2), grid2)
    worst_ratio = max(worst_ratio, max(abs(r.ratio - 1.0) for r in reps2))
    assert all(r.passed for r in reps2)
    assert worst_ratio < 1e-6

    prm_mc = MatrixOpParams("first", 2, 1, ((1.8, 0.9),))
    mc = MCConfig(n_samples=1000000, seed=3, n_streams=16)
    reps_mc = verify_transform("first", prm_mc, exp_neg_trace(2, 1), [1.2, 1.9], mc)
    worst_dev = max(abs(r.lhs - r.rhs) / r.se for r in reps_mc)
    worst_rel = max(abs(r.ratio - 1.0) for r in reps_mc)
    assert all(r.passed for r in reps_mc)
    assert worst_dev < 3.0 and worst_rel < 0.02

    elapsed = time.perf_counter() - t0
    assert elapsed < 180.0
    _report(
        9, "first-kind transform identity",
        f"p=1 ratio err {worst_ratio:.2e}, domain bound enforced, "
        f"p=2 within {worst_dev:.2f} s.e. (rel {worst_rel:.4f}), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 10. density interpretation: the transform through density-mode draws
#     agrees with the direct operator transform


def test_criterion_10_density_identity():
    t0 = time.perf_counter()

    prm = MatrixOpParams("second", 2, 1, ((1.8, 0.9),))
    f = exp_neg_trace(2, 1)
    worst_dev = 0.0
    for s in (1.2, 1.6):
        a = mtransform_mc(prm, f, s, MCConfig(n_samples=400000, seed=9, n_streams=16))
        b = mtransform_mc_operator(prm, f, s, MCConfig(n_samples=400000, seed=10, n_streams=16))
        dev = abs(a.value - b.value) / math.hypot(a.se, b.se)
        worst_dev = max(worst_dev, dev)
    assert worst_dev < 3.0

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(
        10, "density identity",
        f"two routes agree within {worst_dev:.2f} combined s.e., {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 11. command line determinism and exit statuses


def test_criterion_11_cli_determinism_and_exit_codes(tmp_path, capsys, monkeypatch):
    t0 = time.perf_counter()

    cmd = [sys.executable, "-m", "kober.cli", "verify", "--suite", "scalar-closed-forms", "--seed", "7"]
    run1 = subprocess.run(cmd, capture_output=True)
    run2 = subprocess.run(cmd, capture_output=True)
    assert run1.returncode == 0 and run2.returncode == 0
    assert run1.stdout == run2.stdout
    doc = json.loads(run1.stdout)
    assert doc["suite"] == "scalar-closed-forms" and doc["seed"] == 7

    bad = subprocess.run(
        [sys.executable, "-m", "kober.cli", "verify", "--suite", "mystery"],
        capture_output=True,
    )
    assert bad.returncode == 2
    assert b"scalar-closed-forms" in bad.stderr

    out_file = tmp_path / "never.json"
    code = cli_main(
        ["eval", "--op", "kober2", "--zeta", "0.2", "--alpha", "0.5",
         "--f", "power:1", "--u", "1", "--out", str(out_file)]
    )
    capsys.readouterr()
    assert code == 2
    assert not out_file.exists()

    def broken(seed, p=None, n_samples=None):
        case = CaseResult("always-wrong", "none", 1.0, 2.0, None, 1e-9, False)
        return SuiteResult("jacobians", seed, [case], 0.0)

    monkeypatch.setitem(SUITES, "jacobians", broken)
    code = cli_main(["verify", "--suite", "jacobians"])
    capsys.readouterr()
    assert code == 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(
        11, "CLI determinism and exit codes",
        f"byte-identical reruns, exit codes 0/1/2 verified, {elapsed:.1f}s",
    )
