import json
import math

import pytest

from kober.cli import DEFAULT_SEED, main, render_csv, render_json
from kober.suites import SUITES, CaseResult, SuiteResult

EXPECTED_KOBER1 = 0.51583047638652  # Gamma(4)/Gamma(4.5) for zeta=1, alpha=0.5, f=v^2


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_eval_kober1_power_closed_form(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--op", "kober1", "--zeta", "1", "--alpha", "0.5",
        "--f", "power:2", "--u", "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["op"] == "kober1"
    assert doc["seed"] == DEFAULT_SEED
    row = doc["rows"][0]
    assert row["point"] == 1
    assert math.isclose(row["value"], EXPECTED_KOBER1, rel_tol=1e-11)


def test_eval_weyl_exp_eigenfunction_csv(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--op", "weyl-right", "--alpha", "0.7",
        "--f", "exp", "--x", "1", "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "point,value,err"
    value = float(lines[1].split(",")[1])
    assert math.isclose(value, math.exp(-1.0), rel_tol=1e-10)


def test_eval_weyl_left_exp_growth(capsys):
    # (1/Gamma(alpha)) int_{-inf}^x (x-v)^(alpha-1) e^(rate v) dv = e^(rate x) rate^(-alpha)
    code, out, _ = run_cli(
        capsys, "eval", "--op", "weyl-left", "--f", "exp-growth:0.5", "--alpha", "0.8", "--x", "2",
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert math.isclose(row["value"], math.e * 0.5**-0.8, rel_tol=1e-10)


def test_eval_saigo_whole_gap_closed_form(capsys):
    # gamma - beta = 1 is the logarithmic 2F1 case; on f = v^lam the operator
    # is u^lam G(d) G(d - beta + gamma) / (G(d - beta) G(d + alpha + gamma)),
    # d = zeta + lam + 1
    code, out, _ = run_cli(
        capsys, "eval", "--op", "saigo", "--zeta", "1.2", "--alpha", "0.8",
        "--beta", "-0.5", "--gamma", "0.5", "--f", "power:1.5", "--u", "0.9",
    )
    assert code == 0
    d = 1.2 + 1.5 + 1.0
    expect = 0.9**1.5 * math.gamma(d) * math.gamma(d + 1.0) / (
        math.gamma(d + 0.5) * math.gamma(d + 0.8 + 0.5)
    )
    row = json.loads(out)["rows"][0]
    assert math.isclose(row["value"], expect, rel_tol=1e-10)


def test_eval_riemann_liouville_at_the_terminal_is_exact_zero(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--op", "riemann-liouville", "--f", "exp",
        "--alpha", "0.5", "--x", "0",
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["value"] == 0
    assert row["err"] == 0


def test_eval_missing_params_exit_2(capsys):
    code, _, err = run_cli(capsys, "eval", "--op", "kober1", "--f", "power:2", "--u", "1")
    assert code == 2
    assert "--zeta" in err


def test_eval_unknown_op_exit_2(capsys):
    code, _, err = run_cli(capsys, "eval", "--op", "mystery", "--f", "exp", "--x", "1")
    assert code == 2
    assert "unknown operator" in err


def test_eval_unknown_test_function_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "eval", "--op", "kober1", "--zeta", "1", "--alpha", "0.5",
        "--f", "mystery", "--u", "1",
    )
    assert code == 2
    assert "test function" in err


def test_eval_domain_error_exit_2_without_partial_output(tmp_path, capsys):
    out_file = tmp_path / "result.json"
    # zeta + m <= 0: the second kind integral diverges for this tail
    code, _, err = run_cli(
        capsys, "eval", "--op", "kober2", "--zeta", "0.2", "--alpha", "0.5",
        "--f", "power:1", "--u", "1", "--out", str(out_file),
    )
    assert code == 2
    assert "diverges" in err
    assert not out_file.exists()


def test_eval_matrix_operator_reports_se(capsys):
    code, out, _ = run_cli(
        capsys, "eval", "--op", "kober2-mat", "--p", "1", "--zeta", "1.5",
        "--alpha", "0.7", "--f", "exp", "--u", "1", "--n-samples", "20000",
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["se"] > 0.0
    # second kind at U = I against the scalar quadrature value
    from kober.scalar_ops import exp_decay, kober_second

    want = kober_second(exp_decay(1.0), 1.0, zeta=1.5, alpha=0.7)
    assert abs(row["value"] - want) < 4.0 * row["se"] + 1e-4


def test_registry_names_are_stable():
    assert set(SUITES) == {
        "scalar-closed-forms",
        "jacobians",
        "beta-moments",
        "dirichlet-chain",
        "mtransform-first",
        "mtransform-second",
        "density-identity",
    }


def test_verify_scalar_suite_passes(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "scalar-closed-forms")
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "scalar-closed-forms"
    assert doc["seed"] == DEFAULT_SEED
    assert doc["cases"]
    for case in doc["cases"]:
        assert set(case) == {"id", "ref", "expected", "got", "se", "tol", "pass"}
        assert case["pass"] is True
    assert "passed" in err


def test_verify_unknown_suite_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "mystery")
    assert code == 2
    assert "scalar-closed-forms" in err and "density-identity" in err


def test_verify_byte_identical_reruns(capsys):
    args = ("verify", "--suite", "beta-moments", "--seed", "3", "--n-samples", "20000")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_seed_changes_monte_carlo_output(capsys):
    base = ("verify", "--suite", "beta-moments", "--n-samples", "20000")
    _, out1, _ = run_cli(capsys, *base, "--seed", "3")
    _, out2, _ = run_cli(capsys, *base, "--seed", "4")
    assert out1 != out2


def test_verify_failed_case_exit_1(capsys, monkeypatch):
    def broken(seed, p=None, n_samples=None):
        case = CaseResult("always-wrong", "none", 1.0, 2.0, None, 1e-9, False)
        return SuiteResult("jacobians", seed, [case], 0.0)

    monkeypatch.setitem(SUITES, "jacobians", broken)
    code, out, _ = run_cli(capsys, "verify", "--suite", "jacobians")
    assert code == 1
    assert json.loads(out)["cases"][0]["pass"] is False


def test_verify_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "scalar-closed-forms", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "suite,seed,id,ref,expected,got,se,tol,pass"
    assert all(line.endswith("true") for line in lines[1:])


def test_config_file_supplies_flags_and_flags_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# demonstration run\n"
        "op = kober1\n"
        "zeta = 1\n"
        "alpha = 0.5\n"
        "f = power:2\n"
        "u = 0.5, 1\n"
        "format = csv\n"
    )
    code, out, _ = run_cli(capsys, "eval", "--config", str(cfg))
    assert code == 0
    assert len(out.splitlines()) == 3  # header + two points

    code, out, _ = run_cli(capsys, "eval", "--config", str(cfg), "--u", "2")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[1].startswith("2,")


def test_config_file_bad_key_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mystery = 1\n")
    code, _, err = run_cli(capsys, "eval", "--config", str(cfg))
    assert code == 2
    assert "unknown key" in err


def test_env_seed_overrides_default_only(capsys, monkeypatch):
    monkeypatch.setenv("KOBER_SEED", "5")
    _, out, _ = run_cli(capsys, "verify", "--suite", "scalar-closed-forms")
    assert json.loads(out)["seed"] == 5
    _, out, _ = run_cli(capsys, "verify", "--suite", "scalar-closed-forms", "--seed", "9")
    assert json.loads(out)["seed"] == 9


def test_table_power_normalized_column_is_constant(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--op", "kober1", "--zeta", "1", "--alpha", "0.5",
        "--f", "power:2", "--u", "0.5", "--u", "1", "--u", "2",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].endswith("value_over_point_pow")
    consts = [float(line.split(",")[3]) for line in lines[1:]]
    assert max(consts) - min(consts) < 1e-12
    assert math.isclose(consts[0], EXPECTED_KOBER1, rel_tol=1e-11)


def test_table_transform_ratio_near_one(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--op", "mtransform-second", "--zeta", "1.5",
        "--alpha", "0.7", "--f", "exp", "--s", "0.8", "--s", "1.6",
    )
    assert code == 0
    for line in out.splitlines()[1:]:
        parts = line.split(",")
        assert abs(float(parts[3]) - 1.0) < 1e-6
        assert parts[4] == "ok"


def test_table_out_of_domain_row_is_marked(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--op", "mtransform-first", "--zeta", "1.5",
        "--alpha", "0.7", "--f", "exp", "--s", "1.0", "--s", "4.0",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[1].endswith("ok")
    assert lines[2].endswith("domain-error")


@pytest.mark.parametrize(
    "op,zeta,s", [("mtransform-second", "1.8", "200"), ("mtransform-first", "300", "180")]
)
def test_table_transform_overflow_exit_2(tmp_path, capsys, op, zeta, s):
    # Gamma(s) of exp(-v) exceeds the double range; exit 1 means a failed case
    out_file = tmp_path / "table.csv"
    code, out, err = run_cli(
        capsys, "table", "--op", op, "--zeta", zeta, "--alpha", "0.9",
        "--s", s, "--out", str(out_file),
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: RatioOverflow:")
    assert not out_file.exists()


@pytest.mark.parametrize("op", ["mtransform-second", "mtransform-first"])
def test_table_order_past_the_gamma_range_exit_2(capsys, op):
    # Gamma(200) overflows a double while the transform itself underflows
    # (Gamma(2.8) / Gamma(202.8) ~ 1e-375): one error line, no traceback
    code, out, err = run_cli(
        capsys, "table", "--op", op, "--zeta", "1.8", "--alpha", "200", "--s", "1",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: RatioOverflow:")
    assert len(err.splitlines()) == 1


def test_table_status_marks_a_ratio_outside_the_tolerance(capsys):
    # at alpha = 170 the second-kind transform, about 1e-310, is subnormal,
    # and the tensor route misses it by 1.7e-5 relative, past QUAD_TOL = 1e-6
    code, out, _ = run_cli(
        capsys, "table", "--op", "mtransform-second", "--zeta", "1.8",
        "--alpha", "170", "--s", "1",
    )
    assert code == 0
    parts = out.splitlines()[1].split(",")
    assert abs(float(parts[3]) - 1.0) > 1e-6
    assert parts[4] == "fail"


@pytest.mark.parametrize("alpha", ["40", "80", "150"])
def test_table_holds_the_second_kind_transform_at_large_order(capsys, alpha):
    # the doubling takes these to 256 or 512 nodes; fixed (48, 64) rules
    # missed alpha = 40 and 80 by 1.4e-6 and 1.1e-5
    code, out, _ = run_cli(
        capsys, "table", "--op", "mtransform-second", "--zeta", "1.8",
        "--alpha", alpha, "--s", "1",
    )
    assert code == 0
    parts = out.splitlines()[1].split(",")
    assert abs(float(parts[3]) - 1.0) < 1e-9
    assert parts[4] == "ok"


def test_table_empty_grid_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "table", "--op", "kober1", "--zeta", "1", "--alpha", "0.5",
        "--f", "power:2",
    )
    assert code == 2
    assert "empty grid" in err


def test_output_file_written_only_on_success(tmp_path, capsys):
    out_file = tmp_path / "table.csv"
    code, _, _ = run_cli(
        capsys, "table", "--op", "kober1", "--zeta", "1", "--alpha", "0.5",
        "--f", "power:2", "--u", "1", "--out", str(out_file),
    )
    assert code == 0
    raw = out_file.read_bytes()
    assert raw.startswith(b"point,value")
    assert b"\r\n" in raw


def test_render_json_twelve_significant_digits():
    assert render_json(1.0 / 3.0) == "0.333333333333"
    assert render_json({"a": True, "b": None}) == '{\n  "a": true,\n  "b": null\n}'
    assert render_json([1, 2.5]) == "[\n  1,\n  2.5\n]"


def test_render_csv_rfc4180_line_endings():
    text = render_csv(("a", "b"), [(1.5, None), ("x,y", False)])
    assert text == 'a,b\r\n1.5,\r\n"x,y",false\r\n'


def test_cli_entry_via_module(tmp_path):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "kober.cli", "eval", "--op", "kober1",
         "--zeta", "1", "--alpha", "0.5", "--f", "power:2", "--u", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert math.isclose(
        json.loads(proc.stdout)["rows"][0]["value"], EXPECTED_KOBER1, rel_tol=1e-11
    )


def _config(tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    return str(cfg)


def test_config_file_non_numeric_value_exit_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "eval", "--config", _config(tmp_path, "p = two\n"))
    assert code == 2
    assert "bad value for 'p'" in err


def test_config_file_hyphenated_key_matches_the_flag(tmp_path, capsys):
    base = ("eval", "--op", "kober2-mat", "--zeta", "1.5", "--alpha", "0.7", "--f", "exp",
            "--u", "1")
    cfg = _config(tmp_path, "n-samples = 5000\n")
    code, from_file, _ = run_cli(capsys, *base, "--config", cfg)
    assert code == 0
    _, from_flag, _ = run_cli(capsys, *base, "--n-samples", "5000")
    _, default, _ = run_cli(capsys, *base, "--n-samples", "6000")
    assert from_file == from_flag != default


def test_config_file_lists_split_on_spaces_and_commas(tmp_path, capsys):
    cfg = _config(
        tmp_path,
        "op = kober1\nzeta = 1\nalpha = 0.5\nf = power:2\nu = 0.5 1, 2,4\nformat = csv\n",
    )
    code, out, _ = run_cli(capsys, "eval", "--config", cfg)
    assert code == 0
    points = [line.split(",")[0] for line in out.splitlines()[1:]]
    assert points == ["0.5", "1", "2", "4"]


def test_config_file_unknown_format_exit_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "eval", "--config", _config(tmp_path, "format = xml\n"))
    assert code == 2
    assert "unknown format" in err


def test_config_file_cannot_name_another_config(tmp_path, capsys):
    code, _, err = run_cli(capsys, "eval", "--config", _config(tmp_path, "config = x\n"))
    assert code == 2
    assert "unknown key 'config'" in err


def test_seed_order_flag_file_env_default(tmp_path, capsys, monkeypatch):
    cfg = _config(tmp_path, "seed = 7\n")
    verify = ("verify", "--suite", "jacobians")

    def seed(*argv):
        code, out, _ = run_cli(capsys, *verify, *argv)
        assert code == 0
        return json.loads(out)["seed"]

    monkeypatch.delenv("KOBER_SEED", raising=False)
    assert seed() == DEFAULT_SEED
    monkeypatch.setenv("KOBER_SEED", "5")
    assert seed() == 5
    assert seed("--config", cfg) == 7
    assert seed("--config", cfg, "--seed", "2") == 2
