"""`import kober` leaves scipy.special unloaded until a special function or a
rule of more than quadrature.DENSE_NODES nodes is needed, and the names
bench/tracing.py hooks still resolve."""

import importlib.util
import json
import pathlib
import subprocess
import sys

from kober import quadrature

REPO = pathlib.Path(__file__).resolve().parents[1]

# the seven suites, the matrix eval and the scalar evals build their rules
# with numpy and divide by math.gamma; saigo afterwards needs scipy's 2F1
COLD_START = """
import contextlib, io, json, sys
import kober.cli as cli
from kober.suites import SUITES

runs = [["verify", "--suite", name, "--format", "csv"] for name in SUITES]
runs.append(["eval", "--op", "kober2-mat", "--f", "exp", "--p", "2",
             "--zeta", "1.8", "--alpha", "0.9", "--u", "0.8"])
runs += [["eval", "--op", op, "--f", "exp", "--alpha", "0.5", *at]
         for op, at in (("kober1", ["--zeta", "1.0", "--u", "1.0"]),
                        ("kober2", ["--zeta", "1.5", "--u", "1.0"]),
                        ("riemann-liouville", ["--x", "2.0"]),
                        ("weyl-right", ["--x", "0.4"]))]
runs.append(["eval", "--op", "weyl-left", "--f", "exp-growth:0.5", "--alpha", "0.8", "--x", "-1"])
outs = {}
for argv in runs:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0, argv
    outs[argv[2]] = out.getvalue()
loaded = "scipy.special" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["eval", "--op", "saigo", "--f", "power:1.5", "--zeta", "1.2",
                     "--alpha", "0.8", "--beta", "-0.5", "--gamma", "0.5", "--u", "0.9"])
print(json.dumps({"loaded": loaded, "code": code, "kober2": json.loads(outs["kober2"]),
                  "saigo_loads": "scipy.special" in sys.modules}))
"""


def test_scipy_free_commands_leave_scipy_special_unloaded():
    proc = subprocess.run([sys.executable, "-c", COLD_START], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout)
    assert res["loaded"] is False
    # the README's example value
    assert res["kober2"]["rows"][0]["value"] == 0.228476648531
    # the lazy import still serves the 2F1
    assert res["code"] == 0
    assert res["saigo_loads"] is True


def test_bench_trace_hooks_resolve():
    import kober.cli  # noqa: F401  loads every submodule, as the tracer does

    spec = importlib.util.spec_from_file_location("bench_tracing", REPO / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for modname, attr, _, _ in tracing.SPANS:
        assert callable(getattr(sys.modules[modname], attr)), (modname, attr)
    for attr in tracing.RULES:
        assert hasattr(getattr(quadrature, attr), "cache_info"), attr

