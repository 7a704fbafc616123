"""`import kober` leaves scipy.special unloaded until a rule or a special
function is needed, and the names bench/tracing.py hooks still resolve."""

import importlib.util
import json
import pathlib
import subprocess
import sys

from kober import quadrature

REPO = pathlib.Path(__file__).resolve().parents[1]

# the suites and the matrix eval build no quadrature rule and call no special
# function; the scalar eval afterwards needs both
COLD_START = """
import contextlib, io, json, sys
import kober.cli as cli

runs = [["verify", "--suite", name, "--format", "csv"]
        for name in ("jacobians", "beta-moments", "dirichlet-chain", "density-identity")]
runs.append(["eval", "--op", "kober2-mat", "--f", "exp", "--p", "2",
             "--zeta", "1.8", "--alpha", "0.9", "--u", "0.8"])
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
loaded = "scipy.special" in sys.modules
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["eval", "--op", "kober2", "--f", "exp",
                     "--zeta", "1.5", "--alpha", "0.5", "--u", "1.0"])
print(json.dumps({"loaded": loaded, "code": code, "eval": json.loads(out.getvalue())}))
"""


def test_scipy_free_commands_leave_scipy_special_unloaded():
    proc = subprocess.run([sys.executable, "-c", COLD_START], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout)
    assert res["loaded"] is False
    assert res["code"] == 0
    # the README's example value, with scipy loaded on demand
    assert res["eval"]["rows"][0]["value"] == 0.228476648531


def test_bench_trace_hooks_resolve():
    import kober.cli  # noqa: F401  loads every submodule, as the tracer does

    spec = importlib.util.spec_from_file_location("bench_tracing", REPO / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for modname, attr, _, _ in tracing.SPANS:
        assert callable(getattr(sys.modules[modname], attr)), (modname, attr)
    for attr in tracing.RULES:
        assert hasattr(getattr(quadrature, attr), "cache_info"), attr

