"""verify-suites: the seven `kober verify` suites, one fresh process each.

Every suite runs at the package's default seed as
`python -m kober.cli verify --suite NAME --format csv`.  The checks read the
CSV: every row passes, the suite and seed columns are consistent, and where a
case id carries its parameters the expected value is recomputed here.
"""

import csv
import hashlib
import io
import math
import re
import subprocess
import sys

from scipy.special import gammaln

SUITES = (
    "scalar-closed-forms",
    "jacobians",
    "beta-moments",
    "dirichlet-chain",
    "mtransform-first",
    "mtransform-second",
    "density-identity",
)
HEADER = ["suite", "seed", "id", "ref", "expected", "got", "se", "tol", "pass"]
SUITE_TIMEOUT_S = 120

_NUM = r"(-?\d+(?:\.\d+)?)"
# case ids of the scalar-closed-forms suite and their closed forms
CLOSED_FORMS = (
    (re.compile(rf"kober1-power-z{_NUM}-a{_NUM}-l{_NUM}-u{_NUM}$"),
     lambda z, a, l, u: math.exp(gammaln(z + l + 1) - gammaln(z + l + 1 + a)) * u**l),
    (re.compile(rf"kober2-power-z{_NUM}-a{_NUM}-l{_NUM}-u{_NUM}$"),
     lambda z, a, l, u: math.exp(gammaln(z - l) - gammaln(z - l + a)) * u**l),
    (re.compile(rf"rl-power-a{_NUM}-l{_NUM}-x{_NUM}$"),
     lambda a, l, x: math.exp(gammaln(l + 1) - gammaln(l + 1 + a)) * x ** (l + a)),
    (re.compile(rf"weyl-exp-a{_NUM}-r{_NUM}-x{_NUM}$"),
     lambda a, r, x: r ** (-a) * math.exp(-r * x)),
    (re.compile(rf"weyl-power-a{_NUM}-m{_NUM}-x{_NUM}$"),
     lambda a, m, x: math.exp(gammaln(m - a) - gammaln(m)) * x ** (a - m)),
)
PRINTED_DIGITS = 1e-11  # the CLI prints 12 significant digits


def command(name):
    return [sys.executable, "-m", "kober.cli", "verify", "--suite", name, "--format", "csv"]


def run_suite(name, cwd):
    """Returns (exit status, stdout bytes) of one fresh suite process."""
    proc = subprocess.run(
        command(name), cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=SUITE_TIMEOUT_S
    )
    return proc.returncode, proc.stdout


def digest(data):
    return hashlib.sha256(data).hexdigest()


def check_csv(name, data):
    """Problems found in one suite's CSV."""
    problems = []
    rows = list(csv.reader(io.StringIO(data.decode())))
    if not rows or rows[0] != HEADER:
        return [f"{name}: unexpected header {rows[:1]}"]
    body = rows[1:]
    if not body:
        return [f"{name}: no cases"]
    recomputed = 0
    seeds = {row[1] for row in body}
    if len(seeds) != 1:
        problems.append(f"{name}: several seeds {sorted(seeds)}")
    for row in body:
        rec = dict(zip(HEADER, row))
        if len(row) != len(HEADER) or rec["suite"] != name or rec["pass"] != "true":
            problems.append(f"{name}: failing or malformed row {row}")
            continue
        for pattern, form in CLOSED_FORMS:
            m = pattern.match(rec["id"])
            if not m:
                continue
            want = form(*map(float, m.groups()))
            expected, got, tol = float(rec["expected"]), float(rec["got"]), float(rec["tol"])
            if abs(expected - want) > PRINTED_DIGITS * abs(want):
                problems.append(f"{name}: {rec['id']} expects {expected!r}, scipy gives {want!r}")
            if abs(got - want) > (tol + PRINTED_DIGITS) * abs(want):
                problems.append(f"{name}: {rec['id']} got {got!r}, scipy gives {want!r}")
            recomputed += 1
    if name == "scalar-closed-forms" and not recomputed:
        problems.append(f"{name}: no case id carried its parameters")
    return problems
