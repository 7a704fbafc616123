"""Command line interface.

Three commands share one flag vocabulary:

* ``eval``   evaluates an operator at explicit points and prints rows of
  (point, value, error estimate),
* ``verify`` runs one named verification suite and prints its case table,
* ``table``  prints small demonstration tables (operator values over a
  grid, or transform left/right sides with their ratio).

Output is JSON (default for eval/verify) or RFC 4180 CSV (default for
table); floats are always formatted at 12 significant digits so repeated
runs with the same seed produce byte-identical output.  A config file of
``key=value`` lines can supply any flag; explicit flags win.  The env var
KOBER_SEED replaces the built-in default seed but never an explicit one.

Exit codes: 0 all good, 1 a verification case failed, 2 bad arguments or
a domain error (with a diagnostic on stderr and no output written).
"""

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import scalar_ops
from .errors import KoberError
from .matrix_ops import (
    MCConfig,
    MatrixOpParams,
    det_power,
    det_power_times_exp,
    exp_neg_trace,
    kober_matrix_first,
    kober_matrix_second,
    wishart_density,
)
from .mtransform import verify_transform
from .randmat import DEFAULT_SEED
from .suites import SUITES, run_suite


class CliError(Exception):
    """Bad arguments or config; reported on stderr with exit code 2."""


def fmt_float(x):
    return "%.12g" % float(x)


def render_json(obj, indent=0):
    """Serialize with floats at 12 significant digits, stable layout."""
    sp = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(sp + "  " + render_json(v, indent + 1) for v in obj)
        return "[\n" + inner + "\n" + sp + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f"{sp}  {json.dumps(str(k))}: {render_json(v, indent + 1)}"
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + sp + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def render_csv(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        out = []
        for v in row:
            if v is None:
                out.append("")
            elif isinstance(v, bool) or isinstance(v, np.bool_):
                out.append("true" if v else "false")
            elif isinstance(v, (float, np.floating)):
                out.append(fmt_float(v))
            else:
                out.append(str(v))
        writer.writerow(out)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    """Merged settings for one invocation: flags over config file over
    defaults; the seed falls back to KOBER_SEED before the built-in."""

    command: str
    op: str = None
    suite: str = None
    f: str = None
    p: int = None
    k: int = None
    zeta: tuple = None
    alpha: tuple = None
    beta: float = None
    gamma: float = None
    u: tuple = None
    x: tuple = None
    s: tuple = None
    n_samples: int = None
    seed: int = DEFAULT_SEED
    fmt: str = "json"
    out: str = None


_LIST_KEYS = {"zeta", "alpha", "u", "x", "s"}
_INT_KEYS = {"p", "k", "n_samples", "seed"}
_FLOAT_KEYS = {"beta", "gamma"}
_STR_KEYS = {"op", "suite", "f", "format", "out"}


def read_config_file(path):
    opts = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CliError(f"cannot read config file: {exc}")
    for line_no, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{line_no}: expected key=value")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        val = val.strip()
        try:
            if key in _LIST_KEYS:
                opts[key] = tuple(float(v) for v in val.replace(",", " ").split())
            elif key in _INT_KEYS:
                opts[key] = int(val)
            elif key in _FLOAT_KEYS:
                opts[key] = float(val)
            elif key in _STR_KEYS:
                opts["fmt" if key == "format" else key] = val
            else:
                raise CliError(f"{path}:{line_no}: unknown key '{key}'")
        except ValueError:
            raise CliError(f"{path}:{line_no}: bad value for '{key}': {val!r}")
    return opts


def resolve_config(args):
    file_opts = read_config_file(args.config) if args.config else {}

    def pick(name):
        flag = getattr(args, name, None)
        if flag is not None:
            return flag
        return file_opts.get(name)

    seed = pick("seed")
    if seed is None:
        env = os.environ.get("KOBER_SEED")
        if env is not None:
            try:
                seed = int(env)
            except ValueError:
                raise CliError(f"KOBER_SEED must be an integer, got {env!r}")
        else:
            seed = DEFAULT_SEED

    fmt = pick("fmt") or ("csv" if args.command == "table" else "json")
    if fmt not in ("json", "csv"):
        raise CliError(f"unknown format '{fmt}'")

    def tup(name):
        v = pick(name)
        return tuple(v) if v is not None else None

    return RunConfig(
        command=args.command,
        op=pick("op"),
        suite=pick("suite"),
        f=pick("f"),
        p=pick("p"),
        k=pick("k"),
        zeta=tup("zeta"),
        alpha=tup("alpha"),
        beta=pick("beta"),
        gamma=pick("gamma"),
        u=tup("u"),
        x=tup("x"),
        s=tup("s"),
        n_samples=pick("n_samples"),
        seed=int(seed),
        fmt=fmt,
        out=pick("out"),
    )


# ---------------------------------------------------------------------------
# test function parsing


def _parse_spec(spec):
    """NAME[:A,B,...] as (NAME, [A, B, ...])."""
    name, _, rest = spec.partition(":")
    try:
        return name, [float(v) for v in rest.split(",") if v.strip()] if rest else []
    except ValueError:
        raise CliError(f"bad numeric parameter in --f {spec!r}")


def parse_scalar_f(spec):
    if not spec:
        raise CliError("eval needs --f (e.g. power:2, exp, exp:1.5, power-exp:1,2)")
    name, args = _parse_spec(spec)
    if name == "power":
        if not args:
            raise CliError("power needs an exponent, e.g. power:2")
        return scalar_ops.power(args[0])
    if name == "exp":
        return scalar_ops.exp_decay(args[0] if args else 1.0)
    if name == "power-exp":
        if not args:
            raise CliError("power-exp needs an exponent, e.g. power-exp:1.5,1")
        return scalar_ops.power_times_exp(args[0], args[1] if len(args) > 1 else 1.0)
    raise CliError(f"unknown scalar test function '{name}'")


def parse_matrix_f(spec, p, k):
    name, args = _parse_spec(spec or "exp")
    if name == "exp":
        return exp_neg_trace(p, k)
    if name == "det-power":
        if not args:
            raise CliError("det-power needs an exponent, e.g. det-power:1.5")
        return det_power(p, args[0], k)
    if name == "det-exp":
        if not args:
            raise CliError("det-exp needs an exponent, e.g. det-exp:1.2")
        return det_power_times_exp(p, args[0], k)
    if name == "wishart":
        if not args:
            raise CliError("wishart needs degrees of freedom, e.g. wishart:5")
        return wishart_density(p, args[0], int(args[1]) if len(args) > 1 else k)
    raise CliError(f"unknown matrix test function '{name}'")


# ---------------------------------------------------------------------------
# eval


def _need(cfg, name, what):
    v = getattr(cfg, name)
    if v is None:
        raise CliError(f"--op {cfg.op} needs --{name} ({what})")
    return v


def _points(cfg, prefer):
    pts = getattr(cfg, prefer)
    if pts is None:
        pts = cfg.x if prefer == "u" else cfg.u
    if not pts:
        raise CliError(f"no evaluation points; pass --{prefer} (repeatable)")
    return pts


def _scalar_eval_rows(cfg):
    f = parse_scalar_f(cfg.f)
    op = cfg.op
    rows = []
    if op in ("kober1", "kober2"):
        zeta = _need(cfg, "zeta", "index parameter")[0]
        alpha = _need(cfg, "alpha", "order")[0]
        fn = scalar_ops.kober_first if op == "kober1" else scalar_ops.kober_second
        for u in _points(cfg, "u"):
            val, info = fn(f, u, zeta=zeta, alpha=alpha, full_output=True)
            rows.append((u, float(val), float(info.last_delta)))
    elif op == "saigo":
        zeta = _need(cfg, "zeta", "index parameter")[0]
        alpha = _need(cfg, "alpha", "order")[0]
        beta = _need(cfg, "beta", "second order parameter")
        gamma = _need(cfg, "gamma", "hypergeometric parameter")
        for u in _points(cfg, "u"):
            val, info = scalar_ops.saigo_first(
                f, u, zeta=zeta, alpha=alpha, beta=beta, gamma=gamma, full_output=True
            )
            rows.append((u, float(val), float(info.last_delta)))
    elif op in ("riemann-liouville", "weyl-right", "weyl-left"):
        alpha = _need(cfg, "alpha", "order")[0]
        fn = {
            "riemann-liouville": scalar_ops.riemann_liouville,
            "weyl-right": scalar_ops.weyl_right,
            "weyl-left": scalar_ops.weyl_left,
        }[op]
        for x in _points(cfg, "x"):
            val, info = fn(f, x, alpha=alpha, full_output=True)
            rows.append((x, float(val), float(info.last_delta)))
    elif op == "frac-derivative":
        alpha = _need(cfg, "alpha", "order")[0]
        for x in _points(cfg, "x"):
            val = scalar_ops.frac_derivative(f, x, alpha=alpha)
            rows.append((x, float(val), None))
    else:
        raise CliError(
            f"unknown operator '{op}'; scalar ops: kober1, kober2, saigo, "
            "riemann-liouville, weyl-right, weyl-left, frac-derivative; "
            "matrix ops: kober1-mat, kober2-mat"
        )
    return rows, "err"


def _matrix_eval_rows(cfg):
    p = cfg.p or 1
    zeta = _need(cfg, "zeta", "index parameter per slot")
    alpha = _need(cfg, "alpha", "order per slot")
    if len(alpha) != len(zeta):
        raise CliError("--zeta and --alpha must repeat the same number of times")
    k = cfg.k or len(zeta)
    if k != len(zeta):
        raise CliError(f"--k {k} disagrees with {len(zeta)} repeated --zeta values")
    kind = "first" if cfg.op == "kober1-mat" else "second"
    params = MatrixOpParams(kind, p, k, tuple(zip(zeta, alpha)))
    f = parse_matrix_f(cfg.f, p, k)
    mc = MCConfig(n_samples=cfg.n_samples or 100000, seed=cfg.seed)
    fn = kober_matrix_first if kind == "first" else kober_matrix_second
    rows = []
    for u in _points(cfg, "u"):
        if u <= 0.0:
            raise CliError(f"matrix argument scale must be positive, got {u}")
        U = [u * np.eye(p) for _ in range(k)]
        est = fn(params, f, U, mc)
        rows.append((u, float(est.value), float(est.se)))
    return rows, "se"


def cmd_eval(cfg):
    if not cfg.op:
        raise CliError("eval needs --op")
    if cfg.op in ("kober1-mat", "kober2-mat"):
        rows, err_name = _matrix_eval_rows(cfg)
    else:
        rows, err_name = _scalar_eval_rows(cfg)

    header = ("point", "value", err_name)
    if cfg.fmt == "csv":
        payload = render_csv(header, rows)
    else:
        obj = {"command": "eval", "op": cfg.op, "f": cfg.f, "seed": cfg.seed}
        for name in ("p", "k", "beta", "gamma"):
            v = getattr(cfg, name)
            if v is not None:
                obj[name] = v
        for name in ("zeta", "alpha"):
            v = getattr(cfg, name)
            if v is not None:
                obj[name] = list(v)
        obj["rows"] = [dict(zip(header, row)) for row in rows]
        payload = render_json(obj) + "\n"
    return payload, 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(cfg):
    if not cfg.suite:
        raise CliError("verify needs --suite; available: " + ", ".join(sorted(SUITES)))
    if cfg.suite not in SUITES:
        raise CliError(
            f"unknown suite '{cfg.suite}'; available: " + ", ".join(sorted(SUITES))
        )
    res = run_suite(cfg.suite, cfg.seed, p=cfg.p, n_samples=cfg.n_samples)

    header = ("id", "ref", "expected", "got", "se", "tol", "pass")
    rows = [(c.id, c.ref, c.expected, c.got, c.se, c.tol, c.passed) for c in res.cases]
    if cfg.fmt == "csv":
        payload = render_csv(
            ("suite", "seed") + header, [(res.suite, res.seed) + row for row in rows]
        )
    else:
        obj = {
            "suite": res.suite,
            "seed": res.seed,
            "cases": [dict(zip(header, row)) for row in rows],
        }
        payload = render_json(obj) + "\n"

    n_pass = sum(c.passed for c in res.cases)
    print(
        f"{res.suite}: {n_pass}/{len(res.cases)} passed ({res.elapsed_ms:.0f} ms)",
        file=sys.stderr,
    )
    return payload, 0 if res.all_passed else 1


# ---------------------------------------------------------------------------
# table


def _ratio_table(cfg):
    kind = "first" if cfg.op == "mtransform-first" else "second"
    zeta = _need(cfg, "zeta", "index parameter per slot")
    alpha = _need(cfg, "alpha", "order per slot")
    if len(alpha) != len(zeta):
        raise CliError("--zeta and --alpha must repeat the same number of times")
    k = len(zeta)
    if (cfg.p or 1) != 1:
        raise CliError("the ratio table uses the p=1 quadrature route; pass --p 1")
    if not cfg.s:
        raise CliError("empty grid; pass --s (repeatable)")
    params = MatrixOpParams(kind, 1, k, tuple(zip(zeta, alpha)))
    f = parse_matrix_f(cfg.f, 1, k)
    grid = [tuple([s] * k) for s in cfg.s]
    rows = []
    for rep in verify_transform(kind, params, f, grid):
        if rep.status == "domain-error":
            rows.append((rep.s[0], None, None, None, "domain-error"))
        else:
            rows.append((rep.s[0], rep.lhs, rep.rhs, rep.ratio, "ok"))
    header = ("s", "lhs", "rhs", "ratio", "status")
    return header, rows


def _operator_table(cfg):
    if not cfg.u and not cfg.x:
        raise CliError("empty grid; pass --u (repeatable)")
    rows, err_name = _scalar_eval_rows(cfg)
    name, _, rest = (cfg.f or "").partition(":")
    if name == "power" and rest:
        lam = float(rest.split(",")[0])
        header = ("point", "value", err_name, "value_over_point_pow")
        rows = [
            (pt, val, err, val / pt**lam if pt > 0 else None) for pt, val, err in rows
        ]
    else:
        header = ("point", "value", err_name)
    return header, rows


def cmd_table(cfg):
    if not cfg.op:
        raise CliError("table needs --op")
    if cfg.op in ("mtransform-first", "mtransform-second"):
        header, rows = _ratio_table(cfg)
    else:
        header, rows = _operator_table(cfg)

    if cfg.fmt == "json":
        obj = {
            "command": "table",
            "op": cfg.op,
            "rows": [dict(zip(header, row)) for row in rows],
        }
        payload = render_json(obj) + "\n"
    else:
        payload = render_csv(header, rows)
    return payload, 0


# ---------------------------------------------------------------------------
# entry point


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--op", help="operator or transform name")
    common.add_argument("--suite", help="verification suite name")
    common.add_argument("--f", help="test function, e.g. power:2, exp, det-power:1.5")
    common.add_argument("--p", type=int, help="matrix dimension")
    common.add_argument("--k", type=int, help="number of operator slots")
    common.add_argument("--zeta", type=float, action="append", help="index parameter (repeatable)")
    common.add_argument("--alpha", type=float, action="append", help="order (repeatable)")
    common.add_argument("--beta", type=float, help="second order parameter")
    common.add_argument("--gamma", type=float, help="hypergeometric parameter")
    common.add_argument("--u", type=float, action="append", help="scale point (repeatable)")
    common.add_argument("--x", type=float, action="append", help="line point (repeatable)")
    common.add_argument("--s", type=float, action="append", help="transform point (repeatable)")
    common.add_argument("--n-samples", type=int, dest="n_samples", help="Monte Carlo sample count")
    common.add_argument("--seed", type=int, help="random seed")
    common.add_argument("--format", choices=["json", "csv"], dest="fmt", help="output format")
    common.add_argument("--out", help="write output to this file instead of stdout")
    common.add_argument("--config", help="key=value config file; flags override it")

    parser = argparse.ArgumentParser(
        prog="kober",
        description="fractional integral operators of Kober type: evaluate, verify, tabulate",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("eval", parents=[common], help="evaluate an operator at points")
    sub.add_parser("verify", parents=[common], help="run a named verification suite")
    sub.add_parser("table", parents=[common], help="print a demonstration table")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        if cfg.command == "eval":
            payload, code = cmd_eval(cfg)
        elif cfg.command == "verify":
            payload, code = cmd_verify(cfg)
        else:
            payload, code = cmd_table(cfg)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KoberError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    if cfg.out:
        with open(cfg.out, "w", newline="") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
