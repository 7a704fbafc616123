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
a domain error (with a diagnostic on stderr and no output written), 141
(128 + SIGPIPE) the reader of stdout closed it early, no traceback.
"""

import argparse
import csv
import io
import json
import os
import sys

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


def _payload(cfg, header, rows, doc, key="rows"):
    """The rows as CSV, or doc as JSON with the rows as objects under key."""
    if cfg.format == "csv":
        return render_csv(header, rows)
    return render_json({**doc, key: [dict(zip(header, row)) for row in rows]}) + "\n"


# ---------------------------------------------------------------------------
# configuration


FORMATS = ("json", "csv")

# one row per setting: (name, type, repeats, help).  The rows build the
# flags (--name, with "_" as "-"), type the keys of a config file, and give
# the names that resolve_config merges.  A tuple type lists the choices of a
# string setting.
FLAGS = (
    ("op", str, False, "operator or transform name"),
    ("suite", str, False, "verification suite name"),
    ("f", str, False, "test function, e.g. power:2, exp, det-power:1.5"),
    ("p", int, False, "matrix dimension"),
    ("k", int, False, "number of operator slots"),
    ("zeta", float, True, "index parameter (repeatable)"),
    ("alpha", float, True, "order (repeatable)"),
    ("beta", float, False, "second order parameter"),
    ("gamma", float, False, "hypergeometric parameter"),
    ("u", float, True, "scale point (repeatable)"),
    ("x", float, True, "line point (repeatable)"),
    ("s", float, True, "transform point (repeatable)"),
    ("n_samples", int, False, "Monte Carlo sample count"),
    ("seed", int, False, "random seed"),
    ("format", FORMATS, False, "output format"),
    ("out", str, False, "write output to this file instead of stdout"),
)
_TYPES = {name: (str if isinstance(t, tuple) else t, rep) for name, t, rep, _ in FLAGS}


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
        if key not in _TYPES:
            raise CliError(f"{path}:{line_no}: unknown key '{key}'")
        typ, repeats = _TYPES[key]
        try:
            opts[key] = [typ(v) for v in val.replace(",", " ").split()] if repeats else typ(val)
        except ValueError:
            raise CliError(f"{path}:{line_no}: bad value for '{key}': {val!r}")
    return opts


def resolve_config(args):
    """Fill each setting that no flag gave from the config file; the seed
    then falls back to KOBER_SEED and the built-in default, the format to
    csv for table and json otherwise."""
    file_opts = read_config_file(args.config) if args.config else {}
    for name, *_ in FLAGS:
        if getattr(args, name) is None:
            setattr(args, name, file_opts.get(name))
    if args.seed is None:
        env = os.environ.get("KOBER_SEED", DEFAULT_SEED)
        try:
            args.seed = int(env)
        except ValueError:
            raise CliError(f"KOBER_SEED must be an integer, got {env!r}")
    args.format = args.format or ("csv" if args.command == "table" else "json")
    if args.format not in FORMATS:
        raise CliError(f"unknown format '{args.format}'")
    return args


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
    if name == "exp-growth":
        return scalar_ops.exp_growth(args[0] if args else 1.0)
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


# scalar operators: (name in scalar_ops, point flag, parameter flags).  The
# function is looked up by name when called, so a wrapper installed on the
# module attribute (as bench/tracing.py does) is the one that runs.  A
# repeated parameter flag gives its first value.
SCALAR_OPS = {
    "kober1": ("kober_first", "u", ("zeta", "alpha")),
    "kober2": ("kober_second", "u", ("zeta", "alpha")),
    "saigo": ("saigo_first", "u", ("zeta", "alpha", "beta", "gamma")),
    "riemann-liouville": ("riemann_liouville", "x", ("alpha",)),
    "weyl-right": ("weyl_right", "x", ("alpha",)),
    "weyl-left": ("weyl_left", "x", ("alpha",)),
    "frac-derivative": ("frac_derivative", "x", ("alpha",)),
}
_PARAMETERS = {
    "zeta": "index parameter",
    "alpha": "order",
    "beta": "second order parameter",
    "gamma": "hypergeometric parameter",
}


def _scalar_eval_rows(cfg):
    f = parse_scalar_f(cfg.f)
    if cfg.op not in SCALAR_OPS:
        raise CliError(
            f"unknown operator '{cfg.op}'; scalar ops: {', '.join(SCALAR_OPS)}; "
            "matrix ops: kober1-mat, kober2-mat"
        )
    name, point, params = SCALAR_OPS[cfg.op]
    kw = {}
    for param in params:
        v = _need(cfg, param, _PARAMETERS[param])
        kw[param] = v[0] if isinstance(v, list) else v
    fn = getattr(scalar_ops, name)
    rows = []
    for pt in _points(cfg, point):
        if name == "frac_derivative":  # a difference stencil, with no error estimate
            rows.append((pt, fn(f, pt, **kw), None))
        else:
            val, info = fn(f, pt, **kw, full_output=True)
            rows.append((pt, val, info.last_delta))
    return rows, "err"


def _slot_pairs(cfg):
    zeta = _need(cfg, "zeta", "index parameter per slot")
    alpha = _need(cfg, "alpha", "order per slot")
    if len(alpha) != len(zeta):
        raise CliError("--zeta and --alpha must repeat the same number of times")
    return tuple(zip(zeta, alpha))


def _matrix_eval_rows(cfg):
    p = cfg.p or 1
    pairs = _slot_pairs(cfg)
    k = cfg.k or len(pairs)
    if k != len(pairs):
        raise CliError(f"--k {k} disagrees with {len(pairs)} repeated --zeta values")
    kind = "first" if cfg.op == "kober1-mat" else "second"
    params = MatrixOpParams(kind, p, k, pairs)
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

    doc = {"command": "eval", "op": cfg.op, "f": cfg.f, "seed": cfg.seed}
    for name in ("p", "k", "beta", "gamma", "zeta", "alpha"):
        if getattr(cfg, name) is not None:
            doc[name] = getattr(cfg, name)
    return _payload(cfg, ("point", "value", err_name), rows, doc), 0


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
    if cfg.format == "csv":
        # every CSV line carries the suite and the seed
        header = ("suite", "seed") + header
        rows = [(res.suite, res.seed) + row for row in rows]
    payload = _payload(cfg, header, rows, {"suite": res.suite, "seed": res.seed}, "cases")

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
    pairs = _slot_pairs(cfg)
    k = len(pairs)
    if (cfg.p or 1) != 1:
        raise CliError("the ratio table uses the p=1 quadrature route; pass --p 1")
    if not cfg.s:
        raise CliError("empty grid; pass --s (repeatable)")
    params = MatrixOpParams(kind, 1, k, pairs)
    f = parse_matrix_f(cfg.f, 1, k)
    grid = [tuple([s] * k) for s in cfg.s]
    rows = []
    for rep in verify_transform(kind, params, f, grid):
        if rep.status == "domain-error":
            rows.append((rep.s[0], None, None, None, "domain-error"))
        else:
            rows.append((rep.s[0], rep.lhs, rep.rhs, rep.ratio, "ok" if rep.passed else "fail"))
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

    return _payload(cfg, header, rows, {"command": "table", "op": cfg.op}), 0


# ---------------------------------------------------------------------------
# entry point


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    for name, typ, repeats, text in FLAGS:
        kind = {"choices": typ} if isinstance(typ, tuple) else {"type": typ}
        common.add_argument(
            "--" + name.replace("_", "-"), dest=name, action="append" if repeats else None,
            help=text, **kind,
        )
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


COMMANDS = {"eval": cmd_eval, "verify": cmd_verify, "table": cmd_table}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        payload, code = COMMANDS[cfg.command](cfg)
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
        try:
            sys.stdout.write(payload)
            sys.stdout.flush()
        except BrokenPipeError:  # and stdout to devnull for the flush at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
