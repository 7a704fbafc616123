"""Spans around calls into kober, recorded from outside the package.

install() replaces public functions of kober with timing wrappers wherever a
kober module binds them (the defining module and every module that imported
the name), so calls from one kober module into another are seen too.  Spans
are kept in memory as [name, start_ns, end_ns, parent, count] and written out
when the run ends.  A span's self time is its duration minus the durations of
its direct children; calls are nested, so children never overlap.
"""

import contextlib
import functools
import json
import math
import sys
import time

# (module, attribute, span name, count(args, kwargs, result) or None)
SPANS = (
    ("kober.scalar_ops", "kober_first", "scalar_ops", None),
    ("kober.scalar_ops", "kober_second", "scalar_ops", None),
    ("kober.scalar_ops", "riemann_liouville", "scalar_ops", None),
    ("kober.scalar_ops", "weyl_right", "scalar_ops", None),
    ("kober.scalar_ops", "weyl_left", "scalar_ops", None),
    ("kober.scalar_ops", "saigo_first", "scalar_ops", None),
    ("kober.scalar_ops", "frac_derivative", "scalar_ops", None),
    ("kober.scalar_ops", "multivar_op", "scalar_ops", None),
    ("kober.mtransform", "mellin_numeric_1d", "scalar_ops", None),
    ("kober.scalar_ops", "gauss_2f1", "scalar_ops.hyp2f1", None),
    ("kober.scalar_ops", "roots_laguerre", "scalar_ops.laguerre", None),
    ("kober.mtransform", "mtransform_quadrature", "mtransform.tensor", None),
    ("kober.mtransform", "mtransform_mc", "mtransform.mc", None),
    ("kober.mtransform", "mtransform_mc_operator", "mtransform.mc", None),
    ("kober.matrix_ops", "kober_matrix_first", "matrix_ops", None),
    ("kober.matrix_ops", "kober_matrix_second", "matrix_ops", None),
    ("kober.matrix_ops", "density_mode_sample", "matrix_ops", None),
    ("kober.randmat", "sample_matrix_beta", "randmat.beta",
     lambda a, kw, out: kw.get("size", a[2] if len(a) > 2 else 1)),
    ("kober.randmat", "sample_wishart", "randmat.wishart",
     lambda a, kw, out: kw.get("size", a[3] if len(a) > 3 else 1)),
    ("kober.spd", "sym_sqrt", "spd.sqrt", lambda a, kw, out: math.prod(out.shape[:-2])),
    ("kober.cli", "render_csv", "cli.render", None),
)

RULES = ("jacobi_rule_01", "legendre_rule_01")  # lru_cache'd in kober.quadrature

SUITE_PREFIX = "suites."


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.nodes = 0  # sum of QuadInfo.nodes returned by converge_doubling
        self.on = True

    def _open(self, name):
        rec = [name, 0, 0, self.stack[-1] if self.stack else -1, 0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter_ns()
        self.stack.pop()

    def span(self, name, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if count is not None:
                rec[4] = int(count(args, kwargs, out))
            return out

        return wrapper

    def rule(self, fn):
        """A cached rule lookup; the span counts 1 when the lookup built the rule."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            misses = fn.cache_info().misses
            rec = self._open("quadrature.rule")
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            rec[4] = fn.cache_info().misses - misses
            return out

        return wrapper

    def count_nodes(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            val, info = fn(*args, **kwargs)
            if self.on:
                self.nodes += info.nodes
            return val, info

        return wrapper

    @contextlib.contextmanager
    def section(self, name):
        """A span opened by the benchmark itself."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    @contextlib.contextmanager
    def paused(self):
        self.on = False
        try:
            yield
        finally:
            self.on = True

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "count"],
                       "nodes": self.nodes, "spans": self.spans}, fh)


def install(tracer):
    """Wrap kober's public functions; returns the cached rule builders so the
    caller can empty their caches."""
    import kober.cli  # noqa: F401  loads every submodule

    mods = [m for name, m in sys.modules.items() if name == "kober" or name.startswith("kober.")]

    def rebind(orig, new):
        for mod in mods:
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)

    for modname, attr, name, count in SPANS:
        orig = getattr(sys.modules[modname], attr)
        rebind(orig, tracer.span(name, orig, count))
    quadrature = sys.modules["kober.quadrature"]
    rules = [getattr(quadrature, attr) for attr in RULES]
    for orig in rules:
        rebind(orig, tracer.rule(orig))
    rebind(quadrature.converge_doubling, tracer.count_nodes(quadrature.converge_doubling))
    cls = sys.modules["kober.matrix_ops"].MatrixTestFunction
    cls.value = tracer.span("matrix_ops.value", cls.value, lambda a, kw, out: len(a[1][0]))
    return rules


def layer_metrics(tracer):
    """Per-layer totals: {metric: (value, unit)}."""
    spans = tracer.spans
    n = len(spans)
    dur = [rec[2] - rec[1] for rec in spans]
    child = [0] * n
    in_tensor = [False] * n
    nested = [False] * n  # an ancestor has the same name
    for i, rec in enumerate(spans):
        p = rec[3]
        if p >= 0:
            child[p] += dur[i]
            in_tensor[i] = in_tensor[p] or spans[p][0] == "mtransform.tensor"
            q = p
            while q >= 0 and not nested[i]:
                nested[i] = spans[q][0] == rec[0]
                q = spans[q][3]

    def total(name, what="dur", where=lambda i: True):
        out = 0
        for i, rec in enumerate(spans):
            if rec[0] != name or not where(i):
                continue
            if what == "dur" and not nested[i]:
                out += dur[i]
            elif what == "self":
                out += dur[i] - child[i]
            elif what == "count":
                out += rec[4]
            elif what == "spans":
                out += 1
        return out

    ms = 1e-6
    m = {
        "quadrature.rule_builds": (total("quadrature.rule", "count"), "count"),
        "quadrature.rule_ms": (total("quadrature.rule", where=lambda i: spans[i][4] > 0) * ms, "ms"),
        "scalar_ops.calls": (total("scalar_ops", "spans"), "count"),
        "scalar_ops.nodes": (tracer.nodes, "count"),
        "scalar_ops.self_ms": (total("scalar_ops", "self") * ms, "ms"),
        "scalar_ops.hyp2f1_ms": (total("scalar_ops.hyp2f1") * ms, "ms"),
        "scalar_ops.laguerre_ms": (total("scalar_ops.laguerre") * ms, "ms"),
        "mtransform.tensor_ms": (total("mtransform.tensor") * ms, "ms"),
        "mtransform.tensor_evals": (total("matrix_ops.value", "count", lambda i: in_tensor[i]), "count"),
        "mtransform.mc_self_ms": (total("mtransform.mc", "self") * ms, "ms"),
        "matrix_ops.self_ms": (total("matrix_ops", "self") * ms, "ms"),
        "matrix_ops.f_value_ms": (total("matrix_ops.value", where=lambda i: not in_tensor[i]) * ms, "ms"),
        "randmat.beta_ms": (total("randmat.beta", "self") * ms, "ms"),
        "randmat.beta_draws": (total("randmat.beta", "count"), "count"),
        "randmat.wishart_ms": (total("randmat.wishart") * ms, "ms"),
        "randmat.wishart_draws": (total("randmat.wishart", "count"), "count"),
        "spd.sqrt_ms": (total("spd.sqrt") * ms, "ms"),
        "spd.sqrt_matrices": (total("spd.sqrt", "count"), "count"),
        "cli.render_ms": (total("cli.render") * ms, "ms"),
    }
    for rec in spans:
        if rec[0].startswith(SUITE_PREFIX):
            m[rec[0] + "_ms"] = ((rec[2] - rec[1]) * ms, "ms")
    return m


def section_seconds(tracer, name):
    return sum(rec[2] - rec[1] for rec in tracer.spans if rec[0] == name) * 1e-9
