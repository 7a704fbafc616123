"""One benchmark process: set up a workload, time its rounds, check outputs.

Started by run.py with the repository's src directory on PYTHONPATH.

  --mode setup  set up (imports, inputs, warm-up) and report when the first
                round would start
  --mode run    set up, then time whole rounds while the next one is
                expected to end within --seconds, then check every output
  --mode trace  one traced pass over all three workloads in this process

The last line of standard output is one JSON object for run.py.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings

import verify_suites

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
IMPORT_PROBES = 3


def timed(ops, run, block_of, errors):
    """Run ops one after another.  Returns the outputs (an exception for an
    operation that raised one of `errors`) and the seconds spent per block."""
    out, blocks = [], {}
    for op in ops:
        t0 = time.perf_counter()
        try:
            res = run(op)
        except errors as exc:
            res = exc
        dt = time.perf_counter() - t0
        out.append(res)
        key = block_of(op)
        blocks[key] = blocks.get(key, 0.0) + dt
    return out, blocks


def log_failure(label, exc):
    print(f"bench: failed: {label}: {type(exc).__name__}: {exc}", file=sys.stderr)


class McMatrix:
    name = "mc-matrix"

    def __init__(self, seed):
        import mc_matrix

        self.mod = mc_matrix
        self.items = mc_matrix.make_items(seed)
        self.warm_items = mc_matrix.make_items(seed, n_samples=1000)
        from kober import KoberError

        self.error = KoberError

    def warm_up(self):
        self.execute(self.warm_items)

    def prepare(self, index):
        return self.items

    def execute(self, items):
        return timed(items, lambda item: item.run(), lambda item: item.label, self.error)

    def check(self, rounds):
        """rounds: [(items, results)].  Returns (attempted, failed, problems)."""
        attempted = failed = 0
        problems = []
        first = rounds[0][1]
        for items, results in rounds:
            attempted += len(items)
            for item, res, res0 in zip(items, results, first):
                if isinstance(res, Exception):
                    failed += 1
                    log_failure(item.label, res)
                elif res != res0:
                    problems.append(f"{item.label}: round result {res} differs from {res0}")
        for item, res in zip(rounds[0][0], first):
            if not isinstance(res, Exception):
                msg = self.mod.check(item, res)
                if msg:
                    problems.append(msg)
        return attempted, failed, problems


class ScalarSweep:
    name = "scalar-sweep"

    def __init__(self, seed):
        import scalar_sweep

        self.mod = scalar_sweep
        self.seed = seed
        from kober import KoberError

        self.error = KoberError

    def warm_up(self):
        # one call of every family from rounds no timed round uses; the
        # whole-number Saigo family shares its code with saigo_first
        seen = {}
        for call in self.mod.make_round(self.seed, -1):
            seen.setdefault(call.family, call)
        seen.pop("saigo_first_whole", None)
        self.execute(list(seen.values()))

    def prepare(self, index):
        return self.mod.make_round(self.seed, index)

    def execute(self, calls):
        return timed(calls, lambda call: call.run(call.x), lambda call: call.family, self.error)

    def check(self, rounds):
        attempted = failed = 0
        problems = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for calls, results in rounds:
                attempted += len(calls)
                for call, res in zip(calls, results):
                    if isinstance(res, Exception):
                        failed += 1
                        log_failure(call.label, res)
                        continue
                    ref = call.ref(call.x)
                    if not call.close(float(res), ref):
                        problems.append(f"{call.label}: {float(res)!r} against {ref!r}")
        return attempted, failed, problems


def _source_key():
    """Hash of the kober sources, so stored CSV digests only ever compare
    outputs of the same program."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "kober")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def compare_digests(csvs):
    """Compare suite CSVs with those earlier runs of the same sources stored
    in bench/out, and store the ones not seen yet.  Returns problems."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "verify-digests.json")
    try:
        with open(path) as fh:
            store = json.load(fh)
    except (OSError, ValueError):
        store = {}
    seen = store.setdefault(_source_key(), {})
    problems = []
    for name, data in csvs.items():
        d = verify_suites.digest(data)
        if seen.setdefault(name, d) != d:
            problems.append(f"{name}: CSV differs from an earlier run of the same sources")
    tmp = path + f".{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(store, fh)
    os.replace(tmp, path)
    return problems


class VerifySuites:
    name = "verify-suites"

    def __init__(self, seed):
        # the suites run at the package's default seed; the run seed is unused
        self.warm = None

    def warm_up(self):
        name = verify_suites.SUITES[0]
        self.warm = (name, verify_suites.run_suite(name, ROOT))

    def prepare(self, index):
        return verify_suites.SUITES

    def execute(self, names):
        return timed(names, lambda name: verify_suites.run_suite(name, ROOT), lambda name: name, ())

    def check(self, rounds):
        attempted = failed = 0
        problems = []
        csvs = {}
        runs = [(self.warm[0], *self.warm[1])] if self.warm else []
        runs += [
            (name, status, data) for names, results in rounds for name, (status, data) in zip(names, results)
        ]
        for name, status, data in runs:
            # exit status 1 is the CLI reporting a failing case; anything
            # else but 0 is an operation that did not complete
            if status == 1:
                problems.append(f"{name}: the suite reports failing cases")
            elif status == 0 and csvs.setdefault(name, data) != data:
                problems.append(f"{name}: CSV differs between rounds of this run")
        for names, results in rounds:
            attempted += len(names)
            failed += sum(status not in (0, 1) for status, _ in results)
        for name, data in csvs.items():
            problems += verify_suites.check_csv(name, data)
        problems += compare_digests(csvs)
        return attempted, failed, problems


WORKLOADS = {cls.name: cls for cls in (VerifySuites, McMatrix, ScalarSweep)}


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def self_test_refs():
    import refs

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        refs.self_test()


def mode_run(args, setup_only):
    wl = WORKLOADS[args.workload](args.seed)
    wl.warm_up()
    ready = time.monotonic()
    if setup_only:
        return {"ready": ready}
    rounds, blocks = [], []
    while True:
        work = wl.prepare(len(rounds))
        t0 = time.monotonic()
        out, times = wl.execute(work)
        rounds.append((work, out))
        blocks.append(times)
        # another whole round only while it is expected to end within the run
        if time.monotonic() - ready + (time.monotonic() - t0) > args.seconds:
            break
    self_test_refs()
    attempted, failed, problems = wl.check(rounds)
    return {
        "ready": ready, "block_s": blocks,
        "attempted": attempted, "failed": failed, "problems": problems,
        "peak_rss_mb": peak_rss_mb(),
    }


def run_suite_in_process(name):
    from kober import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(verify_suites.command(name)[3:])
    return status, out.getvalue().encode()


def import_ms():
    """`import kober` in a fresh interpreter, median of IMPORT_PROBES."""
    code = "import time; t = time.perf_counter(); import kober; print(time.perf_counter() - t)"
    vals = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                             stdout=subprocess.PIPE, check=True, timeout=60)
        vals.append(float(out.stdout) * 1e3)
    return statistics.median(vals)


def mode_trace(args):
    import tracing

    tracer = tracing.Tracer()
    rules = tracing.install(tracer)
    attempted = failed = 0
    problems = []
    wall = {}

    suites = VerifySuites(args.seed)
    results = []
    for name in verify_suites.SUITES:
        for rule in rules:
            rule.cache_clear()  # each suite normally starts in a fresh process
        with tracer.section(tracing.SUITE_PREFIX + name):
            results.append(run_suite_in_process(name))
    a, f, p = suites.check([(verify_suites.SUITES, results)])
    attempted, failed, problems = attempted + a, failed + f, problems + p
    wall["verify-suites"] = sum(
        tracing.section_seconds(tracer, tracing.SUITE_PREFIX + name) for name in verify_suites.SUITES
    )

    untraced = {}
    for cls in (McMatrix, ScalarSweep):
        # the same round untraced and then traced, each from empty rule
        # caches, gives the tracing overhead
        wl = cls(args.seed)
        work = wl.prepare(0)
        with tracer.paused():
            wl.warm_up()
            for rule in rules:
                rule.cache_clear()
            untraced[cls.name] = sum(wl.execute(work)[1].values())
        for rule in rules:
            rule.cache_clear()
        with tracer.section("workload." + cls.name):
            out, _ = wl.execute(work)
        wall[cls.name] = tracing.section_seconds(tracer, "workload." + cls.name)
        a, f, p = wl.check([(work, out)])
        attempted, failed, problems = attempted + a, failed + f, problems + p

    self_test_refs()
    metrics = tracing.layer_metrics(tracer)
    metrics["cli.import_ms"] = (import_ms(), "ms")
    os.makedirs(OUT, exist_ok=True)
    tracer.dump(os.path.join(OUT, f"trace-seed{args.seed}.json"))
    return {
        "attempted": attempted, "failed": failed, "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "traced_round_s": wall, "untraced_round_s": untraced, "spans": len(tracer.spans),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args()
    if args.mode == "trace":
        res = mode_trace(args)
    else:
        res = mode_run(args, args.mode == "setup")
    sys.stdout.write("\n" + json.dumps(res) + "\n")


if __name__ == "__main__":
    main()
