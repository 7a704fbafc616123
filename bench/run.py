"""Benchmark entry point: one workload, one seed, one result line.

    python3 bench/run.py --workload {verify-suites,mc-matrix,scalar-sweep}
                         --seed N --seconds S --trace {0,1}

Run from the repository root.  With --trace 0 it starts SETUP_PROBES
processes that only set up, then one process that sets up and times whole
rounds for S seconds, and prints the end-to-end metrics.  With --trace 1 it
starts one process that makes a traced pass over all workloads and prints the
per-layer metrics.  The last line of standard output is the result object;
see bench/README.md.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("verify-suites", "mc-matrix", "scalar-sweep")
SETUP_PROBES = 4  # set-up-only processes; setup_s is the median over them and the timed one
DEADLINE_S = 170.0  # a run must end within 180 s


def worker_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one BLAS thread per process: the workloads are closed loops of small
    # batched calls, and two vCPUs leave no room for a second thread
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # every run compiles kober as the first one does, and suites run at the
    # package's default seed
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("KOBER_SEED", None)
    return env


def spawn(args, mode, deadline):
    """Run one worker; returns (result dict, monotonic spawn time)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode]
    t_spawn = time.monotonic()
    # a session of its own, so a late worker is stopped with its suite processes
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"bench: {mode} worker for {args.workload} ran past the deadline")
    if proc.returncode != 0:
        raise SystemExit(f"bench: {mode} worker for {args.workload} exited with {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1]), t_spawn


def report(problems):
    for msg in problems[:20]:
        print(f"bench: check failed: {msg}", file=sys.stderr)
    if len(problems) > 20:
        print(f"bench: ... and {len(problems) - 20} more", file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(ROOT, "src", "kober", "__init__.py")):
        sys.exit(f"bench: no kober sources under {os.path.join(ROOT, 'src')}; run from the repository root")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)

    if args.trace:
        res, _ = spawn(args, "trace", deadline)
        metrics = res["metrics"]
        print(f"bench: traced pass, {res['spans']} spans, traced round seconds {res['traced_round_s']}, "
              f"the same rounds untraced {res['untraced_round_s']}", file=sys.stderr)
    else:
        setups = []
        for _ in range(SETUP_PROBES):
            probe, t_spawn = spawn(args, "setup", deadline)
            setups.append(probe["ready"] - t_spawn)
        res, t_spawn = spawn(args, "run", deadline)
        setups.append(res["ready"] - t_spawn)
        blocks = res["block_s"]  # one {block: seconds} per round
        totals = [sum(b.values()) for b in blocks]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(totals), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        print(f"bench: {args.workload} seed {args.seed}: {len(blocks)} rounds of {len(blocks[0])} blocks, "
              f"round min {min(totals):.4f} s, median {statistics.median(totals):.4f} s, "
              f"set-up samples {[round(s, 4) for s in setups]}", file=sys.stderr)
        if len(blocks[0]) <= 12:
            medians = {key: round(statistics.median(b[key] for b in blocks), 4) for key in blocks[0]}
            print(f"bench: median seconds per block {medians}", file=sys.stderr)
    report(res["problems"])
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
