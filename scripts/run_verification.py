#!/usr/bin/env python3
"""Run every verification suite and print a one-line summary per suite.

Exit status is nonzero if any case in any suite fails.  For the full
case-by-case report of a single suite, use `kober verify --suite NAME`.
"""

import argparse
import sys

from kober.randmat import DEFAULT_SEED
from kober.suites import SUITES, run_suite


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--p", type=int, default=None, help="restrict to one matrix dimension")
    ap.add_argument("--n-samples", type=int, default=None, help="Monte Carlo sample count")
    args = ap.parse_args()

    failures = 0
    for name in SUITES:
        res = run_suite(name, args.seed, p=args.p, n_samples=args.n_samples)
        n_pass = sum(c.passed for c in res.cases)
        status = "ok" if res.all_passed else "FAIL"
        print(f"{name:24s} {n_pass:3d}/{len(res.cases):<3d} {res.elapsed_ms:8.0f} ms  {status}")
        for c in res.cases:
            if not c.passed:
                failures += 1
                print(f"    {c.id}: expected {c.expected}, got {c.got} (tol {c.tol})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
