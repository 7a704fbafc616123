#!/usr/bin/env python3
"""Demonstrate the transform factorization on a small grid.

For the scalar (p=1) second-kind operator with an exponential input, the
transform of the operator output factors into a gamma ratio times the
transform of the input.  The left side below comes from tensor-product
quadrature, the right side from the closed form; their ratio should print
as 1 to about ten digits.  The p=2 block repeats the check by Monte Carlo
through the density representation.
"""

import argparse
import sys

from kober.matrix_ops import MatrixOpParams, MCConfig, exp_neg_trace
from kober.mtransform import verify_transform


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--zeta", type=float, default=1.5)
    ap.add_argument("--alpha", type=float, default=0.7)
    ap.add_argument("--kind", choices=["first", "second"], default="second")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--n-samples", type=int, default=200000)
    args = ap.parse_args()

    prm = MatrixOpParams(args.kind, 1, 1, ((args.zeta, args.alpha),))
    f = exp_neg_trace(1, 1)
    print(f"p=1 quadrature, kind={args.kind}, zeta={args.zeta}, alpha={args.alpha}")
    print(f"{'s':>6} {'lhs':>18} {'rhs':>18} {'ratio':>14}")
    for rep in verify_transform(args.kind, prm, f, [0.6, 0.9, 1.3, 1.8, 2.4]):
        if rep.status == "domain-error":
            print(f"{rep.s[0]:6.2f} {'-':>18} {'-':>18} {'domain-error':>14}")
        else:
            print(f"{rep.s[0]:6.2f} {rep.lhs:18.12f} {rep.rhs:18.12f} {rep.ratio:14.10f}")

    prm2 = MatrixOpParams(args.kind, 2, 1, ((args.zeta + 0.3, args.alpha),))
    f2 = exp_neg_trace(2, 1)
    mc = MCConfig(n_samples=args.n_samples, seed=args.seed)
    print(f"\np=2 Monte Carlo, N={args.n_samples}")
    print(f"{'s':>6} {'lhs':>18} {'rhs':>18} {'lhs/rhs':>12} {'dev/se':>8}")
    ok = True
    for rep in verify_transform(args.kind, prm2, f2, [1.2, 1.9], mc):
        dev = abs(rep.lhs - rep.rhs) / rep.se
        ok = ok and rep.passed
        print(f"{rep.s[0]:6.2f} {rep.lhs:18.12f} {rep.rhs:18.12f} {rep.ratio:12.6f} {dev:8.2f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
