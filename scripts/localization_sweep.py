#!/usr/bin/env python3
"""Exhaustive fixed-point localization sweep with timing.

Checks lhs = rhs for every weight multiset up to the given length, every
monomial of admissible degree, and every nonzero evaluation residue.  Both
sides depend on the weights only as a multiset, so the work grows like
C(p+L-1, L) * L^2, while the reported case count is the p^L * L^2 ordered
cases the multisets cover.
"""

import argparse
import time

from cobordlab.equivariant import localization_case_count, localization_sweep_violations


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-p", "--prime", type=int, default=2)
    ap.add_argument("-L", "--max-len", type=int, default=5)
    args = ap.parse_args()

    t0 = time.perf_counter()
    try:
        bad = localization_sweep_violations(args.prime, args.max_len)
    except ValueError as e:
        raise SystemExit(f"error: {e}")
    dt = time.perf_counter() - t0
    total = localization_case_count(args.prime, args.max_len)
    print(f"p={args.prime} lengths<={args.max_len}: {total} cases in {dt:.2f}s, {len(bad)} violations")
    for weights, y, r, lhs, rhs in bad[:20]:
        print(f"  weights={weights} y={y} r={r}: lhs={lhs} rhs={rhs}")
    if bad:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
