#!/usr/bin/env python3
"""Random sweep of the small-fixed-locus divisibility checks.

Draws random homogeneous classes in the generator ring, evaluates the honest
d = dim_q, and runs the matching divisibility verdict.  Every verdict must
come back True; the point of the sweep is the vacuity statistics, i.e. how
often the weight window makes the check bite at all.
"""

import argparse
import random

from cobordlab.bounds import milnor_divisibility_check, small_fixed_divisibility
from cobordlab.cobordism import dim_q_direct, evaluate_gen_poly, random_gen_poly, standard_generators
from cobordlab.fpring import GenPoly


def homogeneous_sample(rng, p, max_weight):
    fam = standard_generators(p)
    while True:
        gp = random_gen_poly(rng, p, max_weight, max_terms=3)
        x = evaluate_gen_poly(gp, fam)
        if not x.is_zero() and x.is_homogeneous():
            return x


def sweep_small(rng, p, q, count, max_weight):
    """(classes checked, non-vacuous, violations) over count draws."""
    checked = biting = failures = 0
    for _ in range(count):
        x = homogeneous_sample(rng, p, max_weight)
        n = int(x.top_weight())
        d = dim_q_direct(x, q)
        if n < (2 * q - 1) * d:
            continue  # precondition n >= (2q-1)d fails, the check refuses these
        checked += 1
        need = n - (2 * q - 1) * d
        biting += need > 0
        if not small_fixed_divisibility(x, q, d):
            failures += 1
            print(f"  VIOLATION p={p} q={q}: {x!r}")
    return checked, biting, failures


def sweep_milnor(rng, count, max_weight):
    biting = failures = 0
    for _ in range(count):
        x = homogeneous_sample(rng, 2, max_weight)
        d = dim_q_direct(x, 2)
        if 3 * int(x.top_weight()) - 7 * d > 0:
            biting += 1
        if not milnor_divisibility_check(x, d):
            failures += 1
            print(f"  VIOLATION milnor: {x!r}")
    return biting, failures


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-n", "--count", type=int, default=200)
    ap.add_argument("-w", "--max-weight", type=int, default=14)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    total_failures = 0
    for p, q in ((3, 3), (2, 4)):
        checked, biting, failures = sweep_small(rng, p, q, args.count, args.max_weight)
        total_failures += failures
        print(f"small-fixed p={p} q={q}: {checked} classes checked, {args.count - checked} skipped"
              f" (n < (2q-1)d), {biting} non-vacuous, {failures} violations")
    biting, failures = sweep_milnor(rng, args.count, args.max_weight)
    total_failures += failures
    print(f"milnor p=2 q=2: {args.count} classes, {biting} non-vacuous, {failures} violations")
    if total_failures:
        raise SystemExit(f"{total_failures} violations found")


if __name__ == "__main__":
    main()
