#!/usr/bin/env python3
"""Cross-check p_top against the closed link-family formulas.

Draws a seeded grid of instances whose targets fall in the families
with known closed forms (powers of w, successors of powers, simple
multiples, and mixtures) and reports every disagreement between the
engine and the formulas recomputed from scratch in ordpigeon.oracle.
Each instance is checked a second time with counts of 1-3 on its
entries, drawn from a second seeded generator so that the count-1 grid
does not depend on them; the oracle flattens the counts into copies,
so this checks the engine's count scaling.
"""

import argparse
import random
import sys
import time

from ordpigeon import Instance, add, from_int, mul, omega_pow
from ordpigeon.oracle import cross_check_p_top
from ordpigeon.parser import format_ordinal


def random_exponent(rng):
    # countable, below w^2, small coefficients
    a, b = rng.randint(0, 2), rng.randint(0, 3)
    e = add(mul(omega_pow(1), a), b)
    return e if not e.is_zero() else from_int(1)


def random_target(rng, family):
    e = random_exponent(rng)
    if family == "power":
        return omega_pow(e)
    if family == "successor":
        return add(omega_pow(e), 1)
    # simple multiple: w^e*m + 1, or a plain finite target
    if rng.random() < 0.2:
        return from_int(rng.randint(2, 9))
    return add(mul(omega_pow(e), rng.randint(1, 4)), 1)


def build_grid(rng, count):
    grid = []
    for _ in range(count):
        k = rng.randint(2, 3)
        roll = rng.random()
        if roll < 0.3:
            families = ["power"] * k
        elif roll < 0.6:
            families = ["successor"] * k
        elif roll < 0.8:
            families = ["multiple"] * k
        else:
            families = ["power"] + ["successor"] * (k - 1)
        grid.append(Instance.of(*((random_target(rng, f), 1)
                                  for f in families)))
    return grid


def with_counts(rng, grid):
    return [Instance([(t, rng.randint(1, 3)) for t, _ in inst.entries])
            for inst in grid]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=500,
                    help="instances to draw (default 500)")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    grid = build_grid(rng, args.count)
    counted = with_counts(random.Random(f"counts {args.seed}"), grid)
    started = time.monotonic()
    report = cross_check_p_top(grid + counted)
    elapsed = time.monotonic() - started

    for entry in report:
        targets = ", ".join(f"{format_ordinal(t, 'ascii')}:{c}"
                            for t, c in entry["instance"].entries)
        print(f"MISMATCH ({targets}): expected {entry['expected']}, "
              f"engine said {entry['actual']}")
    print(f"{len(grid)} instances, {len(report)} mismatches, "
          f"{elapsed:.2f}s (seed {args.seed})")
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main())
