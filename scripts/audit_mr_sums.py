#!/usr/bin/env python3
"""Audit the Milner-Rado sum against its definition.

Draws seeded random bound lists and checks each closed-form sum with
mr_sum_bruteforce_check (exact non-expressibility plus sampled
expressibility below).  Each list is also audited as counted entries:
a second seeded generator gives every bound a count of 1-3, and
mr_sum_counted must equal mr_sum of the copies and pass the same check
against them.  With --full it also recomputes tiny cases by scanning
the candidate lattice from below, which is slow but assumes nothing
about the answer.
"""

import argparse
import random
import sys
import time

from ordpigeon import add, from_int, mr_sum, mul, omega_pow
from ordpigeon.oracle import bruteforce_mr_sum, mr_sum_bruteforce_check
from ordpigeon.ordinal import mr_sum_counted
from ordpigeon.parser import format_ordinal


def random_bound(rng, tiny):
    coeff_cap = 2 if tiny else 3
    exps = sorted({(rng.randint(0, 2), rng.randint(0, 2))
                   for _ in range(rng.randint(1, 2))}, reverse=True)
    out = from_int(0)
    for a, b in exps:
        if tiny and a:
            a, b = 0, rng.randint(1, 2)
        e = add(mul(omega_pow(1), a), b)
        out = add(out, mul(omega_pow(e), rng.randint(1, coeff_cap)))
    return out if not out.is_zero() else from_int(1)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=300,
                    help="bound lists to draw (default 300)")
    ap.add_argument("--samples", type=int, default=50,
                    help="expressibility samples per list (default 50)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--full", action="store_true",
                    help="also rescan tiny cases from the bottom up")
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    # counts come from their own generator, so the bound lists do not move
    count_rng = random.Random(f"counts {args.seed}")
    failures = 0
    started = time.monotonic()
    for i in range(args.count):
        tiny = args.full and i % 10 == 0
        bounds = [random_bound(rng, tiny) for _ in range(rng.randint(2, 3))]
        counts = [count_rng.randint(1, 3) for _ in bounds]
        value = mr_sum(bounds)
        shown = ", ".join(format_ordinal(b, "ascii") for b in bounds)
        if not mr_sum_bruteforce_check(bounds, value, args.samples):
            print(f"REJECTED mr({shown}) = {format_ordinal(value, 'ascii')}")
            failures += 1
            continue
        copies = [b for b, c in zip(bounds, counts) for _ in range(c)]
        counted = mr_sum_counted(list(zip(bounds, counts)))
        if counted != mr_sum(copies) or \
                not mr_sum_bruteforce_check(copies, counted, args.samples):
            entries = ", ".join(f"{format_ordinal(b, 'ascii')}:{c}"
                                for b, c in zip(bounds, counts))
            print(f"REJECTED counted mr({entries}) = "
                  f"{format_ordinal(counted, 'ascii')}")
            failures += 1
        if tiny:
            rescanned = bruteforce_mr_sum(bounds)
            if rescanned != value:
                print(f"LATTICE DISAGREES on mr({shown}): "
                      f"{format_ordinal(rescanned, 'ascii')} vs "
                      f"{format_ordinal(value, 'ascii')}")
                failures += 1
    elapsed = time.monotonic() - started
    print(f"{args.count} bound lists, {failures} failures, "
          f"{elapsed:.2f}s (seed {args.seed})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
