"""Replay a workload's own operands through the public kernel functions.

The traced run keeps the ordinals its ops handled; this times each
kernel function over consecutive pairs of them, outside any op, and
reports calls and nanoseconds per call.  Construction and hashing run
on fresh copies so that no cached hash is reused.
"""

from __future__ import annotations

from time import perf_counter_ns

MAX_OPERANDS = 2000
MIN_NS = 20_000_000        # repeat passes until a function has run 20 ms
MAX_PASSES = 20


def replay(ordinal, operands) -> dict:
    xs = list(operands[:MAX_OPERANDS])
    if len(xs) < 2:
        return {}
    Ordinal, compare = ordinal.Ordinal, ordinal.compare
    pairs = list(zip(xs, xs[1:]))
    ordered = [(a, b) if compare(a, b) <= 0 else (b, a) for a, b in pairs]
    nonzero = [(a, b) for a, b in pairs if a.monomials and b.monomials]
    monomials = [x.monomials for x in xs]
    add, mul = ordinal.add, ordinal.mul
    natural_sum, left_subtract = ordinal.natural_sum, ordinal.left_subtract
    mr_sum = ordinal.mr_sum

    def fresh():
        return [Ordinal(m) for m in monomials]

    passes = {
        "compare": (lambda: [compare(a, b) for a, b in pairs], len(pairs)),
        "is_countable": (lambda: [x.is_countable() for x in xs], len(xs)),
        "construct": (lambda: [Ordinal(m) for m in monomials], len(xs)),
        "add": (lambda: [add(a, b) for a, b in pairs], len(pairs)),
        "left_subtract": (lambda: [left_subtract(a, b) for a, b in ordered],
                          len(ordered)),
        "mul": (lambda: [mul(a, b) for a, b in pairs], len(pairs)),
        "natural_sum": (lambda: [natural_sum(a, b) for a, b in pairs],
                        len(pairs)),
        "mr_sum": (lambda: [mr_sum((a, b)) for a, b in nonzero], len(nonzero)),
    }
    out = {}
    for name, (run, calls) in passes.items():
        out[name] = _time(run, calls)
    # hash: the first hash of each fresh copy, copies made outside the clock
    total = done = 0
    while done < MAX_PASSES and total < MIN_NS:
        copies = fresh()
        t = perf_counter_ns()
        for c in copies:
            hash(c)
        total += perf_counter_ns() - t
        done += 1
    out["hash"] = (done * len(xs), total)
    return out


def _time(run, calls):
    total = done = 0
    if calls == 0:
        return 0, 0
    while done < MAX_PASSES and total < MIN_NS:
        t = perf_counter_ns()
        run()
        total += perf_counter_ns() - t
        done += 1
    return done * calls, total
