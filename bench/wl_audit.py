"""audit: one in-process oracle check per op.

A deck holds one enumeration of countable normal forms (bounds within
criterion 3's, rotating over three specs of similar cost), brute-force
Milner-Rado sums, the Milner-Rado oracle on the closed formula's value
and on its +1 and -1 tampers, finite arrow searches at and just below
the threshold, link-formula cross-checks on seeded grids, and direct
natural-sum splittings at and below the Milner-Rado sum.  The oracles
share no formulas with the engine, so engine-only changes should leave
this workload flat.
"""

from __future__ import annotations

import hashlib
from math import comb

import inputs
import shapes
from shapes import below, shape_of
from workload import Workload


class Input:
    __slots__ = ("kind", "args", "spec")

    def __init__(self, kind, args, spec):
        self.kind = kind
        self.args = args        # program values the oracle is called with
        self.spec = spec        # the shapes and numbers they came from


class Audit(Workload):
    name = "audit"
    warmup_ops = 12

    def __init__(self, program, seed, workdir):
        super().__init__(program, seed, workdir)
        o = program.ordinal
        self.mr_sum, self.natural_sum = o.mr_sum, o.natural_sum
        self.Bounds = program.oracle.EnumerationBounds
        self.decks_made = 0
        self.rotation = self.rng.randrange(len(inputs.ENUMERATION_BOUNDS))

    def _deck(self, rng):
        deck = []
        if rng is self.rng:
            which = (self.rotation + self.decks_made) % len(inputs.ENUMERATION_BOUNDS)
            self.decks_made += 1
            exp, coeff, monos = inputs.ENUMERATION_BOUNDS[which]
            deck.append(Input("enumerate",
                              (self.Bounds(self.build(exp), coeff, monos),),
                              (exp, coeff, monos)))
        # Counts put p50 inside the natsum ops and p90 inside the exact
        # Milner-Rado checks, each a class of narrow cost, not at an edge.
        for _ in range(5):
            bs = inputs.mr_bounds(rng)
            deck.append(Input("bruteforce", ([self.build(b) for b in bs],), bs))
        for _ in range(8):
            bs = inputs.mr_bounds(rng)
            values = [self.build(b) for b in bs]
            true = shape_of(self.mr_sum(values))
            plus = shapes.combine(true + ((shapes.ZERO, 1),))
            for name, cand in (("exact", true), ("plus", plus),
                               ("minus", below(true, rng.randint(1, 3)))):
                deck.append(Input("mr_check", (values, self.build(cand), 50),
                                  (bs, name, cand)))
        for _ in range(16):
            ts = inputs.arrow_targets(rng)
            threshold = sum(t - 1 for t in ts) + 1
            at = threshold == 1 or rng.random() < 0.5
            deck.append(Input("arrow", (threshold if at else threshold - 1,
                                        list(ts)), (ts, at)))
        for _ in range(2):
            pairs = [inputs.link_pair(rng) for _ in range(10)]
            grid = [self.instance([(a, ("n", 1)), (b, ("n", 1))])
                    for a, b in pairs]
            deck.append(Input("cross", (grid,), pairs))
        for _ in range(12):
            bs = inputs.mr_bounds(rng)
            values = [self.build(b) for b in bs]
            true = shape_of(self.mr_sum(values))
            deck.append(Input("natsum", (values, self.build(true),
                                         self.build(below(true, rng.randint(1, 3)))),
                              bs))
        rng.shuffle(deck)
        return deck

    def op(self, L, inp):
        kind, args = inp.kind, inp.args
        if kind == "enumerate":
            return L.enumerate_ordinals_below(*args)
        if kind == "bruteforce":
            return L.bruteforce_mr_sum(*args)
        if kind == "mr_check":
            return L.mr_sum_bruteforce_check(*args)
        if kind == "arrow":
            return L.finite_arrow_check(*args)
        if kind == "cross":
            return L.cross_check_p_top(*args)
        values, at, under = args
        return (L.natsum_expressible(at, values),
                L.natsum_expressible(under, values))

    def check(self, inp, out):
        kind = inp.kind
        if kind == "enumerate":
            self.count("oracle.enumerate_ordinals_below.terms", len(out))
            return self._check_enumeration(inp, out)
        if kind == "bruteforce":
            closed = self.mr_sum(inp.args[0])
            return [] if out == closed else [
                f"brute-force Milner-Rado sum {out} != closed formula {closed}"]
        if kind == "mr_check":
            want = inp.spec[1] == "exact"
            return [] if out is want else [
                f"Milner-Rado oracle said {out} for the {inp.spec[1]} candidate"]
        if kind == "arrow":
            want = inp.spec[1]
            return [] if out is want else [
                f"finite arrow {inp.args} gave {out}"]
        if kind == "cross":
            self.count("oracle.cross_check_p_top.mismatches", len(out))
            return [] if not out else [f"{len(out)} link-formula mismatches"]
        values, at, under = inp.args
        split_at, split_under = out
        problems = []
        if split_at is not None:
            problems.append("the Milner-Rado sum split into smaller parts")
        if split_under is None:
            problems.append("a point below the Milner-Rado sum did not split")
        elif self.natural_sum(*split_under) != under or any(
                not p < b for p, b in zip(split_under, values)):
            problems.append("a split is not below its bounds or misses the sum")
        return problems

    def _check_enumeration(self, inp, terms):
        """Strictly ascending, within the bounds, and as many terms as the
        closed count: with E the terms at most the exponent bound (the
        oracle's exponent pool), sum over j of C(|E|, j) * c^j."""
        exp, coeff, monos = inp.spec
        if any(not a < b for a, b in zip(terms, terms[1:])):
            return ["enumeration is not strictly ascending"]
        top = self.build(exp)
        pool = [t for t in terms if t <= top]
        expected = sum(comb(len(pool), j) * coeff ** j
                       for j in range(min(monos, len(pool)) + 1))
        if len(terms) != expected:
            return [f"enumerated {len(terms)} terms, closed count {expected}"]
        pool_shapes = {shape_of(t) for t in pool}
        for t in terms:
            s = shape_of(t)
            if len(s) > monos or any(c > coeff or e not in pool_shapes
                                     for e, c in s):
                return [f"{shapes.text(s)} is outside the bounds"]
        return []

    def describe(self, inp, out):
        kind = inp.kind
        if kind == "enumerate":
            h = hashlib.sha256("\n".join(shapes.text(shape_of(t))
                                         for t in out).encode())
            return f"enumerate {inp.spec[1:]} {shapes.text(inp.spec[0])} -> " \
                   f"{len(out)} {h.hexdigest()[:16]}"
        if kind == "bruteforce":
            return f"bruteforce {[shapes.text(b) for b in inp.spec]} -> " \
                   f"{shapes.text(shape_of(out))}"
        if kind == "natsum":
            splits = [None if s is None else [shapes.text(shape_of(p)) for p in s]
                      for s in out]
            return f"natsum {[shapes.text(b) for b in inp.spec]} -> {splits}"
        if kind == "mr_check":
            bs, name, cand = inp.spec
            return f"mr_check {[shapes.text(b) for b in bs]} {name} " \
                   f"{shapes.text(cand)} -> {out}"
        if kind == "arrow":
            return f"arrow {inp.args} -> {out}"
        return f"cross {[tuple(map(shapes.text, p)) for p in inp.spec]} -> {len(out)}"

    def operands(self, inp, out):
        kind = inp.kind
        if kind == "enumerate":
            return out[::97]
        if kind == "bruteforce":
            return list(inp.args[0]) + [out]
        if kind == "mr_check":
            return list(inp.args[0]) + [inp.args[1]]
        if kind == "natsum":
            return list(inp.args[0]) + [inp.args[1], inp.args[2]]
        return []


WORKLOAD = Audit
