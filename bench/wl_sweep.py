"""sweep: one in-process analyze of an Instance, plus relation_holds at the
value and at a point just below it, per op.

Mostly two-colour targets drawn uniformly from criterion 3's class (the
desk-scale fixed-point search), some target pairs and 3-4 target
lists, one finite list and one distinguished exact multiple (C6a and
C6cI, rare among uniform draws), and a tenth of leaf templates,
uncountable or with aleph colours, so that every CasePath leaf is hit.
"""

from __future__ import annotations

import inputs
import shapes
from shapes import below, shape_of
from workload import Workload

C6 = ("C6a", "C6b", "C6cI", "C6cII")


class Input:
    __slots__ = ("entries", "inst", "leaf", "single", "k")

    def __init__(self, entries, inst, leaf=None, single=None, k=1):
        self.entries = entries
        self.inst = inst
        self.leaf = leaf        # the leaf a template was drawn for
        self.single = single    # the target of a two-colour criterion-3 draw
        self.k = k              # tail coefficient of the point below


class Sweep(Workload):
    name = "sweep"
    digest_decks = 10
    warmup_ops = 40

    def __init__(self, program, seed, workdir):
        super().__init__(program, seed, workdir)
        E = program.engine
        self.Exists, self.Independent = E.Exists, E.Independent
        self.HOLDS = E.RelationVerdict.HOLDS
        self.FAILS = E.RelationVerdict.FAILS
        self.UNKNOWN = E.RelationVerdict.INDEPENDENT_UNKNOWN
        self.far = self.build(shapes.combine([(("w_", shapes.nat(2)), 3)]))

    def _deck(self, rng):
        two = ("n", 2)
        one = ("n", 1)
        draws = []
        for _ in range(22):
            a = inputs.criterion3_target(rng)
            draws.append(([(a, two)], None, a))
        for _ in range(4):
            a = inputs.criterion3_power(rng)
            draws.append(([(a, two)], None, a))
        for _ in range(4):
            draws.append(([(inputs.criterion3_target(rng), one),
                           (inputs.criterion3_target(rng), one)], None, None))
        # six lists, so that p90 falls inside their costs, not at their edge
        for _ in range(6):
            draws.append(([(inputs.criterion3_target(rng), one)
                           for _ in range(rng.randint(3, 4))], None, None))
        for leaf in ("C6a", "C6cI"):       # rare among uniform draws
            draws.append((inputs.witness_entries(leaf, rng), leaf, None))
        for leaf in rng.sample(inputs.TEMPLATE_LEAVES, 4):
            draws.append((inputs.leaf_template(leaf, rng), leaf, None))
        rng.shuffle(draws)
        return [Input(e, self.instance(e), leaf, single, rng.randint(1, 9))
                for e, leaf, single in draws]

    def op(self, L, inp):
        analysis = L.analyze(inp.inst)
        result = analysis.result
        if type(result) is self.Exists:
            top = result.value
        elif type(result) is self.Independent:
            top = result.zfc_lower
        else:
            top = self.far
        hi = L.relation_holds(top, inp.inst)
        lo = None
        if top.monomials:
            lo = L.relation_holds(self.build(below(shape_of(top), inp.k)),
                                  inp.inst)
        return analysis, hi, lo

    def check(self, inp, out):
        analysis, hi, lo = out
        case, result = analysis.case.value, analysis.result
        problems = []
        if inp.leaf is not None and case != inp.leaf:
            problems.append(f"dispatched to {case}, expected {inp.leaf}")
        if inp.leaf is None and case not in C6:
            problems.append(f"countable finite-colour instance went to {case}")
        kind = type(result).__name__
        want = {"C1": "Infinite", "C3": "Independent"}.get(case, "Exists")
        if kind != want:
            problems.append(f"{case} gave {kind}")
        if kind == "Exists":
            verdicts = (self.HOLDS, self.FAILS)
        elif kind == "Independent":
            verdicts = (self.UNKNOWN, self.FAILS)
        else:
            verdicts = (self.FAILS, self.FAILS)
        if hi is not verdicts[0] or (lo is not None and lo is not verdicts[1]):
            problems.append(f"verdicts {hi}, {lo} at the value and below it")
        if kind == "Exists":
            value = shape_of(result.value)
            if inp.single is not None and \
                    (value == inp.single) != shapes.is_tower(inp.single):
                problems.append(f"p_top(a x 2) = {shapes.text(value)} for "
                                f"a = {shapes.text(inp.single)}")
            if case in C6 and not (len(value) == 1 or (
                    len(value) == 2 and value[1] == (shapes.ZERO, 1))):
                problems.append(f"{case} value {shapes.text(value)} is not "
                                "w^g*m or w^g*m+1")
        return problems

    def describe(self, inp, out):
        analysis, hi, lo = out
        result = analysis.result
        value = getattr(result, "value", getattr(result, "zfc_lower", None))
        entries = " ".join(f"{shapes.text(s)}:{shapes.count_text(c)}"
                           for s, c in inp.entries)
        shown = "-" if value is None else shapes.text(shape_of(value))
        return (f"{entries} -> {analysis.case.value} {type(result).__name__} "
                f"{shown} {hi.value} {lo.value if lo else '-'}")

    def operands(self, inp, out):
        analysis = out[0]
        xs = [t for t, _ in inp.inst.entries]
        value = getattr(analysis.result, "value", None)
        if value is not None:
            xs.append(value)
        return xs


WORKLOAD = Sweep
