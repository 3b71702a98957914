"""witness: one in-process witness round trip per op.

The op finds the threshold with analyze, picks beta below it (the
predecessor of a successor threshold, a seeded point below a limit
one), builds the counterexample, writes it in the JSON shape that
`ordpigeon witness --json` writes, reads it back, verifies the read
copy and every single-field tamper of it, and asks for a witness at the
threshold itself, which must be refused.  Families C6a, C6b, C6cI,
C6cII and C1 take equal shares.
"""

from __future__ import annotations

import dataclasses
import json

import inputs
import shapes
from shapes import below, shape_of
from workload import Workload

TAMPERED_FIELDS = ("colour", "kind", "claimed_target", "level", "bound",
                   "class_residual", "target_residual")


class Input:
    __slots__ = ("family", "entries", "inst", "k", "domain")

    def __init__(self, family, entries, inst, k, domain):
        self.family = family
        self.entries = entries
        self.inst = inst
        self.k = k              # tail coefficient below a limit threshold
        self.domain = domain    # beta for C1, whose answer has no threshold


class Outcome:
    __slots__ = ("case", "beta", "built", "read", "accepted",
                 "tampers", "at_threshold")

    def __init__(self, case, beta):
        self.case = case
        self.beta = beta
        self.built = None        # (colouring, certificates), None if out of scope
        self.read = None         # the same, read back from JSON
        self.accepted = None
        self.tampers = ()
        self.at_threshold = None


def serialize(L, col, certs, entries) -> dict:
    """The "result" object of `ordpigeon witness --json`."""
    fmt = L.format_ordinal

    def opt(x):
        return None if x is None else fmt(x)
    return {
        "kind": "witness",
        "domain": fmt(col.domain),
        "mode": col.mode.value,
        "rank_classes": [[[fmt(lo), fmt(hi)] for lo, hi in union]
                         for union in col.rank_classes],
        "top_point_colours": list(col.top_point_colours),
        "zero_colour": col.zero_colour,
        "certificates": [{
            "colour": c.colour,
            "kind": c.kind.value,
            "claimed_target": fmt(c.claimed_target),
            "level": opt(c.level),
            "bound": c.bound,
            "class_residual": opt(c.class_residual),
            "target_residual": opt(c.target_residual),
        } for c in certs],
        "instance": [f"{fmt(t)}:{c!r}" for t, c in entries],
    }


def deserialize(P, L, doc):
    """(colouring, certificates, instance) from serialize's output."""
    W = P.witness

    def parse(text):
        return L.parse_expression(text).value

    def opt(text):
        return None if text is None else parse(text)
    col = W.RankColouring(
        domain=parse(doc["domain"]),
        mode=W.ColouringMode(doc["mode"]),
        rank_classes=tuple(tuple((parse(lo), parse(hi)) for lo, hi in union)
                           for union in doc["rank_classes"]),
        top_point_colours=tuple(doc["top_point_colours"]),
        zero_colour=doc["zero_colour"])
    certs = tuple(W.ObstructionCertificate(
        colour=c["colour"], kind=W.CertKind(c["kind"]),
        claimed_target=parse(c["claimed_target"]), level=opt(c["level"]),
        bound=c["bound"], class_residual=opt(c["class_residual"]),
        target_residual=opt(c["target_residual"])) for c in doc["certificates"])
    entries = []
    for item in doc["instance"]:
        target, _, count = item.rpartition(":")
        entries.append((parse(target), P.parser.parse_cardinal(count)))
    return col, certs, P.engine.Instance(tuple(entries))


class Witness(Workload):
    name = "witness"
    digest_decks = 10

    def __init__(self, program, seed, workdir):
        super().__init__(program, seed, workdir)
        W = program.witness
        self.OutOfScope, self.NotBelow = W.OutOfScope, W.NotBelowThreshold
        self.documented = {"build_counterexample": (W.OutOfScope,
                                                    W.NotBelowThreshold)}
        self.Exists = program.engine.Exists
        self.kinds = list(W.CertKind)
        o = program.ordinal
        self.Ordinal, self.ZERO, self.ONE = o.Ordinal, o.ZERO, o.ONE

    def _deck(self, rng):
        deck = []
        for family in inputs.WITNESS_FAMILIES * 2:
            entries = inputs.witness_entries(family, rng)
            deck.append(Input(family, entries, self.instance(entries),
                              rng.randint(1, 4),
                              self.build(rng.choice(inputs.C1_DOMAINS))))
        rng.shuffle(deck)
        return deck

    def succ(self, x):
        ms = x.monomials
        if ms and ms[-1][0] == self.ZERO:
            return self.Ordinal(ms[:-1] + ((ms[-1][0], ms[-1][1] + 1),))
        return self.Ordinal(ms + ((self.ZERO, 1),))

    def tampers(self, col, certs):
        """Every single-field change of every certificate, and the top
        point colours shifted."""
        out = []
        for j, cert in enumerate(certs):
            for field in TAMPERED_FIELDS:
                v = getattr(cert, field)
                if field == "colour":
                    v = v + 1
                elif field == "kind":
                    v = self.kinds[(self.kinds.index(v) + 1) % len(self.kinds)]
                elif field == "bound":
                    v = 1 if v is None else v + 1
                elif v is None:
                    v = self.ZERO if field == "level" else self.ONE
                else:
                    v = self.succ(v)
                broken = dataclasses.replace(cert, **{field: v})
                out.append((col, certs[:j] + (broken,) + certs[j + 1:]))
        if col.top_point_colours:
            out.append((dataclasses.replace(col, top_point_colours=tuple(
                c + 1 for c in col.top_point_colours)), certs))
        return out

    def op(self, L, inp):
        analysis = L.analyze(inp.inst)
        result = analysis.result
        threshold = result.value if type(result) is self.Exists else None
        if threshold is None:
            beta = inp.domain
        else:
            beta = self.build(below(shape_of(threshold), inp.k))
        o = Outcome(analysis.case.value, beta)
        norm = L.normalize(inp.inst)
        try:
            col, certs = L.build_counterexample(beta, norm)
        except self.OutOfScope:
            return o
        o.built = (col, tuple(certs))
        doc = json.loads(json.dumps(serialize(L, col, certs, norm.entries)))
        col2, certs2, inst2 = deserialize(self.P, L, doc)
        norm2 = L.normalize(inst2)
        o.read = (col2, certs2, norm2)
        o.accepted = L.verify_certificates(col2, norm2, certs2)
        o.tampers = tuple(L.verify_certificates(c, norm2, t)
                          for c, t in self.tampers(col2, certs2))
        if threshold is not None:
            try:
                L.build_counterexample(threshold, norm)
                o.at_threshold = "built"
            except self.NotBelow:
                o.at_threshold = "refused"
        return o

    def check(self, inp, o):
        problems = []
        if o.case != inp.family:
            problems.append(f"dispatched to {o.case}, expected {inp.family}")
        self.count("witness.build.out_of_scope", o.built is None)
        if o.built is None:
            # documented only for the residual-counting certificate of C6cI
            if inp.family != "C6cI":
                problems.append(f"OutOfScope for {inp.family}")
            return problems
        col, certs = o.built
        col2, certs2, norm2 = o.read
        if (col2, certs2) != (col, certs):
            problems.append("the witness changed in the JSON round trip")
        self.count("witness.verify.genuine")
        self.count("witness.verify.accepted", bool(o.accepted))
        self.count("witness.tamper.tried", len(o.tampers))
        self.count("witness.tamper.rejected", sum(not t for t in o.tampers))
        if not o.accepted:
            problems.append("genuine witness rejected")
        if any(o.tampers):
            problems.append(f"{sum(map(bool, o.tampers))} of "
                            f"{len(o.tampers)} tampers accepted")
        if inp.family != "C1" and o.at_threshold != "refused":
            problems.append("a witness at the threshold was not refused")
        return problems

    def describe(self, inp, o):
        head = (" ".join(f"{shapes.text(s)}:{shapes.count_text(c)}"
                         for s, c in inp.entries)
                + f" below {shapes.text(shape_of(o.beta))} -> {o.case}")
        if o.built is None:
            return head + " out of scope"
        col, certs = o.built
        parts = [f"{c.colour}:{c.kind.value}:"
                 f"{'-' if c.level is None else shapes.text(shape_of(c.level))}:"
                 f"{c.bound}" for c in certs]
        return (f"{head} {col.mode.value} tops={list(col.top_point_colours)} "
                f"{' '.join(parts)} tampers={len(o.tampers)}")

    def operands(self, inp, o):
        xs = [t for t, _ in inp.inst.entries] + [o.beta]
        if o.built is not None:
            col, certs = o.built
            for union in col.rank_classes:
                for lo, hi in union:
                    xs += (lo, hi)
        return xs

    def traced_extras(self, L, tracer, inputs):
        c = self.counts
        genuine, tried = c.get("witness.verify.genuine", 0), \
            c.get("witness.tamper.tried", 0)
        return {
            "witness.verify.accept_ratio":
                c.get("witness.verify.accepted", 0) / genuine if genuine else 0.0,
            "witness.tamper.reject_ratio":
                c.get("witness.tamper.rejected", 0) / tried if tried else 0.0,
        }


WORKLOAD = Witness
