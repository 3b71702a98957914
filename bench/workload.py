"""What every workload provides to the measuring loop in run.py."""

from __future__ import annotations

import random
from time import perf_counter

from shapes import ValueMaker


def loop_calibration_s() -> float:
    """Time of a fixed pure-Python job that shares no code with the
    program: build 1,500 small tuples with strings, sort them, and store
    them in a dict; the least of three tries, in seconds.  Of the probes
    tried, this one's time moved in proportion to the ops' as the
    machine's speed drifted (fitted exponent 1.04, against 0.67 for a
    tight arithmetic loop that over-reacted)."""
    best = float("inf")
    for _ in range(3):
        t = perf_counter()
        rows = [(i % 97, (i * 31) % 101, str(i)) for i in range(1500)]
        rows.sort()
        table = {}
        for a, b, key in rows:
            table[key] = (a, b)
        best = min(best, perf_counter() - t)
    return best


class Workload:
    """A seeded stream of decks of inputs, one op per input.

    A deck is a fixed mix of input kinds in seeded order, so that any
    run of whole decks has the same composition.  The op is the timed
    call; check, describe and operands run outside the timed region.
    """

    name = ""
    digest_decks = 1           # the digest covers this many leading decks
    warmup_ops = 10
    children_rss = False       # True when ops run in child processes
    documented = {}            # Layers attribute -> expected exceptions
    # op times are reported at the speed where calibration_s() takes
    # calibration_ref_s, calibrating after every segment_s of op time
    calibration_s = staticmethod(loop_calibration_s)
    calibration_ref_s = 0.001
    segment_s = 0.02

    def __init__(self, program, seed: int, workdir: str):
        self.P = program
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.warm_rng = random.Random(f"{self.name}:{seed}:warm-up")
        self.build = ValueMaker(program.ordinal)
        self.counts = {}

    def cardinal(self, count):
        """A program Cardinal from ("n", k) or ("aleph", index shape)."""
        kind, value = count
        Cardinal = self.P.ordinal.Cardinal
        if kind == "n":
            return Cardinal.finite(value)
        return Cardinal.aleph(self.build(value))

    def instance(self, entries):
        return self.P.engine.Instance(tuple(
            (self.build(s), self.cardinal(c)) for s, c in entries))

    def deck(self) -> list:
        return self._deck(self.rng)

    def warmup_inputs(self) -> list:
        return self._deck(self.warm_rng)[:self.warmup_ops]

    def _deck(self, rng: random.Random) -> list:
        raise NotImplementedError

    def prepare(self, inp) -> None:
        """Untimed work an input needs just before its op."""

    def op(self, L, inp):
        raise NotImplementedError

    def check(self, inp, out) -> list:
        """Problems with one op's output; empty when it is correct."""
        raise NotImplementedError

    def describe(self, inp, out) -> str:
        """A line for the per-seed digest of (input, output) pairs."""
        raise NotImplementedError

    def operands(self, inp, out) -> list:
        """Ordinals this op handled, replayed through the kernel when
        traced."""
        return []

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def traced_extras(self, L, tracer, inputs) -> dict:
        """Per-layer metrics a traced run measures besides its spans."""
        return {}
