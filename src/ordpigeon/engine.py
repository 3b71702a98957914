"""The topological pigeonhole number and its case analysis.

p_top computes, for targets a_i with multiplicities summing to kappa, the
least b such that every colouring of the space b in kappa colours has a
colour class containing a homeomorphic copy of its target.  The answer is
an ordinal, or provably no ordinal at all, or (for two or more copies of
w_1 among countable-or-w_1 targets) a value independent of ZFC, for which
we report the provable lower bound and the known consistency facts.

classify walks the case tree once, and each leaf computes its value
where the tree reaches it.  A count is a number throughout: in the
finite-colour leaves a target of count c enters each formula once,
scaled by c, so no leaf lists the targets copy by copy.
"""

from __future__ import annotations

import enum
from typing import List, Tuple, Union

from .ordinal import (
    Cardinal,
    ONE,
    OMEGA,
    OMEGA1,
    OMEGA2,
    Ordinal,
    Record,
    ZERO,
    ZeroInput,
    _coerce,
    _coerce_card,
    _set_values,
    add,
    biembed_canonical,
    cardinal_sum,
    cb_rank,
    cofinality,
    exponent_ordinal,
    from_int,
    is_power_of_omega,
    leading_decomposition,
    mr_sum_counted,
    mul,
    natural_sum,
    omega_pow,
)


class EmptyInstance(ValueError):
    """Raised when an instance has no targets at all."""


class PowerOfOmegaInput(ValueError):
    """Raised by case6_decompose on inputs it is not defined for."""


class Instance(Record):
    """Targets with multiplicities.  Multiplicities are positive cardinals."""

    # _analysis, kept by the first analyze(self), follows the field slots
    __slots__ = ("entries", "_analysis")

    def __init__(self, entries: Tuple[Tuple[Ordinal, Cardinal], ...]):
        # coerce ints, reject other types at once; keep a well-typed tuple
        entries = tuple(entries)
        if not all(isinstance(t, Ordinal) and isinstance(c, Cardinal)
                   for t, c in entries):
            entries = tuple((_coerce(t), _coerce_card(c)) for t, c in entries)
        for _, count in entries:
            if count.is_finite() and count.size < 1:
                raise EmptyInstance("multiplicities must be at least 1")
        _set_values(self, (entries,))
        _set_instance_entries(self, entries)
        _set_analysis(self, None)

    @staticmethod
    def of(*entries) -> "Instance":
        return Instance([item if isinstance(item, tuple) else (item, 1)
                         for item in entries])

    def kappa(self) -> Cardinal:
        return cardinal_sum(c for _, c in self.entries)


class NormalizedInstance(Record):
    """An instance with every target at least 2 and kappa recomputed."""

    __slots__ = ("entries", "kappa")

    def __init__(self, entries, kappa: Cardinal):
        _set_values(self, (entries, kappa))
        _set_entries(self, entries)
        _set_kappa(self, kappa)


class Exists(Record):
    __slots__ = ("value",)

    def __init__(self, value: Ordinal):
        _set_values(self, (value,))
        _set_value(self, value)

    def __repr__(self):
        return f"Exists({self.value})"


class Infinite(Record):
    """No ordinal satisfies the relation; this is provable outright."""

    __slots__ = ()

    def __init__(self):
        _set_values(self, ())

    def __repr__(self):
        return "Infinite"


NOTE_CONSISTENT_INFINITE = (
    "Prikry-Solovay: consistently (for instance under V=L) no ordinal "
    "satisfies the relation, so the value may fail to exist."
)
NOTE_CONSISTENT_EQUAL = (
    "Shelah: from a supercompact cardinal it is consistent that the value "
    "exists and equals the provable lower bound."
)
NOTE_EQUICONSISTENCY = (
    "Silver, Shelah: the two-colour relation for w_1 at the lower bound "
    "w_2 is equiconsistent with a Mahlo cardinal."
)


class Independent(Record):
    """The exact value is independent of ZFC; zfc_lower is provable."""

    __slots__ = ("zfc_lower", "consistent_infinite", "consistent_equal_lower",
                 "equiconsistency")

    def __init__(self, zfc_lower, consistent_infinite=NOTE_CONSISTENT_INFINITE,
                 consistent_equal_lower=NOTE_CONSISTENT_EQUAL,
                 equiconsistency=NOTE_EQUICONSISTENCY):
        _set_values(self, (zfc_lower, consistent_infinite,
                        consistent_equal_lower, equiconsistency))
        _set_zfc_lower(self, zfc_lower)
        _set_consistent_infinite(self, consistent_infinite)
        _set_consistent_equal_lower(self, consistent_equal_lower)
        _set_equiconsistency(self, equiconsistency)

    def __repr__(self):
        return f"Independent(zfc_lower={self.zfc_lower})"


PigeonholeResult = Union[Exists, Infinite, Independent]


class CasePath(enum.Enum):
    ZERO = "Zero"
    ALL_ONES = "AllOnes"
    C1 = "C1"
    C2aI = "C2aI"
    C2aIIA = "C2aIIA"
    C2aIIB = "C2aIIB"
    C2aIIC_lt = "C2aIIC_lt"
    C2aIIC_gt = "C2aIIC_gt"
    C2bI = "C2bI"
    C2bII = "C2bII"
    C2cI = "C2cI"
    C2cII = "C2cII"
    C3 = "C3"
    C4 = "C4"
    C5 = "C5"
    C6a = "C6a"
    C6b = "C6b"
    C6cI = "C6cI"
    C6cII = "C6cII"


class RelationVerdict(enum.Enum):
    HOLDS = "Holds"
    FAILS = "Fails"
    INDEPENDENT_UNKNOWN = "IndependentUnknown"


def normalize(inst: Instance) -> Union[NormalizedInstance, PigeonholeResult]:
    """Drop target-1 entries and short-circuit degenerate instances.

    A target of 0 is contained in every class of every colouring, so the
    answer is 0.  A target of 1 needs one point in its class and never
    constrains the answer beyond that; if nothing else remains, the
    answer is 1.
    """
    if not inst.entries:
        raise EmptyInstance("no targets")
    if any(t.is_zero() for t, _ in inst.entries):
        return Exists(ZERO)
    entries = tuple((t, c) for t, c in inst.entries if t != ONE)
    if not entries:
        return Exists(ONE)
    return NormalizedInstance(entries, cardinal_sum(c for _, c in entries))


# a target's case6_decompose split: (g, m, exact)
Split = Tuple[Ordinal, int, bool]


class Analysis(Record):
    """One pass through the case tree and the value its leaf computes.

    In the C6c leaves decompositions holds one case6_decompose split per
    entry of the normalized instance, in entry order, and distinguished
    the index of the entry whose exact multiple dominates in C6cI; the
    witness builder reads these per-entry facts here and gives them to
    each of the entry's colours.  Elsewhere they are None.  normalized
    is None for the degenerate leaves Zero and AllOnes.
    """

    __slots__ = ("case", "trail", "result", "normalized", "decompositions",
                 "distinguished")

    def __init__(self, case, trail, result, normalized, decompositions=None,
                 distinguished=None):
        _set_values(self, (case, trail, result, normalized, decompositions,
                        distinguished))
        _set_case(self, case)
        _set_trail(self, trail)
        _set_result(self, result)
        _set_normalized(self, normalized)
        _set_decompositions(self, decompositions)
        _set_distinguished(self, distinguished)


# the records' slot writers, which skip the immutability guard
_set_instance_entries, _set_analysis = Instance._writers()
_set_entries, _set_kappa = NormalizedInstance._writers()
(_set_value,) = Exists._writers()
(_set_zfc_lower, _set_consistent_infinite, _set_consistent_equal_lower,
 _set_equiconsistency) = Independent._writers()
(_set_case, _set_trail, _set_result, _set_normalized, _set_decompositions,
 _set_distinguished) = Analysis._writers()


def _copies(norm: NormalizedInstance, floor: Ordinal) -> int:
    # targets at least floor, counted with multiplicity; an infinite
    # multiplicity counts as 2, the most any test of the case tree asks
    return sum(c.size if c.is_finite() else 2
               for t, c in norm.entries if t >= floor)


_OMEGA_SUCC = add(OMEGA, ONE)


def classify(norm: NormalizedInstance) -> Analysis:
    """Walk the case tree once; the leaf it reaches computes the result
    from the entries and their counts."""
    trail: List[str] = []
    case, result, *c6c = _case_tree(norm, trail)
    return Analysis(case, tuple(trail), result, norm, *c6c)


def _case_tree(norm: NormalizedInstance, trail: List[str]) -> tuple:
    # (case, result), plus (decompositions, distinguished) in C6c
    kappa = norm.kappa
    # countable targets are below w_1, so they settle both w_1 tests
    countable = all(t.is_countable() for t, _ in norm.entries)
    big = None if countable else next(
        (t for t, _ in norm.entries if t > OMEGA1), None)

    if big is not None:
        trail.append("some target exceeds w_1")
        if _copies(norm, _OMEGA_SUCC) >= 2:
            trail.append("a second target is at least w+1")
            return CasePath.C1, Infinite()
        trail.append("every other target is at most w")
        if not kappa.is_finite():
            trail.append("infinitely many colours")
            succ = kappa.successor().as_ordinal()
            if not is_power_of_omega(big):
                trail.append("the large target is not a power of w")
                return CasePath.C2aI, Exists(mul(big, succ))
            trail.append("the large target is a power of w")
            cf = cofinality(big)
            if cf > kappa.as_ordinal():
                trail.append("its cofinality exceeds the number of colours")
                return CasePath.C2aIIA, Exists(big)
            if cf > OMEGA:
                trail.append("its cofinality is uncountable but not above "
                             "the number of colours")
                return CasePath.C2aIIB, Exists(mul(big, succ))
            trail.append("its cofinality is countable")
            delta = cb_rank(exponent_ordinal(big.leading_exponent()))
            assert delta != succ, "tail exponent cannot be the successor " \
                "cardinal: that would force uncountable cofinality"
            if delta < succ:
                trail.append("the exponent's tail rank is below the "
                             "successor of the number of colours")
                return CasePath.C2aIIC_lt, Exists(mul(big, succ))
            trail.append("the exponent's tail rank is above the successor "
                         "of the number of colours")
            return CasePath.C2aIIC_gt, Exists(big)
        trail.append("finitely many colours")
        if any(t == OMEGA for t, _ in norm.entries):
            trail.append("some other target equals w")
            if is_power_of_omega(big):
                trail.append("the large target is a power of w")
                return CasePath.C2bI, Exists(big)
            trail.append("the large target is not a power of w")
            return CasePath.C2bII, Exists(mul(big, OMEGA))
        trail.append("every other target is finite")
        if is_power_of_omega(big) or kappa == Cardinal.finite(1):
            trail.append("the large target is a power of w, or it is the "
                         "only target")
            return CasePath.C2cI, Exists(biembed_canonical(big))
        trail.append("the large target is not a power of w and there are "
                     "other targets")
        # w^g*m + 1 <= big <= w^g*(m+1); big is not w^g, so m >= 2 at rest 0
        g, m, rest = leading_decomposition(big)
        if rest.is_zero():
            m -= 1
        others = sum((int(t) - 1) * c.size for t, c in norm.entries
                     if t != big)
        return CasePath.C2cII, Exists(
            add(mul(omega_pow(g), from_int(others + m)), ONE))

    trail.append("no target exceeds w_1")
    at_w1 = 0 if countable else _copies(norm, OMEGA1)
    if at_w1 >= 2:
        trail.append("at least two copies of w_1 among the targets")
        return CasePath.C3, Independent(
            zfc_lower=max(OMEGA2, kappa.successor().as_ordinal()))
    if at_w1 == 1:
        trail.append("exactly one copy of w_1 among the targets")
        return CasePath.C4, Exists(
            max(OMEGA1, kappa.successor().as_ordinal()))
    trail.append("every target is countable")
    if not kappa.is_finite():
        trail.append("infinitely many colours")
        return CasePath.C5, Exists(kappa.successor().as_ordinal())
    trail.append("finitely many colours")
    # each C6 value is a sum over the targets, so an entry's count scales
    # its term instead of repeating it
    entries = [(t, c.size) for t, c in norm.entries]
    if all(t.is_finite() for t, _ in entries):
        trail.append("every target is finite")
        return CasePath.C6a, Exists(
            from_int(sum((int(t) - 1) * c for t, c in entries) + 1))
    if any(is_power_of_omega(t) for t, _ in entries):
        trail.append("some target is a power of w")
        return CasePath.C6b, Exists(omega_pow(mr_sum_counted(
            [(minimal_omega_power_bound(t), c) for t, c in entries])))
    trail.append("no target is a power of w and some target is infinite")
    decs = tuple(case6_decompose(t) for t, _ in entries)
    counts = [c for _, c in entries]
    # the natural sum of c copies of g multiplies g's coefficients by c
    gamma = natural_sum(*(g if c == 1 else
                          Ordinal(tuple((e, k * c) for e, k in g.monomials))
                          for (g, _, _), c in zip(decs, counts)))
    # the first exact multiple of least rank whose every other copy,
    # its own included, has m = 1
    ranks = [cb_rank(g) for g, _, _ in decs]
    s = next((s for s, (_, _, exact) in enumerate(decs)
              if exact and not any(ranks[s] > r for r in ranks)
              and all(m == 1 for i, (_, m, _) in enumerate(decs)
                      if i != s or counts[i] > 1)), None)
    if s is not None:
        trail.append("an exact multiple of a power of w has minimal rank "
                     "and all other multiplicities are 1")
        return CasePath.C6cI, Exists(
            mul(omega_pow(gamma), from_int(decs[s][1] + 1))), decs, s
    trail.append("no exact-multiple target dominates")
    total = sum((m - 1) * c for (_, m, _), c in zip(decs, counts)) + 1
    return CasePath.C6cII, Exists(
        add(mul(omega_pow(gamma), from_int(total)), ONE)), decs, None


def minimal_omega_power_bound(a: Ordinal) -> Ordinal:
    """The least g with a <= w^g, for a >= 1."""
    a = a if isinstance(a, Ordinal) else from_int(a)
    if a.is_zero():
        raise ZeroInput("a must be at least 1")
    if a == ONE:
        return ZERO
    g = exponent_ordinal(a.leading_exponent())
    if is_power_of_omega(a):
        return g
    return add(g, ONE)


def case6_decompose(a: Ordinal) -> Split:
    """Split a countable target a >= 2, not a power of w, as (g, m, exact).

    g is the terminal rank of a and m counts the points of a with rank at
    least g, so m is finite and positive.  exact flags a = w^g*(m+1), the
    one shape whose class is a singleton under biembeddability; otherwise
    w^g*m + 1 <= a < w^g*(m+1).  Finite a gives (0, a, False): every
    point has rank 0 and the exact form would need m+1 points.
    """
    if a < from_int(2):
        raise ValueError("a must be at least 2")
    if not a.is_countable():
        raise ValueError("a must be countable")
    if is_power_of_omega(a):
        raise PowerOfOmegaInput("powers of w have no such decomposition")
    g, m, rest = leading_decomposition(a)
    if a.is_finite():
        return ZERO, int(a), False
    if rest.is_zero():
        return g, m - 1, True
    return g, m, False


def analyze(inst: Instance) -> Analysis:
    """The instance's pass through the case tree, made once per object."""
    a = inst._analysis
    if a is None:
        norm = normalize(inst)
        if isinstance(norm, NormalizedInstance):
            a = classify(norm)
        elif norm.value.is_zero():
            a = Analysis(CasePath.ZERO, ("some target is 0",), norm, None)
        else:
            a = Analysis(CasePath.ALL_ONES, ("every target is 1",), norm, None)
        _set_analysis(inst, a)
    return a


def p_top(inst: Instance) -> PigeonholeResult:
    """The topological pigeonhole number, from the instance's one analysis."""
    return analyze(inst).result


def relation_holds(beta: Ordinal, inst: Instance) -> RelationVerdict:
    """Whether beta satisfies the relation, by the instance's one analysis."""
    result = p_top(inst)
    if isinstance(result, Exists):
        return (RelationVerdict.HOLDS if beta >= result.value
                else RelationVerdict.FAILS)
    if isinstance(result, Infinite):
        return RelationVerdict.FAILS
    if beta < result.zfc_lower:
        return RelationVerdict.FAILS
    return RelationVerdict.INDEPENDENT_UNKNOWN
