"""The topological pigeonhole number and its case analysis.

p_top computes, for targets a_i with multiplicities summing to kappa, the
least b such that every colouring of the space b in kappa colours has a
colour class containing a homeomorphic copy of its target.  The answer is
an ordinal, or provably no ordinal at all, or (for two or more copies of
w_1 among countable-or-w_1 targets) a value independent of ZFC, for which
we report the provable lower bound and the known consistency facts.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence, Tuple, Union

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
    mr_sum,
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

    __slots__ = ("entries",)

    def __init__(self, entries: Tuple[Tuple[Ordinal, Cardinal], ...]):
        for _, count in entries:
            if count.is_finite() and count.size < 1:
                raise EmptyInstance("multiplicities must be at least 1")
        _set_values(self, (entries,))
        _set_instance_entries(self, entries)

    @staticmethod
    def of(*entries) -> "Instance":
        norm = []
        for item in entries:
            if isinstance(item, tuple):
                target, count = item
            else:
                target, count = item, 1
            if isinstance(target, int):
                target = from_int(target)
            if isinstance(count, int):
                count = Cardinal.finite(count)
            norm.append((target, count))
        return Instance(tuple(norm))

    def kappa(self) -> Cardinal:
        return cardinal_sum(c for _, c in self.entries)


class NormalizedInstance(Record):
    """An instance with every target at least 2 and kappa recomputed."""

    __slots__ = ("entries", "kappa")

    def __init__(self, entries, kappa: Cardinal):
        _set_values(self, (entries, kappa))
        _set_entries(self, entries)
        _set_kappa(self, kappa)

    def flat_targets(self) -> List[Ordinal]:
        """Targets repeated by multiplicity; only valid for finite kappa."""
        if not self.kappa.is_finite():
            raise ValueError("flat_targets requires finite kappa")
        out: List[Ordinal] = []
        for target, count in self.entries:
            out.extend([target] * count.size)
        return out


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


# the C6 leaves' facts: the targets repeated by multiplicity, their
# case6_decompose splits and the distinguished index (the last two only
# in the C6c leaves)
Case6Facts = Tuple[Tuple[Ordinal, ...], Optional[Tuple[Split, ...]],
                   Optional[int]]


class Analysis(Record):
    """One pass through the case tree and the value it resolves to.

    In the C6 leaves flat lists the targets repeated by multiplicity,
    decompositions holds their case6_decompose splits (C6c only) and
    distinguished the index of the exact multiple that dominates in C6cI.
    The resolver and the witness builder read these facts here instead of
    deriving them again; outside C6 they are None.  normalized is None
    for the degenerate leaves Zero and AllOnes.
    """

    __slots__ = ("case", "trail", "result", "normalized", "flat",
                 "decompositions", "distinguished")

    def __init__(self, case, trail, result, normalized, flat=None,
                 decompositions=None, distinguished=None):
        _set_values(self, (case, trail, result, normalized, flat,
                        decompositions, distinguished))
        _set_case(self, case)
        _set_trail(self, trail)
        _set_result(self, result)
        _set_normalized(self, normalized)
        _set_flat(self, flat)
        _set_decompositions(self, decompositions)
        _set_distinguished(self, distinguished)


# the records' slot writers, which skip the immutability guard
(_set_instance_entries,) = Instance._writers()
_set_entries, _set_kappa = NormalizedInstance._writers()
(_set_value,) = Exists._writers()
(_set_zfc_lower, _set_consistent_infinite, _set_consistent_equal_lower,
 _set_equiconsistency) = Independent._writers()
(_set_case, _set_trail, _set_result, _set_normalized, _set_flat,
 _set_decompositions, _set_distinguished) = Analysis._writers()


def _copies(norm: NormalizedInstance, floor: Ordinal) -> int:
    # targets at least floor, counted with multiplicity; an infinite
    # multiplicity counts as 2, the most any test of the case tree asks
    return sum(c.size if c.is_finite() else 2
               for t, c in norm.entries if t >= floor)


_OMEGA_SUCC = add(OMEGA, ONE)


def classify(norm: NormalizedInstance) -> Analysis:
    """Walk the case tree once and resolve the leaf it reaches."""
    trail: List[str] = []
    case, c6 = _case_tree(norm, trail)
    flat, decs, s = c6 or (None, None, None)
    return Analysis(case, tuple(trail), _resolve(norm, case, flat, decs, s),
                    norm, flat, decs, s)


def _case_tree(norm: NormalizedInstance, trail: List[str]
               ) -> Tuple[CasePath, Optional[Case6Facts]]:
    kappa = norm.kappa
    big = next((t for t, _ in norm.entries if t > OMEGA1), None)

    if big is not None:
        trail.append("some target exceeds w_1")
        if _copies(norm, _OMEGA_SUCC) >= 2:
            trail.append("a second target is at least w+1")
            return CasePath.C1, None
        trail.append("every other target is at most w")
        if not kappa.is_finite():
            trail.append("infinitely many colours")
            if not is_power_of_omega(big):
                trail.append("the large target is not a power of w")
                return CasePath.C2aI, None
            trail.append("the large target is a power of w")
            cf = cofinality(big)
            if cf > kappa.as_ordinal():
                trail.append("its cofinality exceeds the number of colours")
                return CasePath.C2aIIA, None
            if cf > OMEGA:
                trail.append("its cofinality is uncountable but not above "
                             "the number of colours")
                return CasePath.C2aIIB, None
            trail.append("its cofinality is countable")
            delta = cb_rank(exponent_ordinal(big.leading_exponent()))
            succ = kappa.successor().as_ordinal()
            assert delta != succ, "tail exponent cannot be the successor " \
                "cardinal: that would force uncountable cofinality"
            if delta < succ:
                trail.append("the exponent's tail rank is below the "
                             "successor of the number of colours")
                return CasePath.C2aIIC_lt, None
            trail.append("the exponent's tail rank is above the successor "
                         "of the number of colours")
            return CasePath.C2aIIC_gt, None
        trail.append("finitely many colours")
        if any(t == OMEGA for t, _ in norm.entries):
            trail.append("some other target equals w")
            if is_power_of_omega(big):
                trail.append("the large target is a power of w")
                return CasePath.C2bI, None
            trail.append("the large target is not a power of w")
            return CasePath.C2bII, None
        trail.append("every other target is finite")
        if is_power_of_omega(big) or kappa == Cardinal.finite(1):
            trail.append("the large target is a power of w, or it is the "
                         "only target")
            return CasePath.C2cI, None
        trail.append("the large target is not a power of w and there are "
                     "other targets")
        return CasePath.C2cII, None

    trail.append("no target exceeds w_1")
    at_w1 = _copies(norm, OMEGA1)
    if at_w1 >= 2:
        trail.append("at least two copies of w_1 among the targets")
        return CasePath.C3, None
    if at_w1 == 1:
        trail.append("exactly one copy of w_1 among the targets")
        return CasePath.C4, None
    trail.append("every target is countable")
    if not kappa.is_finite():
        trail.append("infinitely many colours")
        return CasePath.C5, None
    trail.append("finitely many colours")
    flat = tuple(norm.flat_targets())
    if all(t.is_finite() for t in flat):
        trail.append("every target is finite")
        return CasePath.C6a, (flat, None, None)
    if any(is_power_of_omega(t) for t in flat):
        trail.append("some target is a power of w")
        return CasePath.C6b, (flat, None, None)
    trail.append("no target is a power of w and some target is infinite")
    # one split per entry, repeated by multiplicity as in flat
    decs = tuple(d for t, c in norm.entries
                 for d in [case6_decompose(t)] * c.size)
    s = _distinguished_index(decs)
    if s is not None:
        trail.append("an exact multiple of a power of w has minimal rank "
                     "and all other multiplicities are 1")
        return CasePath.C6cI, (flat, decs, s)
    trail.append("no exact-multiple target dominates")
    return CasePath.C6cII, (flat, decs, None)


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


def _decompose_any(a: Ordinal) -> Tuple[Ordinal, int]:
    # (g, m) with w^g*m + 1 <= a <= w^g*(m+1); works above w_1 too.
    g, m, rest = leading_decomposition(a)
    if rest.is_zero() and m >= 2:
        return g, m - 1
    return g, m


def _distinguished_index(decs: Sequence[Split]
                         ) -> Optional[int]:
    # decs are the targets' case6_decompose splits
    ranks = [cb_rank(g) for g, _, _ in decs]
    for s, (g, m, exact) in enumerate(decs):
        if not exact:
            continue
        if any(ranks[s] > r for r in ranks):
            continue
        if all(m_i == 1 for i, (_, m_i, _) in enumerate(decs) if i != s):
            return s
    return None


def p_top_case6_power(flat: Sequence[Ordinal]) -> Ordinal:
    """Finitely many countable targets, listed by multiplicity, at least
    one a power of w: the value is w to the Milner-Rado sum of the least
    power bounds."""
    if not any(is_power_of_omega(t) for t in flat):
        raise ValueError("some target must be a power of w")
    return omega_pow(mr_sum([minimal_omega_power_bound(t) for t in flat]))


def p_top_case6_multiples(decs: Sequence[Split],
                          s: Optional[int]) -> Ordinal:
    """Finitely many countable infinite targets, none a power of w, given
    their case6_decompose splits and the distinguished index, if any."""
    gamma = natural_sum(*(g for g, _, _ in decs))
    if s is not None:
        return mul(omega_pow(gamma), from_int(decs[s][1] + 1))
    total = sum(m - 1 for _, m, _ in decs) + 1
    return add(mul(omega_pow(gamma), from_int(total)), ONE)


def analyze(inst: Instance) -> Analysis:
    norm = normalize(inst)
    if isinstance(norm, NormalizedInstance):
        return classify(norm)
    if norm.value.is_zero():
        return Analysis(CasePath.ZERO, ("some target is 0",), norm, None)
    return Analysis(CasePath.ALL_ONES, ("every target is 1",), norm, None)


def p_top(inst: Instance) -> PigeonholeResult:
    """The topological pigeonhole number of the instance."""
    return analyze(inst).result


def _resolve(norm: NormalizedInstance, case: CasePath,
             flat: Optional[Tuple[Ordinal, ...]],
             decs: Optional[Tuple[Split, ...]],
             s: Optional[int]) -> PigeonholeResult:
    kappa = norm.kappa
    if case is CasePath.C1:
        return Infinite()
    if case.value.startswith("C2"):
        big = next(t for t, _ in norm.entries if t > OMEGA1)
        succ = kappa.successor().as_ordinal()
        if case in (CasePath.C2aI, CasePath.C2aIIB, CasePath.C2aIIC_lt):
            return Exists(mul(big, succ))
        if case in (CasePath.C2aIIA, CasePath.C2aIIC_gt, CasePath.C2bI):
            return Exists(big)
        if case is CasePath.C2bII:
            return Exists(mul(big, OMEGA))
        if case is CasePath.C2cI:
            return Exists(biembed_canonical(big))
        g, m = _decompose_any(big)
        others = sum((int(t) - 1) * c.size for t, c in norm.entries
                     if t != big)
        return Exists(add(mul(omega_pow(g), from_int(others + m)), ONE))
    if case is CasePath.C3:
        lower = max(OMEGA2, kappa.successor().as_ordinal())
        return Independent(zfc_lower=lower)
    if case is CasePath.C4:
        return Exists(max(OMEGA1, kappa.successor().as_ordinal()))
    if case is CasePath.C5:
        return Exists(kappa.successor().as_ordinal())
    if case is CasePath.C6a:
        return Exists(from_int(sum(int(t) - 1 for t in flat) + 1))
    if case is CasePath.C6b:
        return Exists(p_top_case6_power(flat))
    return Exists(p_top_case6_multiples(decs, s))


def relation_holds(beta: Ordinal, inst: Instance) -> RelationVerdict:
    """Whether the space beta satisfies the instance's partition relation."""
    result = p_top(inst)
    if isinstance(result, Exists):
        return (RelationVerdict.HOLDS if beta >= result.value
                else RelationVerdict.FAILS)
    if isinstance(result, Infinite):
        return RelationVerdict.FAILS
    if beta < result.zfc_lower:
        return RelationVerdict.FAILS
    return RelationVerdict.INDEPENDENT_UNKNOWN
