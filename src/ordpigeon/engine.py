"""The topological pigeonhole number and its case analysis.

p_top computes, for targets a_i with multiplicities summing to kappa, the
least b such that every colouring of the space b in kappa colours has a
colour class containing a homeomorphic copy of its target.  The answer is
an ordinal, or provably no ordinal at all, or (for two or more copies of
w_1 among countable-or-w_1 targets) a value independent of ZFC, for which
we report the provable lower bound and the known consistency facts.

classify walks the case tree once per normalized instance, whose leaf
computes its value.  A count is a number throughout: in the
finite-colour leaves a target of count c enters each formula once,
scaled by c, so no leaf lists the targets copy by copy.  normalize and
the C6 leaves each take what they need in one pass over the entries.
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
    _build,
    _coerce,
    _coerce_card,
    _merge,
    add,
    biembed_canonical,
    cb_rank,
    cofinality,
    compare,
    from_int,
    is_power_of_omega,
    mr_sum_counted,
    mul,
    omega_pow,
)


class EmptyInstance(ValueError):
    """Raised when an instance has no targets at all."""


class PowerOfOmegaInput(ValueError):
    """Raised by case6_decompose on inputs it is not defined for."""


class Instance(Record):
    """Targets with multiplicities.  Multiplicities are positive cardinals."""

    # _analysis is a memo, kept by the first analyze(self)
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
        self._init(entries, None)

    @staticmethod
    def of(*entries) -> "Instance":
        return Instance([item if isinstance(item, tuple) else (item, 1)
                         for item in entries])


class NormalizedInstance(Record):
    """An instance with every target at least 2 and kappa recomputed;
    the memo _facts keeps classify(self)'s leaf facts, not the Analysis,
    which points back at its norm and would form a reference cycle."""

    __slots__ = ("entries", "kappa", "_facts")


class Exists(Record):
    __slots__ = ("value",)

    def __repr__(self):
        return f"Exists({self.value})"


class Infinite(Record):
    """No ordinal satisfies the relation; this is provable outright."""

    __slots__ = ()

    def __repr__(self):
        return "Infinite"


class Independent(Record):
    """The exact value is independent of ZFC; zfc_lower is provable.  The
    consistency facts named in NOTES are the same for every such value."""

    __slots__ = ("zfc_lower",)

    NOTES = ("consistent_infinite", "consistent_equal_lower",
             "equiconsistency")
    consistent_infinite = (
        "Prikry-Solovay: consistently (for instance under V=L) no ordinal "
        "satisfies the relation, so the value may fail to exist.")
    consistent_equal_lower = (
        "Shelah: from a supercompact cardinal it is consistent that the "
        "value exists and equals the provable lower bound.")
    equiconsistency = (
        "Silver, Shelah: the two-colour relation for w_1 at the lower bound "
        "w_2 is equiconsistent with a Mahlo cardinal.")


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
    answer is 1.  kappa is the cardinal sum of the kept counts: finite
    counts add and the largest aleph dominates.  An analysed instance
    gives its analysis's norm, which keeps the facts of its one
    case-tree walk.  Anything but an Instance raises TypeError."""
    try:
        a = inst._analysis
    except AttributeError:
        raise TypeError(f"{inst!r} is not an Instance") from None
    if a is not None:  # or the degenerate answer it kept
        return a.normalized or a.result
    if not inst.entries:
        raise EmptyInstance("no targets")
    kept, size, aleph = [], 0, None
    for entry in inst.entries:
        t, c = entry
        ms = t.monomials
        if not ms:
            return Exists(ZERO)
        if len(ms) > 1 or ms[0][1] > 1 or ms[0][0].monomials:  # not 1
            kept.append(entry)
            nu = c.aleph_index
            if nu is None:
                size += c.size
            elif aleph is None or compare(nu, aleph) > 0:
                aleph = nu
    if not kept:
        return Exists(ONE)
    return NormalizedInstance(tuple(kept),
                              Cardinal(aleph, size if aleph is None else 0))


# a target's case6_decompose split: (g, m, exact)
Split = Tuple[Ordinal, int, bool]


class Analysis(Record, optional=2):
    """One pass through the case tree and the value its leaf computes.

    In the C6c leaves decompositions holds one case6_decompose split per
    entry of the normalized instance, in entry order, and distinguished
    the index of the entry whose exact multiple dominates in C6cI; the
    witness builder reads these per-entry facts here and gives them to
    each of the entry's colours.  Elsewhere they are None.  normalized
    is None for the degenerate leaves Zero and AllOnes.  The C6 leaves
    gather these facts in one pass over the entries.
    """

    __slots__ = ("case", "trail", "result", "normalized", "decompositions",
                 "distinguished")


def _copies(norm: NormalizedInstance, floor: Ordinal) -> int:
    # targets at least floor, counted with multiplicity; an infinite
    # multiplicity counts as 2, the most any test of the case tree asks
    return sum(c.size if c.is_finite() else 2
               for t, c in norm.entries if t >= floor)


_OMEGA_SUCC = add(OMEGA, ONE)


def classify(norm: NormalizedInstance) -> Analysis:
    """Walk the case tree once per norm object, later calls reading the
    kept facts; the leaf computes the result.  Anything but a
    NormalizedInstance, such as a degenerate Exists, raises TypeError."""
    try:
        facts = norm._facts
    except AttributeError:
        raise TypeError(f"{norm!r} is not a NormalizedInstance") from None
    if facts is None:
        trail: List[str] = []
        case, result, decs, s = _case_tree(norm, trail)
        facts = (case, tuple(trail), result, decs, s)
        NormalizedInstance._facts.__set__(norm, facts)  # past the guard
    case, trail, result, decs, s = facts
    return Analysis(case, trail, result, norm, decs, s)


def _case_tree(norm: NormalizedInstance, trail: List[str]) -> tuple:
    # (case, result, decompositions, distinguished); the last two in C6c
    kappa = norm.kappa
    # countable targets are below w_1, so they settle both w_1 tests
    countable, big = True, None
    for t, _ in norm.entries:
        if not t.is_countable():
            countable = False
            if t > OMEGA1:
                big = t
                break

    if big is not None:
        trail.append("some target exceeds w_1")
        if _copies(norm, _OMEGA_SUCC) >= 2:
            trail.append("a second target is at least w+1")
            return CasePath.C1, Infinite(), None, None
        trail.append("every other target is at most w")
        if not kappa.is_finite():
            trail.append("infinitely many colours")
            succ = kappa.successor().as_ordinal()
            if not is_power_of_omega(big):
                trail.append("the large target is not a power of w")
                return CasePath.C2aI, Exists(mul(big, succ)), None, None
            trail.append("the large target is a power of w")
            cf = cofinality(big)
            if cf > kappa.as_ordinal():
                trail.append("its cofinality exceeds the number of colours")
                return CasePath.C2aIIA, Exists(big), None, None
            if cf > OMEGA:
                trail.append("its cofinality is uncountable but not above "
                             "the number of colours")
                return CasePath.C2aIIB, Exists(mul(big, succ)), None, None
            trail.append("its cofinality is countable")
            delta = cb_rank(big.leading_exponent())
            assert delta != succ, "tail exponent cannot be the successor " \
                "cardinal: that would force uncountable cofinality"
            if delta < succ:
                trail.append("the exponent's tail rank is below the "
                             "successor of the number of colours")
                return CasePath.C2aIIC_lt, Exists(mul(big, succ)), None, None
            trail.append("the exponent's tail rank is above the successor "
                         "of the number of colours")
            return CasePath.C2aIIC_gt, Exists(big), None, None
        trail.append("finitely many colours")
        if any(t == OMEGA for t, _ in norm.entries):
            trail.append("some other target equals w")
            if is_power_of_omega(big):
                trail.append("the large target is a power of w")
                return CasePath.C2bI, Exists(big), None, None
            trail.append("the large target is not a power of w")
            return CasePath.C2bII, Exists(mul(big, OMEGA)), None, None
        trail.append("every other target is finite")
        if is_power_of_omega(big) or kappa == Cardinal.finite(1):
            trail.append("the large target is a power of w, or it is the "
                         "only target")
            return CasePath.C2cI, Exists(biembed_canonical(big)), None, None
        trail.append("the large target is not a power of w and there are "
                     "other targets")
        # w^g*m + 1 <= big <= w^g*(m+1), and m >= 1 as big is not w^g
        g, m, _ = _split(big.monomials)
        others = sum((int(t) - 1) * c.size for t, c in norm.entries
                     if t != big)
        # the value as a normal form: g > 0 because big exceeds w_1
        value = _build(((g, others + m), (ZERO, 1)))
        return CasePath.C2cII, Exists(value), None, None

    trail.append("no target exceeds w_1")
    at_w1 = 0 if countable else _copies(norm, OMEGA1)
    if at_w1 >= 2:
        trail.append("at least two copies of w_1 among the targets")
        return CasePath.C3, Independent(
            zfc_lower=max(OMEGA2, kappa.successor().as_ordinal())), None, None
    if at_w1 == 1:
        trail.append("exactly one copy of w_1 among the targets")
        return CasePath.C4, Exists(
            max(OMEGA1, kappa.successor().as_ordinal())), None, None
    trail.append("every target is countable")
    if not kappa.is_finite():
        trail.append("infinitely many colours")
        return CasePath.C5, Exists(kappa.successor().as_ordinal()), None, None
    trail.append("finitely many colours")
    # one pass: each target is split once and its count scales its terms.
    # It merges gamma, the natural sum of the g, counts the copies with
    # m > 1 and keeps the least rank of the g with its first exact entry,
    # or an exact entry with m > 1, the only one that could dominate
    decs, rows, total, heavy, least, first = [], [], 1, 0, None, None
    for i, (t, c) in enumerate(norm.entries):
        g, m, exact = dec = _split(t.monomials)
        if not m:       # t = w^g
            trail.append("some target is a power of w")
            return CasePath.C6b, Exists(omega_pow(mr_sum_counted(
                [(minimal_omega_power_bound(t), c.size)
                 for t, c in norm.entries]))), None, None
        decs.append(dec)
        c = c.size
        total += (m - 1) * c
        heavy += c if m > 1 else 0
        gs = g.monomials
        rank = gs[-1][0] if gs else ZERO        # cb_rank(g)
        gs = gs if c == 1 else [(e, k * c) for e, k in gs]
        rows = _merge(rows, gs) if rows else gs
        k = -1 if least is None else compare(rank, least)
        if k < 0 or k == 0 and exact and (first is None or m > 1):
            least, first = rank, i if exact else None
    if not rows:
        trail.append("every target is finite")
        return CasePath.C6a, Exists(from_int(total)), None, None
    trail.append("no target is a power of w and some target is infinite")
    # it dominates when every copy but its own one has m = 1
    s = first if heavy == (first is not None and decs[first][1] > 1) else None
    # the values as normal forms: gamma is countable, so it is its own
    # exponent form, and gamma >= 1 because some target is infinite
    gamma = _build(tuple(rows))
    if s is not None:
        trail.append("an exact multiple of a power of w has minimal rank "
                     "and all other multiplicities are 1")
        return CasePath.C6cI, Exists(
            _build(((gamma, decs[s][1] + 1),))), tuple(decs), s
    trail.append("no exact-multiple target dominates")
    return CasePath.C6cII, Exists(
        _build(((gamma, total), (ZERO, 1)))), tuple(decs), None


def minimal_omega_power_bound(a: Ordinal) -> Ordinal:
    """The least g with a <= w^g, for a >= 1."""
    a = _coerce(a)
    if a.is_zero():
        raise ZeroInput("a must be at least 1")
    g = a.leading_exponent()
    return g if is_power_of_omega(a) else add(g, ONE)


def case6_decompose(a: Ordinal) -> Split:
    """Split a countable target a >= 2, not a power of w, as (g, m, exact).

    g is the terminal rank of a and m counts the points of a with rank at
    least g, so m is finite and positive.  exact flags a = w^g*(m+1), the
    one shape whose class is a singleton under biembeddability; otherwise
    w^g*m + 1 <= a < w^g*(m+1).  Finite a gives (0, a, False): every
    point has rank 0 and the exact form would need m+1 points.
    """
    a = _coerce(a)
    ms = a.monomials
    if a.is_finite() and (not ms or ms[0][1] < 2):
        raise ValueError("a must be at least 2")
    if not a.is_countable():
        raise ValueError("a must be countable")
    if len(ms) == 1 and ms[0][1] == 1:
        raise PowerOfOmegaInput("powers of w have no such decomposition")
    return _split(ms)


def _split(ms: tuple) -> Split:
    # case6_decompose of monomials ms, unchecked; m = 0 for w^g
    g, m = ms[0]
    return (g, m - 1, True) if len(ms) == 1 and g.monomials else (g, m, False)


def analyze(inst: Instance) -> Analysis:
    """The instance's pass through the case tree, made once per object.
    Anything but an Instance raises TypeError."""
    try:
        a = inst._analysis
    except AttributeError:
        raise TypeError(f"{inst!r} is not an Instance") from None
    if a is None:
        norm = normalize(inst)
        if type(norm) is NormalizedInstance:
            a = classify(norm)
        elif norm.value.is_zero():
            a = Analysis(CasePath.ZERO, ("some target is 0",), norm, None)
        else:
            a = Analysis(CasePath.ALL_ONES, ("every target is 1",), norm, None)
        Instance._analysis.__set__(inst, a)  # past the immutability guard
    return a


def p_top(inst: Instance) -> PigeonholeResult:
    """The topological pigeonhole number, from the instance's one analysis."""
    return analyze(inst).result


def relation_holds(beta: Ordinal, inst: Instance) -> RelationVerdict:
    """Whether beta satisfies the relation: one comparison with the value,
    or with the provable lower bound, of the instance's one analysis.
    beta is coerced first, so a non-ordinal beta raises whatever the
    answer, Infinite included."""
    beta = _coerce(beta)
    result = analyze(inst).result
    kind = type(result)
    if kind is Exists:
        return (RelationVerdict.HOLDS if compare(beta, result.value) >= 0
                else RelationVerdict.FAILS)
    if kind is Infinite or compare(beta, result.zfc_lower) < 0:
        return RelationVerdict.FAILS
    return RelationVerdict.INDEPENDENT_UNKNOWN
