"""Counterexample colourings below the pigeonhole number, with certificates.

A colouring of the space [0, beta) is stored symbolically: each colour
owns a finite union of half-open intervals of Cantor-Bendixson ranks,
plus explicit colours for the finitely many points of maximal rank and
(for finite domains) the point 0.  A second mode colours by cofinality
and witnesses the provably-no-value case for two targets.

Each colour carries an obstruction certificate saying why its class
cannot contain a copy of its target; _ROWS has a row per kind.  The
verifier recomputes the order types and derivative shapes from the
colouring alone, so a certificate cannot be weakened without detection.
It reads each part once, the cheap checks before any residual is
computed, and walks the rank intervals up from 0, each colour's next
one in turn, to check that they tile [0, g).  Colours, bounds and
top-point and zero colours are exact ints (no bool or float), ordinal
fields, the domain and interval endpoints Ordinals or ints >= 0, the
mode a ColouringMode, the rank classes, their unions and the top-point
colours tuples, each interval a pair, each certificate an
ObstructionCertificate in a tuple or list, and the instance no
degenerate instance's Exists; anything else is rejected.

A witness file holds witness_to_json's object: the keys are the field
names of RankColouring and of each ObstructionCertificate, in field
order, ordinals are strings in the ascii grammar (format_cnf), and the
integer fields are JSON integers, read back as exact ints.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .engine import (
    CasePath,
    NormalizedInstance,
    classify,
    minimal_omega_power_bound,
)
from .ordinal import (
    OMEGA,
    OMEGA1,
    ONE,
    Ordinal,
    Record,
    ZERO,
    ZeroInput,
    _build,
    _coerce,
    add,
    cb_rank,
    cofinality,
    compare,
    format_cnf,
    from_int,
    is_power_of_omega,
    leading_decomposition,
    left_subtract,
    natural_sum,
)
from .parser import BRIEF, parse_ordinal


class OutOfScope(ValueError):
    """Raised when no finite certificate covers the requested witness."""


class NotBelowThreshold(ValueError):
    """Raised when the space already satisfies the partition relation."""


class PreconditionViolated(ValueError):
    """Raised when interval or splitting arguments are malformed."""


class OutOfDomain(ValueError):
    """Raised when a point lies outside the colouring's domain."""


class ColouringMode(enum.Enum):
    RANK = "rank"
    COFINALITY = "cofinality"


class CertKind(enum.Enum):
    DERIVATIVE_EMPTY = "DerivativeEmpty"
    DERIVATIVE_SMALL = "DerivativeSmall"
    DERIVATIVE_NOT_EMBEDDABLE = "DerivativeNotEmbeddable"
    COFINALITY_SPLIT = "CofinalitySplit"


Interval = Tuple[Ordinal, Ordinal]
IntervalUnion = Tuple[Interval, ...]


# Records (see ordinal.Record), registered as dataclasses only so that
# dataclasses.replace works on them: the self-test, the tests and the
# benchmark tamper with witnesses through it.  The decorator generates
# no method.
@dataclass(init=False, repr=False, eq=False)
class RankColouring(Record):
    """A total colouring of [0, domain) described by rank data.

    rank_classes[i] lists colour i's rank intervals [lo, hi); together
    the intervals partition [0, g) where g is the domain's leading
    exponent.  The points w^g*l get their colours from top_point_colours
    (l = 1 upward), and zero_colour overrides the point 0 when set; when
    it is None the rank interval containing rank 0 covers the origin.
    In cofinality mode there is no rank data and colour 1 is the set of
    points of uncountable cofinality.
    """

    __slots__ = ("domain", "mode", "rank_classes", "top_point_colours",
                 "zero_colour")
    domain: Ordinal
    mode: ColouringMode
    rank_classes: Tuple[IntervalUnion, ...]
    top_point_colours: Tuple[int, ...]
    zero_colour: Optional[int]

    @property
    def colours(self) -> int:
        return len(self.rank_classes)


@dataclass(init=False, repr=False, eq=False)
class ObstructionCertificate(Record, optional=4):
    """Why colour's class holds no copy of claimed_target; which of the
    optional fields a kind sets is its row of _ROWS."""

    __slots__ = ("colour", "kind", "claimed_target", "level", "bound",
                 "class_residual", "target_residual")
    colour: int
    kind: CertKind
    claimed_target: Ordinal
    level: Optional[Ordinal]
    bound: Optional[int]
    class_residual: Optional[Ordinal]
    target_residual: Optional[Ordinal]


# One row per kind: whether it sets level, bound, class_residual and
# target_residual; its comment says why its fact rules out the target
_ROWS = {
    # the class is a pure rank preimage of order type level, so its level-th
    # derivative is empty, while the target still has points at that level
    CertKind.DERIVATIVE_EMPTY: (True, False, False, False),
    # the class's level-th derivative sits inside its bound exceptional
    # points, fewer than the target keeps at that level
    CertKind.DERIVATIVE_SMALL: (True, True, False, False),
    # the class's ranks below its final interval have order type level,
    # and from that interval up it is a compact w^rho*a + 1, too small
    # for the target's level-th residual w^rho*b with b > a
    CertKind.DERIVATIVE_NOT_EMBEDDABLE: (True, False, True, True),
    # the two classes split by cofinality: points of uncountable
    # cofinality contain no w+1, the rest contain nothing above w_1
    CertKind.COFINALITY_SPLIT: (False, False, False, False),
}


# -- the witness file -------------------------------------------------------------


def _to_json(x):
    # ints and None stay as they are
    if isinstance(x, Ordinal):
        return format_cnf(x)
    if isinstance(x, enum.Enum):
        return x.value
    if isinstance(x, tuple):
        return [_to_json(y) for y in x]
    return x


def witness_to_json(col: RankColouring, certs) -> dict:
    """The witness file's object for a colouring and its certificates."""
    doc = {"kind": "witness"}
    doc.update((name, _to_json(getattr(col, name))) for name in col._fields)
    doc["certificates"] = [{name: _to_json(getattr(c, name))
                            for name in c._fields} for c in certs]
    return doc


def witness_from_json(doc: dict):
    """(colouring, certificates) read back from witness_to_json's object.
    A missing key raises KeyError, a value of the wrong JSON type (such
    as a string where an array belongs) TypeError, and an unparseable
    ordinal or unknown mode or kind ValueError."""
    def array(x, pair=False):  # a string or object would iterate as well
        if type(x) is not list or pair and len(x) != 2:
            raise TypeError(f"{BRIEF.repr(x)} is not "
                            f"{'a pair' if pair else 'an array'}")
        return x

    def integer(x):  # JSON's 1.7, true and "1" are not colours or bounds
        if type(x) is not int:
            raise TypeError(f"{BRIEF.repr(x)} is not an integer")
        return x

    def ordinal(x):  # so that no list or object reaches the parser's cache
        if type(x) is not str:
            raise TypeError(f"{BRIEF.repr(x)} is not a string")
        return parse_ordinal(x)

    def member(kind, x):  # kind(x)'s own error would echo x in full
        if x in [m.value for m in kind]:
            return kind(x)
        raise ValueError(f"{BRIEF.repr(x)} is not a valid {kind.__name__}")

    def opt(x, read=ordinal):
        return None if x is None else read(x)
    col = RankColouring(
        domain=ordinal(doc["domain"]),
        mode=member(ColouringMode, doc["mode"]),
        rank_classes=tuple(
            tuple((ordinal(lo), ordinal(hi))
                  for lo, hi in (array(p, pair=True) for p in array(union)))
            for union in array(doc["rank_classes"])),
        top_point_colours=tuple(map(integer, array(doc["top_point_colours"]))),
        zero_colour=opt(doc["zero_colour"], integer))
    certs = tuple(ObstructionCertificate(
        colour=integer(c["colour"]),
        kind=member(CertKind, c["kind"]),
        claimed_target=ordinal(c["claimed_target"]),
        level=opt(c["level"]),
        bound=opt(c["bound"], integer),
        class_residual=opt(c["class_residual"]),
        target_residual=opt(c["target_residual"]),
    ) for c in array(doc["certificates"]))
    return col, certs


# -- interval and derivative arithmetic ---------------------------------------


def order_type_of_union(intervals: Sequence[Interval]) -> Ordinal:
    """Order type of a disjoint ascending union of half-open intervals."""
    total = prev = ZERO
    for lo, hi in intervals:
        if compare(lo, hi) >= 0:
            raise PreconditionViolated(f"bad interval [{lo}, {hi})")
        if compare(lo, prev) < 0:
            raise PreconditionViolated("intervals must ascend")
        total = add(total, left_subtract(lo, hi))
        prev = hi
    return total


def residual_shape(alpha: Ordinal, zeta: Ordinal) -> Ordinal:
    """Order type of the zeta-th derivative of the space [0, alpha): the
    points of rank at least zeta are exactly the positive multiples of
    w^zeta below alpha, a closed set, so the type determines the
    subspace up to homeomorphism."""
    if not (isinstance(alpha, Ordinal) and isinstance(zeta, Ordinal)):
        alpha, zeta = _coerce(alpha), _coerce(zeta)
    if not zeta.monomials:
        return alpha
    high = []
    low = False
    for e, c in alpha.monomials:
        if compare(e, zeta) >= 0:
            high.append((left_subtract(zeta, e), c))
        else:
            low = True
    if not high:
        return ZERO
    quotient = _build(tuple(high))
    shape = left_subtract(ONE, quotient)
    return add(shape, ONE) if low else shape


# -- natural-sum splitting ------------------------------------------------------


class NatsumSplitter:
    """Natural-sum splittings of many deltas below one list of bounds.
    The bounds are coerced and checked once; each exponent list's merge
    with them is made on first use and kept, keyed by the identity of
    the exponent objects (the table holds them, so no id is reused;
    hashing fresh trees by value cost more than it saved).  The search
    is one loop over an explicit stack of shares still to try, with no
    Python frame per part or position.  parts() builds the canonical
    first splitting, splits() only answers."""

    __slots__ = ("bounds", "_tables")

    def __init__(self, bounds):
        bounds = [_coerce(b) for b in bounds]
        if not bounds:
            raise ZeroInput("at least one bound is required")
        if any(b.is_zero() for b in bounds):
            raise ZeroInput("bounds must be non-zero")
        self.bounds = bounds
        self._tables: Dict[tuple, tuple] = {}

    def _merge(self, monos):
        # bit i of skipped[j] says bound i has a monomial above e_j (last
        # entry: anywhere) that delta lacks; room[j][i] is the most that
        # parts i.. can take at e_j while none of them is below its bound:
        # their bounds' coefficients at e_j, at the last position less one
        # for each part that must get below there
        k = len(self.bounds)
        skipped = [0] * (len(monos) + 1)
        room = [[0] * (k + 1) for _ in monos]
        for i in range(k - 1, -1, -1):  # last bound first, for room's sums
            bm, ptr, gap = self.bounds[i].monomials, 0, 0
            for j, (e, _) in enumerate(monos):
                while ptr < len(bm):
                    order = compare(bm[ptr][0], e)
                    if order < 0:
                        break
                    ptr += 1
                    if order == 0:
                        room[j][i] = bm[ptr - 1][1]
                        break
                    gap = 1 << i
                skipped[j] |= gap
                room[j][i] += room[j][i + 1]
            skipped[-1] |= 1 << i if ptr < len(bm) else gap
            if monos and not skipped[-1] >> i & 1:
                room[-1][i] -= 1
        return monos, skipped, room

    def _search(self, monos) -> Optional[List[int]]:
        """The parts' shares of each coefficient, k per position, until
        every part is below its bound (the first part takes the rest), or
        None; largest first part first, feasible shares only.  One loop
        over an explicit stack of shares still to try, so the depth of
        the search is not bounded by Python's recursion limit."""
        key = tuple([id(e) for e, _ in monos])
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = self._merge(monos)
        _, skipped, room = table
        n, last = len(monos), len(self.bounds) - 1
        k, every, tail = last + 1, (2 << last) - 1, skipped[n]
        shares: List[int] = []
        # bit i of below: part i is already strictly below bound i (every
        # bound has a monomial, so delta 0 returns here)
        below = skipped[0]
        if below == every:
            return shares
        # an entry (j, i, left, below, p): part i takes p of the coefficient
        # left at position j, after parts 0..i-1 took theirs there
        stack: List[tuple] = []
        j, i, left = 0, 0, monos[0][1]
        while True:
            # enter part i at position j: unless a part i.. is below its
            # bound, parts i.. must fit in room[j][i]; part i takes at most
            # its room, the last part all that is left.  At the last
            # position room[-1][i] is one less than the bound's coefficient
            # for a part still to get below there, so top can be -1: then
            # no share fits and nothing is pushed
            if below >> i or left <= room[j][i]:
                top = left if below >> i & 1 else room[j][i] - room[j][i + 1]
                p = left if left < top else top
                if p >= 0 and (i < last or p == left):
                    stack.append((j, i, left, below, p))
            while True:
                if not stack:
                    return None
                j, i, left, below, p = stack.pop()
                if p and i < last:
                    stack.append((j, i, left, below, p - 1))
                del shares[j * k + i:]
                shares.append(p)
                # taking less than its bound's coefficient puts part i
                # below, and at the last position a part must get below
                if not below >> i & 1 and (
                        p < room[j][i] - room[j][i + 1]
                        or j == n - 1 and not tail >> i & 1):
                    below |= 1 << i
                if i < last:
                    i, left = i + 1, left - p
                    break
                j += 1
                below |= skipped[j]
                if below == every:
                    return shares
                if j < n:
                    i, left = 0, monos[j][1]
                    break

    def splits(self, delta) -> bool:
        """Whether delta is a natural sum of parts below the bounds."""
        return self._search(_coerce(delta).monomials) is not None

    def parts(self, delta) -> Optional[List[Ordinal]]:
        """The canonical first splitting of delta, or None."""
        monos = _coerce(delta).monomials
        shares = self._search(monos)
        if shares is None:
            return None
        k = len(self.bounds)
        for _, c in monos[len(shares) // k:]:
            shares += [c] + [0] * (k - 1)
        return [_build(tuple((e, p) for (e, _), p in zip(monos, shares[i::k])
                              if p)) for i in range(k)]


def natsum_expressible(delta, bounds) -> Optional[List[Ordinal]]:
    """A list of parts with natural sum delta and part i strictly below
    bounds[i], or None.  Searches the coefficient splittings of delta's
    normal form, largest first part first, so the result is canonical.
    Callers with many deltas per bound list keep one NatsumSplitter."""
    return NatsumSplitter(bounds).parts(delta)


def natsum_split(eta, parts, final_part: Optional[int] = None) -> List[IntervalUnion]:
    """Partition [0, eta) into interval unions, piece i of order type
    parts[i].  Each monomial block of eta is divided among the pieces in
    index order; final_part, when given, takes its chunk of the last
    block at the end, so that piece's rank set finishes the space."""
    parts = [_coerce(p) for p in parts]
    eta = _coerce(eta)
    if natural_sum(*parts) != eta:
        raise PreconditionViolated("parts must have natural sum eta")
    if final_part is not None and not 0 <= final_part < len(parts):
        raise PreconditionViolated("final_part out of range")
    coeffs = [dict(p.monomials) for p in parts]
    pieces: List[List[Interval]] = [[] for _ in parts]
    # a piece ends at eta's blocks before e plus w^e*used, a normal form
    lo = ZERO
    blocks = eta.monomials
    for bi, (e, _) in enumerate(blocks):
        order = list(range(len(parts)))
        if final_part is not None and bi == len(blocks) - 1:
            order = [i for i in order if i != final_part] + [final_part]
        used = 0
        for i in order:
            d = coeffs[i].get(e, 0)
            if d:
                used += d
                hi = _build(blocks[:bi] + ((e, used),))
                pieces[i].append((lo, hi))
                lo = hi
    return [tuple(p) for p in pieces]


# -- evaluation -----------------------------------------------------------------


def eval_colouring(col: RankColouring, x) -> int:
    x = _coerce(x)
    if x >= col.domain:
        raise OutOfDomain(f"{x} is not a point of [0, {col.domain})")
    if col.mode is ColouringMode.COFINALITY:
        return 1 if cofinality(x) >= OMEGA1 else 0
    if x.is_zero() and col.zero_colour is not None:
        return col.zero_colour
    g, _, _ = leading_decomposition(col.domain)
    r = cb_rank(x)
    if not x.is_zero() and r == g:
        return col.top_point_colours[x.leading_coefficient() - 1]
    for i, ivs in enumerate(col.rank_classes):
        for lo, hi in ivs:
            if lo <= r < hi:
                return i
    raise OutOfDomain(f"no colour covers rank {r}")


# -- construction -----------------------------------------------------------------


_RANK_CASES = (CasePath.C6a, CasePath.C6b, CasePath.C6cI, CasePath.C6cII)

# The most colours build_counterexample colours for.  A witness lists a
# target, rank classes and a certificate per colour, so its size grows
# with the colour count; counts are expanded to colours only up to this
# bound, and above it the build is OutOfScope.
MAX_COLOURS = 256

# The largest leading coefficient of a domain build_counterexample colours:
# a witness lists a colour per point of maximal rank (each point if finite),
# at most that many; build, check and dump take 0.6 s at most (2-core Xeon).
MAX_POINTS = 100_000


def _by_colour(norm: NormalizedInstance, per_entry=None) -> list:
    # one value per entry (by default its target) for each of the entry's
    # colours: an entry of count c takes the next c colours
    out: list = []
    for i, (t, c) in enumerate(norm.entries):
        out += [t if per_entry is None else per_entry[i]] * c.size
    return out


def build_counterexample(beta, norm: NormalizedInstance):
    """A colouring of [0, beta) defeating every target, with one
    certificate per colour.  Supported for the countable finite-colour
    cases within MAX_COLOURS colours and MAX_POINTS (beta's leading
    coefficient), and for the two-target provably-no-value case.  A
    degenerate instance's Exists in place of a norm raises TypeError."""
    beta = _coerce(beta)
    facts = classify(norm)
    if facts.case is CasePath.C1:
        return _build_cofinality(beta, norm)
    if facts.case not in _RANK_CASES:
        raise OutOfScope(f"no finite certificate language for case "
                         f"{facts.case.value}")
    if beta >= facts.result.value:
        raise NotBelowThreshold(f"{beta} already satisfies the relation")
    if norm.kappa.size > MAX_COLOURS:
        raise OutOfScope(f"witnesses are built for at most {MAX_COLOURS} "
                         f"colours, not {norm.kappa.size}")
    if beta.monomials and beta.monomials[0][1] > MAX_POINTS:
        raise OutOfScope(f"witnesses are built for a leading coefficient of "
                         f"at most {MAX_POINTS}, not {beta.monomials[0][1]}")
    flat = _by_colour(norm)
    if beta.is_finite():
        return _build_finite(beta, flat)
    return _build_infinite(beta, facts, flat)


def _build_cofinality(beta, norm):
    if not norm.kappa.is_finite() or norm.kappa.size != 2:
        raise OutOfScope("cofinality witnesses need exactly two targets")
    flat = _by_colour(norm)
    if not flat[0] > OMEGA1:
        raise OutOfScope("cofinality witnesses put the target above w_1 first")
    col = RankColouring(beta, ColouringMode.COFINALITY, ((), ()), (), None)
    certs = [ObstructionCertificate(i, CertKind.COFINALITY_SPLIT, flat[i])
             for i in range(2)]
    return col, certs


def _fill(order, caps, count) -> List[int]:
    # the colours of count points: each colour in order takes up to its
    # cap (None: no cap) of the points left
    out: List[int] = []
    for i in order:
        room = count - len(out)
        out += [i] * (room if caps[i] is None else min(caps[i], room))
    assert len(out) == count, "failing relation guarantees enough room"
    return out


def _build_finite(beta, flat):
    caps = [int(t) - 1 if t.is_finite() else None for t in flat]
    assignment = _fill(range(len(flat)), caps, int(beta))
    zero_colour = assignment[0] if assignment else None
    col = RankColouring(beta, ColouringMode.RANK, ((),) * len(flat),
                        tuple(assignment[1:]), zero_colour)
    # every point has rank 0, the point 0 among them (if beta > 0)
    return col, _exception_certs(flat, [ZERO] * len(flat), assignment)


def _exception_certs(flat, levels, exceptions):
    counts = [0] * len(flat)
    for i in exceptions:
        counts[i] += 1
    # a class with exceptional points bounds them, one without has none
    return [ObstructionCertificate(
        i, CertKind.DERIVATIVE_SMALL if n else CertKind.DERIVATIVE_EMPTY, t,
        level=levels[i], bound=n or None)
        for i, (t, n) in enumerate(zip(flat, counts))]


def _build_infinite(beta, facts, flat):
    norm, k = facts.normalized, len(flat)
    g, m, tail = leading_decomposition(beta)
    top_count = m if not tail.is_zero() else m - 1

    # bound i is the least x with target i at most w^x; g is below their
    # Milner-Rado sum (C6b) or at most the natural sum of the targets'
    # leading exponents, each bound less one (C6c), so it splits
    levels = natsum_expressible(g, [minimal_omega_power_bound(t) for t in flat])
    assert levels is not None, "g splits below the bounds"
    # the most top points each colour's certificate holds: in C6b (no
    # decompositions) only the powers of w take any, and the first takes all
    decs = facts.decompositions and _by_colour(norm, facts.decompositions)
    caps = ([None if lvl < b else mi - 1
             for (b, mi, _), lvl in zip(decs, levels)] if decs else
            [None if is_power_of_omega(t) else 0 for t in flat])
    fixed = sum(c for c in caps if c is not None)
    if any(c is None for c in caps) or fixed >= top_count:
        # the uncapped colours first
        order = sorted(range(k), key=lambda i: caps[i] is not None)
        tops = tuple(_fill(order, caps, top_count))
        classes = natsum_split(g, levels)
        col = RankColouring(beta, ColouringMode.RANK, tuple(classes),
                            tops, None)
        return col, _exception_certs(flat, levels, tops)

    # Too many maximal-rank points for the small certificates: this is the
    # distinguished exact-multiple situation, where the class holding all
    # of them is defeated by residual counting instead.
    assert facts.case is CasePath.C6cI and not tail.is_zero()
    # the distinguished entry's first colour
    s = sum(c.size for _, c in norm.entries[:facts.distinguished])
    parts = [b for b, _, _ in decs]
    classes = [list(ivs) for ivs in natsum_split(g, parts, final_part=s)]

    gamma_min, c_min = g.monomials[-1]
    p = _build(g.monomials[:-1] + (((gamma_min, c_min - 1),) if c_min > 1
                                   else ()))
    lo, hi = classes[s][-1]
    assert hi == g, "the distinguished piece finishes the rank space"
    if lo < p:
        classes[s][-1:] = [(lo, p), (p, g)]
    level = order_type_of_union(tuple(classes[s][:-1]))
    class_res = residual_shape(beta, p)
    target_res = residual_shape(flat[s], level)
    if not _distinguishing_shapes(class_res, target_res):
        raise OutOfScope("domain tail too large for the residual-counting "
                         "certificate")
    tops = (s,) * top_count
    col = RankColouring(beta, ColouringMode.RANK,
                        tuple(tuple(ivs) for ivs in classes), tops, None)
    certs = [ObstructionCertificate(i, CertKind.DERIVATIVE_EMPTY, t,
                                    level=parts[i]) for i, t in enumerate(flat)]
    certs[s] = ObstructionCertificate(
        s, CertKind.DERIVATIVE_NOT_EMBEDDABLE, flat[s], level=level,
        class_residual=class_res, target_residual=target_res)
    return col, certs


def _distinguishing_shapes(class_res: Ordinal, target_res: Ordinal) -> bool:
    # class suffix w^rho*a + 1 versus target residual w^rho*b, b > a, rho >= 1
    cm, tm = class_res.monomials, target_res.monomials
    if len(cm) != 2 or len(tm) != 1:
        return False
    (rho, a), last = cm
    (rho_t, b), = tm
    return last == (ZERO, 1) and not rho.is_zero() and rho == rho_t and b > a


# -- verification -----------------------------------------------------------------


def _is_ordinal(x) -> bool:
    # an ordinal field or interval endpoint: an Ordinal or an int >= 0
    return isinstance(x, Ordinal) or type(x) is int and x >= 0


def _matches(field, value: Ordinal) -> bool:
    # the parse cache hands equal texts one object, so try identity first
    return field is value or _is_ordinal(field) and compare(field, value) == 0


def verify_certificates(col: RankColouring, norm: NormalizedInstance,
                        certs) -> bool:
    """Recompute every quantity a certificate relies on and compare
    exactly.  Any single altered field changes some recomputed value or
    violates well-formedness (see the module docstring), so the verdict
    flips to False."""
    if type(col) is not RankColouring or type(certs) not in (tuple, list):
        return False
    # compare the colour count before listing a target per colour
    classes = col.rank_classes
    if not (isinstance(norm, NormalizedInstance) and norm.kappa.is_finite()
            and type(classes) is tuple and len(classes) == norm.kappa.size):
        return False
    flat = _by_colour(norm)
    k = len(flat)
    per: list = [None] * k
    for cert in certs:
        if type(cert) is not ObstructionCertificate:
            return False
        i = cert.colour
        if type(i) is not int or not 0 <= i < k or per[i] is not None:
            return False
        per[i] = cert
    # each certificate's target, and the optional fields its kind's row sets
    for cert, target in zip(per, flat):
        if (cert is None or not _matches(cert.claimed_target, target)
                or type(cert.kind) is not CertKind or _ROWS[cert.kind] != (
                    cert.level is not None, cert.bound is not None,
                    cert.class_residual is not None,
                    cert.target_residual is not None)):
            return False
    tops, zero = col.top_point_colours, col.zero_colour
    if not _is_ordinal(col.domain) or type(tops) is not tuple:
        return False
    if col.mode is ColouringMode.COFINALITY:
        return (k == 2 and classes == ((), ()) and not tops and zero is None
                and all(c.kind is CertKind.COFINALITY_SPLIT for c in per)
                and compare(flat[0], OMEGA1) > 0 and compare(flat[1], OMEGA) > 0)

    if col.mode is not ColouringMode.RANK:
        return False
    ms = _coerce(col.domain).monomials
    g, m = ms[0] if ms else (ZERO, 1)
    top_count = m if len(ms) > 1 else m - 1
    # the empty domain has no point 0 to colour, a finite one colours it
    if (zero is not None and not ms or zero is None and ms and not g.monomials
            or len(tops) != top_count):
        return False
    exceptions = [0] * k
    for c in [*tops, zero] if zero is not None else tops:
        if type(c) is not int or not 0 <= c < k:
            return False
        exceptions[c] += 1
    # each class's exceptional points, before anything is recomputed: a
    # DerivativeNotEmbeddable class takes all the top points and not the
    # point 0; any other class has exactly bound of them, none if no bound
    for i, cert in enumerate(per):
        n = exceptions[i]
        if cert.kind is CertKind.DERIVATIVE_NOT_EMBEDDABLE:
            if n != top_count or not n or zero == i or not classes[i]:
                return False
        elif (type(cert.bound) is not int or cert.bound != n if n
              else cert.bound is not None):
            return False

    # tiling: from 0, some colour's next interval starts where the last
    # ended, up to g (natsum_split lays colours out in turn, so try the
    # next colour first), summing each colour's order type on the way;
    # an interval that is no pair is never taken, so the walk fails
    count = 0
    for ivs in classes:
        if type(ivs) is not tuple:
            return False
        count += len(ivs)
    taken, types, before_last = [0] * k, [ZERO] * k, [ZERO] * k
    cursor, i = ZERO, 0
    for _ in range(count):
        for _ in range(k):
            ivs, j = classes[i], taken[i]
            if j < len(ivs):
                iv = ivs[j]
                if type(iv) is tuple and len(iv) == 2 \
                        and _matches(iv[0], cursor):
                    break
            i = (i + 1) % k
        else:
            return False
        hi = iv[1]
        if not _is_ordinal(hi) or compare(hi, cursor) <= 0:
            return False
        before_last[i] = types[i]
        types[i] = add(types[i], left_subtract(cursor, hi))
        taken[i], cursor, i = j + 1, hi, (i + 1) % k
    if compare(cursor, g):
        return False

    # each level against the order types, before any residual; a
    # DerivativeNotEmbeddable class's last interval finishes the rank space
    for i, cert in enumerate(per):
        last = cert.kind is CertKind.DERIVATIVE_NOT_EMBEDDABLE
        if (not _matches(cert.level, before_last[i] if last else types[i])
                or last and compare(classes[i][-1][1], g)):
            return False

    for i, cert in enumerate(per):
        if cert.kind is not CertKind.DERIVATIVE_NOT_EMBEDDABLE:
            residual = residual_shape(flat[i], types[i])
            if (compare(residual, from_int(cert.bound)) <= 0 if cert.bound
                    else not residual.monomials):
                return False
            continue
        class_res = residual_shape(col.domain, classes[i][-1][0])
        target_res = residual_shape(flat[i], before_last[i])
        if not (_matches(cert.class_residual, class_res)
                and _matches(cert.target_residual, target_res)
                and _distinguishing_shapes(class_res, target_res)):
            return False
    return True
