"""Counterexample colourings below the pigeonhole number, with certificates.

A colouring of the space [0, beta) is stored symbolically: each colour
owns a finite union of half-open intervals of Cantor-Bendixson ranks,
plus explicit colours for the finitely many points of maximal rank and
(for finite domains) the point 0.  A second mode colours by cofinality
and witnesses the provably-no-value case for two targets.

Each colour carries an obstruction certificate saying why its class
cannot contain a copy of its target.  The verifier recomputes the order
types and derivative shapes from the colouring alone, so a certificate
cannot be weakened without detection:

  DerivativeEmpty       class is a pure rank preimage whose level-th
                        derivative is empty, while the target still has
                        points at that level;
  DerivativeSmall       the level-th derivative of the class sits inside
                        its exceptional points, fewer than the target
                        keeps at that level;
  DerivativeNotEmbeddable  the class's residual above the final rank
                        interval is a compact w^rho*a + 1, too small for
                        the target's residual w^rho*b with b > a;
  CofinalitySplit       the two classes split by cofinality: points of
                        uncountable cofinality contain no w+1, the rest
                        contain nothing above w_1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cmp_to_key
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
    ZERO,
    ZeroInput,
    _coerce,
    _exp_is_zero,
    add,
    as_exponent,
    cb_rank,
    cofinality,
    compare,
    exp_compare,
    exponent_ordinal,
    from_int,
    is_power_of_omega,
    leading_decomposition,
    left_subtract,
    mul,
    natural_sum,
    omega_pow,
)


class OutOfScope(ValueError):
    """Raised when no finite certificate covers the requested witness."""


class NotBelowThreshold(ValueError):
    """Raised when the space already satisfies the partition relation."""


class PreconditionViolated(ValueError):
    pass


class OutOfDomain(ValueError):
    pass


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


@dataclass(frozen=True)
class RankColouring:
    """A total colouring of [0, domain) described by rank data.

    rank_classes[i] lists colour i's rank intervals [lo, hi); together
    the intervals partition [0, g) where g is the domain's leading
    exponent.  The points w^g*l get their colours from top_point_colours
    (l = 1 upward), and zero_colour overrides the point 0 when set; when
    it is None the rank interval containing rank 0 covers the origin.
    In cofinality mode there is no rank data and colour 1 is the set of
    points of uncountable cofinality.
    """

    domain: Ordinal
    mode: ColouringMode
    rank_classes: Tuple[IntervalUnion, ...]
    top_point_colours: Tuple[int, ...]
    zero_colour: Optional[int]

    @property
    def colours(self) -> int:
        return len(self.rank_classes)


@dataclass(frozen=True)
class ObstructionCertificate:
    colour: int
    kind: CertKind
    claimed_target: Ordinal
    level: Optional[Ordinal] = None
    bound: Optional[int] = None
    class_residual: Optional[Ordinal] = None
    target_residual: Optional[Ordinal] = None


# -- interval and derivative arithmetic ---------------------------------------


def order_type_of_union(intervals: Sequence[Interval]) -> Ordinal:
    """Order type of a disjoint ascending union of half-open intervals."""
    total = ZERO
    prev = None
    for lo, hi in intervals:
        if compare(lo, hi) >= 0:
            raise PreconditionViolated(f"bad interval [{lo}, {hi})")
        if prev is not None and lo < prev:
            raise PreconditionViolated("intervals must ascend")
        total = add(total, left_subtract(lo, hi))
        prev = hi
    return total


def residual_shape(alpha: Ordinal, zeta: Ordinal) -> Ordinal:
    """Order type of the zeta-th derivative of the space [0, alpha): the
    points of rank at least zeta are exactly the positive multiples of
    w^zeta below alpha, a closed set, so the type determines the
    subspace up to homeomorphism."""
    alpha, zeta = _coerce(alpha), _coerce(zeta)
    if zeta.is_zero():
        return alpha
    high = []
    low = False
    for e, c in alpha.monomials:
        eo = exponent_ordinal(e)
        if eo >= zeta:
            high.append((as_exponent(left_subtract(zeta, eo)), c))
        else:
            low = True
    if not high:
        return ZERO
    quotient = Ordinal(tuple(high))
    shape = left_subtract(ONE, quotient)
    return add(shape, ONE) if low else shape


# -- natural-sum splitting ------------------------------------------------------


class NatsumSplitter:
    """Natural-sum splittings of many deltas below one list of bounds.
    The bounds are coerced and checked once; each exponent list's merge
    with them is made on first use and kept, keyed by the identity of
    the exponent objects (the table holds them, so no id is reused;
    hashing fresh trees by value cost more than it saved).  parts()
    builds the canonical first splitting, splits() only answers."""

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
                    order = exp_compare(bm[ptr][0], e)
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
        None; largest first part first, feasible shares only."""
        key = tuple([id(e) for e, _ in monos])
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = self._merge(monos)
        _, skipped, room = table
        n, last = len(monos), len(self.bounds) - 1
        every = (2 << last) - 1
        shares: List[int] = []

        def place(j, below):
            # bit i of below: part i is already strictly below bound i
            below |= skipped[j]
            if below == every:
                return True
            return j < n and share(j, 0, monos[j][1], below, below)

        def share(j, i, left, below, nbelow):
            # part i takes p of the left coefficient, the last part all of
            # it; at the last position a part not yet below its bound must
            # get below here, unless skipped[n] already puts it below, so
            # its room there is one less than its bound's coefficient
            if not below >> i and left > room[j][i]:
                return False
            bit = 1 << i
            cap = top = left if below & bit else room[j][i] - room[j][i + 1]
            if j == n - 1 and not (below | skipped[n]) & bit:
                cap = top + 1
            if i == last:
                if left > top:
                    return False
                shares.append(left)
                if place(j + 1, nbelow | bit if left < cap else nbelow):
                    return True
                shares.pop()
                return False
            for p in range(min(left, top), -1, -1):
                shares.append(p)
                if share(j, i + 1, left - p, below,
                         nbelow | bit if p < cap else nbelow):
                    return True
                shares.pop()
            return False

        return shares if place(0, 0) else None

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
        return [Ordinal(tuple((e, p) for (e, _), p in zip(monos, shares[i::k])
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
    cursor = ZERO
    blocks = eta.monomials
    for bi, (e, c) in enumerate(blocks):
        order = list(range(len(parts)))
        if final_part is not None and bi == len(blocks) - 1:
            order = [i for i in order if i != final_part] + [final_part]
        used = 0
        for i in order:
            d = coeffs[i].get(e, 0)
            if d:
                lo = add(cursor, mul(omega_pow(e), from_int(used)))
                hi = add(cursor, mul(omega_pow(e), from_int(used + d)))
                pieces[i].append((lo, hi))
                used += d
        cursor = add(cursor, mul(omega_pow(e), from_int(c)))
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
# target, rank classes and a certificate per colour, and the natural-sum
# search behind it recurses once per colour and position, so counts are
# expanded to colours only up to this bound; above it the build is
# OutOfScope.
MAX_COLOURS = 256


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
    cases with at most MAX_COLOURS colours and for the two-target
    provably-no-value case."""
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
    flat = _by_colour(norm)
    if beta.is_zero():
        return _build_empty(beta, flat)
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


def _build_empty(beta, flat):
    col = RankColouring(beta, ColouringMode.RANK,
                        ((),) * len(flat), (), None)
    certs = [ObstructionCertificate(i, CertKind.DERIVATIVE_EMPTY, t, level=ZERO)
             for i, t in enumerate(flat)]
    return col, certs


def _build_finite(beta, flat):
    n = int(beta)
    caps = [int(t) - 1 if t.is_finite() else None for t in flat]
    assignment: List[int] = []
    for i, cap in enumerate(caps):
        room = n - len(assignment)
        take = room if cap is None else min(cap, room)
        assignment.extend([i] * take)
    assert len(assignment) == n, "failing relation guarantees enough room"
    col = RankColouring(beta, ColouringMode.RANK, ((),) * len(flat),
                        tuple(assignment[1:]), assignment[0])
    # every point has rank 0, the point 0 among them
    return col, _exception_certs(flat, [ZERO] * len(flat), assignment)


def _exception_certs(flat, levels, exceptions):
    certs = []
    for i, t in enumerate(flat):
        count = exceptions.count(i)
        if count:
            certs.append(ObstructionCertificate(
                i, CertKind.DERIVATIVE_SMALL, t, level=levels[i], bound=count))
        else:
            certs.append(ObstructionCertificate(
                i, CertKind.DERIVATIVE_EMPTY, t, level=levels[i]))
    return certs


def _build_infinite(beta, facts, flat):
    norm, k = facts.normalized, len(flat)
    g, m, tail = leading_decomposition(beta)
    top_count = m if not tail.is_zero() else m - 1

    if facts.case is CasePath.C6b:
        power_bounds = [minimal_omega_power_bound(t) for t in flat]
        levels = natsum_expressible(g, power_bounds)
        assert levels is not None, "g below the Milner-Rado sum splits"
        classes = natsum_split(g, levels)
        anchor = next(i for i, t in enumerate(flat) if is_power_of_omega(t))
        tops = (anchor,) * top_count
        col = RankColouring(beta, ColouringMode.RANK, tuple(classes),
                            tops, None)
        return col, _exception_certs(flat, levels, tops)

    decs = _by_colour(norm, facts.decompositions)
    levels = natsum_expressible(g, [add(b, ONE) for b, _, _ in decs])
    assert levels is not None, "g at most the natural sum of ranks splits"
    caps = [None if lvl < b else mi - 1
            for (b, mi, _), lvl in zip(decs, levels)]
    fixed = sum(c for c in caps if c is not None)
    if any(c is None for c in caps) or fixed >= top_count:
        order = [i for i in range(k) if caps[i] is None] + \
                [i for i in range(k) if caps[i] is not None]
        assignment: List[int] = []
        for i in order:
            room = top_count - len(assignment)
            if room == 0:
                break
            take = room if caps[i] is None else min(caps[i], room)
            assignment.extend([i] * take)
        assert len(assignment) == top_count
        classes = natsum_split(g, levels)
        tops = tuple(assignment)
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
    p = Ordinal(g.monomials[:-1] + (((gamma_min, c_min - 1),) if c_min > 1
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
    (rho, a), (last_exp, last_coeff) = cm
    if not _exp_is_zero(last_exp) or last_coeff != 1 or _exp_is_zero(rho):
        return False
    rho_t, b = tm[0]
    return exp_compare(rho, rho_t) == 0 and b > a


# -- verification -----------------------------------------------------------------


def verify_certificates(col: RankColouring, norm: NormalizedInstance,
                        certs) -> bool:
    """Recompute every quantity a certificate relies on and compare
    exactly.  Any single altered field changes some recomputed value or
    violates well-formedness, so the verdict flips."""
    # compare the colour count before listing a target per colour
    if not norm.kappa.is_finite() or col.colours != norm.kappa.size:
        return False
    flat = _by_colour(norm)
    k = len(flat)
    by_colour = {}
    for cert in certs:
        if not isinstance(cert.colour, int) or cert.colour in by_colour:
            return False
        by_colour[cert.colour] = cert
    if set(by_colour) != set(range(k)):
        return False
    if any(by_colour[i].claimed_target != flat[i] for i in range(k)):
        return False

    if col.mode is ColouringMode.COFINALITY:
        if (k != 2 or any(col.rank_classes) or col.top_point_colours
                or col.zero_colour is not None):
            return False
        for cert in by_colour.values():
            if cert.kind is not CertKind.COFINALITY_SPLIT:
                return False
            if (cert.level is not None or cert.bound is not None
                    or cert.class_residual is not None
                    or cert.target_residual is not None):
                return False
        return flat[0] > OMEGA1 and flat[1] > OMEGA

    if col.domain.is_zero():
        g: Ordinal = ZERO
        top_count = 0
        if col.zero_colour is not None:
            return False
    else:
        g, m, tail = leading_decomposition(col.domain)
        top_count = m if not tail.is_zero() else m - 1
        if col.domain.is_finite() and col.zero_colour is None:
            return False
    if len(col.top_point_colours) != top_count:
        return False
    if any(not isinstance(c, int) or not 0 <= c < k
           for c in col.top_point_colours):
        return False
    if col.zero_colour is not None and not 0 <= col.zero_colour < k:
        return False

    labelled = sorted((iv for ivs in col.rank_classes for iv in ivs),
                      key=cmp_to_key(lambda u, v: compare(u[0], v[0])))
    cursor = ZERO
    for lo, hi in labelled:
        if lo != cursor or hi <= lo:
            return False
        cursor = hi
    if cursor != g:
        return False

    for i in range(k):
        cert = by_colour[i]
        target = flat[i]
        ivs = col.rank_classes[i]
        if any(c < b for (_, b), (c, _) in zip(ivs, ivs[1:])):
            return False
        top_hits = sum(1 for c in col.top_point_colours if c == i)
        exceptions = top_hits + (1 if col.zero_colour == i else 0)

        if cert.kind is CertKind.DERIVATIVE_EMPTY:
            if cert.bound is not None or cert.class_residual is not None \
                    or cert.target_residual is not None:
                return False
            if exceptions != 0 or cert.level is None:
                return False
            if cert.level != order_type_of_union(ivs):
                return False
            if residual_shape(target, cert.level).is_zero():
                return False
        elif cert.kind is CertKind.DERIVATIVE_SMALL:
            if cert.class_residual is not None \
                    or cert.target_residual is not None:
                return False
            if cert.level is None or cert.bound is None:
                return False
            if cert.level != order_type_of_union(ivs):
                return False
            if cert.bound != exceptions or exceptions == 0:
                return False
            if not residual_shape(target, cert.level) > from_int(cert.bound):
                return False
        elif cert.kind is CertKind.DERIVATIVE_NOT_EMBEDDABLE:
            if cert.bound is not None:
                return False
            if cert.level is None or cert.class_residual is None \
                    or cert.target_residual is None:
                return False
            if not ivs:
                return False
            p, hi = ivs[-1]
            if hi != g:
                return False
            if cert.level != order_type_of_union(ivs[:-1]):
                return False
            if top_hits != top_count or top_count == 0:
                return False
            if col.zero_colour == i:
                return False
            if cert.class_residual != residual_shape(col.domain, p):
                return False
            if cert.target_residual != residual_shape(target, cert.level):
                return False
            if not _distinguishing_shapes(cert.class_residual,
                                          cert.target_residual):
                return False
        else:
            return False
    return True
