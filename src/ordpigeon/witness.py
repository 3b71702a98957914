"""Counterexample colourings below the pigeonhole number, with certificates.

A colouring of the space [0, beta) is stored symbolically: each colour
owns a finite union of half-open intervals of Cantor-Bendixson ranks,
plus explicit colours for the finitely many points of maximal rank and
(for finite domains) the point 0.  A second mode colours by cofinality
and witnesses the provably-no-value case for two targets.

The witness types, the witness file and the verifier are in
ordpigeon.checker, which imports none of this module; they are
re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .checker import (  # noqa: F401  (the types, codec and verifier re-exported)
    CertKind,
    ColouringMode,
    Interval,
    IntervalUnion,
    ObstructionCertificate,
    RankColouring,
    _by_colour,
    _distinguishing_shapes,
    residual_shape,
    verify_certificates,
    witness_from_json,
    witness_to_json,
)
from .engine import (
    CasePath,
    Exists,
    NormalizedInstance,
    classify,
    minimal_omega_power_bound,
)
from .ordinal import (
    OMEGA1,
    Ordinal,
    ZERO,
    ZeroInput,
    _build,
    _coerce,
    add,
    cb_rank,
    cofinality,
    compare,
    is_power_of_omega,
    leading_decomposition,
    left_subtract,
    natural_sum,
)

# The witness types are registered as dataclasses, with no generated
# method, only so that dataclasses.replace works on them: the self-test,
# the tests and the benchmark tamper with witnesses through it, and all
# of them import this module.  The checker does not, so `verify` never
# loads dataclasses (nor the inspect, ast and dis it loads).
dataclass(init=False, repr=False, eq=False)(RankColouring)
dataclass(init=False, repr=False, eq=False)(ObstructionCertificate)


class OutOfScope(ValueError):
    """Raised when no finite certificate covers the requested witness."""


class NotBelowThreshold(ValueError):
    """Raised when the space already satisfies the partition relation."""


class PreconditionViolated(ValueError):
    """Raised when interval or splitting arguments are malformed."""


class OutOfDomain(ValueError):
    """Raised when a point lies outside the colouring's domain."""


# -- interval arithmetic ---------------------------------------------------------


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
        # an entry (j, i, left, below, p), a share still to try: part i
        # takes p of the coefficient left at position j, after parts
        # 0..i-1 took theirs there
        stack: List[tuple] = []
        j, i, left = 0, 0, monos[0][1]
        while True:
            # enter part i at position j: unless a part i.. is below its
            # bound, parts i.. must fit in room[j][i]; part i takes at most
            # its room, the last part all that is left (room[j][k] is 0,
            # so its top is at least left).  At the last position
            # room[-1][i] is one less than the bound's coefficient for a
            # part still to get below there, so p can be -1: then no share
            # fits.  After the last position (j == n) some part is not
            # below: nothing fits
            p = -1
            if j < n and (below >> i or left <= room[j][i]):
                top = left if below >> i & 1 else room[j][i] - room[j][i + 1]
                p = left if left < top else top
            # the largest share is taken at once, the smaller ones stacked
            while p < 0:
                if not stack:
                    return None
                j, i, left, below, p = stack.pop()
                del shares[j * k + i:]
            if p and i < last:
                stack.append((j, i, left, below, p - 1))
            shares.append(p)
            # taking less than its bound's coefficient puts part i
            # below, and at the last position a part must get below
            if not below >> i & 1 and (
                    p < room[j][i] - room[j][i + 1]
                    or j == n - 1 and not tail >> i & 1):
                below |= 1 << i
            if i < last:
                i, left = i + 1, left - p
                continue
            j += 1
            below |= skipped[j]
            if below == every:
                return shares
            if j < n:
                i, left = 0, monos[j][1]

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


# The most colours build_counterexample colours for.  A witness lists a
# target, rank classes and a certificate per colour, so its size grows
# with the colour count; counts are expanded to colours only up to this
# bound, and above it the build is OutOfScope.
MAX_COLOURS = 256

# The largest leading coefficient of a domain build_counterexample colours:
# a witness lists a colour per point of maximal rank (each point if finite),
# at most that many; build, check and dump take 0.6 s at most (2-core Xeon).
MAX_POINTS = 100_000


def build_counterexample(beta, norm: NormalizedInstance):
    """A colouring of [0, beta) defeating every target, with one
    certificate per colour.  Supported for the finite-colour cases with
    a value within MAX_COLOURS colours and MAX_POINTS (beta's leading
    coefficient), and for the two-target provably-no-value case.  A
    degenerate instance's Exists in place of a norm raises TypeError."""
    beta = _coerce(beta)
    facts = classify(norm)
    if facts.case is CasePath.C1:
        return _build_cofinality(beta, norm)
    if type(facts.result) is not Exists or not norm.kappa.is_finite():
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
    # Milner-Rado sum (C6b shape) or at most the natural sum of the targets'
    # leading exponents, each bound less one (C6c shape), so it splits
    levels = natsum_expressible(g, [minimal_omega_power_bound(t) for t in flat])
    assert levels is not None, "g splits below the bounds"
    # the most top points each colour's certificate holds: with no
    # decompositions only the powers of w take any, and the first takes all
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
    assert facts.distinguished is not None and not tail.is_zero()
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
