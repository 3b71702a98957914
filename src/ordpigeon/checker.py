"""The witness file and its checker, apart from the code that builds it.

A witness is a colouring and one obstruction certificate per colour,
saying why that colour's class cannot contain a copy of its target;
_ROWS has a row per kind.  The verifier recomputes the order types and
derivative shapes from the colouring alone, so a certificate cannot be
weakened without detection.
It checks, in order: each certificate's colour, target and row; the
colouring pass's counts (g, top count, exceptional points) against the
bounds; the pass's walk, which checks that the rank intervals tile
[0, g); the levels and residuals.  The pass reads only the colouring, so
it is kept on it (the _checked memo, with the last norm's colour list)
and a tamper sweep walks once; a completed pass read only tuples, exact
ints and Ordinals, so it cannot go stale, and a failed one is not kept.
Colours, bounds and top-point and zero colours are exact ints (no bool
or float), ordinal fields, the domain and interval endpoints Ordinals or
ints >= 0, the mode a ColouringMode, the rank classes, their unions and
the top-point colours tuples, each interval a pair, each certificate an
ObstructionCertificate in a tuple or list, and the instance no
degenerate instance's Exists; anything else is rejected.  The checker
runs no case tree, natural-sum search or builder (ordpigeon.witness).

A witness file holds witness_to_json's object: the keys are the field
names of RankColouring and of each ObstructionCertificate, in field
order, ordinals are strings in the ascii grammar (format_cnf), and the
integer fields are JSON integers, read back as exact ints.
"""

from __future__ import annotations

import enum
from typing import Optional, Tuple

from .engine import NormalizedInstance
from .ordinal import (OMEGA, OMEGA1, ONE, Ordinal, Record, ZERO, _build,
                      _coerce, add, compare, format_cnf, from_int,
                      left_subtract)
from .parser import BRIEF, parse_ordinal


class ColouringMode(enum.Enum):
    RANK = "rank"
    COFINALITY = "cofinality"


class CertKind(enum.Enum):
    DERIVATIVE_EMPTY = "DerivativeEmpty"
    DERIVATIVE_SMALL = "DerivativeSmall"
    DERIVATIVE_NOT_EMBEDDABLE = "DerivativeNotEmbeddable"
    COFINALITY_SPLIT = "CofinalitySplit"
    __hash__ = object.__hash__  # members are unique; keeps _ROWS[kind] cheap


Interval = Tuple[Ordinal, Ordinal]
IntervalUnion = Tuple[Interval, ...]


# Records (see ordinal.Record); ordpigeon.witness also registers them as
# dataclasses, with no generated method, for dataclasses.replace.
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
                 "zero_colour", "_checked")
    domain: Ordinal
    mode: ColouringMode
    rank_classes: Tuple[IntervalUnion, ...]
    top_point_colours: Tuple[int, ...]
    zero_colour: Optional[int]

    @property
    def colours(self) -> int:
        return len(self.rank_classes)


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
# target_residual; its comment says why its fact rules out the target.
# None asks for countability: in every ordinal a point's rank is the last
# exponent of its normal form, and embeddings map derivatives into derivatives
_ROWS = {
    # the class is a pure rank preimage of order type level, so its level-th
    # derivative is empty, while the target still has points at that level
    CertKind.DERIVATIVE_EMPTY: (True, False, False, False),
    # the class's level-th derivative sits inside its bound exceptional
    # points, fewer than the target keeps at that level
    CertKind.DERIVATIVE_SMALL: (True, True, False, False),
    # the class's ranks below its final interval have order type level,
    # and from that interval up it is a compact w^rho*a + 1, too small
    # for the target's level-th residual w^rho*b with b > a (a copy needs
    # b - 1 of its a points of rank rho, and one more by compactness)
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


# -- derivative shapes -------------------------------------------------------------


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


def _distinguishing_shapes(class_res: Ordinal, target_res: Ordinal) -> bool:
    # class suffix w^rho*a + 1 versus target residual w^rho*b, b > a, rho >= 1
    cm, tm = class_res.monomials, target_res.monomials
    if len(cm) != 2 or len(tm) != 1:
        return False
    (rho, a), last = cm
    (rho_t, b), = tm
    return last == (ZERO, 1) and not rho.is_zero() and rho == rho_t and b > a


# -- verification -----------------------------------------------------------------


def _by_colour(norm: NormalizedInstance, per_entry=None) -> list:
    # one value per entry (by default its target) for each of the entry's
    # colours: an entry of count c takes the next c colours
    out: list = []
    for i, (t, c) in enumerate(norm.entries):
        out += [t if per_entry is None else per_entry[i]] * c.size
    return out


def _is_ordinal(x) -> bool:
    # an ordinal field or interval endpoint: an Ordinal or an int >= 0
    return isinstance(x, Ordinal) or type(x) is int and x >= 0


def _matches(field, value: Ordinal) -> bool:
    # the parse cache hands equal texts one object, so try identity first
    return field is value or _is_ordinal(field) and compare(field, value) == 0


def _colouring_facts(col: RankColouring, k: int):
    # the colouring pass's counts: g, the top count, each colour's exceptions
    if col.mode is not ColouringMode.RANK:
        return None
    tops, zero = col.top_point_colours, col.zero_colour
    ms = _coerce(col.domain).monomials
    g, m = ms[0] if ms else (ZERO, 1)
    top_count = m if len(ms) > 1 else m - 1
    # the empty domain has no point 0 to colour, a finite one colours it
    if (zero is not None and not ms or zero is None and ms and not g.monomials
            or len(tops) != top_count):
        return None
    exceptions = [0] * k
    for c in [*tops, zero] if zero is not None else tops:
        if type(c) is not int or not 0 <= c < k:
            return None
        exceptions[c] += 1
    return g, top_count, exceptions


def _tiling(classes, k: int, g: Ordinal):
    # the walk: from 0, some colour's next interval starts where the last
    # ended, up to g (natsum_split lays colours out in turn, so try the
    # next colour first); each colour's order type and its type before
    # its last interval, or None (an interval that is no pair never fits)
    if any(type(ivs) is not tuple for ivs in classes):
        return None
    taken, types, before_last = [0] * k, [ZERO] * k, [ZERO] * k
    cursor, i = ZERO, 0
    for _ in range(sum(map(len, classes))):
        for _ in range(k):
            ivs, j = classes[i], taken[i]
            if j < len(ivs):
                iv = ivs[j]
                if type(iv) is tuple and len(iv) == 2 \
                        and _matches(iv[0], cursor):
                    break
            i = (i + 1) % k
        else:
            return None
        hi = iv[1]
        if not _is_ordinal(hi) or compare(hi, cursor) <= 0:
            return None
        before_last[i] = types[i]
        types[i] = add(types[i], left_subtract(cursor, hi))
        taken[i], cursor, i = j + 1, hi, (i + 1) % k
    return (types, before_last) if compare(cursor, g) == 0 else None


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
    kept = col._checked or (None,) * 4  # norm, its colour list, the pass
    flat = kept[1] if kept[0] is norm else _by_colour(norm)
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

    facts = kept[2] or _colouring_facts(col, k)
    if facts is None:
        return False
    g, top_count, exceptions = facts
    # each class's exceptional points, before the walk: a
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
    walk = kept[3] or _tiling(classes, k, g)
    if walk is None:
        return False
    RankColouring._checked.__set__(col, (norm, flat, facts, walk))
    types, before_last = walk

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
