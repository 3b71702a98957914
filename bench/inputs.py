"""Seeded input generators.  Everything here is shapes and plain data; the
workloads' deck makers turn it into program values.  These functions
and the deck makers are the only readers of the seed's random
stream."""

from __future__ import annotations

import random

from shapes import (ONE, W, W1, W2, ZERO, combine, initial, nat, power)

# Criterion 3's exponent pool: the ordinals up to w^2 with coefficients
# at most 2, in decreasing order.  A target of its class picks a
# coefficient 0..2 for each, so the class has 3^10 = 59049 members.
_W2 = ((ONE, 2),)
C3_EXPONENTS = (
    power(nat(2)),
    combine([(ONE, 2), (ZERO, 2)]),
    combine([(ONE, 2), (ZERO, 1)]),
    _W2,
    combine([(ONE, 1), (ZERO, 2)]),
    combine([(ONE, 1), (ZERO, 1)]),
    W,
    nat(2),
    ONE,
    ZERO,
)

W1_PLUS_1 = combine([(("w_", ONE), 1), (ZERO, 1)])
W1_TIMES_2 = ((("w_", ONE), 2),)
W2_PLUS_W = combine([(("w_", nat(2)), 1), (ONE, 1)])


def criterion3_target(rng: random.Random) -> tuple:
    """A uniform member of criterion 3's class that is at least 2."""
    while True:
        s = tuple((e, c) for e, c in
                  zip(C3_EXPONENTS, (rng.randint(0, 2) for _ in C3_EXPONENTS))
                  if c)
        if s and s not in (nat(1),):
            return s


def criterion3_power(rng: random.Random) -> tuple:
    """w^e for e drawn from criterion 3's exponents; e = 1, w and w^2
    give the towers w, w^w and w^(w^2)."""
    return power(rng.choice(C3_EXPONENTS[:-1]))


_SMALL_COUNTABLE = (nat(2), nat(3), nat(5), combine([(ONE, 1), (ZERO, 1)]),
                    combine([(ONE, 2), (ZERO, 1)]), power(nat(2)),
                    combine([(nat(2), 1), (ONE, 1)]),
                    combine([(ONE, 1), (ZERO, 3)]))


def _small(rng):
    return rng.choice(_SMALL_COUNTABLE)


def _fin(n):
    return ("n", n)


ALEPH0 = ("aleph", ZERO)
ALEPH1 = ("aleph", ONE)

_BIG_NONPOWER = (W1_PLUS_1, W1_TIMES_2, W2_PLUS_W,
                 combine([(("w_", ONE), 3), (ZERO, 5)]))
# powers of w above w_1, by cofinality of the exponent
_BIG_POWER_CF_HIGH = (W2, power(W1_TIMES_2), initial(nat(3)))   # cf > w_0
_BIG_POWER_CF_W1 = (power(W1_TIMES_2), power(((("w_", ONE), 3),)))
_BIG_POWER_CF_W = (power(W1_PLUS_1), power(combine([(("w_", ONE), 2), (ZERO, 1)])),
                   power(combine([(("w_", nat(2)), 1), (ZERO, 1)])))
_BIG_POWER_TAIL_ABOVE_W1 = (power(power(W1_PLUS_1)),
                            power(power(combine([(("w_", ONE), 1), (ZERO, 2)]))))


def leaf_template(leaf: str, rng: random.Random) -> list:
    """Entries [(target shape, count)] that dispatch to the given leaf of
    the case tree."""
    n = rng.randint(1, 3)
    if leaf == "Zero":
        return [(ZERO, _fin(n)), (_small(rng), _fin(rng.randint(1, 2)))]
    if leaf == "AllOnes":
        return [(ONE, rng.choice((_fin(n), ALEPH0)))]
    if leaf == "C1":
        second = rng.choice((combine([(ONE, 1), (ZERO, 1)]), _W2,
                             combine([(nat(2), 1), (ZERO, 1)]), W1_PLUS_1))
        return [(rng.choice(_BIG_NONPOWER + _BIG_POWER_CF_W), _fin(1)),
                (second, _fin(1))]
    low = rng.choice((nat(2), nat(3), W))
    if leaf == "C2aI":
        return [(rng.choice(_BIG_NONPOWER), _fin(1)), (low, ALEPH0)]
    if leaf == "C2aIIA":
        return [(rng.choice(_BIG_POWER_CF_HIGH), _fin(1)), (low, ALEPH0)]
    if leaf == "C2aIIB":
        return [(rng.choice(_BIG_POWER_CF_W1), _fin(1)), (low, ALEPH1)]
    if leaf == "C2aIIC_lt":
        return [(rng.choice(_BIG_POWER_CF_W), _fin(1)), (low, ALEPH0)]
    if leaf == "C2aIIC_gt":
        return [(rng.choice(_BIG_POWER_TAIL_ABOVE_W1), _fin(1)), (low, ALEPH0)]
    if leaf == "C2bI":
        return [(rng.choice(_BIG_POWER_CF_HIGH + _BIG_POWER_CF_W), _fin(1)),
                (W, _fin(n))]
    if leaf == "C2bII":
        return [(rng.choice(_BIG_NONPOWER), _fin(1)), (W, _fin(n))]
    if leaf == "C2cI":
        big = rng.choice(_BIG_POWER_CF_HIGH + _BIG_POWER_CF_W)
        return [(big, _fin(1)), (nat(rng.randint(2, 6)), _fin(n))]
    if leaf == "C2cII":
        return [(rng.choice(_BIG_NONPOWER), _fin(1)),
                (nat(rng.randint(2, 6)), _fin(n))]
    if leaf == "C3":
        if rng.random() < 0.5:
            return [(W1, _fin(rng.randint(2, 3)))]
        return [(W1, _fin(1)), (W1, _fin(1)), (_small(rng), _fin(n))]
    if leaf == "C4":
        return [(W1, _fin(1)), (_small(rng), _fin(n))]
    if leaf == "C5":
        return [(_small(rng), ALEPH0), (_small(rng), _fin(n))]
    raise ValueError(f"no template for leaf {leaf}")


TEMPLATE_LEAVES = ("Zero", "AllOnes", "C1", "C2aI", "C2aIIA", "C2aIIB",
                   "C2aIIC_lt", "C2aIIC_gt", "C2bI", "C2bII", "C2cI", "C2cII",
                   "C3", "C4", "C5")


# -- witness families ------------------------------------------------------------

WITNESS_FAMILIES = ("C6a", "C6b", "C6cI", "C6cII", "C1")


def witness_entries(family: str, rng: random.Random) -> list:
    """Targets whose case is the family, sized so that the witnesses stay
    small: exponents below w*2, coefficients at most 5."""
    if family == "C6a":
        k = rng.randint(1, 3)
        return [(nat(rng.randint(2, 9)), _fin(1)) for _ in range(k)]
    exps = (ONE, nat(2), nat(3), W, combine([(ONE, 1), (ZERO, 1)]))
    if family == "C6b":
        out = [(power(rng.choice(exps)), _fin(rng.randint(1, 2)))]
        for _ in range(rng.randint(0, 2)):
            out.append((rng.choice((combine([(rng.choice(exps), 2), (ZERO, 1)]),
                                    nat(rng.randint(2, 5)),
                                    power(rng.choice(exps)))), _fin(1)))
        return out
    if family == "C6cI":
        # a distinguished exact multiple w^g*(m+1) of least rank; every
        # other target has one point of its top rank
        g = rng.choice((ONE, nat(2), nat(3)))
        if rng.random() < 0.25:
            # two copies are both exact, so each must have m = 1
            return [(((g, 2),), _fin(2))]
        out = [(((g, rng.randint(2, 5)),), _fin(1))]
        for _ in range(rng.randint(0, 2)):
            h = rng.choice(exps)
            out.append((combine([(h, 1), (ZERO, rng.randint(1, 3))]), _fin(1)))
        return out
    if family == "C6cII":
        out = []
        for _ in range(rng.randint(1, 3)):
            h = rng.choice(exps)
            out.append((combine([(h, rng.randint(2, 4)), (ZERO, rng.randint(1, 3))]),
                        _fin(1)))
        return out
    if family == "C1":
        big = rng.choice(_BIG_NONPOWER + _BIG_POWER_CF_W)
        second = rng.choice((combine([(ONE, 1), (ZERO, 1)]), _W2, W1_PLUS_1))
        return [(big, _fin(1)), (second, _fin(1))]
    raise ValueError(f"unknown witness family {family}")


C1_DOMAINS = (combine([(("w_", ONE), 2), (ONE, 1)]), W2, power(W),
              combine([(("w_", ONE), 1), (ZERO, 5)]))


# -- oracle audit ------------------------------------------------------------------

# enumeration bounds (max exponent, max coefficient, max monomials), each
# within criterion 3's (w^2, 2, 10) and of similar cost (2187, 1611 and
# 1697 terms); the full criterion-3 bound takes about 2 s and would
# swamp every other oracle in the mix
ENUMERATION_BOUNDS = (
    (_W2, 2, 10),
    (_W2, 2, 5),
    (combine([(ONE, 2), (ZERO, 1)]), 2, 4),
)


def mr_bound(rng: random.Random) -> tuple:
    """Criterion 4's bound shape: one or two monomials with exponents
    w*a+b below w*3, coefficients at most 3."""
    picks = rng.sample([(a, b) for a in range(3) for b in range(3)],
                       rng.randint(1, 2))
    terms = [(combine([(ONE, a), (ZERO, b)]), rng.randint(1, 3))
             for a, b in picks]
    return combine(terms)


def mr_bounds(rng: random.Random) -> list:
    """A pair of bounds, as criterion 4 draws them."""
    return [mr_bound(rng), mr_bound(rng)]


def arrow_targets(rng: random.Random) -> tuple:
    """Criterion 5's class: one to three finite targets summing to <= 10."""
    while True:
        k = rng.randint(1, 3)
        ts = tuple(rng.randint(1, 10) for _ in range(k))
        if sum(ts) <= 10:
            return ts


def link_pair(rng: random.Random) -> tuple:
    """Two targets from one of criterion 6's link families."""
    family = rng.randrange(4)
    wp1 = combine([(ONE, 1), (ZERO, 1)])
    if family == 0:
        exps = (ONE, nat(2), nat(3), W, wp1)
        return tuple(combine([(rng.choice(exps), 1), (ZERO, 1)]) for _ in range(2))
    if family == 1:
        exps = (ONE, nat(2), W, wp1, power(nat(2)))
        return tuple(power(rng.choice(exps)) for _ in range(2))
    if family == 2:
        a = rng.choice((ONE, nat(2), W, combine([(ONE, 1), (ZERO, 2)]), _W2))
        d = rng.choice((ONE, nat(3), W, wp1, power(nat(2))))
        return power(a), combine([(d, 1), (ZERO, 1)])
    shapes = ((ZERO, 2), (ZERO, 5), (ONE, 3), (nat(2), 2), (W, 2))

    def simple(a, m):
        return nat(m) if not a else combine([(a, m), (ZERO, 1)])
    return tuple(simple(*rng.choice(shapes)) for _ in range(2))


# -- command line ------------------------------------------------------------------

MALFORMED_KINDS = ("typo", "paren", "trailing", "count", "stray", "missing",
                   "empty")
