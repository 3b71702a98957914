"""Desk-scale oracles that recompute answers by brute force.

Nothing here reuses the closed formulas of the main engine: finite
pigeonhole numbers come from exhaustive colouring search, Milner-Rado
sums from an ascending scan for the least non-expressible ordinal, and
the cross-check formulas are written out independently, so agreement is
evidence rather than tautology.

Enumerations are ascending by construction: with exponents descending
and coefficients rising, product order is ordinal order.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import cmp_to_key
from itertools import product
from typing import Dict, List, Optional, Sequence

from .engine import Exists, Instance, p_top
from .ordinal import (
    ONE,
    Ordinal,
    ZERO,
    ZeroInput,
    _coerce,
    add,
    compare,
    exponent_ordinal,
    from_int,
    is_power_of_omega,
    mul,
    omega_pow,
)
from .witness import natsum_expressible

COLOURING_GUARD = 30_000_000


class TooLarge(ValueError):
    """The search space exceeds the exhaustive-enumeration guard."""


# -- finite pigeonhole by exhaustive colouring ---------------------------------


def finite_arrow_check(beta: int, targets: Sequence[int]) -> bool:
    """True iff every colouring of beta points in len(targets) colours
    gives some colour i at least targets[i] points.  Searches colourings
    in colour-radix order, pruning a branch as soon as a class reaches
    its target or the remaining points cannot avoid that."""
    if beta < 1 or not targets or any(t < 1 for t in targets):
        raise ZeroInput("beta and all targets must be positive")
    k = len(targets)
    if k == 1:
        return beta >= targets[0]
    if k ** beta > COLOURING_GUARD:
        raise TooLarge(f"{k}^{beta} colourings exceed the guard")
    counts = [0] * k

    def counterexample(point: int) -> bool:
        if any(counts[i] >= targets[i] for i in range(k)):
            return False
        if point == beta:
            return True
        slack = sum(targets[i] - 1 - counts[i] for i in range(k))
        if beta - point > slack:
            return False
        for i in range(k):
            counts[i] += 1
            if counts[i] < targets[i] and counterexample(point + 1):
                counts[i] -= 1
                return True
            counts[i] -= 1
        return False

    return not counterexample(0)


# -- bounded enumeration of countable normal forms -----------------------------


@dataclass(frozen=True)
class EnumerationBounds:
    max_exponent: Ordinal
    max_coefficient: int
    max_monomials: int

    def __post_init__(self):
        object.__setattr__(self, "max_exponent", _coerce(self.max_exponent))
        if not self.max_exponent.is_countable():
            raise ValueError("enumeration is for countable ordinals only")
        if self.max_coefficient < 1 or self.max_monomials < 1:
            raise ValueError("coefficient and monomial bounds must be positive")


def _terms_over(exponents: List[Ordinal], bounds: EnumerationBounds):
    # exponents descending.  The terms over exponents[i:] in product order
    # are those without e_i, then e_i*c ahead of each shorter one, c rising
    coeffs = range(1, bounds.max_coefficient + 1)
    tails = [()]
    for e in reversed(exponents):
        tails = tails + [((e, c),) + t for c in coeffs for t in tails
                         if len(t) < bounds.max_monomials]
    return [Ordinal(t) for t in tails]


def enumerate_ordinals_below(bounds: EnumerationBounds) -> List[Ordinal]:
    """Every normal form within the bounds whose exponents are themselves
    within the bounds, ascending.  The exponent pool is the fixpoint of
    enumerating and keeping the prefix of terms at most max_exponent."""
    pool: List[Ordinal] = []
    while True:
        terms = _terms_over(pool, bounds)
        grown = terms[:bisect_right(terms, bounds.max_exponent)][::-1]
        if grown == pool:
            return terms
        pool = grown


# -- Milner-Rado sums by least-counterexample scan ------------------------------


def _column_sums(bounds_list: Sequence[Ordinal]) -> List[tuple]:
    sums: Dict = {}
    for b in bounds_list:
        for e, c in b.monomials:
            eo = exponent_ordinal(e)
            sums[eo] = sums.get(eo, 0) + c
    return sorted(sums.items(), key=cmp_to_key(lambda u, v: compare(u[0], v[0])),
                  reverse=True)


def _candidate_lattice(bounds_list: Sequence[Ordinal]) -> List[Ordinal]:
    # the least non-expressible ordinal only needs the bounds' exponents,
    # with coefficients at most the column sums
    columns = _column_sums(bounds_list)
    return [Ordinal(tuple((e, c) for (e, _), c in zip(columns, coeffs) if c))
            for coeffs in product(*(range(s + 1) for _, s in columns))]


def bruteforce_mr_sum(bounds_list) -> Ordinal:
    """The least ordinal that is not a natural sum of parts strictly
    below the bounds, found by scanning candidates in order."""
    bounds_list = [_coerce(b) for b in bounds_list]
    if not bounds_list or any(b.is_zero() for b in bounds_list):
        raise ZeroInput("bounds must be positive")
    if any(not b.is_countable() for b in bounds_list):
        raise ValueError("brute-force search is for countable bounds only")
    for delta in _candidate_lattice(bounds_list):
        if natsum_expressible(delta, bounds_list) is None:
            return delta
    raise AssertionError("the scan always meets a non-expressible ordinal")


def _step_down(x: Ordinal) -> List[Ordinal]:
    # one coefficient decremented at each position; all strictly below x
    out = []
    for j, (e, c) in enumerate(x.monomials):
        mid = ((e, c - 1),) if c > 1 else ()
        out.append(Ordinal(x.monomials[:j] + mid + x.monomials[j + 1:]))
    return out


def mr_sum_bruteforce_check(bounds_list, candidate, sample_count: int) -> bool:
    """Exact non-expressibility of the candidate, plus expressibility of
    everything sampled below it: all ordinals below min(candidate, 50),
    the candidate's one-step-down neighbours, and sample_count seeded
    draws of the form w^a*b + c."""
    bounds_list = [_coerce(b) for b in bounds_list]
    candidate = _coerce(candidate)
    if any(b.is_zero() for b in bounds_list):
        raise ZeroInput("bounds must be positive")
    if natsum_expressible(candidate, bounds_list) is not None:
        return False

    small = int(candidate) if candidate.is_finite() else 50
    for n in range(min(small, 50)):
        if natsum_expressible(from_int(n), bounds_list) is None:
            return False

    for probe in _step_down(candidate):
        if natsum_expressible(probe, bounds_list) is None:
            return False

    exp_pool = sorted({ZERO} | {
        exponent_ordinal(e)
        for x in [candidate, *bounds_list] for e, _ in x.monomials})
    rng = random.Random(1729)
    for _ in range(sample_count):
        a = rng.choice(exp_pool)
        b = rng.randint(1, 5)
        c = rng.randint(0, 4)
        delta = add(mul(omega_pow(a), from_int(b)), from_int(c))
        if delta < candidate and \
                natsum_expressible(delta, bounds_list) is None:
            return False
    return True


# -- closed-formula cross-checks -------------------------------------------------


def _merge_natural_sum(parts: Sequence[Ordinal]) -> Ordinal:
    counts: Dict = {}
    for x in parts:
        for e, c in x.monomials:
            eo = exponent_ordinal(e)
            counts[eo] = counts.get(eo, 0) + c
    monos = sorted(counts.items(),
                   key=cmp_to_key(lambda u, v: compare(u[0], v[0])),
                   reverse=True)
    return Ordinal(tuple(monos))


def _as_power(t: Ordinal) -> Optional[Ordinal]:
    if t.is_finite() or not is_power_of_omega(t):
        return None
    return exponent_ordinal(t.leading_exponent())


def _as_successor_power(t: Ordinal) -> Optional[Ordinal]:
    ms = t.monomials
    if len(ms) == 2 and ms[0][1] == 1 and ms[1] == (ZERO, 1):
        return exponent_ordinal(ms[0][0])
    return None


def _as_simple_multiple(t: Ordinal) -> Optional[tuple]:
    # w-bar[alpha, m]: the finite m for alpha = 0, else w^alpha*m + 1
    if t.is_finite() and not t.is_zero():
        return ZERO, int(t)
    ms = t.monomials
    if len(ms) == 2 and ms[1] == (ZERO, 1):
        return exponent_ordinal(ms[0][0]), ms[0][1]
    return None


def _omega_bar(alpha: Ordinal, m: int) -> Ordinal:
    if alpha.is_zero():
        return from_int(m)
    return add(mul(omega_pow(alpha), from_int(m)), ONE)


def _family_values(flat: List[Ordinal]) -> List[Ordinal]:
    values = []
    succs = [_as_successor_power(t) for t in flat]
    if all(a is not None and not a.is_zero() for a in succs):
        values.append(add(omega_pow(_merge_natural_sum(succs)), ONE))
    powers = [_as_power(t) for t in flat]
    if all(a is not None for a in powers):
        values.append(omega_pow(bruteforce_mr_sum(powers)))
    mixed = [p if p is not None else s
             for p, s in zip(powers,
                             [None if a is None or a.is_zero()
                              else add(a, ONE) for a in succs])]
    if all(a is not None for a in mixed) and any(p is not None for p in powers):
        values.append(omega_pow(bruteforce_mr_sum(mixed)))
    multiples = [_as_simple_multiple(t) for t in flat]
    if all(d is not None for d in multiples):
        alpha = _merge_natural_sum([a for a, _ in multiples])
        m = sum(mi - 1 for _, mi in multiples) + 1
        values.append(_omega_bar(alpha, m))
    return values


def cross_check_p_top(grid: Sequence[Instance]) -> List[dict]:
    """Compare the case-tree value with every independent sub-family
    formula that applies; one report entry per disagreement."""
    report = []
    for inst in grid:
        flat: List[Ordinal] = []
        for target, count in inst.entries:
            if not count.is_finite():
                raise ValueError("cross-check grids use finite colour counts")
            flat.extend([target] * count.size)
        if not all(t.is_countable() for t in flat):
            raise ValueError("cross-check grids use countable targets")
        result = p_top(inst)
        actual = result.value if isinstance(result, Exists) else None
        for expected in _family_values(flat):
            if actual != expected:
                report.append({"instance": inst, "expected": expected,
                               "actual": actual})
    return report
