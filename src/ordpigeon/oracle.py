"""Desk-scale oracles that recompute answers by brute force.

Nothing here names mr_sum, mr_sum_counted, natural_sum, p_ord, cb_rank,
case6_decompose, minimal_omega_power_bound, classify or analyze, and no
search prunes on the answer it checks, so agreement is evidence rather
than tautology.  A finite ordinal is discrete, so a colour class holds a
copy of a finite t exactly when it has t points or more: finite arrows
search the class sizes a colouring can have.  Milner-Rado sums come from an
ascending scan for the least non-expressible ordinal, each scan asking
one witness.NatsumSplitter yes or no per candidate; the cross-check
formulas are written out independently.  The Milner-Rado check builds
what it asks with the kernel's unchecked builder, with no arithmetic,
and asks each distinct seeded draw once.  Its finite probes 0..49 are
the kernel's shared nodes, and its seeded draws, which depend only on
the exponent pool's size and the sample count, are kept as (pool index,
b, c) ints in a small LRU; no answer, splitter or table of merged bounds
outlives a scan.

Enumerations are ascending by construction: with exponents descending
and coefficients rising, product order is ordinal order.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from functools import cmp_to_key, lru_cache
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from .engine import Exists, Instance, p_top
from .ordinal import (
    ONE,
    Ordinal,
    Record,
    ZERO,
    ZeroInput,
    _FINITE,
    _build,
    _coerce,
    add,
    compare,
    from_int,
    is_power_of_omega,
    mul,
    omega_pow,
)
from .witness import NatsumSplitter

COLOURING_GUARD = 30_000_000


class TooLarge(ValueError):
    """The search space exceeds the exhaustive-enumeration guard."""


# -- finite arrows by class sizes ---------------------------------------------


def finite_arrow_check(beta: int, targets: Sequence[int]) -> bool:
    """True iff every colouring of beta points in len(targets) colours
    gives some colour i a copy of targets[i].  A finite ordinal is a
    discrete space, so a class holds a copy of t exactly when it has at
    least t points, and a colouring matters only through its class
    sizes, which add up to beta.  The relation therefore fails exactly
    when sizes c_i < targets[i] add up to beta; the totals such sizes
    reach are built colour by colour, never above beta.

    The guard bounds that work.  Each colour's step takes the totals
    reached so far, at most the beta + 1 values 0..beta, each to s + c
    for every c < min(t, beta + 1 - s) <= min(t, beta + 1), so it makes
    at most (beta + 1) * min(t, beta + 1) set insertions; above
    COLOURING_GUARD insertions in all the check raises TooLarge."""
    if type(beta) is not int or any(type(t) is not int for t in targets):
        raise TypeError("beta and all targets must be ints")
    if beta < 1 or not targets or any(t < 1 for t in targets):
        raise ZeroInput("beta and all targets must be positive")
    k = len(targets)
    if k == 1:
        return beta >= targets[0]
    steps = (beta + 1) * sum(min(t, beta + 1) for t in targets)
    if steps > COLOURING_GUARD:
        raise TooLarge(f"{steps} search steps exceed the guard")
    totals = {0}
    for t in targets:
        totals = {s + c for s in totals for c in range(min(t, beta + 1 - s))}
    return beta not in totals


# -- bounded enumeration of countable normal forms -----------------------------


class EnumerationBounds(Record):
    __slots__ = ("max_exponent", "max_coefficient", "max_monomials")

    def __init__(self, max_exponent: Ordinal, max_coefficient: int,
                 max_monomials: int):
        max_exponent = _coerce(max_exponent)
        if not max_exponent.is_countable():
            raise ValueError("enumeration is for countable ordinals only")
        if type(max_coefficient) is not int or type(max_monomials) is not int:
            raise TypeError("coefficient and monomial bounds must be ints")
        if max_coefficient < 1 or max_monomials < 1:
            raise ValueError("coefficient and monomial bounds must be positive")
        self._init(max_exponent, max_coefficient, max_monomials)


def _terms_over(exponents: List[Ordinal], bounds: EnumerationBounds):
    # exponents descending.  The terms over exponents[i:] in product order
    # are those without e_i, then e_i*c ahead of each shorter one, c rising;
    # each head and each list of shorter tails is made once per exponent
    coeffs = range(1, bounds.max_coefficient + 1)
    tails = [()]
    for e in reversed(exponents):
        roomy = [t for t in tails if len(t) < bounds.max_monomials]
        tails += [head + t for head in [((e, c),) for c in coeffs]
                  for t in roomy]
    return [_build(t) for t in tails]


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


def _natural_sum_by_table(parts: Sequence[Ordinal]) -> Ordinal:
    # coefficients gathered per exponent in a table and sorted, where the
    # kernel's natural_sum merges
    sums: Dict = {}
    for x in parts:
        for e, c in x.monomials:
            sums[e] = sums.get(e, 0) + c
    return _build(tuple(sorted(
        sums.items(), key=cmp_to_key(lambda u, v: compare(u[0], v[0])),
        reverse=True)))


def _candidate_lattice(bounds_list: Sequence[Ordinal]) -> List[Ordinal]:
    # the least non-expressible ordinal only needs the bounds' exponents,
    # with coefficients at most the column sums; each column's monomials
    # are made once, None standing for coefficient 0
    columns = [[None] + [(e, c) for c in range(1, s + 1)]
               for e, s in _natural_sum_by_table(bounds_list).monomials]
    return [_build(tuple(filter(None, pick))) for pick in product(*columns)]


def bruteforce_mr_sum(bounds_list) -> Ordinal:
    """The least ordinal that is not a natural sum of parts strictly
    below the bounds, found by scanning candidates in order."""
    bounds_list = [_coerce(b) for b in bounds_list]
    if not bounds_list or any(b.is_zero() for b in bounds_list):
        raise ZeroInput("bounds must be positive")
    if any(not b.is_countable() for b in bounds_list):
        raise ValueError("brute-force search is for countable bounds only")
    splitter = NatsumSplitter(bounds_list)
    for delta in _candidate_lattice(bounds_list):
        if not splitter.splits(delta):
            return delta
    raise AssertionError("the scan always meets a non-expressible ordinal")


def _step_down(x: Ordinal) -> List[Ordinal]:
    # one coefficient decremented at each position; all strictly below x
    out = []
    for j, (e, c) in enumerate(x.monomials):
        mid = ((e, c - 1),) if c > 1 else ()
        out.append(_build(x.monomials[:j] + mid + x.monomials[j + 1:]))
    return out


@lru_cache(maxsize=32)
def _seeded_draws(pool_size: int,
                  sample_count: int) -> Tuple[Tuple[int, int, int], ...]:
    # the distinct draws w^a*b + c of Random(1729) as (pool index, b, c),
    # in first-draw order.  Index 0 is ZERO, the least of the sorted
    # pool: a finite draw b + c < 50 is among the finite probes when it is
    # below the candidate.  There are 25 triples per other index, so the
    # draws stop once all of them are seen
    rng = random.Random(1729)
    indices = range(pool_size)
    seen: Dict[Tuple[int, int, int], None] = {}
    for _ in range(sample_count):
        if len(seen) == 25 * (pool_size - 1):
            break
        i = rng.choice(indices)
        b = rng.randint(1, 5)
        c = rng.randint(0, 4)
        if i:
            seen[i, b, c] = None
    return tuple(seen)


def mr_sum_bruteforce_check(bounds_list, candidate, sample_count: int) -> bool:
    """Exact non-expressibility of the candidate, plus expressibility of
    everything sampled below it: all ordinals below min(candidate, 50),
    the candidate's one-step-down neighbours, and sample_count seeded
    draws of the form w^a*b + c, each distinct one asked once.  The
    draws are made once per exponent pool size and sample count and kept
    as pool positions; the ordinals asked are built per call."""
    if type(sample_count) is not int or sample_count < 0:
        raise ValueError(f"sample_count must be an int >= 0, "
                         f"not {sample_count!r}")
    splitter = NatsumSplitter(bounds_list)
    bounds_list = splitter.bounds
    candidate = _coerce(candidate)
    if splitter.splits(candidate):
        return False

    small = min(int(candidate), 50) if candidate.is_finite() else 50
    for probe in _FINITE[:small]:
        if not splitter.splits(probe):
            return False

    for probe in _step_down(candidate):
        if not splitter.splits(probe):
            return False

    exp_pool = sorted({ZERO} | {
        e for x in [candidate, *bounds_list] for e, _ in x.monomials})
    for i, b, c in _seeded_draws(len(exp_pool), sample_count):
        a = exp_pool[i]
        delta = _build(((a, b), (ZERO, c)) if c else ((a, b),))
        if compare(delta, candidate) < 0 and not splitter.splits(delta):
            return False
    return True


# -- closed-formula cross-checks -------------------------------------------------


def _as_power(t: Ordinal) -> Optional[Ordinal]:
    if t.is_finite() or not is_power_of_omega(t):
        return None
    return t.leading_exponent()


def _as_successor_power(t: Ordinal) -> Optional[Ordinal]:
    ms = t.monomials
    if len(ms) == 2 and ms[0][1] == 1 and ms[1] == (ZERO, 1):
        return ms[0][0]
    return None


def _as_simple_multiple(t: Ordinal) -> Optional[tuple]:
    # w-bar[alpha, m]: the finite m for alpha = 0, else w^alpha*m + 1
    if t.is_finite() and not t.is_zero():
        return ZERO, int(t)
    ms = t.monomials
    if len(ms) == 2 and ms[1] == (ZERO, 1):
        return ms[0][0], ms[0][1]
    return None


def _omega_bar(alpha: Ordinal, m: int) -> Ordinal:
    if alpha.is_zero():
        return from_int(m)
    return add(mul(omega_pow(alpha), from_int(m)), ONE)


def _family_values(flat: List[Ordinal]) -> List[Ordinal]:
    values = []
    succs = [_as_successor_power(t) for t in flat]
    if all(a is not None and not a.is_zero() for a in succs):
        values.append(add(omega_pow(_natural_sum_by_table(succs)), ONE))
    # the powers family w^a and the mixed one, where a successor power
    # w^d + 1 enters as the exponent d + 1: one scan, since on a list of
    # powers alone the two families ask the same bounds
    powers = [_as_power(t) for t in flat]
    mixed = [p if p is not None else None if a is None or a.is_zero()
             else add(a, ONE) for p, a in zip(powers, succs)]
    if all(a is not None for a in mixed) and any(p is not None for p in powers):
        values.append(omega_pow(bruteforce_mr_sum(mixed)))
    multiples = [_as_simple_multiple(t) for t in flat]
    if all(d is not None for d in multiples):
        alpha = _natural_sum_by_table([a for a, _ in multiples])
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
