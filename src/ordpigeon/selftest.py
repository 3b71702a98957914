"""Acceptance grids, one callable per criterion.

Shared by `ordpigeon selftest` and tests/test_acceptance.py so there is
exactly one definition of what passing means.  Each criterion reports a
single pass/fail line with its elapsed time against a fixed budget;
randomized grids use fixed seeds.  A grid returns only its pass detail:
every check fails through _check, which names the law and the operands
it failed at, and a crash reads "raised ..." in the detail.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import time
from typing import Callable, List, Optional

from .engine import (
    Exists,
    Independent,
    Infinite,
    Instance,
    NormalizedInstance,
    RelationVerdict,
    analyze,
    normalize,
    p_top,
    relation_holds,
)
from .oracle import (
    EnumerationBounds,
    enumerate_ordinals_below,
    finite_arrow_check,
    mr_sum_bruteforce_check,
    cross_check_p_top,
)
from .ordinal import (
    Cardinal,
    ONE,
    OMEGA,
    OMEGA1,
    OMEGA2,
    Ordinal,
    Record,
    ZERO,
    _build,
    add,
    biembed_canonical,
    cb_rank,
    cofinality,
    compare,
    from_int,
    initial_ordinal,
    is_order_reinforcing,
    is_power_of_omega,
    leading_decomposition,
    left_subtract,
    mr_sum,
    mul,
    natural_sum,
    omega_pow,
    p_ord,
)
from .witness import (CertKind, build_counterexample, natsum_expressible,
                      verify_certificates)

w = OMEGA


class CriterionResult(Record):
    __slots__ = ("number", "title", "ok", "detail", "elapsed", "limit")

    def line(self) -> str:
        status = "pass" if self.ok else "FAIL"
        return (f"[{status}] {self.number}. {self.title}: {self.detail} "
                f"({self.elapsed:.2f}s, budget {self.limit:g}s)")


class _LawFailed(Exception):
    """A checked law does not hold; its text names the law and operands."""


def _check(holds: bool, law: str, **operands) -> None:
    # a plain test and raise, which python -O does not strip
    if not holds:
        at = ", ".join(f"{name}={value}" for name, value in operands.items())
        raise _LawFailed(f"{law} failed at {at}" if at else f"{law} failed")


def _run(number: int, title: str, limit: float,
         grid: Callable[[], str]) -> CriterionResult:
    start = time.monotonic()
    try:
        ok, detail = True, grid()
    except _LawFailed as exc:
        ok, detail = False, str(exc)
    except Exception as exc:  # a crash is a failure, not an abort
        ok, detail = False, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.monotonic() - start
    if ok and elapsed >= limit:
        ok, detail = False, detail + f"; exceeded {limit:g}s budget"
    return CriterionResult(number, title, ok, detail, elapsed, limit)


# -- 1: regression table -------------------------------------------------------


def criterion_1() -> CriterionResult:
    def grid():
        for k in range(1, 7):
            got = p_top(Instance.of((add(w, 1), k)))
            _check(got == Exists(add(omega_pow(k), 1)),
                   "p_top((w+1) x k) == w^k+1", k=k, got=got)
        return "p_top((w+1) x k) = w^k+1 for k=1..6"
    return _run(1, "successor-of-omega table", 1.0, grid)


# -- 2: doubling family --------------------------------------------------------


def criterion_2() -> CriterionResult:
    def grid():
        for a in [ZERO, ONE, from_int(2), w]:
            for m in range(4):
                target = omega_pow(mul(omega_pow(a), m + 1))
                expected = omega_pow(mul(omega_pow(a), 2 * m + 1))
                got = p_top(Instance.of((target, 2)))
                _check(got == Exists(expected),
                       "p_top(w^(w^a*(m+1)) x 2) == w^(w^a*(2m+1))",
                       a=a, m=m, got=got)
        return "w^(w^a*(2m+1)) doubles w^(w^a*(m+1)), 16 cells"
    return _run(2, "Baumgartner doubling family", 1.0, grid)


# -- 3: desk-scale fixed points ------------------------------------------------


def _is_omega_power_tower(a: Ordinal) -> bool:
    # a = w^(w^b): a power of w whose exponent is a power of w
    return (is_power_of_omega(a) and not a.is_finite()
            and is_power_of_omega(a.leading_exponent()))


def criterion_3() -> CriterionResult:
    def grid():
        terms = enumerate_ordinals_below(EnumerationBounds(omega_pow(2), 2, 10))
        _check(len(terms) == 59049, "the enumeration has 59049 terms",
               terms=len(terms))
        fixed = 0
        for a in terms:
            if a < from_int(2):
                continue
            is_fixed = p_top(Instance.of((a, 2))) == Exists(a)
            _check(is_fixed == _is_omega_power_tower(a),
                   "p_top(alpha x 2) == alpha exactly for alpha = w^(w^b)",
                   alpha=a, fixed=is_fixed)
            fixed += is_fixed
        return f"{fixed} fixed points among 59047 candidates"
    return _run(3, "two-colour fixed points at desk scale", 10.0, grid)


# -- 4: Milner-Rado oracle equivalence ------------------------------------------


def _predecessor(x: Ordinal) -> Optional[Ordinal]:
    if not x.is_successor():
        return None
    ms = x.monomials
    tail = ((ZERO, ms[-1][1] - 1),) if ms[-1][1] > 1 else ()
    return _build(ms[:-1] + tail)


def _random_mr_bound(rng: random.Random) -> Ordinal:
    # a couple of monomials with exponents below w^2, coefficients <= 3
    exps = rng.sample([(a, b) for a in range(3) for b in range(3)],
                      rng.randint(1, 2))
    exps.sort(reverse=True)
    out = ZERO
    for a, b in exps:
        e = add(mul(w, a), b)
        out = add(out, mul(omega_pow(e), rng.randint(1, 3)))
    return out if not out.is_zero() else ONE


def criterion_4() -> CriterionResult:
    def grid():
        rng = random.Random(404)
        checked = tampered = 0
        for _ in range(200):
            bounds = [_random_mr_bound(rng), _random_mr_bound(rng)]
            true_sum = mr_sum(bounds)
            _check(mr_sum_bruteforce_check(bounds, true_sum, 50),
                   "the oracle accepts mr_sum(bounds)", bounds=bounds)
            checked += 1
            _check(not mr_sum_bruteforce_check(bounds, add(true_sum, 1), 50),
                   "the oracle rejects mr_sum(bounds)+1", bounds=bounds)
            tampered += 1
            down = _predecessor(true_sum)
            if down is not None:
                _check(not mr_sum_bruteforce_check(bounds, down, 50),
                       "the oracle rejects the predecessor of mr_sum(bounds)",
                       bounds=bounds)
                tampered += 1
        return f"{checked} pairs verified, {tampered} tampers rejected"
    return _run(4, "Milner-Rado oracle equivalence", 60.0, grid)


# -- 5: finite pigeonhole, exhaustive -------------------------------------------


def criterion_5() -> CriterionResult:
    def grid():
        cells = 0
        for k in range(1, 4):
            for targets in itertools.product(range(1, 11), repeat=k):
                if sum(targets) > 10:
                    continue
                threshold = sum(t - 1 for t in targets) + 1
                inst = Instance.of(*((from_int(t), 1) for t in targets))
                _check(p_top(inst) == Exists(from_int(threshold)),
                       "p_top(targets) == sum(t-1)+1", targets=targets)
                _check(finite_arrow_check(threshold, list(targets)),
                       "the arrow holds at sum(t-1)+1", targets=targets)
                _check(threshold == 1 or not finite_arrow_check(
                           threshold - 1, list(targets)),
                       "the arrow fails below sum(t-1)+1", targets=targets)
                cells += 1
        return f"{cells} target lists, three-way agreement"
    return _run(5, "finite pigeonhole equivalence", 120.0, grid)


# -- 6: link-formula consistency -------------------------------------------------


def _link_grid() -> List[Instance]:
    succ_exps = [ONE, from_int(2), from_int(3), w, add(w, 1)]
    power_exps = [ONE, from_int(2), w, add(w, 1), omega_pow(2)]
    grid: List[Instance] = []
    for a in succ_exps:
        for b in succ_exps:
            grid.append(Instance.of((add(omega_pow(a), 1), 1),
                                    (add(omega_pow(b), 1), 1)))
    for a in power_exps:
        for b in power_exps:
            grid.append(Instance.of((omega_pow(a), 1), (omega_pow(b), 1)))
    for a in [ONE, from_int(2), w, add(w, 2), mul(w, 2)]:
        for d in [ONE, from_int(3), w, add(w, 1), omega_pow(2)]:
            grid.append(Instance.of((omega_pow(a), 1),
                                    (add(omega_pow(d), 1), 1)))
    shapes = [(ZERO, 2), (ZERO, 5), (ONE, 3), (from_int(2), 2), (w, 2)]
    for a, m in shapes:
        for b, n in shapes:
            lhs = from_int(m) if a.is_zero() else add(mul(omega_pow(a), m), 1)
            rhs = from_int(n) if b.is_zero() else add(mul(omega_pow(b), n), 1)
            grid.append(Instance.of((lhs, 1), (rhs, 1)))
    return grid


def criterion_6() -> CriterionResult:
    def grid():
        instances = _link_grid()
        _check(len(instances) == 100, "the grid has 100 instances",
               instances=len(instances))
        report = cross_check_p_top(instances)
        _check(not report, "cross_check_p_top(grid) is empty",
               mismatches=len(report), first=report[:1])
        return "100 instances, empty mismatch report"
    return _run(6, "link-formula consistency", 30.0, grid)


# -- 7: witness round trip --------------------------------------------------------


def _witness_grid() -> List[Instance]:
    finite_lists = [
        (2, 2), (3, 2), (3, 3), (4, 2), (4, 4), (5, 3), (2, 2, 2),
        (3, 2, 2), (4, 3, 2), (5, 2, 2), (6, 3), (7, 2), (8, 2),
        (9, 9), (2, 3, 4), (10,),
    ]
    grid = [Instance.of(*((from_int(t), 1) for t in ts))
            for ts in finite_lists]
    wp = omega_pow
    plain = [
        # no exact multiple dominates: value w^G*M + 1
        (add(mul(w, 2), 1), add(mul(w, 3), 1)),
        (add(mul(w, 2), 1), from_int(3)),
        (add(mul(wp(2), 2), 3), add(mul(w, 2), 1)),
        (add(mul(w, 4), 1), add(mul(w, 2), 5)),
        (add(mul(wp(2), 3), 1), add(mul(wp(2), 2), 1)),
        (add(mul(wp(w), 2), 1), add(mul(w, 2), 1)),
        (add(w, 5), add(w, 5)),
        (add(mul(wp(3), 2), w), from_int(4)),
        (add(mul(w, 3), 2), add(mul(w, 3), 2)),
        (add(mul(wp(2), 2), 1), from_int(2), from_int(2)),
        (add(mul(w, 2), 1), add(mul(w, 2), 1), add(mul(w, 2), 1)),
        (add(mul(wp(add(w, 1)), 2), 1), add(w, 1)),
        (add(mul(wp(2), 5), mul(w, 3)), add(mul(w, 2), 1)),
        (add(mul(w, 9), 1), from_int(9)),
        (add(mul(wp(4), 2), 1), add(mul(wp(2), 2), 1)),
        (add(mul(wp(2), 2), w), add(mul(wp(2), 2), w)),
        (add(mul(w, 2), 1), add(mul(w, 2), 2), from_int(3)),
    ]
    grid.extend(Instance.of(*((t, 1) for t in ts)) for ts in plain)
    exact = [
        # a distinguished exact multiple: value w^G*(m+1)
        ((mul(w, 2), 2),),
        ((mul(w, 3), 1),),
        ((mul(wp(2), 3), 1),),
        ((mul(w, 2), 1), (add(w, 1), 1)),
        ((mul(wp(2), 2), 1), (add(w, 1), 1)),
        ((mul(w, 4), 1), (add(mul(w, 1), 1), 1)),
        ((mul(wp(3), 2), 1), (add(wp(2), 1), 1)),
        ((mul(w, 2), 3),),
        ((mul(wp(2), 4), 1), (add(mul(wp(2), 1), 1), 1)),
        ((mul(w, 5), 1), (add(w, 1), 2)),
        ((mul(wp(w), 2), 1), (add(w, 1), 1)),
        ((mul(w, 2), 1), (mul(w, 2), 1)),
        ((mul(wp(2), 2), 1), (add(wp(w), 1), 1)),
        ((mul(w, 7), 1),),
        ((mul(wp(2), 2), 2),),
        ((mul(w, 3), 1), (add(w, 1), 1), (add(w, 1), 1)),
        ((mul(wp(add(w, 2)), 2), 1), (add(w, 1), 1)),
    ]
    grid.extend(Instance.of(*entries) for entries in exact)
    return grid


def _maximal_failing(value: Ordinal) -> Ordinal:
    # P = w^g*m + 1 fails last at w^g*m; P = w^g*(m+1) fails last at w^g*m + 1
    if value.is_successor():
        return _predecessor(value)
    ms = value.monomials
    if ms[0][1] == 1:
        raise ValueError(f"{value} has no largest failing point")
    return add(_build(((ms[0][0], ms[0][1] - 1),)), 1)


_KINDS = list(CertKind)
_TAMPERS = [
    ("colour", lambda v: v + 1),
    ("kind", lambda v: _KINDS[(_KINDS.index(v) + 1) % len(_KINDS)]),
    ("claimed_target", lambda v: add(v, 1)),
    ("level", lambda v: ZERO if v is None else add(v, 1)),
    ("bound", lambda v: 1 if v is None else v + 1),
    ("class_residual", lambda v: ONE if v is None else add(v, 1)),
    ("target_residual", lambda v: ONE if v is None else add(v, 1)),
]


def _tamper_all(col, norm, certs) -> Optional[str]:
    certs = tuple(certs)
    for j, cert in enumerate(certs):
        for field, bump in _TAMPERS:
            broken = dataclasses.replace(
                cert, **{field: bump(getattr(cert, field))})
            mutated = certs[:j] + (broken,) + certs[j + 1:]
            if verify_certificates(col, norm, mutated):
                return f"tampering {field} of certificate {j} not caught"
    shifted = dataclasses.replace(
        col, top_point_colours=tuple(c + 1 for c in col.top_point_colours))
    if col.top_point_colours and verify_certificates(shifted, norm, certs):
        return "tampering top point colours not caught"
    return None


def criterion_7() -> CriterionResult:
    def grid():
        instances = _witness_grid()
        _check(len(instances) == 50, "the grid has 50 instances",
               instances=len(instances))
        verified = tampers = 0
        for inst in instances:
            result = p_top(inst)    # walks the case tree; normalize reuses it
            norm = normalize(inst)
            _check(isinstance(norm, NormalizedInstance),
                   "normalize(inst) is a NormalizedInstance", inst=inst)
            _check(isinstance(result, Exists), "p_top(inst) is Exists",
                   inst=inst)
            beta = _maximal_failing(result.value)
            col, certs = build_counterexample(beta, norm)
            _check(verify_certificates(col, norm, certs),
                   "the witness below p_top verifies", inst=inst, beta=beta)
            verified += 1
            complaint = _tamper_all(col, norm, certs)
            _check(complaint is None, "every tamper is caught", inst=inst,
                   complaint=complaint)
            tampers += len(certs) * len(_TAMPERS)
        return f"{verified} witnesses verified, {tampers} tampers caught"
    return _run(7, "witness round trip at the maximal failing ordinal",
                30.0, grid)


# -- 8: uncountable and independence behaviour -----------------------------------


def criterion_8() -> CriterionResult:
    def grid():
        got = p_top(Instance.of((add(OMEGA1, 1), 1), (add(w, 1), 1)))
        _check(got == Infinite(), "p_top(w_1+1, w+1) is Infinite", got=got)
        for n in (2, 17):
            got = p_top(Instance.of((OMEGA1, 1), (from_int(n), 1)))
            _check(got == Exists(OMEGA1), "p_top(w_1, n) == w_1", n=n, got=got)
        got = p_top(Instance.of((from_int(2), Cardinal.aleph(0))))
        _check(got == Exists(OMEGA1), "p_top(2 x aleph_0) == w_1", got=got)
        got = p_top(Instance.of((OMEGA1, 2)))
        _check(isinstance(got, Independent) and got.zfc_lower == OMEGA2,
               "p_top(w_1 x 2) is Independent above w_2", got=got)
        notes = [getattr(got, name) for name in got.NOTES]
        _check(all(isinstance(n, str) and n for n in notes),
               "each consistency note is a non-empty string")
        return "infinite, w_1, successor-cardinal and independence " \
               "answers with all three notes"
    return _run(8, "uncountable and independence behaviour", 1.0, grid)


# -- 9: randomized property suites ------------------------------------------------


def _random_countable(rng: random.Random, depth: int = 2) -> Ordinal:
    if depth == 0 or rng.random() < 0.25:
        return from_int(rng.randint(0, 6))
    out = ZERO
    for _ in range(rng.randint(1, 3)):
        e = _random_countable(rng, depth - 1)
        out = add(out, mul(omega_pow(e), rng.randint(1, 3)))
    return out


_UNCOUNTABLE_POOL = (
    OMEGA1,
    add(OMEGA1, 1),
    OMEGA2,
    mul(OMEGA1, 2),
    add(mul(OMEGA1, 2), 5),
    omega_pow(add(OMEGA1, 1)),
    initial_ordinal(add(w, 1)),
)


def _random_target(rng: random.Random) -> Ordinal:
    r = rng.random()
    if r < 0.55:
        a = _random_countable(rng)
        return a if a >= from_int(2) else add(a, 2)
    if r < 0.75:
        return from_int(rng.randint(2, 9))
    if r < 0.88:
        return rng.choice((w, omega_pow(2), omega_pow(w), add(w, 1)))
    return rng.choice(_UNCOUNTABLE_POOL)


def _random_count(rng: random.Random) -> Cardinal:
    r = rng.random()
    if r < 0.85:
        return Cardinal.finite(rng.randint(1, 3))
    if r < 0.95:
        return Cardinal.aleph(0)
    return Cardinal.aleph(1)


def _raise_target(rng: random.Random, t: Ordinal) -> Ordinal:
    r = rng.random()
    if r < 0.5:
        return add(t, rng.randint(1, 3))
    if r < 0.8:
        return mul(t, w)
    bigger = [u for u in _UNCOUNTABLE_POOL if u > t]
    return rng.choice(bigger) if bigger else mul(t, OMEGA1)


def _verdict_le(lo, hi) -> bool:
    if isinstance(hi, Infinite):
        return True
    if isinstance(lo, Infinite):
        return False
    if isinstance(lo, Exists):
        return lo.value <= (hi.value if isinstance(hi, Exists)
                            else hi.zfc_lower)
    return isinstance(hi, Independent) and lo.zfc_lower <= hi.zfc_lower


def _rank_shape_ok(value: Ordinal) -> bool:
    ms = value.monomials    # a C2b, C2c, C4 or C6 value: w^g*m (+ 1)
    return len(ms) == 1 or len(ms) == 2 and ms[1] == (ZERO, 1)


def _algebra_suite(iterations: int) -> str:
    rng = random.Random(909)
    for i in range(iterations):
        a = _random_countable(rng)
        b = _random_countable(rng)
        c = _random_countable(rng)
        _check(add(add(a, b), c) == add(a, add(b, c)),
               "(a+b)+c == a+(b+c)", a=a, b=b, c=c)
        _check(add(a, ZERO) == a and add(ZERO, a) == a,
               "a+0 == a == 0+a", a=a)
        _check(compare(a, add(a, b)) <= 0, "a <= a+b", a=a, b=b)
        _check(left_subtract(a, add(a, b)) == b,
               "left_subtract(a, a+b) == b", a=a, b=b)
        _check(mul(mul(a, b), c) == mul(a, mul(b, c)),
               "(a*b)*c == a*(b*c)", a=a, b=b, c=c)
        _check(mul(a, ONE) == a and mul(ONE, a) == a,
               "a*1 == a == 1*a", a=a)
        _check(mul(a, add(b, c)) == add(mul(a, b), mul(a, c)),
               "a*(b+c) == a*b+a*c", a=a, b=b, c=c)
        _check(natural_sum(a, b) == natural_sum(b, a),
               "natural_sum(a, b) == natural_sum(b, a)", a=a, b=b)
        _check(natural_sum(natural_sum(a, b), c)
               == natural_sum(a, natural_sum(b, c)),
               "natural_sum(natural_sum(a, b), c) == "
               "natural_sum(a, natural_sum(b, c))", a=a, b=b, c=c)
        _check(natural_sum(a, b) >= add(a, b),
               "natural_sum(a, b) >= a+b", a=a, b=b)
        bigger = add(b, rng.randint(1, 3))
        _check(natural_sum(a, b) < natural_sum(a, bigger),
               "natural_sum(a, b) < natural_sum(a, bigger)",
               a=a, b=b, bigger=bigger)
        g = _random_countable(rng, 1)
        m = rng.randint(1, 4)
        _check(cb_rank(mul(omega_pow(g), m)) == g,
               "cb_rank(w^g*m) == g", g=g, m=m)
        if not a.is_zero():
            _check(cb_rank(a) <= a.leading_exponent(),
                   "cb_rank(a) <= leading exponent of a", a=a)
        if a > ONE:
            _check(cofinality(cofinality(a)) == cofinality(a),
                   "cofinality(cofinality(a)) == cofinality(a)", a=a)
        if not a.is_zero():
            canon = biembed_canonical(a)
            _check(biembed_canonical(canon) == canon and canon <= a,
                   "biembed_canonical(a) is a fixed point at most a", a=a)
            ga, ma, _ = leading_decomposition(a)
            gc, mc, _ = leading_decomposition(canon)
            _check((ga, ma) == (gc, mc),
                   "biembed_canonical(a) keeps the leading g and m", a=a)
            ms = a.monomials
            syntactic = (a.is_finite()
                         or (len(ms) == 1 and ms[0][1] == 1)
                         or (len(ms) == 2 and ms[1] == (ZERO, 1)))
            _check(is_order_reinforcing(a) == syntactic,
                   "is_order_reinforcing(a) == its syntactic test", a=a)
        parts = [x for x in (a, b, c) if not x.is_zero()] or [ONE]
        v = mr_sum(parts)
        shuffled = parts[:]
        rng.shuffle(shuffled)
        _check(mr_sum(shuffled) == v, "mr_sum(shuffled) == mr_sum(parts)",
               parts=parts, shuffled=shuffled)
        _check(mr_sum(parts + [ONE]) == v,
               "mr_sum(parts + [1]) == mr_sum(parts)", parts=parts)
        if i % 25 == 0:
            _check(natsum_expressible(v, parts) is None,
                   "mr_sum(parts) is no natural sum below parts",
                   parts=parts, v=v)
            if (down := _predecessor(v)) is not None:
                _check(natsum_expressible(down, parts) is not None,
                       "the predecessor of mr_sum(parts) is a natural sum "
                       "below parts", parts=parts, down=down)
    return f"{iterations} random draws over the arithmetic laws"


def _case_tree_suite(iterations: int) -> str:
    rng = random.Random(31337)
    cases_seen = set()
    for i in range(iterations):
        entries = [(_random_target(rng), _random_count(rng))
                   for _ in range(rng.randint(1, 3))]
        inst = Instance.of(*entries)
        analysis = analyze(inst)
        cases_seen.add(analysis.case)
        base = analysis.result
        _check(isinstance(base, (Exists, Infinite, Independent)),
               "p_top(inst) is Exists, Infinite or Independent",
               inst=inst, base=base)

        padded = Instance.of(*entries, (ONE, Cardinal.aleph(0)))
        _check(p_top(padded) == base,
               "p_top(inst + 1 x aleph_0) == p_top(inst)", inst=inst, base=base)

        shuffled = entries[:]
        rng.shuffle(shuffled)
        _check(p_top(Instance.of(*shuffled)) == base,
               "p_top(shuffled entries) == p_top(inst)",
               inst=inst, shuffled=shuffled)

        canon = Instance.of(*((biembed_canonical(t), c) for t, c in entries))
        _check(p_top(canon) == base,
               "p_top(biembed_canonical targets) == p_top(inst)",
               inst=inst, canon=canon)

        j = rng.randrange(len(entries))
        t_j = entries[j][0]
        raised_entries = list(entries)
        raised_entries[j] = (_raise_target(rng, t_j), entries[j][1])
        _check(raised_entries[j][0] > t_j, "a raised target is larger",
               target=t_j, raised=raised_entries[j][0])
        raised = p_top(Instance.of(*raised_entries))
        _check(_verdict_le(base, raised),
               "raising a target does not lower p_top",
               inst=inst, base=base, raised=raised)

        if analysis.case.value.startswith(("C2b", "C2c", "C4", "C6")):
            _check(isinstance(base, Exists) and _rank_shape_ok(base.value),
                   "the value is w^g*m or w^g*m+1", inst=inst, base=base)

        if isinstance(base, Exists):
            _check(relation_holds(base.value, inst) is RelationVerdict.HOLDS,
                   "the relation holds at p_top", inst=inst, base=base)
            above = add(base.value, rng.randint(1, 5))
            _check(relation_holds(above, inst) is RelationVerdict.HOLDS,
                   "the relation holds above p_top", inst=inst, above=above)
            below = _predecessor(base.value)
            if below is None:
                below = ONE if base.value > ONE else None
            if below is not None:
                _check(relation_holds(below, inst) is RelationVerdict.FAILS,
                       "the relation fails below p_top",
                       inst=inst, below=below)
        elif isinstance(base, Infinite):
            _check(relation_holds(OMEGA2, inst) is RelationVerdict.FAILS,
                   "the relation fails at w_2 when p_top is Infinite",
                   inst=inst)
        else:
            _check(relation_holds(OMEGA1, inst) is RelationVerdict.FAILS,
                   "the relation fails at w_1 when p_top is Independent",
                   inst=inst)
            _check(relation_holds(base.zfc_lower, inst)
                   is RelationVerdict.INDEPENDENT_UNKNOWN,
                   "the relation is independent at the ZFC lower bound",
                   inst=inst, base=base)

        if i % 8 == 0:
            exps = [e if e > ZERO else ONE
                    for e in (_random_countable(rng, 1),
                              _random_countable(rng, 1))]
            powers = Instance.of(*((omega_pow(e), 1) for e in exps))
            _check(p_top(powers) == Exists(omega_pow(p_ord(exps))),
                   "p_top(w^e for e in exps) == w^p_ord(exps)", exps=exps)
            succs = Instance.of(*((add(omega_pow(e), 1), 1) for e in exps))
            _check(p_top(succs) == Exists(add(omega_pow(natural_sum(*exps)),
                                              1)),
                   "p_top(w^e+1 for e in exps) == w^natural_sum(exps)+1",
                   exps=exps)

        if i % 50 == 0:
            degenerate = Instance.of((ZERO, 1), (OMEGA1, 2))
            _check(p_top(degenerate) == Exists(ZERO),
                   "p_top with a zero target is 0")
            _check(p_top(Instance.of((ONE, Cardinal.aleph(1)))) == Exists(ONE),
                   "p_top(1 x aleph_1) is 1")
    return f"{iterations} random instances; {len(cases_seen)} leaves hit"


def criterion_9() -> CriterionResult:
    def grid():
        return f"{_algebra_suite(10_000)}; {_case_tree_suite(10_000)}"
    return _run(9, "randomized algebra and case-tree properties", 300.0, grid)


ALL_CRITERIA = (
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9,
)


def run_all() -> List[CriterionResult]:
    return [c() for c in ALL_CRITERIA]
