"""Brute-force oracles: exhaustive colouring search, bounded enumeration,
least-counterexample Milner-Rado sums, and the closed-formula cross-check."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordpigeon.oracle as oracle_mod
from ordpigeon.engine import Exists, Instance, p_top
from ordpigeon.oracle import (
    EnumerationBounds,
    TooLarge,
    bruteforce_mr_sum,
    cross_check_p_top,
    enumerate_ordinals_below,
    finite_arrow_check,
    mr_sum_bruteforce_check,
)
from ordpigeon.ordinal import (
    ONE,
    OMEGA,
    ZERO,
    ZeroInput,
    add,
    from_int,
    mr_sum,
    mul,
    omega_pow,
)

w = OMEGA


def wp(e):
    return omega_pow(e)


# -- finite pigeonhole ---------------------------------------------------------


def test_finite_arrow_examples():
    assert finite_arrow_check(6, [3, 4]) is True
    assert finite_arrow_check(5, [3, 4]) is False
    assert finite_arrow_check(1, [1, 1]) is True


def test_finite_arrow_threshold_sweep():
    # beta -> (t_0, ..., t_{k-1}) holds exactly from sum(t_i - 1) + 1 upward
    for targets in itertools.product(range(1, 5), repeat=3):
        threshold = sum(t - 1 for t in targets) + 1
        for beta in (threshold - 1, threshold, threshold + 1):
            if beta < 1:
                continue
            assert finite_arrow_check(beta, list(targets)) == \
                (beta >= threshold)


def test_finite_arrow_single_colour():
    assert finite_arrow_check(3, [3]) is True
    assert finite_arrow_check(2, [3]) is False
    assert finite_arrow_check(10 ** 9, [10 ** 9]) is True


def test_finite_arrow_guard_and_validation():
    with pytest.raises(TooLarge):
        finite_arrow_check(25, [13, 13])
    with pytest.raises(ZeroInput):
        finite_arrow_check(0, [1])
    with pytest.raises(ZeroInput):
        finite_arrow_check(3, [2, 0])
    with pytest.raises(ZeroInput):
        finite_arrow_check(3, [])


# -- bounded enumeration -------------------------------------------------------


def test_enumerate_nine_terms():
    got = enumerate_ordinals_below(EnumerationBounds(ONE, 2, 2))
    expected = [ZERO, ONE, from_int(2), w, add(w, 1), add(w, 2),
                mul(w, 2), add(mul(w, 2), 1), add(mul(w, 2), 2)]
    assert got == expected


def test_enumerate_twentyseven_terms():
    got = enumerate_ordinals_below(EnumerationBounds(from_int(2), 2, 3))
    assert len(got) == 27
    assert got[0] == ZERO and got[-1] == add(add(mul(wp(2), 2), mul(w, 2)), 2)


@pytest.mark.parametrize("top, coeff, monos", [
    (wp(2), 2, 3), (w, 3, 2), (from_int(3), 4, 2), (add(w, 1), 3, 3),
    (wp(2), 3, 2),
], ids=["w^2-c2-m3", "w-c3-m2", "3-c4-m2", "w+1-c3-m3", "w^2-c3-m2"])
def test_enumerate_sorted_and_distinct(top, coeff, monos):
    got = enumerate_ordinals_below(EnumerationBounds(top, coeff, monos))
    assert all(a < b for a, b in zip(got, got[1:]))
    # the exponent pool E is what lies at most the bound; each term picks
    # j <= monos exponents from it and a coefficient 1..coeff for each, and
    # every case has more exponents than monos, so the monomial bound binds
    pool = [t for t in got if t <= top]
    assert len(pool) > monos
    assert len(got) == sum(math.comb(len(pool), j) * coeff ** j
                           for j in range(monos + 1))


def test_enumerate_closed_under_exponents():
    got = enumerate_ordinals_below(EnumerationBounds(w, 2, 2))
    pool = set(got)
    for t in got:
        for e, _ in t.monomials:
            assert e in pool


def test_enumeration_bounds_validation():
    from ordpigeon.ordinal import OMEGA1
    with pytest.raises(ValueError):
        EnumerationBounds(OMEGA1, 2, 2)
    with pytest.raises(ValueError):
        EnumerationBounds(w, 0, 2)
    with pytest.raises(ValueError):
        EnumerationBounds(w, 2, 0)


# -- Milner-Rado sums by scan --------------------------------------------------


def test_bruteforce_mr_small_values():
    assert bruteforce_mr_sum([add(w, 1), add(w, 1)]) == add(mul(w, 2), 1)
    assert bruteforce_mr_sum([w, w]) == w
    assert bruteforce_mr_sum([add(wp(2), w), ONE]) == add(wp(2), w)
    assert bruteforce_mr_sum([from_int(3), from_int(4)]) == from_int(6)


def test_bruteforce_mr_agrees_with_closed_formula():
    pool = [ONE, from_int(2), w, add(w, 1), mul(w, 2), wp(2),
            add(wp(2), 1), add(wp(2), w)]
    rng = random.Random(5)
    for _ in range(25):
        bounds = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        assert bruteforce_mr_sum(bounds) == mr_sum(bounds)


def test_mr_check_examples():
    assert mr_sum_bruteforce_check(
        [add(w, 1), add(w, 1)], add(mul(w, 2), 1), 40) is True
    assert mr_sum_bruteforce_check(
        [add(w, 1), add(w, 1)], mul(w, 2), 40) is False
    assert mr_sum_bruteforce_check(
        [add(wp(2), w), ONE], add(wp(2), w), 10) is True


def test_mr_check_tamper():
    pool = [add(w, 1), mul(w, 2), wp(2), add(wp(2), mul(w, 2)), from_int(3)]
    rng = random.Random(17)
    for _ in range(20):
        bounds = [rng.choice(pool) for _ in range(2)]
        true_mr = mr_sum(bounds)
        assert mr_sum_bruteforce_check(bounds, true_mr, 15) is True
        assert mr_sum_bruteforce_check(bounds, add(true_mr, 1), 15) is False
        if true_mr.is_successor():
            ms = true_mr.monomials
            down = ms[:-1] + (((ZERO, ms[-1][1] - 1),)
                              if ms[-1][1] > 1 else ())
            assert mr_sum_bruteforce_check(
                bounds, type(true_mr)(down), 15) is False


def test_mr_check_validation():
    with pytest.raises(ZeroInput):
        mr_sum_bruteforce_check([w, ZERO], w, 5)


# -- closed-formula cross-checks -----------------------------------------------


def grid_successor_powers():
    exps = [ONE, from_int(2), from_int(3), w, add(w, 1)]
    out = []
    for a in exps:
        for b in exps:
            out.append(Instance.of((add(wp(a), 1), 1), (add(wp(b), 1), 1)))
    return out


def grid_powers():
    exps = [ONE, from_int(2), w, add(w, 1), wp(2)]
    out = []
    for a in exps:
        for b in exps:
            out.append(Instance.of((wp(a), 1), (wp(b), 1)))
    return out


def grid_mixed():
    out = []
    for a in [ONE, from_int(2), w]:
        for d in [ONE, from_int(2), add(w, 1)]:
            out.append(Instance.of((wp(a), 1), (add(wp(d), 1), 1)))
    return out


def grid_multiples():
    shapes = [(ZERO, 3), (ONE, 2), (from_int(2), 3), (w, 2)]
    out = []
    for a, m in shapes:
        for b, n in shapes:
            lhs = from_int(m) if a.is_zero() else add(mul(wp(a), m), 1)
            rhs = from_int(n) if b.is_zero() else add(mul(wp(b), n), 1)
            out.append(Instance.of((lhs, 1), (rhs, 1)))
    return out


@pytest.mark.parametrize("grid", [
    grid_successor_powers(), grid_powers(), grid_mixed(), grid_multiples(),
], ids=["successor-powers", "powers", "mixed", "multiples"])
def test_cross_check_empty_report(grid):
    assert cross_check_p_top(grid) == []


def test_cross_check_three_colours():
    inst = Instance.of((wp(2), 1), (wp(w), 1), (add(w, 1), 2))
    assert cross_check_p_top([inst]) == []


def test_cross_check_reports_mismatch(monkeypatch):
    inst = Instance.of((add(w, 1), 1), (add(w, 1), 1))
    wrong = Exists(wp(3))
    monkeypatch.setattr(oracle_mod, "p_top", lambda _: wrong)
    report = cross_check_p_top([inst])
    assert len(report) >= 1
    entry = report[0]
    assert set(entry) == {"instance", "expected", "actual"}
    assert entry["instance"] is inst
    assert entry["actual"] == wp(3)
    assert entry["expected"] == add(wp(2), 1)


def test_cross_check_rejects_uncountable():
    from ordpigeon.ordinal import OMEGA1
    with pytest.raises(ValueError):
        cross_check_p_top([Instance.of((OMEGA1, 1), (w, 1))])


# -- properties ----------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(1, 12))
def test_finite_arrow_matches_formula(t0, t1, beta):
    assert finite_arrow_check(beta, [t0, t1]) == (beta >= t0 + t1 - 1)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=3),
       st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=2))
def test_mr_check_accepts_true_sum(coeffs, exps):
    bounds = []
    for i, c in enumerate(coeffs):
        e = exps[i % len(exps)]
        bounds.append(mul(wp(e), c) if e else from_int(c))
    bounds = [b for b in bounds if not b.is_zero()] or [ONE]
    assert mr_sum_bruteforce_check(bounds, mr_sum(bounds), 10) is True
