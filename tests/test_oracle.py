"""Brute-force oracles: exhaustive colouring search, bounded enumeration,
least-counterexample Milner-Rado sums, and the closed-formula cross-check."""

import gc
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
from ordpigeon.selftest import _link_grid, _random_mr_bound
from ordpigeon.witness import NatsumSplitter
from ordpigeon.ordinal import (
    Cardinal,
    ONE,
    OMEGA,
    OMEGA1,
    Ordinal,
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


def test_finite_arrow_matches_every_point_colouring():
    # the definition itself: every map of beta points to k colours puts at
    # least t_i points, a copy of the discrete space t_i, in some class i
    for k in range(1, 4):
        for targets in itertools.product(range(1, 5), repeat=k):
            for beta in range(1, 8):
                holds = all(
                    any(colouring.count(i) >= t
                        for i, t in enumerate(targets))
                    for colouring in itertools.product(range(k), repeat=beta))
                assert finite_arrow_check(beta, list(targets)) == holds, \
                    (beta, targets)


def test_finite_arrow_single_colour():
    assert finite_arrow_check(3, [3]) is True
    assert finite_arrow_check(2, [3]) is False
    assert finite_arrow_check(10 ** 9, [10 ** 9]) is True


def test_the_oracles_leave_no_cyclic_garbage():
    # a reference cycle left by a call, such as a nested function that
    # calls itself through its closure cell, is freed only by the cyclic
    # collector; these calls leave nothing for it
    calls = [
        lambda: finite_arrow_check(5, [2, 3, 2]),   # holds
        lambda: finite_arrow_check(4, [2, 3, 2]),   # fails
        lambda: bruteforce_mr_sum([add(w, 1), from_int(3)]),
        lambda: mr_sum_bruteforce_check([add(w, 1), add(w, 1)],
                                        add(mul(w, 2), 1), 5),
        lambda: enumerate_ordinals_below(EnumerationBounds(2, 2, 2)),
    ]
    for call in calls:
        call()  # fill the module's caches first
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            for call in calls:
                call()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_finite_arrow_guard_and_validation():
    # the guard bounds the search's (beta + 1) * sum(min(t, beta + 1))
    # set insertions, not the k^beta colourings: 25 = 12 + 12 + 1 points
    # take 26 * 26 of them
    assert finite_arrow_check(25, [13, 13]) is True
    assert finite_arrow_check(24, [13, 13]) is False
    # 4,001 * 8,002 = 32,016,002 insertions, above the guard
    assert 4001 * 8002 > oracle_mod.COLOURING_GUARD
    with pytest.raises(TooLarge, match="32016002 search steps"):
        finite_arrow_check(4000, [4001, 4001])
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


@pytest.mark.parametrize("call, error, message", [
    (lambda: bruteforce_mr_sum([0]), ZeroInput, "bounds must be positive"),
    (lambda: bruteforce_mr_sum([OMEGA1]), ValueError,
     "brute-force search is for countable bounds only"),
    (lambda: cross_check_p_top([Instance.of((2, Cardinal.aleph(0)))]),
     ValueError, "cross-check grids use finite colour counts"),
    (lambda: finite_arrow_check(2.5, [2]), TypeError,
     "beta and all targets must be ints"),
    (lambda: finite_arrow_check(2.5, [2, 2]), TypeError,
     "beta and all targets must be ints"),
    (lambda: finite_arrow_check(True, [True]), TypeError,
     "beta and all targets must be ints"),
    (lambda: finite_arrow_check(3, [2, 2.0]), TypeError,
     "beta and all targets must be ints"),
    (lambda: EnumerationBounds(w, True, 1), TypeError,
     "coefficient and monomial bounds must be ints"),
    (lambda: EnumerationBounds(w, 2, 2.0), TypeError,
     "coefficient and monomial bounds must be ints"),
], ids=["zero-bound", "uncountable-bound", "infinite-count",
        "float-beta-one-colour", "float-beta", "bool-sizes", "float-target",
        "bool-coefficient-bound", "float-monomial-bound"])
def test_documented_raises_are_pinned(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)


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
    for count in (-1, 2.0, True, "3", None):
        with pytest.raises(ValueError, match="sample_count"):
            mr_sum_bruteforce_check([2, 3], 4, count)
    assert mr_sum_bruteforce_check([2, 3], 4, 0) is True


def old_samples_below(bounds, candidate, sample_count):
    """The draws of Random(1729) as the kernel's operations build them,
    those below the candidate."""
    pool = sorted({ZERO} | {e for x in [candidate, *bounds]
                            for e, _ in x.monomials})
    rng = random.Random(1729)
    out = []
    for _ in range(sample_count):
        a, b, c = rng.choice(pool), rng.randint(1, 5), rng.randint(0, 4)
        delta = add(mul(omega_pow(a), from_int(b)), from_int(c))
        if delta < candidate:
            out.append(delta)
    return out


def test_mr_check_asks_the_old_samples_once_each(monkeypatch):
    asked, splits = [], NatsumSplitter.splits

    def recording(self, delta):
        asked.append(delta)
        return splits(self, delta)

    monkeypatch.setattr(NatsumSplitter, "splits", recording)
    rng = random.Random(404)  # criterion 4's draws
    lists = [[add(w, 1), add(w, 1)], [add(wp(2), w), ONE],
             [mul(w, 2), wp(OMEGA1), from_int(3)],
             [add(wp(add(w, 1)), 2), mul(wp(w), 2), from_int(3)],
             *([_random_mr_bound(rng), _random_mr_bound(rng)]
               for _ in range(200))]
    for bounds in lists:
        candidate = mr_sum(bounds)
        ms = candidate.monomials
        probes = [candidate]
        probes += map(from_int, range(min(int(candidate), 50)
                                      if candidate.is_finite() else 50))
        probes += [Ordinal(ms[:j] + (((e, c - 1),) if c > 1 else ())
                           + ms[j + 1:]) for j, (e, c) in enumerate(ms)]
        # the draws are kept per pool size and count: each count is its own
        for count in (0, 1, 7, 50, 500):
            asked.clear()
            assert mr_sum_bruteforce_check(bounds, candidate, count)
            samples = old_samples_below(bounds, candidate, count)
            # the probes in order, then each distinct sample once
            assert asked[:len(probes)] == probes
            drawn = asked[len(probes):]
            assert len(set(drawn)) == len(drawn)
            assert set(asked) == set(probes) | set(samples)
        # w^a*b + c takes 25 values per non-zero pool exponent a
        pool = {ZERO} | {e for x in [candidate, *bounds] for e, _ in x.monomials}
        asked.clear()
        assert mr_sum_bruteforce_check(bounds, candidate, 5000)
        assert asked[:len(probes)] == probes
        assert len(asked) - len(probes) <= 25 * (len(pool) - 1)


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


def counted_scans(monkeypatch) -> list:
    """The bound lists of every bruteforce_mr_sum scan from now on."""
    scans, scan = [], oracle_mod.bruteforce_mr_sum

    def counting(bounds):
        scans.append(list(bounds))
        return scan(bounds)

    monkeypatch.setattr(oracle_mod, "bruteforce_mr_sum", counting)
    return scans


def test_link_grid_makes_fifty_scans(monkeypatch):
    # criterion 6's grid is four blocks of 25 pairs.  Successor powers
    # (w^a+1, w^b+1) and simple multiples (m or w^a*m+1) hold no power
    # w^a, so they scan nothing.  Powers (w^a, w^b) and mixed pairs
    # (w^a, w^d+1) scan their exponents once each: 25 + 25 = 50.  Asking
    # the powers family and then the mixed family, which on a list of
    # powers alone is the same scan of the same bounds, made 75
    scans = counted_scans(monkeypatch)
    assert cross_check_p_top(_link_grid()) == []
    assert len(scans) == 50


def test_all_powers_mismatch_is_reported_once(monkeypatch):
    # only the powers formula applies to (w^2, w): one scan, one entry
    inst = Instance.of((wp(2), 1), (w, 1))
    right = p_top(inst).value
    scans = counted_scans(monkeypatch)
    monkeypatch.setattr(oracle_mod, "p_top", lambda _: Exists(wp(5)))
    report = cross_check_p_top([inst])
    assert [(e["expected"], e["actual"]) for e in report] == [(right, wp(5))]
    assert scans == [[from_int(2), ONE]]


def test_mixed_instance_still_scans(monkeypatch):
    # w+1 enters the mixed family as the exponent 1 + 1, and the value is
    # w^3 from that one scan
    inst = Instance.of((wp(2), 1), (add(w, 1), 1))
    scans = counted_scans(monkeypatch)
    assert cross_check_p_top([inst]) == []
    assert scans == [[from_int(2), from_int(2)]]
    monkeypatch.setattr(oracle_mod, "p_top", lambda _: Exists(wp(5)))
    assert len(cross_check_p_top([inst])) == 1


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
