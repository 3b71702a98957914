"""Colouring construction, evaluation, and certificate checking."""

import os
import subprocess
import sys
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ordpigeon import witness
from ordpigeon.engine import (
    Exists,
    Instance,
    NormalizedInstance,
    analyze,
    normalize,
    p_top,
)
from ordpigeon.ordinal import (
    Atom,
    OMEGA,
    OMEGA1,
    ONE,
    Ordinal,
    ZERO,
    ZeroInput,
    add,
    cb_rank,
    from_int,
    mr_sum,
    mul,
    omega_pow,
)
from ordpigeon.oracle import mr_sum_bruteforce_check
from ordpigeon.selftest import _maximal_failing
from ordpigeon.witness import (
    CertKind,
    ColouringMode,
    NatsumSplitter,
    NotBelowThreshold,
    ObstructionCertificate,
    OutOfDomain,
    OutOfScope,
    PreconditionViolated,
    RankColouring,
    build_counterexample,
    eval_colouring,
    natsum_expressible,
    natsum_split,
    order_type_of_union,
    residual_shape,
    verify_certificates,
)

w = OMEGA
w1 = OMEGA1


def wp(e):
    return omega_pow(e)


def norm_of(*entries):
    norm = normalize(Instance.of(*entries))
    assert isinstance(norm, NormalizedInstance)
    return norm


def built(beta, *entries):
    norm = norm_of(*entries)
    col, certs = build_counterexample(beta, norm)
    return norm, col, certs


# -- natural-sum splitting ------------------------------------------------------


def test_natsum_expressible_pinned():
    assert natsum_expressible(mul(w, 2), [add(w, 1), add(w, 1)]) == [w, w]
    assert natsum_expressible(add(mul(w, 2), 1), [add(w, 1), add(w, 1)]) is None
    got = natsum_expressible(add(wp(2), mul(w, 2)), [add(wp(2), w), wp(2)])
    assert got == [wp(2), mul(w, 2)]


def test_natsum_expressible_edges():
    assert natsum_expressible(ZERO, [ONE]) == [ZERO]
    assert natsum_expressible(w, [w]) is None
    assert natsum_expressible(w, [add(w, 1)]) == [w]
    assert natsum_expressible(w, [wp(2)]) == [w]
    assert natsum_expressible(from_int(3), [from_int(2), from_int(2), from_int(2)]) \
        == [ONE, ONE, ONE]
    with pytest.raises(ZeroInput):
        natsum_expressible(w, [ZERO, w])
    with pytest.raises(ZeroInput):
        natsum_expressible(w, [])
    # the oracles read the coerced bounds back from their splitter
    assert NatsumSplitter([2, add(w, 1)]).bounds == [from_int(2), add(w, 1)]


def test_unsplittable_deltas_fail_at_once():
    # 26 parts below 2 hold at most 26; a search that tries every share
    # vector before it sees this doubles its time per bound, and one that
    # lets each part hold 2 still grows about 1.4-fold per bound.  Below
    # w+2 the 40 parts must each take one w, and then cannot hold 41.
    env = {**os.environ,
           "PYTHONPATH": str(Path(witness.__file__).resolve().parents[1])}
    code = ("from ordpigeon.ordinal import OMEGA as w\n"
            "from ordpigeon.witness import natsum_expressible\n"
            "assert natsum_expressible(27, [2] * 26) is None\n"
            "assert natsum_expressible(81, [2] * 80) is None\n"
            "assert natsum_expressible(w * 40 + 41, [w + 2] * 40) is None\n")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=20)
    assert done.returncode == 0, done.stderr


def test_natsum_expressible_takes_the_largest_first_part():
    got = natsum_expressible(mul(w, 2), [mul(w, 3), add(w, 1)])
    assert got == [mul(w, 2), ZERO]


# descending exponents with an atom on top, so splittings meet exponents
# the bounds lack above, between and below delta's
EXPONENTS = [Atom(ONE), add(w, 1), w, from_int(2), ONE, ZERO]


@st.composite
def forms(draw):
    picks = draw(st.lists(st.integers(0, len(EXPONENTS) - 1),
                          unique=True, max_size=3))
    return Ordinal(tuple((EXPONENTS[i], draw(st.integers(1, 3)))
                         for i in sorted(picks)))


def first_splitting(delta, bounds):
    """Reference: every splitting of delta's coefficients, largest first
    part first, checked against the bounds with the kernel's order."""
    k = len(bounds)
    per_position = [[comp for comp in product(range(c, -1, -1), repeat=k)
                     if sum(comp) == c] for _, c in delta.monomials]
    for choice in product(*per_position):
        parts = [Ordinal(tuple((e, comp[i]) for (e, _), comp
                               in zip(delta.monomials, choice) if comp[i]))
                 for i in range(k)]
        if all(p < b for p, b in zip(parts, bounds)):
            return parts
    return None


@settings(max_examples=150, deadline=None)
@given(forms(), st.lists(forms().filter(lambda b: not b.is_zero()),
                         min_size=1, max_size=3))
def test_natsum_expressible_is_the_first_splitting(delta, bounds):
    assert natsum_expressible(delta, bounds) == first_splitting(delta, bounds)


def rebuilt(x):
    """An equal copy sharing no node with x, exponents and atoms included."""
    if isinstance(x, Atom):
        return Atom(rebuilt(x.index))
    return Ordinal(tuple((rebuilt(e), c) for e, c in x.monomials))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(forms(), st.booleans()), min_size=5, max_size=10),
       st.lists(forms().filter(lambda b: not b.is_zero()),
                min_size=1, max_size=3))
def test_one_splitter_answers_every_delta(deltas, bounds):
    # deltas drawn from forms() share exponent objects, so the splitter
    # reuses its tables; the rebuilt copies are equal but never identical
    splitter = NatsumSplitter(bounds)
    for delta, copy in deltas:
        for d in (delta, rebuilt(delta)) if copy else (delta,):
            want = first_splitting(d, bounds)
            assert splitter.parts(d) == want
            assert splitter.splits(d) is (want is not None)


@pytest.mark.parametrize("bounds", [
    [add(mul(wp(2), 2), w), add(mul(w, 3), 1)],
    [add(wp(add(w, 1)), 2), mul(wp(w), 2), from_int(3)],
    [mul(w, 2), wp(Atom(ONE))],
])
def test_a_milner_rado_check_merges_each_exponent_list_once(monkeypatch, bounds):
    searched, merged = [], []
    search, merge = NatsumSplitter._search, NatsumSplitter._merge

    def counting_search(self, monos):
        searched.append(tuple(e for e, _ in monos))
        return search(self, monos)

    def counting_merge(self, monos):
        merged.append(tuple(e for e, _ in monos))
        return merge(self, monos)

    monkeypatch.setattr(NatsumSplitter, "_search", counting_search)
    monkeypatch.setattr(NatsumSplitter, "_merge", counting_merge)
    assert mr_sum_bruteforce_check(bounds, mr_sum(bounds), 50)
    # one merge per exponent list searched, equal lists counted once
    assert sorted(map(repr, merged)) == sorted(map(repr, set(searched)))
    assert len(merged) < len(searched)


def test_natsum_split_pinned():
    eta = add(mul(wp(2), 2), w)
    piece0, piece1 = natsum_split(eta, [add(wp(2), w), wp(2)])
    assert piece0 == ((ZERO, wp(2)),
                      (mul(wp(2), 2), add(mul(wp(2), 2), w)))
    assert piece1 == ((wp(2), mul(wp(2), 2)),)
    assert order_type_of_union(piece0) == add(wp(2), w)
    assert order_type_of_union(piece1) == wp(2)


def test_natsum_split_requires_exact_sum():
    with pytest.raises(PreconditionViolated):
        natsum_split(mul(w, 2), [w, add(w, 1)])


def test_natsum_split_final_part_finishes_the_space():
    pieces = natsum_split(from_int(2), [ONE, ONE], final_part=0)
    assert pieces[0] == ((ONE, from_int(2)),)
    assert pieces[1] == ((ZERO, ONE),)


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
       st.integers(0, 3))
def test_natsum_split_partitions(a, b, c, d):
    parts = [add(mul(w, a), b), add(mul(w, c), d)]
    from ordpigeon.ordinal import natural_sum
    eta = natural_sum(*parts)
    if eta.is_zero():
        return
    pieces = natsum_split(eta, parts)
    for piece, part in zip(pieces, parts):
        assert order_type_of_union(piece) == part
    flat = sorted([iv for piece in pieces for iv in piece],
                  key=lambda iv: (not iv[0].is_zero(), iv[0]))
    cursor = ZERO
    for lo, hi in flat:
        assert lo == cursor
        cursor = hi
    assert cursor == eta


# -- residual shapes ------------------------------------------------------------


def test_residual_shape_pinned():
    assert residual_shape(add(w, 1), ONE) == ONE
    assert residual_shape(add(mul(w, 2), 1), ONE) == from_int(2)
    assert residual_shape(wp(3), ONE) == wp(2)
    assert residual_shape(mul(wp(2), 3), ONE) == mul(w, 3)
    assert residual_shape(add(wp(2), 1), ONE) == add(w, 1)
    assert residual_shape(mul(w, 5), ZERO) == mul(w, 5)
    assert residual_shape(wp(2), from_int(3)) == ZERO
    assert residual_shape(from_int(7), ZERO) == from_int(7)


def test_order_type_of_union_rejects_garbage():
    with pytest.raises(PreconditionViolated):
        order_type_of_union(((w, w),))
    with pytest.raises(PreconditionViolated):
        order_type_of_union(((w, wp(2)), (ZERO, ONE)))


# -- construction: rank mode ----------------------------------------------------


def test_build_two_successor_targets():
    norm, col, certs = built(wp(2), (add(w, 1), 2))
    assert col.mode is ColouringMode.RANK
    assert col.rank_classes == (((ZERO, ONE),), ((ONE, from_int(2)),))
    assert col.top_point_colours == ()
    for cert in certs:
        assert cert.kind is CertKind.DERIVATIVE_EMPTY
        assert cert.level == ONE
    assert verify_certificates(col, norm, certs)


def test_build_three_successor_targets_is_rank_identity():
    norm, col, certs = built(wp(3), (add(w, 1), 3))
    assert col.rank_classes == (((ZERO, ONE),),
                                ((ONE, from_int(2)),),
                                ((from_int(2), from_int(3)),))
    for x, want in [(add(mul(w, 3), 2), 0), (mul(wp(2), 5), 2), (w, 1)]:
        assert eval_colouring(col, x) == want
    assert verify_certificates(col, norm, certs)


def test_build_cofinality_split():
    # the relation fails at every space here, countable or not
    norm, col, certs = built(add(mul(wp(w), 7), 3), (add(w1, 1), 1),
                             (add(w, 1), 1))
    assert col.mode is ColouringMode.COFINALITY
    assert col.colours == 2
    assert [c.kind for c in certs] == [CertKind.COFINALITY_SPLIT] * 2
    assert verify_certificates(col, norm, certs)

    norm, col, certs = built(mul(w1, 3), (add(w1, 1), 1), (add(w, 1), 1))
    assert eval_colouring(col, mul(w1, 2)) == 1
    assert eval_colouring(col, mul(w, 5)) == 0
    assert eval_colouring(col, add(w1, 1)) == 0
    assert verify_certificates(col, norm, certs)


def test_build_finite_domain():
    norm, col, certs = built(4, (3, 2))
    assert col.zero_colour == 0
    assert col.top_point_colours == (0, 1, 1)
    assert [c.kind for c in certs] == [CertKind.DERIVATIVE_SMALL] * 2
    assert [c.bound for c in certs] == [2, 2]
    assert [eval_colouring(col, x) for x in range(4)] == [0, 0, 1, 1]
    assert verify_certificates(col, norm, certs)


def test_build_finite_domain_with_infinite_target():
    norm, col, certs = built(5, (add(w, 1), 1), (3, 1))
    assert col.top_point_colours == (0, 0, 0, 0)
    assert certs[0].kind is CertKind.DERIVATIVE_SMALL
    assert certs[0].bound == 5
    assert certs[1].kind is CertKind.DERIVATIVE_EMPTY
    assert verify_certificates(col, norm, certs)


def test_build_empty_domain():
    norm, col, certs = built(0, (add(w, 1), 2))
    assert col.rank_classes == ((), ())
    assert all(c.kind is CertKind.DERIVATIVE_EMPTY for c in certs)
    assert verify_certificates(col, norm, certs)
    with pytest.raises(OutOfDomain):
        eval_colouring(col, 0)


def test_build_power_case_puts_tops_with_the_power_target():
    # targets w+1 and w^2; threshold w^(1 # 2) = w^3
    norm, col, certs = built(add(mul(wp(2), 4), 9), (add(w, 1), 1), (wp(2), 1))
    assert col.top_point_colours == (1, 1, 1, 1)
    assert certs[1].kind is CertKind.DERIVATIVE_SMALL
    assert certs[1].bound == 4
    assert verify_certificates(col, norm, certs)


def test_build_mixed_targets_spill_over_the_exact_class():
    norm, col, certs = built(add(mul(w, 2), 3), (add(w, 1), 1), (3, 1))
    assert col.top_point_colours == (1, 1)
    assert certs[0].kind is CertKind.DERIVATIVE_EMPTY
    assert certs[0].level == ONE
    assert certs[1].kind is CertKind.DERIVATIVE_SMALL
    assert certs[1].level == ZERO
    assert certs[1].bound == 2
    assert verify_certificates(col, norm, certs)


def test_build_distinguished_class_takes_every_top():
    norm, col, certs = built(add(wp(2), 1), (mul(w, 2), 2))
    assert col.top_point_colours == (0,)
    assert col.rank_classes == (((ONE, from_int(2)),), ((ZERO, ONE),))
    n = certs[0]
    assert n.kind is CertKind.DERIVATIVE_NOT_EMBEDDABLE
    assert n.level == ZERO
    assert n.class_residual == add(w, 1)
    assert n.target_residual == mul(w, 2)
    assert certs[1].kind is CertKind.DERIVATIVE_EMPTY
    assert verify_certificates(col, norm, certs)


def test_build_distinguished_single_target():
    norm, col, certs = built(add(mul(wp(2), 2), 1), (mul(wp(2), 3), 1))
    assert col.rank_classes == (((ZERO, ONE), (ONE, from_int(2))),)
    assert col.top_point_colours == (0, 0)
    n = certs[0]
    assert n.level == ONE
    assert n.class_residual == add(mul(w, 2), 1)
    assert n.target_residual == mul(w, 3)
    assert verify_certificates(col, norm, certs)


def test_build_exact_multiple_without_tail_stays_small():
    # at w^2*1 the single top point fits below the multiplicity
    norm, col, certs = built(mul(wp(2), 2), (mul(wp(2), 3), 1))
    assert certs[0].kind is CertKind.DERIVATIVE_SMALL
    assert certs[0].bound == 1
    assert verify_certificates(col, norm, certs)


# -- construction: guard rails -------------------------------------------------


def test_build_rejects_satisfied_relation():
    with pytest.raises(NotBelowThreshold):
        build_counterexample(add(wp(2), 1), norm_of((add(w, 1), 2)))


def test_build_rejects_uncountable_cases():
    with pytest.raises(OutOfScope):
        build_counterexample(w1, norm_of((w1, 1), (2, 1)))


def test_build_cofinality_needs_two_targets():
    with pytest.raises(OutOfScope):
        build_counterexample(wp(w), norm_of((add(w1, 1), 1), (add(w, 1), 2)))
    with pytest.raises(OutOfScope):
        build_counterexample(wp(w), norm_of((add(w, 1), 1), (add(w1, 1), 1)))


def test_eval_rejects_points_outside_the_domain():
    _, col, _ = built(wp(2), (add(w, 1), 2))
    with pytest.raises(OutOfDomain):
        eval_colouring(col, wp(2))
    with pytest.raises(OutOfDomain):
        eval_colouring(col, wp(3))


# -- evaluation totality ---------------------------------------------------------


def points_below(beta, ranks=range(3), coeffs=range(1, 4)):
    pts = [ZERO]
    for r in ranks:
        for c in coeffs:
            for extra in (ZERO, ONE):
                x = add(mul(wp(r), c), extra)
                if x < beta:
                    pts.append(x)
    return pts


@pytest.mark.parametrize("beta,entries", [
    (wp(3), ((add(w, 1), 3),)),
    (add(wp(2), 1), ((mul(w, 2), 2),)),
    (add(mul(w, 2), 3), ((add(w, 1), 1), (3, 1))),
    (add(mul(wp(2), 4), 9), ((add(w, 1), 1), (wp(2), 1))),
])
def test_eval_total_and_consistent_with_rank_classes(beta, entries):
    norm, col, certs = built(beta, *entries)
    g = beta.leading_exponent()
    from ordpigeon.ordinal import exponent_ordinal
    g = exponent_ordinal(g)
    for x in points_below(beta):
        colour = eval_colouring(col, x)
        assert 0 <= colour < col.colours
        r = cb_rank(x)
        if x.is_zero() and col.zero_colour is not None:
            assert colour == col.zero_colour
        elif not x.is_zero() and r == g:
            assert colour == col.top_point_colours[x.leading_coefficient() - 1]
        else:
            assert any(lo <= r < hi for lo, hi in col.rank_classes[colour])


# -- verification ----------------------------------------------------------------


def test_verify_rejects_tampered_level():
    norm, col, certs = built(wp(2), (add(w, 1), 2))
    bad = [replace(certs[0], level=from_int(2)), certs[1]]
    assert not verify_certificates(col, norm, bad)


def test_verify_rejects_every_single_field_tamper_on_the_counting_cert():
    norm, col, certs = built(add(wp(2), 1), (mul(w, 2), 2))
    n = certs[0]
    tampered = [
        replace(n, colour=1),
        replace(n, kind=CertKind.DERIVATIVE_EMPTY),
        replace(n, claimed_target=mul(w, 3)),
        replace(n, level=ONE),
        replace(n, bound=1),
        replace(n, class_residual=add(mul(w, 2), 1)),
        replace(n, target_residual=mul(w, 3)),
    ]
    for bad in tampered:
        assert not verify_certificates(col, norm, [bad, certs[1]])
    assert verify_certificates(col, norm, certs)


def test_verify_rejects_wrong_claimed_target():
    norm, col, certs = built(wp(2), (add(w, 1), 2))
    bad = [replace(certs[0], claimed_target=add(w, 2)), certs[1]]
    assert not verify_certificates(col, norm, bad)


def test_verify_rejects_missing_or_duplicate_colours():
    norm, col, certs = built(wp(2), (add(w, 1), 2))
    assert not verify_certificates(col, norm, certs[:1])
    assert not verify_certificates(col, norm, [certs[0], certs[0]])


def test_verify_rejects_non_partition_colourings():
    norm, col, certs = built(wp(2), (add(w, 1), 2))
    overlapping = replace(col, rank_classes=(((ZERO, ONE),),
                                             ((ZERO, from_int(2)),)))
    assert not verify_certificates(overlapping, norm, certs)
    gappy = replace(col, rank_classes=(((ZERO, ONE),), ()))
    assert not verify_certificates(gappy, norm, certs)


def test_verify_rejects_cofinality_mode_with_rank_certs():
    norm, col, certs = built(add(mul(wp(w), 7), 3), (add(w1, 1), 1),
                             (add(w, 1), 1))
    bad = [replace(certs[0], kind=CertKind.DERIVATIVE_EMPTY, level=ZERO),
           certs[1]]
    assert not verify_certificates(col, norm, bad)
    stuffed = [replace(certs[0], level=ZERO), certs[1]]
    assert not verify_certificates(col, norm, stuffed)


def test_verify_needs_the_right_instance():
    norm, col, certs = built(wp(2), (add(w, 1), 2))
    other = norm_of((add(w, 2), 2))
    assert not verify_certificates(col, other, certs)


def test_round_trip_on_a_spread_of_failing_spaces():
    cases = [
        (wp(2), ((add(w, 1), 2),)),
        (wp(3), ((add(w, 1), 3),)),
        (wp(3), ((add(wp(2), 1), 1), (add(w, 1), 1))),
        (mul(wp(2), 3), ((wp(2), 1), (add(w, 1), 1))),
        (add(wp(3), 1), ((mul(wp(2), 2), 1), (add(w, 1), 1))),
        (6, ((4, 1), (4, 1),)),
        (mul(w, 7), ((add(mul(w, 2), 1), 2),)),
    ]
    for beta, entries in cases:
        norm, col, certs = built(beta, *entries)
        assert verify_certificates(col, norm, certs), (beta, entries)


# -- the threshold is sharp ------------------------------------------------------


@pytest.mark.parametrize("entries,value,beta", [
    (((add(w, 1), 2),), add(wp(2), 1), wp(2)),
    (((mul(w, 2), 2),), mul(wp(2), 2), add(wp(2), 1)),
    (((mul(wp(2), 3), 1),), mul(wp(2), 3), add(mul(wp(2), 2), 1)),
    (((add(w, 1), 1), (wp(2), 1)), wp(3), add(mul(wp(2), 9), 5)),
    (((add(mul(w, 2), 1), 1), (3, 1)), add(mul(w, 4), 1), mul(w, 4)),
])
def test_build_succeeds_just_below_and_refuses_at_the_value(entries, value,
                                                            beta):
    result = p_top(Instance.of(*entries))
    assert result == Exists(value)
    norm = norm_of(*entries)
    col, certs = build_counterexample(beta, norm)
    assert verify_certificates(col, norm, certs)
    with pytest.raises(NotBelowThreshold):
        build_counterexample(value, norm)


# -- counts against their copies --------------------------------------------------


# C6 targets: finite, powers of w, exact multiples w^g*(m+1) and the
# inexact w^g*m + r with 0 < r < w^g
c6_targets = st.one_of(
    st.integers(2, 5).map(from_int),
    st.sampled_from([w, wp(2), wp(w)]),
    st.tuples(st.sampled_from([ONE, from_int(2), w]), st.integers(2, 4)).map(
        lambda p: wp(p[0]) * p[1]),
    st.tuples(st.sampled_from([(ONE, ONE), (from_int(2), ONE),
                               (from_int(2), w)]), st.integers(1, 3)).map(
        lambda p: wp(p[0][0]) * p[1] + p[0][1]))


def outcome(beta, norm):
    try:
        return build_counterexample(beta, norm)
    except OutOfScope as exc:
        return str(exc)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(c6_targets, st.integers(1, 4)), min_size=1,
                max_size=3))
def test_counts_answer_as_their_copies(entries):
    counted = analyze(Instance.of(*entries))
    copies = analyze(Instance.of(*(t for t, c in entries for _ in range(c))))
    assert (counted.case, counted.result) == (copies.case, copies.result)
    value = counted.result.value
    if counted.case.value == "C6b":
        # a power of w has no maximal failing ordinal
        beta = next(b for b in (wp(2) * 2 + 1, w * 2 + 1, from_int(5))
                    if b < value)
    else:
        beta = _maximal_failing(value)
    # the same colouring and certificates, the distinguished entry's
    # first colour included
    assert outcome(beta, counted.normalized) == \
        outcome(beta, copies.normalized)


@pytest.mark.parametrize("value", [wp(3), wp(w)])
def test_a_power_of_w_has_no_maximal_failing_ordinal(value):
    with pytest.raises(ValueError, match="no largest failing point"):
        _maximal_failing(value)


def test_witnesses_stop_at_the_colour_bound():
    bound = witness.MAX_COLOURS
    norm, col, certs = built(wp(2), add(wp(2), 1), (3, bound - 1))
    assert col.colours == bound
    assert verify_certificates(col, norm, certs)
    for count in (bound, 10 ** 10):
        with pytest.raises(OutOfScope, match=f"at most {bound} colours"):
            built(wp(2), add(wp(2), 1), (3, count))


def test_many_equal_bounds_split_at_once():
    # each part below w+1 must take less than w at the last position; a
    # search that offers it all of w there grows about threefold per colour
    env = {**os.environ,
           "PYTHONPATH": str(Path(witness.__file__).resolve().parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "ordpigeon.cli", "witness", "w^40", "w+1:40"],
        env=env, capture_output=True, text=True, timeout=20)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("domain w^40, mode rank, 40 colours")
