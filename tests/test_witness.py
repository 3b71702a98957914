"""Colouring construction, evaluation, and certificate checking."""

import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ordpigeon import checker, cli, engine, witness
from ordpigeon.engine import (
    Exists,
    Instance,
    NormalizedInstance,
    analyze,
    classify,
    normalize,
    p_top,
)
from ordpigeon.ordinal import (
    Atom,
    Cardinal,
    OMEGA,
    OMEGA1,
    ONE,
    Ordinal,
    ZERO,
    ZeroInput,
    add,
    cb_rank,
    format_cnf,
    from_int,
    initial_ordinal,
    mr_sum,
    mul,
    omega_pow,
)
from ordpigeon.oracle import mr_sum_bruteforce_check
from ordpigeon.parser import parse_expression
from ordpigeon.selftest import (
    _TAMPERS,
    _maximal_failing,
    _tamper_all,
    _witness_grid,
    criterion_7,
)
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
    witness_from_json,
    witness_to_json,
)
from test_golden import corpus_builds

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


def test_a_part_with_no_room_at_the_last_position_is_a_dead_end():
    # a part below w_1 must get below it at the last position, so its room
    # there is one less than its coefficient 0 at w^(w+1): no share fits
    assert NatsumSplitter([w1, w1]).parts(add(w1, wp(add(w, 1)))) is None


def test_a_search_deeper_than_the_recursion_limit():
    # k parts below w+2 over two positions: each takes one w while there
    # are w's left, then one 1 while there are 1's left, and the part with
    # no w takes what is left of the 1's
    k = sys.getrecursionlimit() // 2 + 10
    splitter = NatsumSplitter([add(w, 2)] * k)
    for m in (1, k // 2, k - 1, 3 * k):
        ones = min(m, k - 1)
        want = [add(w, 1)] * ones + [w] * (k - 1 - ones) + [from_int(m - ones)]
        assert splitter.parts(add(mul(w, k - 1), m)) == want
    assert splitter.parts(add(mul(w, k), k)) == [add(w, 1)] * k
    assert splitter.parts(add(mul(w, k), k + 1)) is None


def test_the_most_colours_over_four_rank_positions_build_and_verify(
        tmp_path, capsys):
    # 256 colours whose levels split a rank of four monomials
    rank = "w^3+w^2+w+1"
    beta = wp(add(wp(3), add(wp(2), add(w, 1))))
    norm, col, certs = built(beta, add(beta, 1), (2, 255))
    assert col.colours == witness.MAX_COLOURS
    assert verify_certificates(col, norm, certs)
    args = [f"w^({rank})", f"w^({rank})+1", "2:255"]
    assert cli.run(["witness", *args, "--json"]) == 0
    path = tmp_path / "wit.json"
    path.write_text(capsys.readouterr().out)
    assert cli.run(["verify", str(path)]) == 0


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


def uncovered_rank():
    # a colouring whose rank classes miss rank 1 of w^2+1
    _, col, _ = built(add(wp(2), 1), (mul(w, 2), 2))
    return eval_colouring(replace(col, rank_classes=((), ())), w)


@pytest.mark.parametrize("call, error, message", [
    (lambda: natsum_split(w, [w], final_part=1), PreconditionViolated,
     "final_part out of range"),
    (uncovered_rank, OutOfDomain, "no colour covers rank 1"),
], ids=["final-part", "uncovered-rank"])
def test_documented_raises_are_pinned(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)


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


def test_build_rejects_infinitely_many_colours_but_builds_finite_c4():
    # C4 with aleph_0 colours has no finite certificate language; with
    # two colours its value is w_1, which satisfies the relation, and a
    # countable beta below it builds
    for beta in (w, w1):
        with pytest.raises(OutOfScope,
                           match="no finite certificate language for case C4"):
            build_counterexample(beta,
                                 norm_of((w1, 1), (2, Cardinal.aleph(0))))
    norm = norm_of((w1, 1), (2, 1))
    assert classify(norm).case is engine.CasePath.C4
    with pytest.raises(NotBelowThreshold):
        build_counterexample(w1, norm)
    col, certs = build_counterexample(add(wp(w), 1), norm)
    assert verify_certificates(col, norm, certs)


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


# Forgeries that no single-field tamper reaches, each rejected by one check
# of the verifier alone: with that check removed, the verifier accepts it
# (or, for the colour with no intervals, raises IndexError)
DE, DS, DNE = (CertKind.DERIVATIVE_EMPTY, CertKind.DERIVATIVE_SMALL,
               CertKind.DERIVATIVE_NOT_EMBEDDABLE)


def rank_colouring(domain, classes, tops=(), zero=None):
    return RankColouring(domain, ColouringMode.RANK, classes, tops, zero)


def forged_residual():
    # ranks [0, 2) are all of w^2, whose second derivative is empty, but
    # so is that of w+1: the class may still hold the target
    return (norm_of((add(w, 1), 2)),
            rank_colouring(wp(2), (((ZERO, from_int(2)),), ())),
            [ObstructionCertificate(0, DE, add(w, 1), level=from_int(2)),
             ObstructionCertificate(1, DE, add(w, 1), level=ZERO)])


def forged_shapes():
    # the witness that w+2 -> (w*2) is refused: the residuals w+2 and w*2
    # are not the shapes w^rho*a + 1 and w^rho*b with b > a
    return (norm_of((mul(w, 2), 1)),
            rank_colouring(add(w, 2), (((ZERO, ONE),),), (0,)),
            [ObstructionCertificate(0, DNE, mul(w, 2), level=ZERO,
                                    class_residual=add(w, 2),
                                    target_residual=mul(w, 2))])


def forged_cofinality():
    # the split of w_1 by cofinality avoids w_1+1 and w+1, not w_1 and w+1,
    # whose value is w_1 itself
    _, col, certs = built(w1, (add(w1, 1), 1), (add(w, 1), 1))
    return (norm_of((w1, 1), (add(w, 1), 1)), col,
            [replace(certs[0], claimed_target=w1), certs[1]])


def forged_top_and_zero():
    # the class that takes every top point takes the point 0 as well
    norm, col, certs = built(add(wp(2), 1), (mul(w, 2), 2))
    return norm, replace(col, zero_colour=0), certs


def forged_empty_final_class():
    # the class that takes every top point has no rank interval to end on
    norm, col, certs = built(add(wp(2), 1), (mul(w, 2), 2))
    return norm, replace(col, rank_classes=((), ((ZERO, from_int(2)),))), certs


def forged_early_final_interval():
    # the residual from rank 1 up, w^2+1, is the domain's and not the
    # class's when its last interval [1, 2) stops short of rank 3
    return (norm_of((mul(wp(2), 2), 2)),
            rank_colouring(add(wp(3), 1), (
                ((ONE, from_int(2)),),
                ((ZERO, ONE), (from_int(2), from_int(3)))), (0,)),
            [ObstructionCertificate(0, DNE, mul(wp(2), 2), level=ZERO,
                                    class_residual=add(wp(2), 1),
                                    target_residual=mul(wp(2), 2)),
             ObstructionCertificate(1, DE, mul(wp(2), 2), level=from_int(2))])


def forged_uncoloured_zero():
    # 7 -> (4, 4) holds; six points in classes of three leave the point 0
    # uncoloured
    return (norm_of((4, 2)),
            rank_colouring(7, ((), ()), (0, 0, 0, 1, 1, 1)),
            [ObstructionCertificate(i, DS, 4, level=ZERO, bound=3)
             for i in range(2)])


def forged_duplicate_colour():
    norm, col, certs = built(wp(2), (add(w, 1), 2))
    return norm, col, [certs[0], certs[1], certs[0]]


def forged_equal_coefficients():
    # w+1 holds w: the class suffix w+1 and the target residual w have the
    # same coefficient, so the shapes do not distinguish them (b > a)
    return (norm_of((w, 1)), rank_colouring(add(w, 1), (((ZERO, ONE),),), (0,)),
            [ObstructionCertificate(0, DNE, w, level=ZERO,
                                    class_residual=add(w, 1),
                                    target_residual=w)])


def forged_small_at_its_bound():
    # 5 -> (3, 3) holds: a class of exactly three points at rank 0 is as
    # large as the target's residual 3, not smaller
    return (norm_of((3, 2)), rank_colouring(5, ((), ()), (0, 0, 1, 1), 0),
            [ObstructionCertificate(0, DS, 3, level=ZERO, bound=3),
             ObstructionCertificate(1, DS, 3, level=ZERO, bound=2)])


FORGERIES = {
    "derivative-residual": forged_residual,
    "distinguishing-shapes": forged_shapes,
    "cofinality-targets": forged_cofinality,
    "dne-takes-the-zero": forged_top_and_zero,
    "dne-without-intervals": forged_empty_final_class,
    "dne-ends-below-g": forged_early_final_interval,
    "finite-domain-without-zero": forged_uncoloured_zero,
    "duplicate-colour": forged_duplicate_colour,
    "dne-equal-coefficients": forged_equal_coefficients,
    "derivative-small-at-its-bound": forged_small_at_its_bound,
}


@pytest.mark.parametrize("forge", FORGERIES.values(), ids=FORGERIES)
def test_verify_rejects_forgeries_beyond_single_tampers(forge):
    norm, col, certs = forge()
    assert verify_certificates(col, norm, certs) is False


# -- verification: the colouring pass, kept on the colouring ---------------------


def criterion_7_sweep():
    """Criterion 7's cases: (genuine norm, colouring and certificates,
    then the case's colouring and certificates) for each witness, each
    single-field tamper and the top points shifted one colour up."""
    for inst in _witness_grid():
        norm = normalize(inst)
        col, certs = build_counterexample(_maximal_failing(p_top(inst).value),
                                          norm)
        certs = tuple(certs)
        yield norm, col, certs, col, certs
        for j, cert in enumerate(certs):
            for field, bump in _TAMPERS:
                broken = replace(cert, **{field: bump(getattr(cert, field))})
                yield (norm, col, certs, col,
                       certs[:j] + (broken,) + certs[j + 1:])
        if col.top_point_colours:
            yield norm, col, certs, replace(col, top_point_colours=tuple(
                c + 1 for c in col.top_point_colours)), certs


def same_count_norms(norm):
    # an equal norm built afresh, and one of other targets, same colour count
    return [NormalizedInstance(norm.entries, norm.kappa),
            norm_of((add(wp(w), 5), norm.kappa.size))]


def verdict_on_fresh_and_used(norm, col, certs, warm_ups):
    """The verdict on a fresh copy of col, which must equal the verdict on
    col itself after the warm-up verifications, each (norm, certs)."""
    fresh = verify_certificates(replace(col), norm, certs)
    for args in warm_ups:
        verify_certificates(col, *args)
    assert verify_certificates(col, norm, certs) is fresh
    return fresh


def test_criterion_7_verdicts_do_not_depend_on_the_kept_pass():
    # each case on a fresh copy, and on a colouring already checked with
    # its genuine certificates, with the sweep's previous case and against
    # two other norms of the same colour count
    verdicts, earlier = Counter(), None
    for norm, col, certs, case_col, case_certs in criterion_7_sweep():
        warm_ups = [(norm, certs), (norm, earlier or certs),
                    *((other, certs) for other in same_count_norms(norm))]
        verdicts[verdict_on_fresh_and_used(norm, case_col, case_certs,
                                           warm_ups)] += 1
        if case_certs is certs and case_col is col:
            # the colour list follows the norm: other targets refuse
            other = same_count_norms(norm)[1]
            assert not verdict_on_fresh_and_used(other, col, certs,
                                                 [(norm, certs)])
        earlier = case_certs
    assert verdicts == {True: 50, False: 749 + 48}


@pytest.mark.parametrize("forge", FORGERIES.values(), ids=FORGERIES)
def test_forgeries_are_refused_on_a_used_colouring(forge):
    norm, col, certs = forge()
    warm_ups = [(norm, certs), *((other, certs)
                                 for other in same_count_norms(norm))]
    assert verdict_on_fresh_and_used(norm, col, certs, warm_ups) is False


def test_the_colouring_pass_runs_once_per_colouring(monkeypatch):
    # criterion 7 verifies 50 witnesses, each against its 7 x colours
    # tampers, and 48 copies with the top points shifted.  Each colouring
    # object reaches the colouring pass once, 50 + 48 times in all; with a
    # pass per call, 307 calls got that far and 189 walked.  Only the 50
    # genuine calls walk: the tampers that get that far read the kept
    # walk, and the shifted copies stop at their exceptional points
    seen = {"_colouring_facts": [], "_tiling": []}  # kept, so no id recurs

    def counted(name):
        real = getattr(checker, name)

        def count(col_or_classes, *args):
            seen[name].append(col_or_classes)
            return real(col_or_classes, *args)
        return count
    for name in seen:
        monkeypatch.setattr(checker, name, counted(name))
    result = criterion_7()
    assert result.ok, result.line()
    assert {name: (len(objs), len(set(map(id, objs))))
            for name, objs in seen.items()} == {
        "_colouring_facts": (50 + 48, 50 + 48), "_tiling": (50, 50)}


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


def test_witness_files_read_back_to_the_built_witness():
    # criterion 7's witnesses, through JSON text and back
    grid = _witness_grid()
    assert len(grid) == 50
    for inst in grid:
        norm = normalize(inst)
        col, certs = build_counterexample(
            _maximal_failing(p_top(inst).value), norm)
        doc = json.loads(json.dumps(witness_to_json(col, certs)))
        assert witness_from_json(doc) == (col, tuple(certs)), inst


def test_a_witness_files_texts_are_parsed_once():
    # each colour repeats its target and level, and each interval's end is
    # the next one's start: 801 ordinal texts, 203 of them distinct
    norm = norm_of((add(w, 1), 200))
    col, certs = build_counterexample(wp(200), norm)
    doc = json.loads(json.dumps(witness_to_json(col, certs)))
    texts = [doc["domain"]]
    texts += [t for union in doc["rank_classes"] for pair in union
              for t in pair]
    texts += [c[key] for c in doc["certificates"]
              for key in ("claimed_target", "level", "class_residual",
                          "target_residual") if c[key] is not None]
    assert (len(texts), len(set(texts))) == (801, 203)
    parse_expression.cache_clear()
    assert witness_from_json(doc) == (col, tuple(certs))
    info = parse_expression.cache_info()
    assert (info.misses, info.hits) == (203, 801 - 203)


# -- the C2b, C2c and finite-colour C4 leaves ------------------------------------


w2 = initial_ordinal(2)
# one to three instances per leaf whose value has the rank pass's shape
RANK_LEAF_GRID = {
    "C2bI": [((w2, 1), (w, 1)), ((wp(add(w1, 1)), 1), (w, 1), (3, 1))],
    "C2bII": [((add(w1, 1), 1), (w, 1)),
              ((add(mul(w1, 2), 5), 1), (w, 2), (3, 1))],
    "C2cI": [((add(mul(w1, 2), 5), 1),), ((mul(w1, 2), 1),),
             ((w2, 1), (3, 2))],
    "C2cII": [((add(w1, 1), 1), (2, 1)), ((mul(w1, 2), 1), (3, 1), (2, 2)),
              ((add(mul(wp(add(w1, 1)), 2), w), 1), (5, 1))],
    "C4": [((w1, 1), (w, 1)), ((w1, 1), (add(w, 1), 1), (3, 1)),
           ((w1, 1), (mul(wp(2), 2), 2))],
}
# the betas tried below each value: countable ones, and uncountable ones
# whose rank spaces reach w_1
RANK_LEAF_BETAS = [
    ZERO, from_int(5), add(w, 1), add(mul(wp(2), 3), 1), wp(w),
    add(mul(wp(add(w, 1)), 2), 3), wp(wp(2)),
    w1, add(w1, 1), add(w1, 5), add(w1, w), add(mul(w1, 2), 1),
    wp(add(w1, 1)), add(mul(wp(add(w1, 1)), 2), 1), w2,
]
# the known gap of the residual-counting certificate: below the value
# w_1*2, of C6cI's shape, it refuses a domain tail beyond +1 after w_1
RANK_LEAF_REFUSALS = {("C2cI", "w_1*2", "w_1+5"), ("C2cI", "w_1*2", "w_1+w")}


@pytest.mark.parametrize("leaf", RANK_LEAF_GRID)
def test_rank_pass_leaves_build_verifiable_untamperable_witnesses(leaf):
    built_count, refused = 0, set()
    for entries in RANK_LEAF_GRID[leaf]:
        analysis = analyze(Instance.of(*entries))
        assert analysis.case.value == leaf
        norm, value = analysis.normalized, analysis.result.value
        below = [beta for beta in RANK_LEAF_BETAS if beta < value]
        assert len(below) >= 6
        for beta in below:
            try:
                col, certs = build_counterexample(beta, norm)
            except OutOfScope as exc:
                assert str(exc) == ("domain tail too large for the "
                                    "residual-counting certificate")
                refused.add((leaf, format_cnf(entries[0][0]),
                             format_cnf(beta)))
                continue
            certs = tuple(certs)
            assert verify_certificates(col, norm, certs), (entries, beta)
            doc = json.loads(json.dumps(witness_to_json(col, certs)))
            again = witness_from_json(doc)
            assert again == (col, certs)
            assert verify_certificates(again[0], norm, again[1])
            assert _tamper_all(col, norm, certs) is None, (entries, beta)
            built_count += 1
        with pytest.raises(NotBelowThreshold):
            build_counterexample(value, norm)
    assert built_count
    assert refused == {r for r in RANK_LEAF_REFUSALS if r[0] == leaf}


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


# -- one case-tree walk per instance ----------------------------------------------


@pytest.fixture
def walks(monkeypatch):
    """The norms the case tree is walked for, from here on."""
    walked = []
    case_tree = engine._case_tree

    def counted(norm, trail):
        walked.append(norm)
        return case_tree(norm, trail)
    monkeypatch.setattr(engine, "_case_tree", counted)
    return walked


@pytest.mark.parametrize("entries,beta", [
    (((add(w, 1), 2),), wp(2)),                                 # C6cII
    (((mul(w, 2), 2),), add(wp(2), 1)),                         # C6cI
    (((add(w, 1), 1), (wp(2), 1)), add(mul(wp(2), 9), 5)),      # C6b
    (((3, 1), (2, 2)), from_int(3)),                            # C6a
    (((add(w1, 1), 1), (add(w, 1), 1)), mul(w1, 3)),            # C1
])
def test_the_value_and_both_builds_take_one_walk(walks, entries, beta):
    # the order of a witness round: the value, the instance's norm, a
    # build below the value and the refused build at it
    inst = Instance.of(*entries)
    result = analyze(inst).result
    norm = normalize(inst)
    assert norm is analyze(inst).normalized
    build_counterexample(beta, norm)
    if isinstance(result, Exists):
        with pytest.raises(NotBelowThreshold):
            build_counterexample(result.value, norm)
    assert len(walks) == 1 and walks[0] is norm


def test_criterion_7_walks_once_per_grid_instance(walks):
    result = criterion_7()
    assert result.ok, result.line()
    assert len(walks) == len(set(map(id, walks))) == 50


def test_a_norm_built_afresh_is_walked_afresh(walks):
    # the memo is per object: an equal norm has its own
    a, b = norm_of((add(w, 1), 3)), norm_of((add(w, 1), 3))
    assert a == b and a is not b
    assert classify(a) == classify(a) == classify(b)
    assert list(map(id, walks)) == [id(a), id(b)]


@pytest.mark.parametrize("entries", [(1, 1), (0, w), (w, 0)])
def test_a_degenerate_instance_has_no_case_and_no_witness(entries):
    inst = Instance.of(*entries)
    norm = normalize(inst)
    assert not isinstance(norm, NormalizedInstance)
    analyze(inst)
    assert normalize(inst) == norm      # the analysis's degenerate answer
    with pytest.raises(TypeError, match="not a NormalizedInstance"):
        classify(norm)
    with pytest.raises(TypeError, match="not a NormalizedInstance"):
        build_counterexample(ZERO, norm)
    _, col, certs = built(from_int(2), (3, 1))
    assert not verify_certificates(col, norm, certs)


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


def test_witnesses_stop_at_the_point_bound():
    # a finite beta lists every point, an infinite one its top points
    bound = witness.MAX_POINTS
    norm = norm_of(from_int(bound + 1))
    col, certs = build_counterexample(from_int(bound), norm)
    assert len(col.top_point_colours) == bound - 1
    assert verify_certificates(col, norm, certs)
    for beta, target in [(from_int(10 ** 10), from_int(10 ** 10 + 1)),
                         (add(mul(w, 10 ** 10), 1), add(mul(w, 10 ** 10), 2))]:
        with pytest.raises(OutOfScope,
                           match=f"at most {bound}, not {10 ** 10}"):
            build_counterexample(beta, norm_of(target, 2))


@pytest.mark.parametrize("beta,target", [
    (from_int(100000), from_int(400)),           # every point listed
    (add(mul(wp(256), 600), w), add(mul(w, 5), 1))])  # the top points
def test_each_small_bound_counts_its_colours_listed_points(beta, target):
    norm, col, certs = built(beta, (target, 256))
    listed = Counter(col.top_point_colours)
    if col.zero_colour is not None:
        listed[col.zero_colour] += 1
    assert len(certs) == 256
    assert {c.kind for c in certs} == {CertKind.DERIVATIVE_SMALL,
                                       CertKind.DERIVATIVE_EMPTY}
    for cert in certs:
        count = listed[cert.colour]
        assert cert.bound == (count if count else None)
        assert cert.kind is (CertKind.DERIVATIVE_SMALL if count
                             else CertKind.DERIVATIVE_EMPTY)


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


# -- verification: exact ints and the tiling walk -------------------------------


def test_verify_takes_exact_ints_for_colours_bounds_and_colour_lists():
    # two top points of colour 1, whose DerivativeSmall bound is 2
    norm, col, certs = built(add(mul(w, 2), 3), (add(w, 1), 1), (3, 1))
    assert verify_certificates(col, norm, certs)
    for bad in (True, 1.0, "1"):
        assert not verify_certificates(
            col, norm, [certs[0], replace(certs[1], colour=bad)])
        assert not verify_certificates(
            replace(col, top_point_colours=(bad, bad)), norm, certs)
    for bad in (2.0, "2"):
        assert not verify_certificates(
            col, norm, [certs[0], replace(certs[1], bound=bad)])
    # the point 0 of a finite domain takes colour 0
    norm, col, certs = built(4, (3, 2))
    assert col.zero_colour == 0
    assert not verify_certificates(replace(col, zero_colour=False), norm, certs)
    assert not verify_certificates(replace(col, zero_colour=0.0), norm, certs)
    # a bound of 1 is not True
    norm, col, certs = built(mul(wp(2), 2), (mul(wp(2), 3), 1))
    assert certs[0].bound == 1
    assert not verify_certificates(col, norm, [replace(certs[0], bound=True)])


NOT_ORDINALS = ["1", 1.5, True, -1, None, (ONE,)]


def test_verify_rejects_fields_that_are_not_ordinals_without_raising():
    norm, col, certs = built(add(wp(2), 1), (mul(w, 2), 2))
    for bad in NOT_ORDINALS:
        for j, cert in enumerate(certs):
            for field in ("claimed_target", "level", "class_residual",
                          "target_residual"):
                if bad is None and getattr(cert, field) is None:
                    continue    # not a change
                broken = certs[:j] + [replace(cert, **{field: bad})] \
                    + certs[j + 1:]
                assert not verify_certificates(col, norm, broken)
        for i, ivs in enumerate(col.rank_classes):
            for end in (0, 1):
                iv = tuple(bad if e == end else x
                           for e, x in enumerate(ivs[0]))
                classes = list(col.rank_classes)
                classes[i] = (iv,) + ivs[1:]
                assert not verify_certificates(
                    replace(col, rank_classes=tuple(classes)), norm, certs)
        assert not verify_certificates(replace(col, domain=bad), norm, certs)
    # the cofinality witness's domain too, and a mode of neither kind
    c1 = built(OMEGA1, (add(OMEGA1, 1), 1), (add(w, 1), 1))
    for norm, col, certs in (c1, built(add(wp(2), 1), (mul(w, 2), 2))):
        assert verify_certificates(col, norm, certs)
        for bad in NOT_ORDINALS:
            assert not verify_certificates(replace(col, domain=bad), norm,
                                           certs)
        for mode in ("rank", "cofinality", None, 0):
            assert not verify_certificates(replace(col, mode=mode), norm,
                                           certs)


def test_verify_rejects_malformed_shapes_without_raising():
    # the rank_classes, their unions and intervals are tuples, each
    # interval a pair; top_point_colours a tuple; each certificate one
    norm, col, certs = built(wp(2), (add(w, 1), 2))
    assert verify_certificates(col, norm, certs)
    first, second = col.rank_classes
    iv = first[0]
    for classes in (None, [first, second], (None, second), (first, None),
                    (first, ONE), (((ONE,),), second), (((ZERO,),), second),
                    ((iv + (ONE,),), second), ((list(iv),), second), (iv, second)):
        assert not verify_certificates(replace(col, rank_classes=classes),
                                       norm, certs)
    for tops in (None, 0, list(col.top_point_colours)):
        assert not verify_certificates(replace(col, top_point_colours=tops),
                                       norm, certs)
    for bad in ([None, certs[1]], [certs[0], None], [certs[0], col],
                [certs[0], certs[1]._astuple()]):
        assert not verify_certificates(col, norm, bad)
    # the cofinality witness's parts are empty tuples, not merely falsy
    norm, col, certs = built(OMEGA1, (add(OMEGA1, 1), 1), (add(w, 1), 1))
    assert verify_certificates(col, norm, certs)
    for classes in (None, (None, None), ((), None), [(), ()]):
        assert not verify_certificates(replace(col, rank_classes=classes),
                                       norm, certs)
    for tops in (None, 0, []):
        assert not verify_certificates(replace(col, top_point_colours=tops),
                                       norm, certs)


def test_verify_rejects_ill_formed_arguments_without_raising():
    norm, col, certs = built(wp(2), (add(w, 1), 2))
    assert verify_certificates(col, norm, certs)
    assert verify_certificates(col, norm, list(certs))
    for bad_col in (None, 5, col._astuple(), certs[0]):
        assert verify_certificates(bad_col, norm, certs) is False
    for bad_certs in (None, 5, "certs", iter(certs), {0: certs[0]}):
        assert verify_certificates(col, norm, bad_certs) is False
    assert verify_certificates(None, None, None) is False


def test_verify_reads_int_ordinal_fields_as_ordinals():
    norm, col, certs = built(wp(2), (add(w, 1), 2))
    assert certs[0].level == ONE
    assert verify_certificates(col, norm, [replace(certs[0], level=1),
                                           certs[1]])
    assert verify_certificates(replace(col, rank_classes=(((0, 1),),
                                                          ((1, 2),))),
                               norm, certs)


def with_classes(col, *classes):
    return replace(col, rank_classes=tuple(classes))


def test_the_tiling_walk_rejects_bad_rank_intervals():
    two = from_int(2)
    # one colour owning two intervals, [0, 1) and [1, 2), below w^2*2+1
    norm, col, certs = built(add(mul(wp(2), 2), 1), (mul(wp(2), 3), 1))
    assert col.rank_classes == (((ZERO, ONE), (ONE, two)),)
    assert verify_certificates(col, norm, certs)
    out_of_order = with_classes(col, ((ONE, two), (ZERO, ONE)))
    assert not verify_certificates(out_of_order, norm, certs)
    empty = with_classes(col, ((ZERO, ONE), (ONE, ONE), (ONE, two)))
    assert not verify_certificates(empty, norm, certs)

    norm, col, certs = built(wp(2), (add(w, 1), 2))
    assert col.rank_classes == (((ZERO, ONE),), ((ONE, two),))
    same_start = with_classes(col, ((ZERO, ONE),), ((ZERO, ONE),))
    assert not verify_certificates(same_start, norm, certs)
    # the same intervals below w^3 stop short of its rank 3
    short = replace(col, domain=wp(3))
    assert not verify_certificates(short, norm, certs)
    # and three colours' intervals below w^2 run past its rank 2
    norm, col, certs = built(wp(3), (add(w, 1), 3))
    assert not verify_certificates(replace(col, domain=wp(2)), norm, certs)


def test_verify_places_the_zero_colour_on_finite_domains_only():
    norm, col, certs = built(wp(2), (add(w, 1), 2))
    for colour in (0, 1):
        assert not verify_certificates(replace(col, zero_colour=colour),
                                       norm, certs)
    norm, col, certs = built(4, (3, 2))
    assert not verify_certificates(replace(col, zero_colour=None), norm, certs)


def points_up_to(value):
    """Points below a C6 value: small ones, and the largest if any."""
    pts = points_below(value, ranks=range(4))
    try:
        pts.append(_maximal_failing(value))
    except ValueError:
        pass    # a power of w has no largest point below it
    return pts


def interval_tampers(col):
    """Each colour's intervals moved to [0, their order type): the order
    type stays, the tiling breaks."""
    for i, ivs in enumerate(col.rank_classes):
        if ivs and ivs[0][0] != ZERO:
            classes = list(col.rank_classes)
            classes[i] = ((ZERO, order_type_of_union(ivs)),)
            yield replace(col, rank_classes=tuple(classes))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(c6_targets, st.integers(1, 3)), min_size=1,
                max_size=3), st.data())
def test_built_witnesses_verify_and_every_tamper_is_caught(entries, data):
    analysis = analyze(Instance.of(*entries))
    beta = data.draw(st.sampled_from(points_up_to(analysis.result.value)))
    norm = analysis.normalized
    try:
        col, certs = build_counterexample(beta, norm)
    except OutOfScope:
        return      # the residual-counting certificate does not reach it
    certs = tuple(certs)
    assert verify_certificates(col, norm, certs)
    # every field of every certificate bumped as criterion 7 does, and
    # the top points shifted one colour up
    assert _tamper_all(col, norm, certs) is None
    for broken in interval_tampers(col):
        assert not verify_certificates(broken, norm, certs)


def test_every_certificate_kind_has_a_row_and_sets_its_fields():
    # criterion 7's grid, the cofinality witness and the golden corpus set
    # exactly the optional fields of their kind's row, and use every row
    assert set(checker._ROWS) == set(CertKind)
    builds = [build_counterexample(_maximal_failing(p_top(inst).value),
                                   normalize(inst)) for inst in _witness_grid()]
    builds.append(built(mul(w1, 2), (add(w1, 1), 1), (add(w, 1), 1))[1:])
    builds += [row for _, _, rows in corpus_builds() for row in rows
               if not isinstance(row, OutOfScope)]
    kinds = Counter()
    for _, certs in builds:
        for cert in certs:
            assert checker._ROWS[cert.kind] == (
                cert.level is not None, cert.bound is not None,
                cert.class_residual is not None,
                cert.target_residual is not None), cert
            kinds[cert.kind] += 1
    assert set(kinds) == set(CertKind)
