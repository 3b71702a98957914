"""Case dispatch and closed-form values of the pigeonhole number."""

import gc
import random
from functools import reduce

import pytest
from hypothesis import example, given, settings, strategies as st

from ordpigeon import engine
from ordpigeon.engine import (
    CasePath,
    EmptyInstance,
    Exists,
    Independent,
    Infinite,
    Instance,
    PowerOfOmegaInput,
    RelationVerdict,
    analyze,
    case6_decompose,
    classify,
    minimal_omega_power_bound,
    normalize,
    p_top,
    relation_holds,
)
from ordpigeon.ordinal import (
    Cardinal,
    ONE,
    OMEGA,
    OMEGA1,
    OMEGA2,
    Ordinal,
    ZERO,
    ZeroInput,
    add,
    cb_rank,
    format_cnf,
    from_int,
    initial_ordinal,
    leading_decomposition,
    mr_sum_counted,
    mul,
    natural_sum,
    omega_pow,
)
from ordpigeon.parser import parse_ordinal

w = OMEGA
w1 = OMEGA1
w2 = OMEGA2
A0 = Cardinal.aleph(0)
A1 = Cardinal.aleph(1)


def wp(e):
    return omega_pow(e)


def value(*entries):
    result = p_top(Instance.of(*entries))
    assert isinstance(result, Exists), result
    return result.value


def case_of(*entries):
    return analyze(Instance.of(*entries)).case


# -- normalisation ------------------------------------------------------------


def test_empty_instance_rejected():
    with pytest.raises(EmptyInstance):
        normalize(Instance(()))
    with pytest.raises(EmptyInstance):
        Instance.of((w, 0))


def test_instance_coerces_ints_and_rejects_other_types():
    assert p_top(Instance(((w, 2),))) == p_top(Instance.of((w, 2)))
    assert p_top(Instance(((2, Cardinal.finite(2)),))) == Exists(from_int(3))
    assert Instance([(3, 2)]).entries == ((from_int(3), Cardinal.finite(2)),)
    with pytest.raises(TypeError):
        Instance((("w", 1),))
    with pytest.raises(TypeError):
        Instance(((w, 1.5),))
    with pytest.raises(TypeError):
        Instance.of("w")
    with pytest.raises(EmptyInstance):
        Instance(((w, 0),))


def test_degenerate_targets():
    assert p_top(Instance.of(0, w)) == Exists(ZERO)
    assert p_top(Instance.of(1, 1, 1)) == Exists(ONE)
    assert case_of(0, w1) is CasePath.ZERO
    assert case_of(1) is CasePath.ALL_ONES
    # dropping ones must not change anything else
    assert value(w, 1, w * 2) == value(w, w * 2)


# -- case 1: provably no value -------------------------------------------------


def test_case1_infinite():
    inst = Instance.of(w1 + 1, w + 1)
    assert case_of(w1 + 1, w + 1) is CasePath.C1
    assert isinstance(p_top(inst), Infinite)
    assert relation_holds(initial_ordinal(5), inst) is RelationVerdict.FAILS
    assert case_of((w1 * 2, 2)) is CasePath.C1
    assert case_of(w2, w + 1) is CasePath.C1


# -- case 2: a unique target above w_1 ------------------------------------------


def test_case2a_not_power():
    inst = Instance.of((w1 + 1, 1), (2, A0))
    assert case_of((w1 + 1, 1), (2, A0)) is CasePath.C2aI
    assert p_top(inst) == Exists(mul(w1 + 1, w1))


def test_case2a_power_high_cofinality():
    assert case_of((w2, 1), (2, A0)) is CasePath.C2aIIA
    assert value((w2, 1), (2, A0)) == w2


def test_case2a_power_middle_cofinality():
    # cf(w^(w_1*2)) = w_1 <= aleph_1 yet uncountable
    big = wp(w1 * 2)
    assert case_of((big, 1), (2, A1)) is CasePath.C2aIIB
    assert value((big, 1), (2, A1)) == mul(big, w2)


def test_case2a_power_countable_cofinality():
    # exponent w_1 + w has tail rank 1 < w_1: multiply by the successor
    big = wp(w1 + w)
    assert case_of((big, 1), (2, A0)) is CasePath.C2aIIC_lt
    assert value((big, 1), (2, A0)) == mul(big, w1)
    # exponent w^(w_1+1) still has countable cofinality, tail rank w_1+1
    big = wp(wp(w1 + 1))
    assert case_of((big, 1), (2, A0)) is CasePath.C2aIIC_gt
    assert value((big, 1), (2, A0)) == big


def test_case2b():
    assert case_of(w2, w) is CasePath.C2bI
    assert value(w2, w) == w2
    assert case_of(w1 + 1, w) is CasePath.C2bII
    assert value(w1 + 1, w) == mul(w1 + 1, w)


def test_case2c_single_target_uses_class_floor():
    assert case_of(w1 * 2 + 5) is CasePath.C2cI
    assert value(w1 * 2 + 5) == w1 * 2 + 1
    assert value(w1 * 2) == w1 * 2
    assert value(w2 + 1) == w2 + 1


def test_case2c_power_with_finite_company():
    assert case_of(w2, 3) is CasePath.C2cI
    assert value(w2, 3) == w2


def test_case2c_general():
    inst = Instance.of((w1 + 1, 1), (2, 1))
    assert case_of((w1 + 1, 1), (2, 1)) is CasePath.C2cII
    assert p_top(inst) == Exists(w1 * 2 + 1)
    assert value(w1 * 3, 2, 3) == w1 * 5 + 1
    assert value(w1 + 5, 4) == w1 * 4 + 1


# -- cases 3 to 5: the uncountable frontier ------------------------------------


def test_case3_independent():
    result = p_top(Instance.of(w1, w1))
    assert isinstance(result, Independent)
    assert result.zfc_lower == w2
    assert "Prikry" in result.consistent_infinite
    assert "supercompact" in result.consistent_equal_lower
    assert "Mahlo" in result.equiconsistency
    big = p_top(Instance.of((w1, Cardinal.aleph(2))))
    assert isinstance(big, Independent)
    assert big.zfc_lower == initial_ordinal(3)
    verdict = relation_holds(w2, Instance.of(w1, w1))
    assert verdict is RelationVerdict.INDEPENDENT_UNKNOWN
    assert relation_holds(w1, Instance.of(w1, w1)) is RelationVerdict.FAILS


def test_case4_single_w1():
    assert case_of(w1, w) is CasePath.C4
    assert value(w1, w) == w1
    assert value((w1, 1), (w, A1)) == w2


def test_case5_countable_targets_many_colours():
    assert case_of((w, A0)) is CasePath.C5
    assert value((w, A0)) == w1
    assert value((w * 2 + 1, A1)) == w2


# -- case 6: countable targets, finitely many colours ---------------------------


def test_case6a_finite():
    assert case_of(3, 4) is CasePath.C6a
    assert value(3, 4) == from_int(6)
    assert value((2, 3)) == from_int(4)
    assert value(5) == from_int(5)


def test_case6b_powers():
    assert case_of(w, w * 2) is CasePath.C6b
    assert value(w, w * 2) == wp(2)
    assert value(wp(w), wp(2)) == wp(w)
    assert value(w, w) == w
    assert value(wp(3), wp(3)) == wp(5)
    # Baumgartner's family: both targets w^(w^a*(m+1))
    for a in (ZERO, ONE, from_int(2), w):
        for m in range(4):
            t = wp(mul(wp(a), from_int(m + 1)))
            assert value(t, t) == wp(mul(wp(a), from_int(2 * m + 1)))


def test_case6b_fixed_points():
    # p(a, a) = a exactly for the multiplicatively closed powers w^(w^b)
    for t in (w, wp(w), wp(wp(2)), wp(wp(w))):
        assert value(t, t) == t
    for t in (wp(2), wp(3), wp(w + 1), wp(w * 2)):
        assert value(t, t) > t


def test_case6c_distinguished():
    assert case_of((w * 2, 2)) is CasePath.C6cI
    assert value((w * 2, 2)) == wp(2) * 2
    assert case_of(wp(w) * 2, w * 2) is CasePath.C6cI
    assert value(wp(w) * 2, w * 2) == wp(w + 1) * 2
    assert value(w * 3, w * 2) == wp(2) * 3


def test_case6c_general():
    assert case_of(w * 2, w * 2 + 1) is CasePath.C6cII
    assert value(w * 2, w * 2 + 1) == wp(2) * 2 + 1
    assert value(wp(2) * 2, w * 2 + 1) == wp(3) * 2 + 1
    assert value(w + 1, w + 1) == wp(2) + 1
    assert value(w + 1, w + 1, w + 1) == wp(3) + 1
    assert value(w + 1, 3) == w * 3 + 1
    assert value(w * 2 + 1, 3) == w * 4 + 1


def test_case6_trail_is_reported():
    a = analyze(Instance.of(w * 2, w * 2 + 1))
    assert a.case is CasePath.C6cII
    assert any("power of w" in step for step in a.trail)
    assert a.result == Exists(wp(2) * 2 + 1)


# -- helpers -------------------------------------------------------------------


def test_minimal_omega_power_bound():
    assert minimal_omega_power_bound(ONE) == ZERO
    assert minimal_omega_power_bound(from_int(2)) == ONE
    assert minimal_omega_power_bound(w) == ONE
    assert minimal_omega_power_bound(w + 1) == from_int(2)
    assert minimal_omega_power_bound(wp(2)) == from_int(2)
    assert minimal_omega_power_bound(wp(w)) == w
    assert minimal_omega_power_bound(wp(w) + 1) == w + 1


@pytest.mark.parametrize("call, error, message", [
    (lambda: minimal_omega_power_bound(0), ZeroInput, "a must be at least 1"),
], ids=["omega-power-bound"])
def test_documented_raises_are_pinned(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)


def test_case6_decompose():
    assert case6_decompose(w * 2) == (ONE, 1, True)
    assert case6_decompose(w * 2 + 1) == (ONE, 2, False)
    assert case6_decompose(wp(2) * 3 + w) == (from_int(2), 3, False)
    assert case6_decompose(from_int(7)) == (ZERO, 7, False)
    with pytest.raises(PowerOfOmegaInput):
        case6_decompose(wp(2))
    with pytest.raises(ValueError):
        case6_decompose(ONE)
    with pytest.raises(ValueError):
        case6_decompose(w1 + 1)


def test_case6_decompose_error_order():
    # too small, then uncountable, then a power of w
    for a in (ZERO, ONE, 1):
        with pytest.raises(ValueError, match="at least 2"):
            case6_decompose(a)
    for a in (w1, w1 * 2, w2 + 1):
        with pytest.raises(ValueError, match="countable") as caught:
            case6_decompose(a)
        assert not isinstance(caught.value, PowerOfOmegaInput)


def test_exported_case6_helpers_coerce_their_input():
    assert case6_decompose(5) == (ZERO, 5, False)
    assert minimal_omega_power_bound(5) == ONE
    for helper in (case6_decompose, minimal_omega_power_bound):
        with pytest.raises(TypeError, match="cannot interpret"):
            helper("x")


def test_relation_verdicts():
    inst = Instance.of(w, w * 2)
    assert relation_holds(wp(2), inst) is RelationVerdict.HOLDS
    assert relation_holds(wp(2) + 1, inst) is RelationVerdict.HOLDS
    assert relation_holds(w * 9 + 5, inst) is RelationVerdict.FAILS


BAD_BETAS = [("x", TypeError), (None, TypeError), (True, TypeError),
             (-1, ValueError), (2.5, TypeError)]


@pytest.mark.parametrize("entries", [(w, w * 2), (w1 + 1, w + 1), (w1, w1)],
                         ids=["Exists", "Infinite", "Independent"])
def test_relation_holds_rejects_a_malformed_beta_for_every_answer(entries):
    inst = Instance.of(*entries)
    for beta, error in BAD_BETAS:
        with pytest.raises(error):
            relation_holds(beta, inst)
    # an int is an ordinal, whatever the answer
    assert relation_holds(3, inst) is RelationVerdict.FAILS


@pytest.mark.parametrize("call", [
    analyze, p_top, normalize, lambda x: relation_holds(w, x)],
    ids=["analyze", "p_top", "normalize", "relation_holds"])
def test_a_non_instance_raises_type_error(call):
    for bad in ("x", None, ((w, Cardinal.finite(2)),)):
        with pytest.raises(TypeError, match="is not an Instance$"):
            call(bad)


# -- one analysis per instance object ------------------------------------------


# entries that dispatch to each leaf of the case tree
LEAF_TEMPLATES = {
    CasePath.ZERO: (0, w1),
    CasePath.ALL_ONES: (1,),
    CasePath.C1: (w1 + 1, w + 1),
    CasePath.C2aI: ((w1 + 1, 1), (2, A0)),
    CasePath.C2aIIA: ((w2, 1), (2, A0)),
    CasePath.C2aIIB: ((wp(w1 * 2), 1), (2, A1)),
    CasePath.C2aIIC_lt: ((wp(w1 + w), 1), (2, A0)),
    CasePath.C2aIIC_gt: ((wp(wp(w1 + 1)), 1), (2, A0)),
    CasePath.C2bI: (w2, w),
    CasePath.C2bII: (w1 + 1, w),
    CasePath.C2cI: (w1 * 2 + 5,),
    CasePath.C2cII: ((w1 + 1, 1), (2, 1)),
    CasePath.C3: (w1, w1),
    CasePath.C4: (w1, w),
    CasePath.C5: ((w, A0),),
    CasePath.C6a: (3, 4),
    CasePath.C6b: (w, w * 2),
    CasePath.C6cI: ((w * 2, 2),),
    CasePath.C6cII: (w * 2, w * 2 + 1),
}

# criterion 3's exponents: the ordinals up to w^2 with coefficients at
# most 2, decreasing; its class gives each a coefficient 0..2
C3_EXPONENTS = (wp(2), w * 2 + 2, w * 2 + 1, w * 2, w + 2, w + 1, w,
                from_int(2), ONE, ZERO)


def c3_target(coefficients):
    return reduce(add, (mul(wp(e), from_int(c))
                        for e, c in zip(C3_EXPONENTS, coefficients)), ZERO)


c3_targets = st.lists(st.integers(0, 2), min_size=10, max_size=10).map(
    c3_target).filter(lambda a: a > ONE)
instance_entries = st.one_of(
    c3_targets.map(lambda a: ((a, 2),)),
    st.lists(c3_targets, min_size=2, max_size=3).map(tuple),
    st.sampled_from(list(LEAF_TEMPLATES.values())))


def test_leaf_templates_reach_their_leaves():
    for leaf, entries in LEAF_TEMPLATES.items():
        assert case_of(*entries) is leaf
    assert set(LEAF_TEMPLATES) == set(CasePath)


def test_entry_order_does_not_change_the_leaf():
    # the engine settles countability per entry before it looks for
    # targets above w_1 or equal to it, in whatever order they come
    for entries in LEAF_TEMPLATES.values():
        forward = analyze(Instance.of(*entries))
        backward = analyze(Instance.of(*reversed(entries)))
        assert (backward.case, backward.result) == \
            (forward.case, forward.result)


def test_an_instance_object_walks_the_case_tree_once(monkeypatch):
    walks = []
    walk = engine._case_tree

    def counted(norm, trail):
        walks.append(norm)
        return walk(norm, trail)

    monkeypatch.setattr(engine, "_case_tree", counted)
    inst = Instance.of(w * 2, w * 2 + 1)
    top = analyze(inst).result.value
    assert p_top(inst) == Exists(top)
    assert relation_holds(top, inst) is RelationVerdict.HOLDS
    assert relation_holds(wp(2) * 2, inst) is RelationVerdict.FAILS
    assert len(walks) == 1
    # an equal instance built separately is analysed on its own
    twin = Instance.of(w * 2, w * 2 + 1)
    assert twin == inst and p_top(twin) == p_top(inst)
    assert len(walks) == 2


@settings(max_examples=150, deadline=None)
@given(instance_entries)
def test_the_kept_analysis_is_a_fresh_one(entries):
    inst = Instance.of(*entries)
    twin = Instance(inst.entries)
    before = (inst == twin, hash(inst), repr(inst))
    kept = analyze(inst)
    assert analyze(inst) is kept and p_top(inst) is kept.result
    assert kept == analyze(Instance(inst.entries))
    assert (inst == twin, hash(inst), repr(inst)) == before


def test_entries_are_frozen():
    entries = [(w * 2, Cardinal.finite(1)), (w * 2 + 1, Cardinal.finite(1))]
    inst = Instance(entries)
    before = (analyze(inst), hash(inst))
    entries[0] = (w1, Cardinal.finite(2))
    entries.append((w2, Cardinal.finite(1)))
    assert inst.entries == Instance.of(w * 2, w * 2 + 1).entries
    assert (analyze(inst), hash(inst)) == before
    assert p_top(Instance(entries)) != before[0].result
    # a tuple is kept as it is
    frozen = tuple(entries)
    assert Instance(frozen).entries is frozen


def test_analysed_instances_leave_no_reference_cycles():
    rng = random.Random(6)
    templates = list(LEAF_TEMPLATES.values())
    gc.collect()
    gc.disable()
    try:
        for i in range(200):
            if i % 2:
                entries = templates[i % len(templates)]
            else:
                entries = ((c3_target([rng.randint(0, 2) for _ in range(10)])
                            + 2, 2),)
            inst = Instance.of(*entries)
            p_top(inst)
            del inst
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- the C6 leaves build their values without hashing --------------------------

C6_LEAVES = (CasePath.C6a, CasePath.C6b, CasePath.C6cI, CasePath.C6cII)


def test_sums_and_c6_leaves_hash_no_ordinal(monkeypatch):
    norms = [normalize(Instance.of(*LEAF_TEMPLATES[leaf]))
             for leaf in C6_LEAVES]
    targets = [t for norm in norms for t, _ in norm.entries]
    targets += [w1 + w * 2, wp(w1 + 1) * 2 + w1 + 3, w2 + w1]
    fresh = w * 5 + 2
    hashed = []
    unpatched = Ordinal.__hash__

    def counted(self):
        hashed.append(self)
        return unpatched(self)

    monkeypatch.setattr(Ordinal, "__hash__", counted)
    natural_sum(*targets)
    mr_sum_counted([(t, 1 + i % 3) for i, t in enumerate(targets)])
    cases = [classify(norm).case for norm in norms]
    assert hashed == []
    assert cases == list(C6_LEAVES)
    hash(fresh)
    assert hashed and hashed[0] is fresh


def _generic_value(analysis):
    # the C6c and C2cII values through generic arithmetic: w^g*n (+ 1)
    norm = analysis.normalized
    if analysis.case is CasePath.C2cII:
        big = max(t for t, _ in norm.entries)
        g, m, rest = leading_decomposition(big)
        if rest.is_zero():
            m -= 1
        others = sum((int(t) - 1) * c.size for t, c in norm.entries
                     if t != big)
        return add(mul(omega_pow(g), from_int(others + m)), ONE)
    decs = analysis.decompositions
    counts = [c.size for _, c in norm.entries]
    gamma = natural_sum(*(g for (g, _, _), c in zip(decs, counts)
                          for _ in range(c)))
    if analysis.case is CasePath.C6cI:
        m = decs[analysis.distinguished][1]
        return mul(omega_pow(gamma), from_int(m + 1))
    total = sum((m - 1) * c for (_, m, _), c in zip(decs, counts)) + 1
    return add(mul(omega_pow(gamma), from_int(total)), ONE)


# exact multiples w^g*k and targets with leading coefficient 1, so that
# C6cI is common among the draws
exact_multiples = st.tuples(st.sampled_from(C3_EXPONENTS[:-1]),
                            st.integers(2, 3)).map(lambda p: wp(p[0]) * p[1])
c6_targets = st.one_of(
    c3_targets,
    exact_multiples,
    st.tuples(st.sampled_from(C3_EXPONENTS[:-1]), c3_targets).map(
        lambda p: wp(p[0]) + p[1]),
)
c6c_entries = st.one_of(
    st.lists(st.tuples(c6_targets, st.integers(1, 3)), min_size=1,
             max_size=3),
    st.tuples(exact_multiples, st.lists(c6_targets, max_size=2)).map(
        lambda p: ((p[0], 1), *p[1])),
)
# one target above w_1 that is not a power of w, with finite company
c2cii_entries = st.tuples(
    st.sampled_from([w1, w1 + 1, w1 * 2 + w, w2]), st.integers(1, 3),
    st.sampled_from([ZERO, ONE, w + 1, wp(2) * 2]),
    st.lists(st.tuples(st.integers(2, 6), st.integers(1, 3)), min_size=1,
             max_size=3),
).map(lambda p: ((add(mul(wp(p[0]), from_int(p[1])), p[2]), 1),
                 *p[3])).filter(lambda e: e[0][0] > w1)


@settings(max_examples=200, deadline=None)
@given(st.one_of(c6c_entries, c2cii_entries))
def test_normal_form_values_match_the_generic_arithmetic(entries):
    analysis = analyze(Instance.of(*entries))
    if analysis.case not in (CasePath.C6cI, CasePath.C6cII, CasePath.C2cII):
        return
    top = analysis.result.value
    assert top == _generic_value(analysis)
    text = format_cnf(top)
    again = parse_ordinal(text)
    assert again == top and format_cnf(again) == text


def _distinguished_by_the_rule(norm, decs):
    # the first exact entry of minimal rank whose other copies, its own
    # included, all have m = 1, entry by entry
    ranks = [cb_rank(g) for g, _, _ in decs]
    counts = [c.size for _, c in norm.entries]
    return next((s for s, (_, _, exact) in enumerate(decs)
                 if exact and not any(ranks[s] > r for r in ranks)
                 and all(m == 1 for i, (_, m, _) in enumerate(decs)
                         if i != s or counts[i] > 1)), None)


@settings(max_examples=300, deadline=None)
@given(c6c_entries)
# a later exact entry of lower rank; an exact entry with m > 1 and count 2
@example(((wp(w) * 2, 1), (w * 2, 1)))
@example(((w * 3, 2),))
def test_the_one_pass_c6c_leaf_matches_the_per_target_rule(entries):
    analysis = analyze(Instance.of(*entries))
    if analysis.case not in (CasePath.C6cI, CasePath.C6cII):
        return
    norm = analysis.normalized
    decs = tuple(case6_decompose(t) for t, _ in norm.entries)
    assert analysis.decompositions == decs
    assert analysis.distinguished == _distinguished_by_the_rule(norm, decs)
