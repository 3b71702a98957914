"""Core arithmetic, pinned values, and two independent cross-checks.

The multiplication check treats a*w as a least upper bound and verifies
both bound and leastness against an exhaustively enumerated grid, using
only addition.  The natural-sum check rebuilds the value by sorting the
monomials of both arguments and folding with ordinary addition, which
never absorbs along a descending exponent list.
"""

from functools import cmp_to_key
from itertools import product

import pytest

from ordpigeon.ordinal import (
    Atom,
    Cardinal,
    ONE,
    OMEGA,
    OMEGA1,
    OMEGA2,
    Ordinal,
    Underflow,
    ZERO,
    ZeroInput,
    add,
    as_exponent,
    biembed_canonical,
    cardinal_sum,
    cb_rank,
    cofinality,
    compare,
    exp_compare,
    format_cnf,
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

w = OMEGA
w1 = OMEGA1
w2 = OMEGA2


def wp(e):
    return omega_pow(e)


def grid(max_exp, max_coeff):
    """Every ordinal whose exponents are integers <= max_exp and whose
    coefficients are <= max_coeff, built directly from monomial tuples."""
    exps = [from_int(k) for k in range(max_exp, -1, -1)]
    out = []
    for coeffs in product(range(max_coeff + 1), repeat=len(exps)):
        out.append(Ordinal(tuple((e, c) for e, c in zip(exps, coeffs) if c)))
    return out


# -- pinned comparisons ------------------------------------------------------


def test_order_chain():
    chain = [ZERO, ONE, from_int(2), w, w + 1, w * 2, wp(2), wp(2) + w,
             wp(w), wp(w + 1), w1, w1 + 1, w1 * 2, wp(as_exponent(w1 * 2)),
             w2, initial_ordinal(w)]
    for i, a in enumerate(chain):
        for j, b in enumerate(chain):
            assert compare(a, b) == (i > j) - (i < j)


def test_int_coercion():
    assert from_int(0) == ZERO and from_int(1) == ONE
    assert int(from_int(7)) == 7
    assert w + 1 == add(w, ONE)
    with pytest.raises(ValueError):
        int(w)
    with pytest.raises(ValueError):
        from_int(-1)


def test_atom_index_positive():
    with pytest.raises(ValueError):
        Atom(ZERO)


# -- addition ----------------------------------------------------------------


def test_add_pinned():
    assert add(from_int(3), from_int(5)) == from_int(8)
    assert add(ONE, w) == w
    assert add(w, ONE) != w
    assert add(w * 2 + 3, w + 1) == w * 3 + 1
    assert add(wp(2) + w, w + 1) == wp(2) + w * 2 + 1
    assert add(w1, w1) == w1 * 2
    assert add(w1 + w, w1) == w1 * 2
    assert add(wp(w) * 2, wp(2) * 5) == wp(w) * 2 + wp(2) * 5


def test_left_subtract_pinned():
    assert left_subtract(w, w * 2 + 3) == w + 3
    assert left_subtract(w + 1, w + 1) == ZERO
    assert left_subtract(from_int(3), w) == w
    assert left_subtract(wp(2) + w, wp(2) + w * 3 + 1) == w * 2 + 1
    with pytest.raises(Underflow):
        left_subtract(w * 2, w)
    with pytest.raises(Underflow):
        left_subtract(w + 2, w + 1)


def test_left_subtract_roundtrip_grid():
    g = grid(2, 2)
    for a in g:
        for b in g:
            assert left_subtract(a, add(a, b)) == b


# -- multiplication, checked as a least upper bound --------------------------


def assert_is_sup(candidate, chain, candidates):
    for x in chain:
        assert x < candidate
    for g in candidates:
        if g < candidate:
            assert any(g < x for x in chain), \
                f"{g} separates the chain from {candidate}"


def test_mul_omega_is_sup():
    dense = grid(4, 3)
    for a in grid(2, 2):
        if a.is_zero():
            assert mul(a, w) == ZERO
            continue
        chain, acc = [], ZERO
        for _ in range(5):
            acc = add(acc, a)
            chain.append(acc)
        assert_is_sup(mul(a, w), chain, dense)


def test_mul_successor_recurrence():
    g = grid(2, 2)
    for a in g:
        for b in g:
            assert mul(a, add(b, ONE)) == add(mul(a, b), a)


def test_mul_pinned():
    assert mul(from_int(2), w) == w
    assert mul(w, from_int(2)) == w * 2
    assert mul(w + 1, from_int(2)) == w * 2 + 1
    assert mul(w + 1, w) == wp(2)
    assert mul(wp(w) * 3 + 1, w) == wp(w + 1)
    assert mul(w1 + 1, w2) == w2
    assert mul(w2, initial_ordinal(4)) == initial_ordinal(4)
    assert mul(w1, w1) == wp(as_exponent(w1 * 2))
    assert mul(wp(2) * 2 + w, w * 5 + 4) == wp(3) * 5 + wp(2) * 8 + w


# -- natural sum, checked against a sort-then-add rebuild ---------------------


def natsum_oracle(a, b):
    pieces = [(e, c) for e, c in a.monomials] + [(e, c) for e, c in b.monomials]
    pieces.sort(key=cmp_to_key(lambda p, q: exp_compare(p[0], q[0])),
                reverse=True)
    out = ZERO
    for e, c in pieces:
        out = add(out, Ordinal(((e, c),)))
    return out


def test_natural_sum_matches_oracle():
    g = grid(2, 3)
    assert len(g) == 64
    for a in g:
        for b in g:
            assert natural_sum(a, b) == natsum_oracle(a, b)


def test_natural_sum_pinned():
    assert natural_sum(w + 1, w + 1) == w * 2 + 2
    assert natural_sum(ONE, w) == w + 1
    assert natural_sum(wp(w) + w, wp(2)) == wp(w) + wp(2) + w
    assert natural_sum(w1 + w, w * 3) == w1 + w * 4
    assert natural_sum() == ZERO
    assert natural_sum(w * 2) == w * 2


# -- Milner-Rado sums ---------------------------------------------------------


def test_mr_sum_pinned():
    assert mr_sum([w + 1, w + 1]) == w * 2 + 1
    assert mr_sum([wp(2) * 3 + w, wp(2) * 2 + 5]) == wp(2) * 5 + w
    assert mr_sum([w * 2, w * 2]) == w * 3
    assert mr_sum([from_int(3), from_int(4)]) == from_int(6)
    assert mr_sum([w, w]) == w
    assert mr_sum([ONE, w]) == w
    assert mr_sum([ONE, ONE]) == ONE
    assert mr_sum([wp(w) + 3]) == wp(w) + 3
    assert p_ord([from_int(3), from_int(4)]) == from_int(6)


def test_mr_sum_rejects_zero():
    with pytest.raises(ZeroInput):
        mr_sum([])
    with pytest.raises(ZeroInput):
        mr_sum([w, ZERO])


def test_mr_sum_on_successors_is_natural_sum_plus_one():
    g = [x for x in grid(2, 2) if not x.is_zero()]
    for a in g:
        for b in g:
            lhs = mr_sum([add(a, ONE), add(b, ONE)])
            assert lhs == add(natural_sum(a, b), ONE)


# -- rank, cofinality, structure ----------------------------------------------


def test_cb_rank():
    assert cb_rank(ZERO) == ZERO
    assert cb_rank(from_int(5)) == ZERO
    assert cb_rank(w) == ONE
    assert cb_rank(wp(w) * 2 + wp(3)) == from_int(3)
    assert cb_rank(w1 + w) == ONE
    assert cb_rank(w1) == w1


def test_cofinality():
    assert cofinality(ZERO) == ZERO
    assert cofinality(w + 1) == ONE
    assert cofinality(w) == w
    assert cofinality(wp(2)) == w
    assert cofinality(wp(w)) == w
    assert cofinality(wp(w + 1)) == w
    assert cofinality(w1) == w1
    assert cofinality(wp(as_exponent(w1 * 2))) == w1
    assert cofinality(w1 * w) == w
    assert cofinality(initial_ordinal(w)) == w
    assert cofinality(initial_ordinal(w1)) == w1
    assert cofinality(initial_ordinal(w + 1)) == initial_ordinal(w + 1)
    assert cofinality(w2) == w2


def test_structure_predicates():
    assert is_power_of_omega(ONE)
    assert is_power_of_omega(w)
    assert is_power_of_omega(wp(2))
    assert is_power_of_omega(w1)
    assert not is_power_of_omega(ZERO)
    assert not is_power_of_omega(from_int(2))
    assert not is_power_of_omega(w * 2)
    assert not is_power_of_omega(w + 1)

    assert w.is_limit() and not w.is_successor()
    assert (w + 1).is_successor()
    assert ZERO.is_finite() and not ZERO.is_limit() and not ZERO.is_successor()
    assert w1.is_limit() and not w1.is_countable()
    assert (wp(w) + 5).is_countable()
    # atoms nested inside exponents count too: w^(w_1 + 1) = w_1 * w
    assert not wp(as_exponent(w1 + 1)).is_countable()
    assert not (wp(2) * 3 + wp(as_exponent(w1 + w))).is_countable()


def test_a_deep_tower_answers_is_countable_without_recursion():
    # is_countable walks the leading exponents in a loop; w^(w_1) is w_1
    # itself, so the uncountable tower is built on w_1 + 1
    for base, countable in ((from_int(2), True), (w1 + 1, False)):
        x = base
        for _ in range(1500):
            x = omega_pow(x)
        assert x.is_countable() is countable


def test_leading_decomposition():
    g, m, rest = leading_decomposition(wp(2) * 3 + w + 4)
    assert (g, m, rest) == (from_int(2), 3, w + 4)
    with pytest.raises(ZeroInput):
        leading_decomposition(ZERO)


def test_biembed_canonical():
    assert biembed_canonical(w * 2 + 5) == w * 2 + 1
    assert biembed_canonical(w * 2) == w * 2
    assert biembed_canonical(wp(2) + w * 7 + 1) == wp(2) + 1
    assert biembed_canonical(ZERO) == ZERO
    assert biembed_canonical(from_int(9)) == from_int(9)


def test_order_reinforcing():
    good = [ZERO, ONE, from_int(7), w, w + 1, wp(2), wp(2) + 1, wp(w),
            wp(w) * 3 + 1, w * 2 + 1, w1, w1 + 1]
    bad = [w + 2, w * 2, wp(2) + w, wp(2) + 2, wp(w) + w1 * 0 + 2]
    for x in good:
        assert is_order_reinforcing(x), x
    for x in bad:
        assert not is_order_reinforcing(x), x


# -- cardinals ----------------------------------------------------------------


def test_cardinal_order_and_successor():
    assert Cardinal.finite(3) < Cardinal.finite(4)
    assert Cardinal.finite(10 ** 9) < Cardinal.aleph(0)
    assert Cardinal.aleph(0) < Cardinal.aleph(1)
    assert Cardinal.finite(2).successor() == Cardinal.finite(3)
    assert Cardinal.aleph(0).successor() == Cardinal.aleph(1)
    assert Cardinal.aleph(w).successor() == Cardinal.aleph(w + 1)


def test_cardinal_sum_and_ordinal_view():
    assert cardinal_sum([Cardinal.finite(2), Cardinal.finite(3)]) == Cardinal.finite(5)
    assert cardinal_sum([Cardinal.finite(2), Cardinal.aleph(0)]) == Cardinal.aleph(0)
    assert cardinal_sum([Cardinal.aleph(1), Cardinal.aleph(0)]) == Cardinal.aleph(1)
    assert Cardinal.aleph(0).as_ordinal() == w
    assert Cardinal.aleph(1).as_ordinal() == w1
    assert Cardinal.finite(4).as_ordinal() == from_int(4)


# -- formatting ----------------------------------------------------------------


def test_format_cnf():
    assert format_cnf(ZERO) == "0"
    assert format_cnf(from_int(12)) == "12"
    assert format_cnf(w) == "w"
    assert format_cnf(wp(2) * 4 + 1) == "w^2*4+1"
    assert format_cnf(w1 * 2 + w) == "w_1*2+w"
    assert format_cnf(wp(w + 1)) == "w^(w+1)"
    assert format_cnf(initial_ordinal(w)) == "w_w"
    assert format_cnf(initial_ordinal(w1)) == "w_w_1"
    assert format_cnf(initial_ordinal(w + 1)) == "w_(w+1)"
    assert format_cnf(wp(w) * 2 + wp(2) * 3 + w + 5) == "w^w*2+w^2*3+w+5"
