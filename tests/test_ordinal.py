"""Core arithmetic, pinned values, and two independent cross-checks.

The multiplication check treats a*w as a least upper bound and verifies
both bound and leastness against an exhaustively enumerated grid, using
only addition.  The natural-sum check rebuilds the value by sorting the
monomials of both arguments and folding with ordinary addition, which
never absorbs along a descending exponent list.
"""

import copy
import pickle
from functools import cmp_to_key
from itertools import product

import pytest
from hypothesis import given

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
    biembed_canonical,
    cardinal_sum,
    cb_rank,
    cofinality,
    compare,
    format_cnf,
    from_int,
    initial_ordinal,
    is_order_reinforcing,
    is_power_of_omega,
    leading_decomposition,
    left_subtract,
    mr_sum,
    mr_sum_counted,
    mul,
    natural_sum,
    omega_pow,
    p_ord,
)
from ordpigeon.parser import parse_expression
from test_ordinal_props import _deep_copy, wild

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
             wp(w), wp(w + 1), w1, w1 + 1, w1 * 2, wp(w1 * 2),
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


def test_compare_coerces_ints_as_the_operators_do():
    assert compare(w, 1) == 1 and (w > 1) is True
    assert compare(3, w) == -1 and compare(from_int(4), 4) == 0
    assert compare(2, 5) == -1
    with pytest.raises(TypeError):
        compare(w, "w")
    with pytest.raises(TypeError):
        compare(1.5, w)


def test_a_bool_is_not_an_ordinal():
    # True is an int to Python, but neither 1 nor a count to the kernel
    for call in (lambda: add(w, True), lambda: from_int(True),
                 lambda: Cardinal.aleph(True), lambda: compare(w, False)):
        with pytest.raises(TypeError):
            call()
    assert (ONE == True) is False and (ZERO == False) is False  # noqa: E712
    assert ONE == 1 and ZERO == 0
    with pytest.raises(ZeroInput):
        mr_sum_counted([(w, True)])


def test_a_negative_int_equals_no_ordinal():
    # no ordinal is negative, so == answers False rather than raising
    assert (ONE == -1) is False and (ONE != -1) is True
    assert -1 not in [ZERO, ONE, w, OMEGA1]
    assert (Ordinal(()) == -5) is False


def test_atom_index_positive():
    with pytest.raises(ValueError):
        Atom(ZERO)


# -- the public constructor takes normal forms only ---------------------------

NOT_NORMAL = {
    # w^4*0 is 0, but the kernel would read it as a term: plus 1, w^4*0+1
    "zero coefficient": (((from_int(4), 0),), ValueError),
    # "1+w" is w, but the kernel would compare it below w
    "ascending exponents": (((ZERO, 1), (ONE, 1)), ValueError),
    "repeated exponent": (((ONE, 1), (ONE, 2)), ValueError),
    "repeated atom": (((Atom(ONE), 1), (OMEGA1, 2)), ValueError),
    "negative coefficient": (((ONE, -1),), ValueError),
    "float coefficient": (((ONE, 1.5),), ValueError),
    "bool coefficient": (((ONE, True),), ValueError),
    "int exponent": (((1, 1),), TypeError),
}


@pytest.mark.parametrize("monomials, error", NOT_NORMAL.values(),
                         ids=NOT_NORMAL)
def test_constructor_rejects_what_is_not_a_normal_form(monomials, error):
    with pytest.raises(error):
        Ordinal(monomials)


@given(wild, wild)
def test_operations_build_only_normal_forms(a, b):
    lo, hi = min(a, b), max(a, b)
    results = [add(a, b), mul(a, b), natural_sum(a, b),
               left_subtract(lo, hi), omega_pow(a)]
    if not lo.is_zero():
        results.append(mr_sum_counted([(a, 1), (b, 2)]))
    for x in results:
        y = _deep_copy(x)  # node by node through the public constructors
        assert type(y) is type(x)
        assert y == x and hash(y) == hash(x)


@pytest.mark.parametrize("nu", [ONE, from_int(2), w, w1],
                         ids=["1", "2", "w", "w_1"])
def test_w_nu_has_one_node(nu):
    x = Ordinal(((Atom(nu), 1),))
    assert type(x) is Atom and x.monomials == ((x, 1),)
    assert x == initial_ordinal(nu) and hash(x) == hash(initial_ordinal(nu))
    assert omega_pow(x) == x and omega_pow(initial_ordinal(nu)) == x


def every_build_of(n):
    """The value n made by each builder path: the checked constructor,
    from_int, each operation that builds a finite result, the parser."""
    half = from_int(n // 2)
    return {
        "Ordinal": Ordinal(((Ordinal(()), n),)) if n else Ordinal(()),
        "from_int": from_int(n),
        "add": add(half, from_int(n - n // 2)),
        "mul": mul(ONE, from_int(n)),
        "left_subtract": left_subtract(from_int(2), from_int(n + 2)),
        "natural_sum": natural_sum(half, n - n // 2),
        "leading_decomposition": leading_decomposition(add(w, n))[2],
        "parse_expression": parse_expression(str(n)).value,
    }


@pytest.mark.parametrize("n, node", [(0, ZERO), (1, ONE), (63, from_int(63))],
                         ids=["0", "1", "63"])
def test_small_naturals_have_one_node(n, node):
    for path, x in every_build_of(n).items():
        assert x is node, path
    # as an exponent too
    assert wp(n).monomials[0][0] is node
    assert (wp(w) * 2 + wp(n) + n).monomials[-1][0] is ZERO


@pytest.mark.parametrize("n", [64, 10**20])
def test_larger_naturals_compare_hash_and_print_as_before(n):
    builds = every_build_of(n)
    for path, x in builds.items():
        assert x == builds["Ordinal"] and x == n, path
        assert compare(x, builds["from_int"]) == 0, path
        assert hash(x) == hash(((ZERO, n),)), path
        assert format_cnf(x) == str(n) and int(x) == n, path
    x = builds["from_int"]
    assert compare(from_int(63), x) == -1 and compare(x, from_int(n + 1)) == -1
    assert compare(x, w) == -1 and compare(wp(x), wp(from_int(n))) == 0
    assert wp(x) == wp(n) and hash(wp(x)) == hash(wp(n))
    assert format_cnf(add(wp(x), x)) == f"w^{n}+{n}"


@pytest.mark.parametrize("x", [ZERO, ONE, from_int(63)], ids=["0", "1", "63"])
def test_shared_nodes_copy_and_pickle_to_themselves(x):
    for twin in (pickle.loads(pickle.dumps(x)), copy.copy(x),
                 copy.deepcopy(x)):
        assert twin is x
    y = copy.deepcopy(add(wp(x), x))
    assert y == add(wp(x), x) and y.monomials[0][0] is x


@pytest.mark.parametrize("x", [ZERO, ONE, from_int(63)], ids=["0", "1", "63"])
def test_shared_nodes_stay_immutable(x):
    value = x.monomials
    for attack in (lambda: setattr(x, "monomials", ((ZERO, 2),)),
                   lambda: setattr(x, "other", 1),
                   lambda: delattr(x, "monomials")):
        with pytest.raises(AttributeError):
            attack()
    assert x.monomials is value and x == int(format_cnf(x))


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
    assert mul(w1, w1) == wp(w1 * 2)
    assert mul(wp(2) * 2 + w, w * 5 + 4) == wp(3) * 5 + wp(2) * 8 + w


# -- natural sum, checked against a sort-then-add rebuild ---------------------


def natsum_oracle(a, b):
    pieces = [(e, c) for e, c in a.monomials] + [(e, c) for e, c in b.monomials]
    pieces.sort(key=cmp_to_key(lambda p, q: compare(p[0], q[0])),
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


def test_mr_sum_counted_rejects_counts_below_one():
    assert mr_sum_counted([(w, 1)]) == w
    for count in (0, -1, 1.0, "1", None):
        with pytest.raises(ZeroInput):
            mr_sum_counted([(w, count)])
        with pytest.raises(ZeroInput):
            mr_sum_counted([(w + 1, 2), (w, count)])


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
    assert cofinality(wp(w1 * 2)) == w1
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
    assert not wp(w1 + 1).is_countable()
    assert not (wp(2) * 3 + wp(w1 + w)).is_countable()


def test_a_deep_tower_answers_is_countable_without_recursion():
    # is_countable walks the leading exponents in a loop; w^(w_1) is w_1
    # itself, so the uncountable tower is built on w_1 + 1
    for base, countable in ((from_int(2), True), (w1 + 1, False)):
        x = base
        for _ in range(1500):
            x = omega_pow(x)
        assert x.is_countable() is countable


def test_a_deep_tower_answers_cofinality_without_recursion():
    # cofinality walks the last exponents and atom indices in a loop
    for step, cf in ((omega_pow, w), (initial_ordinal, w2)):
        x = from_int(2)
        for _ in range(1500):
            x = step(x)
        assert cofinality(x) == cf


def test_an_atom_against_a_deep_countable_tower_needs_no_recursion():
    # an atom exceeds every countable exponent: is_countable's loop
    # settles the pair instead of a descent down the tower
    x = from_int(2)
    for _ in range(1500):
        x = omega_pow(x)
    assert compare(x, w1) == -1 and compare(w1, x) == 1
    assert x < w1 and w2 > x


def test_leading_decomposition():
    g, m, rest = leading_decomposition(wp(2) * 3 + w + 4)
    assert (g, m, rest) == (from_int(2), 3, w + 4)
    with pytest.raises(ZeroInput):
        leading_decomposition(ZERO)


@pytest.mark.parametrize("call, error, message", [
    (lambda: left_subtract(wp(2), w + 5), Underflow, "w^2 > w+5"),
    (lambda: left_subtract(w + 1, w), Underflow, "w+1 > w"),
    (ZERO.leading_exponent, ZeroInput, "0 has no leading exponent"),
    (ZERO.leading_coefficient, ZeroInput, "0 has no leading coefficient"),
], ids=["subtract-lead", "subtract-tail", "exponent", "coefficient"])
def test_documented_raises_are_pinned(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)


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


def test_reflected_operators_and_cardinal_order_against_ints():
    assert 3 + w == w and 2 * w == w
    assert 3 + wp(2) == wp(2) and 2 * (w + 1) == w + 2
    assert Cardinal.finite(3) <= 3 and not Cardinal.finite(3) <= 2
    assert Cardinal.aleph(0) > 5 and not Cardinal.finite(5) > 5
    assert Cardinal.finite(4) >= 4 and not Cardinal.finite(3) >= 4
    assert Cardinal.aleph(0) >= 10 ** 9


def test_cardinal_sum_and_ordinal_view():
    assert cardinal_sum([Cardinal.finite(2), Cardinal.finite(3)]) == Cardinal.finite(5)
    assert cardinal_sum([Cardinal.finite(2), Cardinal.aleph(0)]) == Cardinal.aleph(0)
    assert cardinal_sum([Cardinal.aleph(1), Cardinal.aleph(0)]) == Cardinal.aleph(1)
    assert Cardinal.aleph(0).as_ordinal() == w
    assert Cardinal.aleph(1).as_ordinal() == w1
    assert Cardinal.finite(4).as_ordinal() == from_int(4)


def test_cardinal_constructor_checks_its_fields():
    # each was once accepted: an aleph with a size printed as aleph_1 but
    # differed from Cardinal.aleph(1), and an index that is not an
    # Ordinal failed later, in repr and analyze, with an AttributeError
    bad = [(ValueError, (ONE, 5)), (ValueError, (None, -3)),
           (TypeError, (None, True)), (TypeError, (1, 0)),
           (TypeError, (None, 2.0))]
    for error, fields in bad:
        with pytest.raises(error):
            Cardinal(*fields)
    with pytest.raises(ValueError):
        Cardinal.finite(-1)
    assert Cardinal(ONE, 0) == Cardinal.aleph(1)
    assert Cardinal(None, 0) == Cardinal.finite(0) == Cardinal()


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
