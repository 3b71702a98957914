"""Algebraic laws checked on randomly generated normal forms."""

from functools import cmp_to_key

import hypothesis.strategies as st
from hypothesis import given

from ordpigeon.ordinal import (
    Atom,
    OMEGA1,
    ONE,
    Ordinal,
    ZERO,
    add,
    biembed_canonical,
    cb_rank,
    cofinality,
    compare,
    exp_compare,
    from_int,
    initial_ordinal,
    left_subtract,
    mr_sum,
    mr_sum_counted,
    mul,
    natural_sum,
    omega_pow,
)


def build(exponents, coeffs):
    pairs = sorted(zip(exponents, coeffs),
                   key=cmp_to_key(lambda p, q: exp_compare(p[0], q[0])),
                   reverse=True)
    return Ordinal(tuple((e, c) for e, c in pairs))


@st.composite
def ordinals(draw, depth=2, atoms=False):
    """Normal forms assembled bottom-up; equal depth means exponents are
    themselves drawn one level shallower."""
    if depth == 0:
        return from_int(draw(st.integers(0, 5)))
    n = draw(st.integers(0, 3))
    exps: list = []
    for _ in range(n):
        if atoms and draw(st.booleans()) and draw(st.booleans()):
            e = Atom(from_int(draw(st.integers(1, 3))))
        else:
            e = draw(ordinals(depth=depth - 1, atoms=False))
        if all(exp_compare(e, f) != 0 for f in exps):
            exps.append(e)
    coeffs = [draw(st.integers(1, 4)) for _ in exps]
    return build(exps, coeffs)


small = ordinals(depth=2)
wild = ordinals(depth=2, atoms=True)
positive = small.filter(lambda x: not x.is_zero())


@given(wild, wild, wild)
def test_compare_total_order(a, b, c):
    assert compare(a, b) == -compare(b, a)
    assert (compare(a, b) == 0) == (a == b)
    if a <= b and b <= c:
        assert a <= c
    if a == b:
        assert hash(a) == hash(b)


@given(wild, wild, wild)
def test_add_associative(a, b, c):
    assert add(add(a, b), c) == add(a, add(b, c))


def _has_atom(x) -> bool:
    # the notation searched directly, exponents at every depth
    return any(isinstance(e, Atom) or _has_atom(e) for e, _ in x.monomials)


def _deep_copy(x):
    return Ordinal(tuple(
        (Atom(_deep_copy(e.index)) if isinstance(e, Atom) else _deep_copy(e), c)
        for e, c in x.monomials))


@given(wild)
def test_cached_facts_agree_with_the_notation(a):
    # w^a and w^(w^a) put a's atoms one and two exponent levels down
    for x in (a, omega_pow(a), omega_pow(omega_pow(a))):
        for copy in (Ordinal(x.monomials), _deep_copy(x)):
            assert copy.is_countable() == (not _has_atom(x))
            assert x.is_countable() == copy.is_countable()
            assert compare(copy, x) == 0 and compare(x, copy) == 0
            assert copy == x and hash(copy) == hash(x)


@given(wild)
def test_countable_exactly_below_w1(a):
    # the engine reads "below w_1" off is_countable, which looks only at
    # the chain of leading exponents
    for x in (a, omega_pow(a), omega_pow(omega_pow(a))):
        assert x.is_countable() == (x < OMEGA1)


@given(wild, wild, st.integers(1, 3))
def test_exponents_compare_by_value(a, b, nu):
    # w^x is strictly monotone, and w^(w_nu) = w_nu puts an atom, not a
    # one-monomial term, in exponent position
    w_nu = initial_ordinal(nu)
    for x, y in ((a, b), (w_nu, add(w_nu, b)), (add(w_nu, a), w_nu)):
        assert compare(omega_pow(x), omega_pow(y)) == compare(x, y)


@given(wild, wild)
def test_add_identity_and_monotone(a, b):
    assert add(a, ZERO) == a and add(ZERO, a) == a
    assert add(a, b) >= a
    if not b.is_zero():
        assert add(a, b) > a


@given(wild, wild)
def test_left_subtract_roundtrip(a, b):
    assert left_subtract(a, add(a, b)) == b


@given(small, small, small)
def test_mul_associative(a, b, c):
    assert mul(mul(a, b), c) == mul(a, mul(b, c))


@given(wild, wild, wild)
def test_mul_left_distributes(a, b, c):
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@given(wild)
def test_mul_units(a):
    assert mul(a, ONE) == a and mul(ONE, a) == a
    assert mul(a, ZERO) == ZERO and mul(ZERO, a) == ZERO


@given(wild, wild)
def test_natural_sum_commutes(a, b):
    assert natural_sum(a, b) == natural_sum(b, a)
    assert natural_sum(a, b) >= add(a, b)


@given(wild, wild, wild)
def test_natural_sum_associative_and_strict(a, b, c):
    assert natural_sum(natural_sum(a, b), c) == natural_sum(a, b, c)
    if b < c:
        assert natural_sum(a, b) < natural_sum(a, c)


@given(wild)
def test_cofinality_idempotent(a):
    assert cofinality(cofinality(a)) == cofinality(a)


@given(wild, wild)
def test_cb_rank_follows_the_tail(a, b):
    assert cb_rank(add(a, ONE)) == ZERO
    assert cb_rank(a) <= a
    if not b.is_zero():
        assert cb_rank(add(a, b)) == cb_rank(b)


@given(wild)
def test_biembed_canonical_laws(a):
    c = biembed_canonical(a)
    assert biembed_canonical(c) == c
    assert c <= a
    if not a.is_zero():
        assert c.monomials[0] == a.monomials[0]


@given(st.lists(positive, min_size=1, max_size=4), st.randoms())
def test_mr_sum_permutation_invariant(targets, rng):
    shuffled = list(targets)
    rng.shuffle(shuffled)
    assert mr_sum(shuffled) == mr_sum(targets)


@given(st.lists(positive, min_size=1, max_size=4))
def test_mr_sum_unchanged_by_ones(targets):
    assert mr_sum(targets + [ONE]) == mr_sum(targets)


@given(st.lists(positive, min_size=1, max_size=4), positive)
def test_mr_sum_monotone(targets, bump):
    bigger = targets[:-1] + [add(targets[-1], bump)]
    assert mr_sum(bigger) >= mr_sum(targets)
    assert mr_sum(targets) <= natural_sum(*targets)


@given(positive)
def test_mr_sum_singleton_identity(a):
    assert mr_sum([a]) == a


@given(st.lists(st.tuples(positive, st.integers(1, 4)), min_size=1,
                max_size=4))
def test_mr_sum_counted_is_mr_sum_of_the_copies(entries):
    copies = [t for t, c in entries for _ in range(c)]
    assert mr_sum_counted(entries) == mr_sum(copies)
