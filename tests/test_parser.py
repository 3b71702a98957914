"""Grammar, round trips and the two output styles."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ordpigeon.ordinal import (
    Cardinal,
    OMEGA,
    OMEGA1,
    ZERO,
    add,
    format_cnf,
    from_int,
    initial_ordinal,
    mul,
    omega_pow,
)
from ordpigeon.parser import (
    EXCERPT,
    OrdinalSyntaxError,
    format_ordinal,
    parse_cardinal,
    parse_expression,
    parse_ordinal,
)

w = OMEGA


def wp(e):
    return omega_pow(e)


def test_basic_forms():
    assert parse_ordinal("0") == ZERO
    assert parse_ordinal("17") == from_int(17)
    assert parse_ordinal("w") == w
    assert parse_ordinal("w^2*4+1") == add(mul(wp(2), 4), 1)
    assert parse_ordinal("w^w") == wp(w)
    assert parse_ordinal("w_1") == OMEGA1
    assert parse_ordinal("w_1*2+w") == add(mul(OMEGA1, 2), w)
    assert parse_ordinal("w_(w+1)") == initial_ordinal(add(w, 1))
    assert parse_ordinal("w_w_1") == initial_ordinal(OMEGA1)
    assert parse_ordinal("w^(w^2+w)") == wp(add(wp(2), w))
    tower = from_int(1)
    for _ in range(100):
        tower = wp(tower)
    assert parse_ordinal("w^(" * 100 + "1" + ")" * 100) == tower


def test_whitespace_is_free():
    assert parse_ordinal(" w^2 * 4 + 1 ") == parse_ordinal("w^2*4+1")


def test_exponent_collapse():
    # w^(w_1) is w_1 itself; the parser goes through the same collapse
    assert parse_ordinal("w^w_1") == OMEGA1
    assert parse_expression("w^w_1").noncanonical


def test_noncanonical_inputs_accepted_but_flagged():
    for text, value in [("1+w", w),
                        ("w+w", mul(w, 2)),
                        ("w_0", w),
                        ("w*0", ZERO),
                        ("2+3", from_int(5))]:
        expr = parse_expression(text)
        assert expr.value == value
        assert expr.noncanonical
    assert not parse_expression("w^2*4+1").noncanonical
    assert not parse_expression("w").noncanonical


def test_syntax_errors_carry_position():
    with pytest.raises(OrdinalSyntaxError) as info:
        parse_ordinal("w^^2")
    assert info.value.position == 2
    assert "w^^2" in str(info.value)
    for bad in ["", "+w", "w+", "w*", "w^", "(w", "w)", "3w", "w^2^3",
                "w_", "x", "w **2"]:
        with pytest.raises(OrdinalSyntaxError):
            parse_ordinal(bad)
    # numerals are ascii: str.isdigit also takes superscripts and the
    # digits of other scripts
    for text, position in [("w^\u00b2", 2), ("\u0663", 0), ("w*\u0663", 2),
                           ("w_\uff11", 2), ("w+1\u00b9", 3)]:
        with pytest.raises(OrdinalSyntaxError) as info:
            parse_ordinal(text)
        assert info.value.position == position
    for text in ["\u00b2", "\u0663", "aleph_\u0661"]:
        with pytest.raises(OrdinalSyntaxError):
            parse_cardinal(text)


@pytest.mark.parametrize("call, error, message", [
    (lambda: parse_expression("w^(2"), OrdinalSyntaxError,
     "expected ')' at column 4 in 'w^(2'"),
], ids=["unclosed-bracket"])
def test_documented_raises_are_pinned(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert (type(info.value), str(info.value)) == (error, message)


def test_a_numeral_past_the_digit_limit_is_a_syntax_error():
    # int() refuses more digits than sys.get_int_max_str_digits() allows
    long = "9" * 5000
    for text, position in [(long, 0), ("w^2*" + long, 4), ("w+" + long, 2),
                           ("w^(" + long + ")", 3)]:
        with pytest.raises(OrdinalSyntaxError) as info:
            parse_ordinal(text)
        assert info.value.position == position
        assert "5000 digits" in str(info.value)
        assert len(str(info.value)) < 2 * EXCERPT + 60
    with pytest.raises(OrdinalSyntaxError) as info:
        parse_cardinal(long)
    assert info.value.position == 0
    assert parse_ordinal("9" * 4000) == from_int(int("9" * 4000))


def test_nesting_beyond_the_limit_is_a_syntax_error():
    for text in ["w^(" * 101 + "1" + ")" * 101, "w_" * 101 + "1",
                 "w^(" * 3000 + "1" + ")" * 3000]:
        with pytest.raises(OrdinalSyntaxError) as info:
            parse_ordinal(text)
        assert "nesting deeper than 100 levels" in str(info.value)
        # the message quotes an excerpt; the exception keeps the whole source
        assert len(str(info.value)) < 2 * EXCERPT + 60
        assert info.value.source == text
        assert 0 < info.value.position < len(text)
    with pytest.raises(OrdinalSyntaxError):
        parse_cardinal("aleph_" + "w_" * 100 + "1")


# pieces of the grammar, so that many texts parse, and junk, so that many fail
TEXTS = st.one_of(
    st.lists(st.sampled_from(["w", "w_", "^", "(", ")", "+", "*", "0", "1",
                              "2", "10", " "]), max_size=8).map("".join),
    st.text(max_size=8))


@settings(max_examples=400, deadline=None)
@given(TEXTS)
def test_kept_parses_are_shared_and_errors_are_raised_afresh(text):
    try:
        fresh = parse_expression.__wrapped__(text)
    except OrdinalSyntaxError as exc:
        for _ in range(2):
            with pytest.raises(OrdinalSyntaxError) as info:
                parse_expression(text)
            assert (str(info.value), info.value.position) == \
                (str(exc), exc.position)
        return
    kept = parse_expression(text)
    assert kept == fresh
    assert parse_expression(text) is kept


def test_the_kept_parses_are_bounded():
    for i in range(2000):
        parse_expression(f"w^{i}+{i}")
    assert parse_expression.cache_info().currsize <= 512


def test_cardinal_parsing():
    assert parse_cardinal("3").is_finite()
    assert parse_cardinal("3").size == 3
    assert not parse_cardinal("aleph_0").is_finite()
    assert parse_cardinal("aleph_1").aleph_index == from_int(1)
    assert parse_cardinal("aleph_w").aleph_index == w
    for bad in ["", "aleph_", "aleph", "-1", "w", "3.5", "aleph_0 junk"]:
        with pytest.raises(ValueError):
            parse_cardinal(bad)


def _random_value(rng, depth=2):
    r = rng.random()
    if depth == 0 or r < 0.3:
        return from_int(rng.randint(0, 6))
    if r < 0.45:
        return initial_ordinal(_random_value(rng, depth - 1))
    out = ZERO
    for _ in range(rng.randint(1, 3)):
        e = _random_value(rng, depth - 1)
        out = add(out, mul(wp(e), rng.randint(1, 5)))
    return out


def test_ten_thousand_round_trips():
    rng = random.Random(2024)
    for _ in range(10_000):
        value = _random_value(rng)
        text = format_cnf(value)
        expr = parse_expression(text)
        assert expr.value == value, text
        assert not expr.noncanonical, text


# each atom index shape, each exponent shape with a coefficient, and a
# finite value: (value, ascii, unicode)
STYLE_PINS = [
    (initial_ordinal(w), "w_w", "ω_(ω)"),
    (OMEGA1, "w_1", "ω₁"),
    (initial_ordinal(add(w, 1)), "w_(w+1)", "ω_(ω+1)"),
    (initial_ordinal(12), "w_12", "ω₁₂"),
    (initial_ordinal(OMEGA1), "w_w_1", "ω_(ω₁)"),
    (mul(initial_ordinal(OMEGA1), 2), "w_w_1*2", "ω_(ω₁)·2"),
    (add(mul(wp(2), 4), 1), "w^2*4+1", "ω²·4+1"),
    (mul(wp(w), 2), "w^w*2", "ω^ω·2"),
    (wp(w), "w^w", "ω^ω"),
    (mul(wp(add(w, 1)), 3), "w^(w+1)*3", "ω^(ω+1)·3"),
    (wp(add(w, 1)), "w^(w+1)", "ω^(ω+1)"),
    (mul(wp(add(OMEGA1, 1)), 5), "w^(w_1+1)*5", "ω^(ω₁+1)·5"),
    (add(mul(OMEGA1, 2), mul(w, 7)), "w_1*2+w*7", "ω₁·2+ω·7"),
    (from_int(12), "12", "12"),
    (ZERO, "0", "0"),
    # finite exponents and atom indices, read off their monomials
    (mul(w, 5), "w*5", "ω·5"),
    (add(mul(w, 3), 2), "w*3+2", "ω·3+2"),
    (mul(wp(10), 2), "w^10*2", "ω¹⁰·2"),
    (initial_ordinal(wp(2)), "w_(w^2)", "ω_(ω²)"),
    (initial_ordinal(add(mul(wp(2), 3), w)), "w_(w^2*3+w)", "ω_(ω²·3+ω)"),
    (wp(add(wp(3), 1)), "w^(w^3+1)", "ω^(ω³+1)"),
    (mul(wp(add(mul(wp(12), 2), 1)), 4), "w^(w^12*2+1)*4", "ω^(ω¹²·2+1)·4"),
]


def test_unicode_style():
    for value, _, unicode in STYLE_PINS:
        assert format_ordinal(value, "unicode") == unicode


def test_ascii_style():
    for value, ascii, _ in STYLE_PINS:
        assert format_ordinal(value, "ascii") == format_cnf(value) == ascii
        assert parse_ordinal(ascii) == value


def test_cardinal_reprs():
    assert [repr(Cardinal.aleph(nu)) for nu in (0, w, OMEGA1, add(w, 1))] \
        == ["aleph_0", "aleph_w", "aleph_w_1", "aleph_(w+1)"]
    assert repr(Cardinal.finite(7)) == "7"


def test_ascii_style_matches_format_cnf():
    rng = random.Random(7)
    for _ in range(200):
        value = _random_value(rng)
        assert format_ordinal(value, "ascii") == format_cnf(value)


def test_unknown_style_rejected():
    with pytest.raises(ValueError):
        format_ordinal(w, "latex")
