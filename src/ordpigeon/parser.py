"""The text grammar for ordinals and cardinals; the two output styles
are rendered by ordinal.format_cnf, and format_ordinal picks one.

ascii grammar, whitespace allowed between tokens:

    ordinal  := term { "+" term }
    term     := base [ "*" nat ]
    base     := "w" [ "^" atom ] | "w_" atom | nat
    atom     := nat | "w" | "w_" atom | "(" ordinal ")"
    cardinal := nat | "aleph_" atom

Terms are summed left to right, so inputs that are out of order or
unmerged ("1+w", "w+w") are accepted and normalised; the expression
wrapper flags them as non-canonical.  The ascii style of format_ordinal
is the inverse on canonical forms.

parse_expression keeps its last 512 successful parses by text, so equal
texts share one immutable value; syntax errors are not kept.
"""

from __future__ import annotations

import reprlib
from functools import lru_cache

from .ordinal import (
    Cardinal,
    OMEGA,
    Ordinal,
    Record,
    _UNICODE,
    add,
    format_cnf,
    from_int,
    initial_ordinal,
    mul,
    omega_pow,
)


# deepest nesting of "(" and "w_" that the parser follows: the recursive
# descent and the kernel's recursion on exponents and atom indices stay
# well inside Python's stack at this depth
MAX_NESTING = 100

# longest stretch of the source that a syntax error message quotes, and
# the repr that error messages echo outside values with, strings cut short
EXCERPT = 40
BRIEF = reprlib.Repr()
BRIEF.maxstring = EXCERPT


class OrdinalSyntaxError(ValueError):
    """Malformed expression; position is a 0-based offset into the source."""

    def __init__(self, message: str, source: str, position: int):
        lo = max(min(position - EXCERPT // 2, len(source) - EXCERPT), 0)
        excerpt = source[lo:lo + EXCERPT]
        super().__init__(f"{message} at column {position} in {excerpt!r}")
        self.source = source
        self.position = position


class OrdinalExpression(Record):
    __slots__ = ("source", "value", "noncanonical")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def eat(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str):
        if not self.eat(literal):
            self.fail(f"expected {literal!r}")

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def nat(self) -> int:
        # ascii digits only: str.isdigit also takes '²' and '٣'
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            self.fail("expected a number, 'w' or 'w_'")
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # longer than int()'s digit limit
            raise OrdinalSyntaxError(
                f"number of {self.pos - start} digits is too long",
                self.text, start) from None

    def fail(self, message: str):
        raise OrdinalSyntaxError(message, self.text, self.pos)


def _ordinal(sc: _Scanner) -> Ordinal:
    total = _term(sc)
    while sc.eat("+"):
        total = add(total, _term(sc))
    return total


def _term(sc: _Scanner) -> Ordinal:
    base = _base(sc)
    if sc.eat("*"):
        base = mul(base, from_int(sc.nat()))
    return base


def _base(sc: _Scanner) -> Ordinal:
    if sc.eat("w_"):
        return initial_ordinal(_atom(sc))
    if sc.eat("w"):
        if sc.eat("^"):
            return omega_pow(_atom(sc))
        return OMEGA
    return from_int(sc.nat())


def _atom(sc: _Scanner) -> Ordinal:
    if sc.depth == MAX_NESTING:
        sc.fail(f"nesting deeper than {MAX_NESTING} levels")
    sc.depth += 1
    if sc.eat("w_"):
        value = initial_ordinal(_atom(sc))
    elif sc.eat("w"):
        value = OMEGA
    elif sc.eat("("):
        value = _ordinal(sc)
        sc.expect(")")
    else:
        value = from_int(sc.nat())
    sc.depth -= 1
    return value


@lru_cache(maxsize=512)  # above the ~260 distinct texts of a MAX_COLOURS file
def parse_expression(text: str) -> OrdinalExpression:
    """The value and its normal-form flag; a text among the last 512 parsed
    returns the same object, and a syntax error is raised on every call."""
    sc = _Scanner(text)
    value = _ordinal(sc)
    if not sc.at_end():
        sc.fail("unexpected trailing input")
    stripped = "".join(text.split())
    return OrdinalExpression(text, value, format_cnf(value) != stripped)


def parse_ordinal(text: str) -> Ordinal:
    return parse_expression(text).value


def parse_cardinal(text: str) -> Cardinal:
    sc = _Scanner(text)
    if sc.eat("aleph_"):
        card = Cardinal.aleph(_atom(sc))
    else:
        card = Cardinal.finite(sc.nat())
    if not sc.at_end():
        sc.fail("unexpected trailing input")
    return card


def format_ordinal(a: Ordinal, style: str = "ascii") -> str:
    """Render canonically; the ascii style re-parses to the same value."""
    if style == "ascii":
        return format_cnf(a)
    if style == "unicode":
        return format_cnf(a, _UNICODE)
    raise ValueError(f"unknown style {style!r}")
