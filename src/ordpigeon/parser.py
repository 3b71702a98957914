"""Text syntax for ordinals and cardinals.

ascii grammar, whitespace allowed between tokens:

    ordinal  := term { "+" term }
    term     := base [ "*" nat ]
    base     := "w" [ "^" atom ] | "w_" atom | nat
    atom     := nat | "w" | "w_" atom | "(" ordinal ")"
    cardinal := nat | "aleph_" atom

Terms are summed left to right, so inputs that are out of order or
unmerged ("1+w", "w+w") are accepted and normalised; the expression
wrapper flags them as non-canonical.  format_ordinal is the inverse on
canonical forms.
"""

from __future__ import annotations

from .ordinal import (
    Atom,
    Cardinal,
    OMEGA,
    Ordinal,
    Record,
    _set_values,
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

# longest stretch of the source that a syntax error message quotes
EXCERPT = 40


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

    def __init__(self, source: str, value: Ordinal, noncanonical: bool):
        _set_values(self, (source, value, noncanonical))
        _set_source(self, source)
        _set_value(self, value)
        _set_noncanonical(self, noncanonical)


_set_source, _set_value, _set_noncanonical = OrdinalExpression._writers()


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
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.fail("expected a number, 'w' or 'w_'")
        return int(self.text[start:self.pos])

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


def parse_expression(text: str) -> OrdinalExpression:
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


_SUP = str.maketrans("0123456789", "⁰¹²³⁴"
                                   "⁵⁶⁷⁸⁹")
_SUB = str.maketrans("0123456789", "₀₁₂₃₄"
                                   "₅₆₇₈₉")


def _unicode_atom_index(nu: Ordinal) -> str:
    if nu.is_finite():
        return str(int(nu)).translate(_SUB)
    return "_(" + _unicode_cnf(nu) + ")"


def _unicode_cnf(x: Ordinal) -> str:
    if x.is_zero():
        return "0"
    parts = []
    for e, c in x.monomials:
        if isinstance(e, Atom):
            base = "ω" + _unicode_atom_index(e.index)
        elif e.is_zero():
            parts.append(str(c))
            continue
        elif e == from_int(1):
            base = "ω"
        elif e.is_finite():
            base = "ω" + str(int(e)).translate(_SUP)
        elif e == OMEGA:
            base = "ω^ω"
        else:
            base = "ω^(" + _unicode_cnf(e) + ")"
        parts.append(base if c == 1 else base + "·" + str(c))
    return "+".join(parts)


def format_ordinal(a: Ordinal, style: str = "ascii") -> str:
    """Render canonically; the ascii style re-parses to the same value."""
    if style == "ascii":
        return format_cnf(a)
    if style == "unicode":
        return _unicode_cnf(a)
    raise ValueError(f"unknown style {style!r}")
