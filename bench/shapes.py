"""Ordinal shapes drawn by the generators, kept apart from the program.

A shape is a tuple of (exponent, coefficient) pairs with exponents
strictly decreasing and coefficients positive.  An exponent is a shape,
or ("w_", index) for the uncountable initial ordinal w_index, index a
non-zero shape.  The benchmark builds program values from shapes with
the bare Ordinal and Atom constructors, and writes command-line text
from them itself, so neither the generated inputs nor the expected
values of parsed text depend on the arithmetic or the formatter under
test.
"""

from __future__ import annotations


def nat(n: int) -> tuple:
    return (((), n),) if n else ()


ZERO = ()
ONE = nat(1)
W = ((ONE, 1),)


def power(e) -> tuple:
    return ((e, 1),)


def initial(index: tuple) -> tuple:
    """w_index for a non-zero index."""
    return ((("w_", index), 1),)


W1 = initial(ONE)
W2 = initial(nat(2))


def is_atom(e) -> bool:
    return len(e) == 2 and e[0] == "w_"


def exp_value(e) -> tuple:
    # an atom exponent w_nu denotes the ordinal w^(w_nu) = w_nu
    return ((e, 1),) if is_atom(e) else e


def cmp(a: tuple, b: tuple) -> int:
    """Three-way comparison of shapes as ordinals."""
    for (ea, ca), (eb, cb) in zip(a, b):
        k = cmp_exp(ea, eb)
        if k:
            return k
        if ca != cb:
            return -1 if ca < cb else 1
    return (len(a) > len(b)) - (len(a) < len(b))


def cmp_exp(e, f) -> int:
    if is_atom(e) and is_atom(f):
        return cmp(e[1], f[1])
    return cmp(exp_value(e), exp_value(f))


def is_finite(s: tuple) -> bool:
    return not s or (len(s) == 1 and s[0][0] == ())


def is_power(s: tuple) -> bool:
    return len(s) == 1 and s[0][1] == 1


def is_tower(s: tuple) -> bool:
    """w^(w^b): an infinite power of w whose exponent is a power of w."""
    return is_power(s) and not is_finite(s) and is_power(exp_value(s[0][0]))


def combine(terms) -> tuple:
    """The shape with the given (exponent, coefficient) terms, merging
    equal exponents and sorting them into decreasing order."""
    merged = []
    for e, c in terms:
        for i, (f, d) in enumerate(merged):
            if cmp_exp(e, f) == 0:
                merged[i] = (f, d + c)
                break
        else:
            merged.append((e, c))
    out = []
    for e, c in merged:
        if c:
            at = next((i for i, (f, _) in enumerate(out) if cmp_exp(e, f) > 0),
                      len(out))
            out.insert(at, (e, c))
    return tuple(out)


def text(s: tuple) -> str:
    """The ascii command-line spelling: w^2*4+1, w_1*2+w, w^(w+1)."""
    if not s:
        return "0"
    parts = []
    for e, c in s:
        if is_atom(e):
            base = "w_" + _index_text(e[1])
        elif not e:
            parts.append(str(c))
            continue
        elif e == ONE:
            base = "w"
        elif is_finite(e):
            base = f"w^{e[0][1]}"
        elif e == W:
            base = "w^w"
        else:
            base = f"w^({text(e)})"
        parts.append(base if c == 1 else f"{base}*{c}")
    return "+".join(parts)


def _index_text(index: tuple) -> str:
    if not index:
        return "0"
    if index == W:
        return "w"
    return str(index[0][1]) if is_finite(index) else f"({text(index)})"


def count_text(count) -> str:
    """A count ("n", k) or ("aleph", index) as the command line spells it."""
    kind, value = count
    return str(value) if kind == "n" else "aleph_" + _index_text(value)


def noncanonical_text(s: tuple) -> str:
    """A spelling of s that is not in normal form: a leading 1+ that the
    first infinite term absorbs, or a doubled coefficient spelt out."""
    if is_finite(s):
        return f"0+{text(s)}"
    (e, c), rest = s[0], s[1:]
    if c > 1:
        head = text(((e, 1),))
        return "+".join([head] * c + ([text(rest)] if rest else []))
    return f"1+{text(s)}"


class ValueMaker:
    """Turns shapes into program values, building every node anew so that
    inputs share no objects and the program's own caches decide reuse."""

    def __init__(self, ordinal_module):
        self._Ordinal = ordinal_module.Ordinal
        self._Atom = ordinal_module.Atom

    def __call__(self, s: tuple):
        return self._Ordinal(tuple((self._exp(e), c) for e, c in s))

    def _exp(self, e):
        return self._Atom(self(e[1])) if is_atom(e) else self(e)


def shape_of(x) -> tuple:
    """The shape of a program value, read from its monomials."""
    out = []
    for e, c in x.monomials:
        if hasattr(e, "index"):
            out.append((("w_", shape_of(e.index)), c))
        else:
            out.append((shape_of(e), c))
    return tuple(out)


def below(s: tuple, k: int) -> tuple:
    """A point strictly below the non-zero s: its predecessor when s is
    a successor, else s with its last term lowered by one and a tail
    w^f*k put back, where f is the predecessor of the last exponent or,
    for a limit exponent, again a point below it."""
    if not s:
        raise ValueError("0 has nothing below it")
    e, c = s[-1]
    head = s[:-1] + (((e, c - 1),) if c > 1 else ())
    if not e:
        return head
    if is_atom(e):
        f = W
    else:
        f = below(e, k)
    return head + ((f, k),)
