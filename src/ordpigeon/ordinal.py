"""Ordinal arithmetic in Cantor normal form with initial-ordinal atoms.

A value is a finite sum  w^e1*c1 + ... + w^en*cn  with exponents strictly
decreasing and coefficients positive.  Exponents are ordinals themselves,
except that an uncountable initial ordinal w_nu (nu >= 1) is kept as an
opaque atom: since w^(w_nu) = w_nu, the bare atom and the one-monomial
term (w_nu, 1) denote the same value, so we collapse eagerly and equality
is structural.  w_0 is plain omega and never stored as an atom.

The representable class is everything generated from 0 by such sums and
atoms.  Epsilon numbers other than the w_nu themselves have no notation
here and cannot be produced by the exported operations.

Countability is read off the chain of leading exponents: the exponents
of a normal form decrease and an atom exceeds every countable exponent,
so a value is below w_1 exactly when that chain ends at 0, not an atom.
"""

from __future__ import annotations

from functools import cmp_to_key
from typing import Iterable, Optional, Sequence, Tuple, Union


class Underflow(ArithmeticError):
    """Raised by left_subtract(a, b) when a > b."""


class ZeroInput(ValueError):
    """Raised by operations whose arguments must be non-zero ordinals."""


class Atom:
    """The initial ordinal w_nu, nu >= 1, used in exponent position only."""

    __slots__ = ("index", "_hash")

    def __init__(self, index: "Ordinal"):
        if index.is_zero():
            raise ValueError("w_0 is plain omega, not an atom")
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "_hash", hash(("Atom", index)))

    def __setattr__(self, name, value):
        raise AttributeError("Atom is immutable")

    def __reduce__(self):
        return Atom, (self.index,)

    def __eq__(self, other):
        return isinstance(other, Atom) and self.index == other.index

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "w_" + _format_atom_index(self.index)


Exponent = Union["Ordinal", Atom]


class Ordinal:
    """An ordinal in Cantor normal form.  Immutable; compare with <, ==, etc."""

    # _hash is computed on first use and kept with the node
    __slots__ = ("monomials", "_hash")

    def __init__(self, monomials: tuple = ()):
        _set_monomials(self, monomials)
        _set_hash(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("Ordinal is immutable")

    def __reduce__(self):
        return Ordinal, (self.monomials,)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.monomials

    def is_finite(self) -> bool:
        ms = self.monomials
        return not ms or (len(ms) == 1 and _exp_is_zero(ms[0][0]))

    def is_successor(self) -> bool:
        ms = self.monomials
        return bool(ms) and _exp_is_zero(ms[-1][0])

    def is_limit(self) -> bool:
        """True for limit ordinals; 0 is neither successor nor limit."""
        ms = self.monomials
        return bool(ms) and not _exp_is_zero(ms[-1][0])

    def is_countable(self) -> bool:
        """True when the value is below w_1.  The exponents decrease and an
        atom exceeds every countable exponent, so the chain of leading
        exponents decides: it ends at 0 when countable, else at an atom."""
        x = self
        while x.monomials:
            x = x.monomials[0][0]
            if type(x) is Atom:
                return False
        return True

    def leading_exponent(self) -> Exponent:
        if not self.monomials:
            raise ZeroInput("0 has no leading exponent")
        return self.monomials[0][0]

    def leading_coefficient(self) -> int:
        if not self.monomials:
            raise ZeroInput("0 has no leading coefficient")
        return self.monomials[0][1]

    def __int__(self) -> int:
        if not self.is_finite():
            raise ValueError(f"{self} is not finite")
        return self.monomials[0][1] if self.monomials else 0

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = from_int(other)
        return isinstance(other, Ordinal) and self.monomials == other.monomials

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(("Ordinal", self.monomials))
            _set_hash(self, h)
        return h

    def __lt__(self, other):
        return compare(self, _coerce(other)) < 0

    def __le__(self, other):
        return compare(self, _coerce(other)) <= 0

    def __gt__(self, other):
        return compare(self, _coerce(other)) > 0

    def __ge__(self, other):
        return compare(self, _coerce(other)) >= 0

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __repr__(self):
        return format_cnf(self)


# the slots' own writers, which skip the immutability guard in __setattr__
_set_monomials = Ordinal.monomials.__set__
_set_hash = Ordinal._hash.__set__

ZERO = Ordinal()
ONE = Ordinal(((ZERO, 1),))
OMEGA = Ordinal(((ONE, 1),))


def from_int(n: int) -> Ordinal:
    if n < 0:
        raise ValueError("ordinals are non-negative")
    return Ordinal(((ZERO, n),)) if n else ZERO


def _coerce(x) -> Ordinal:
    if isinstance(x, Ordinal):
        return x
    if isinstance(x, int):
        return from_int(x)
    raise TypeError(f"cannot interpret {x!r} as an ordinal")


def _exp_is_zero(e: Exponent) -> bool:
    return type(e) is Ordinal and not e.monomials


def exponent_ordinal(e: Exponent) -> Ordinal:
    """The exponent as a plain Ordinal, expanding an atom w_nu to its term."""
    if isinstance(e, Atom):
        return Ordinal(((e, 1),))
    return e


def as_exponent(x: Union[Exponent, int]) -> Exponent:
    """Normalise to exponent form, collapsing a one-monomial (w_nu, 1) term."""
    if isinstance(x, Atom):
        return x
    x = _coerce(x)
    ms = x.monomials
    if len(ms) == 1 and ms[0][1] == 1 and isinstance(ms[0][0], Atom):
        return ms[0][0]
    return x


def compare(a: Ordinal, b: Ordinal) -> int:
    """Three-way comparison: -1, 0 or 1.  Total order on the notation class."""
    if a is b:
        return 0
    ma, mb = a.monomials, b.monomials
    for (ea, ca), (eb, cb) in zip(ma, mb):
        if ea is not eb:
            k = (compare(ea, eb) if type(ea) is Ordinal and type(eb) is Ordinal
                 else exp_compare(ea, eb))
            if k:
                return k
        if ca != cb:
            return -1 if ca < cb else 1
    la, lb = len(ma), len(mb)
    return (la > lb) - (la < lb)


def exp_compare(e: Exponent, f: Exponent) -> int:
    if e is f:
        return 0
    if isinstance(e, Ordinal):
        if isinstance(f, Ordinal):
            return compare(e, f)
        return -_atom_compare(f, e)
    if isinstance(f, Atom):
        return compare(e.index, f.index)
    return _atom_compare(e, f)


def _atom_compare(a: Atom, x: Ordinal) -> int:
    # compare(exponent_ordinal(a), x) without building the one-monomial term
    if x.is_countable():
        return 1
    ms = x.monomials
    e, c = ms[0]
    k = exp_compare(a, e)
    if k:
        return k
    if c != 1:
        return -1
    return -1 if len(ms) > 1 else 0


def _make(monomials: Iterable) -> Ordinal:
    """Build from a descending monomial list, dropping zero coefficients."""
    ms = tuple((e, c) for e, c in monomials if c)
    return Ordinal(ms)


def add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal addition: a + b absorbs the tail of a below b's lead."""
    a, b = _coerce(a), _coerce(b)
    if b.is_zero():
        return a
    if a.is_zero():
        return b
    f, d = b.monomials[0]
    kept = []
    merged = None
    for e, c in a.monomials:
        k = exp_compare(e, f)
        if k > 0:
            kept.append((e, c))
        elif k == 0:
            merged = c
            break
        else:
            break
    if merged is None:
        return Ordinal(tuple(kept) + b.monomials)
    return Ordinal(tuple(kept) + ((f, merged + d),) + b.monomials[1:])


def exp_add(e: Exponent, f: Exponent) -> Exponent:
    return as_exponent(add(exponent_ordinal(e), exponent_ordinal(f)))


def mul(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal multiplication, distributing a over b's normal form."""
    a, b = _coerce(a), _coerce(b)
    if a.is_zero() or b.is_zero():
        return ZERO
    e1, c1 = a.monomials[0]
    out = ZERO
    for f, d in b.monomials:
        if _exp_is_zero(f):
            part = Ordinal(((e1, c1 * d),) + a.monomials[1:])
        else:
            part = Ordinal(((exp_add(e1, f), d),))
        out = add(out, part)
    return out


def omega_pow(e: Union[Exponent, int]) -> Ordinal:
    """w raised to e.  For e = w_nu this collapses to w_nu itself."""
    return Ordinal(((as_exponent(e), 1),))


def initial_ordinal(nu: Union[Ordinal, int]) -> Ordinal:
    """The nu-th infinite initial ordinal: w_0 = w, and w_nu for nu >= 1."""
    nu = _coerce(nu)
    if nu.is_zero():
        return OMEGA
    return Ordinal(((Atom(nu), 1),))


OMEGA1 = initial_ordinal(1)
OMEGA2 = initial_ordinal(2)


def left_subtract(a: Ordinal, b: Ordinal) -> Ordinal:
    """The unique d with a + d = b.  Raises Underflow when a > b."""
    a, b = _coerce(a), _coerce(b)
    i = 0
    for (ea, ca), (eb, cb) in zip(a.monomials, b.monomials):
        k = exp_compare(ea, eb)
        if k < 0:
            return Ordinal(b.monomials[i:])
        if k > 0:
            raise Underflow(f"{a} > {b}")
        if ca != cb:
            if ca > cb:
                raise Underflow(f"{a} > {b}")
            return Ordinal(((eb, cb - ca),) + b.monomials[i + 1:])
        i += 1
    if i < len(a.monomials):
        raise Underflow(f"{a} > {b}")
    return Ordinal(b.monomials[i:])


def natural_sum(*terms: Union[Ordinal, int]) -> Ordinal:
    """Hessenberg sum: coefficients are added exponent-wise."""
    coeffs: dict = {}
    for t in terms:
        for e, c in _coerce(t).monomials:
            coeffs[e] = coeffs.get(e, 0) + c
    exps = sorted(coeffs, key=cmp_to_key(exp_compare), reverse=True)
    return _make((e, coeffs[e]) for e in exps)


def cb_rank(x: Ordinal) -> Ordinal:
    """Cantor-Bendixson rank of the point x: the last exponent in its
    normal form, with cb_rank(0) = 0."""
    x = _coerce(x)
    if x.is_zero():
        return ZERO
    return exponent_ordinal(x.monomials[-1][0])


def cofinality(a: Ordinal) -> Ordinal:
    """Cofinality: 0 for 0, 1 for successors, else w or a regular w_nu."""
    a = _coerce(a)
    if a.is_zero():
        return ZERO
    e = a.monomials[-1][0]
    if _exp_is_zero(e):
        return ONE
    return _cf_of_omega_pow(e)


def _cf_of_omega_pow(e: Exponent) -> Ordinal:
    # cofinality of w^e for e > 0; for an atom this is the initial ordinal.
    if isinstance(e, Atom):
        nu = e.index
        if nu.is_successor():
            return Ordinal(((e, 1),))
        return cofinality(nu)
    if e.is_successor():
        return OMEGA
    return cofinality(e)


def is_power_of_omega(x: Ordinal) -> bool:
    """True for w^g, any g, including w^0 = 1.  False for 0."""
    x = _coerce(x)
    return len(x.monomials) == 1 and x.monomials[0][1] == 1


def leading_decomposition(x: Ordinal):
    """Split x > 0 as w^g*m + rest with rest < w^g; returns (g, m, rest)."""
    x = _coerce(x)
    if x.is_zero():
        raise ZeroInput("0 has no leading decomposition")
    (e, m), rest = x.monomials[0], x.monomials[1:]
    return exponent_ordinal(e), m, Ordinal(rest)


def biembed_canonical(x: Ordinal) -> Ordinal:
    """Least member of x's biembeddability class: w^g*m is alone in its
    class, and everything strictly between w^g*m and w^g*(m+1) maps to
    w^g*m + 1."""
    x = _coerce(x)
    if x.is_zero():
        return x
    g, m, rest = leading_decomposition(x)
    if rest.is_zero():
        return x
    return add(Ordinal(x.monomials[:1]), ONE)


def is_order_reinforcing(x: Ordinal) -> bool:
    """True exactly for the finite ordinals, w^g, and w^g*m + 1 (g > 0)."""
    x = _coerce(x)
    if x.is_finite():
        return True
    ms = x.monomials
    if len(ms) == 1:
        return ms[0][1] == 1
    return len(ms) == 2 and _exp_is_zero(ms[1][0]) and ms[1][1] == 1


def mr_sum(targets: Sequence[Union[Ordinal, int]]) -> Ordinal:
    """Milner-Rado sum of non-zero ordinals: the least value that is not a
    natural sum of strictly smaller summands, one below each target."""
    return mr_sum_counted([(t, 1) for t in targets])


def mr_sum_counted(entries: Sequence[Tuple[Union[Ordinal, int], int]]
                   ) -> Ordinal:
    """mr_sum of count >= 1 copies of each (target, count) entry's target.

    Computed by the closed formula: write all targets over the merged
    descending exponent list g_1 > ... > g_N with coefficients m_ij, let
    n_i be the last position where row i is non-zero, n = min n_i,
    s_j the column sums, and t the number of rows ending exactly at n;
    the value is w^g_1*s_1 + ... + w^g_(n-1)*s_(n-1) + w^g_n*(s_n - t + 1).
    An entry is its row taken count times, in the s_j and in t.
    """
    rows = [(_coerce(t), c) for t, c in entries]
    if not rows:
        raise ZeroInput("at least one target is required")
    if any(r.is_zero() for r, _ in rows):
        raise ZeroInput("targets must be non-zero")
    exps = dict.fromkeys(e for r, _ in rows for e, _ in r.monomials)
    order = sorted(exps, key=cmp_to_key(exp_compare), reverse=True)
    pos = {e: j for j, e in enumerate(order)}
    last = [max(pos[e] for e, _ in r.monomials) for r, _ in rows]
    n = min(last)
    t = sum(c for x, (_, c) in zip(last, rows) if x == n)
    sums = [0] * len(order)
    for r, c in rows:
        for e, k in r.monomials:
            sums[pos[e]] += k * c
    sums[n] -= t - 1
    return _make(zip(order[:n + 1], sums))


def p_ord(targets: Sequence[Union[Ordinal, int]]) -> Ordinal:
    """Classical pigeonhole number for ordinals: the least b such that any
    splitting of b into len(targets) pieces has piece i of order type at
    least targets[i] for some i.  Equals the Milner-Rado sum."""
    return mr_sum(targets)


# -- records and cardinals ---------------------------------------------------


class Record:
    """Immutable record: a subclass names its fields in __slots__ and its
    __init__ writes them through the slots' writers, as Ordinal does,
    plus _values, the fields in slot order, which equality (same type
    too), hash and a dataclass-style repr read.  It keeps dataclasses
    (and the inspect, ast and dis it loads) off the CLI's start-up.
    RankColouring, ObstructionCertificate and EnumerationBounds stay
    dataclasses: the self-test, the tests and the benchmark tamper with
    certificates through dataclasses.replace, and only the witness and
    verify subcommands load their modules.
    """

    __slots__ = ("_values",)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is type(self):
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __reduce__(self):
        # each subclass's __init__ takes its fields in slot order
        return type(self), self._values

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._values))
        return f"{type(self).__qualname__}({fields})"

    @classmethod
    def _writers(cls) -> tuple:
        """The writers of the subclass's slots, in slot order."""
        return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


_set_values = Record._values.__set__


class Cardinal(Record):
    """A finite cardinal or an aleph.  aleph_index is None for finite values."""

    __slots__ = ("aleph_index", "size")

    def __init__(self, aleph_index: Optional[Ordinal] = None, size: int = 0):
        _set_values(self, (aleph_index, size))
        _set_aleph_index(self, aleph_index)
        _set_size(self, size)

    @staticmethod
    def finite(n: int) -> "Cardinal":
        if n < 0:
            raise ValueError("cardinals are non-negative")
        return Cardinal(None, n)

    @staticmethod
    def aleph(nu: Union[Ordinal, int]) -> "Cardinal":
        return Cardinal(_coerce(nu), 0)

    def is_finite(self) -> bool:
        return self.aleph_index is None

    def successor(self) -> "Cardinal":
        if self.aleph_index is None:
            return Cardinal(None, self.size + 1)
        return Cardinal(add(self.aleph_index, ONE), 0)

    def as_ordinal(self) -> Ordinal:
        """The initial ordinal of this cardinal (the cardinal itself)."""
        if self.aleph_index is None:
            return from_int(self.size)
        return initial_ordinal(self.aleph_index)

    def _key(self):
        return (0, self.size, ZERO) if self.aleph_index is None else (1, 0, self.aleph_index)

    def __lt__(self, other):
        other = _coerce_card(other)
        (ka, na, ia), (kb, nb, ib) = self._key(), other._key()
        if ka != kb:
            return ka < kb
        return na < nb if ka == 0 else ia < ib

    def __le__(self, other):
        other = _coerce_card(other)
        return self == other or self < other

    def __gt__(self, other):
        return not self <= _coerce_card(other)

    def __ge__(self, other):
        return not self < _coerce_card(other)

    def __repr__(self):
        if self.aleph_index is None:
            return str(self.size)
        return "aleph_" + _format_atom_index(self.aleph_index)


_set_aleph_index, _set_size = Cardinal._writers()


def _coerce_card(x) -> Cardinal:
    if isinstance(x, Cardinal):
        return x
    if isinstance(x, int):
        return Cardinal.finite(x)
    raise TypeError(f"cannot interpret {x!r} as a cardinal")


def cardinal_sum(cards: Iterable[Cardinal]) -> Cardinal:
    """Cardinal addition: finite sums add, any aleph dominates."""
    total = 0
    best: Optional[Ordinal] = None
    for c in cards:
        if c.aleph_index is None:
            total += c.size
        elif best is None or c.aleph_index > best:
            best = c.aleph_index
    return Cardinal(best, 0) if best is not None else Cardinal(None, total)


# -- formatting (ascii w-notation, reused by the parser module) --------------


def _format_atom_index(nu: Ordinal) -> str:
    if nu.is_finite():
        return str(int(nu))
    if nu == OMEGA:
        return "w"
    ms = nu.monomials
    if len(ms) == 1 and ms[0][1] == 1 and isinstance(ms[0][0], Atom):
        return "w_" + _format_atom_index(ms[0][0].index)
    return "(" + format_cnf(nu) + ")"


def _format_exponent(e: Ordinal) -> str:
    if e.is_finite():
        return str(int(e))
    if e == OMEGA:
        return "w"
    return "(" + format_cnf(e) + ")"


def format_cnf(x: Ordinal) -> str:
    """Render in the ascii grammar: w^2*4+1, w_1*2+w, and so on."""
    if x.is_zero():
        return "0"
    parts = []
    for e, c in x.monomials:
        if isinstance(e, Atom):
            base = "w_" + _format_atom_index(e.index)
        elif e.is_zero():
            parts.append(str(c))
            continue
        elif e == ONE:
            base = "w"
        else:
            base = "w^" + _format_exponent(e)
        parts.append(base if c == 1 else base + "*" + str(c))
    return "+".join(parts)
