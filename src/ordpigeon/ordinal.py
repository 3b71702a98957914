"""Ordinal arithmetic in Cantor normal form with initial-ordinal atoms.

A value is a finite sum  w^e1*c1 + ... + w^en*cn  whose exponents are
Ordinals in strictly decreasing order and whose coefficients are ints
of at least 1.  Values and exponents are one node type: the uncountable
initial ordinal w_nu (nu >= 1) is an Atom, the Ordinal with no smaller
notation.  As w^(w_nu) = w_nu, an atom is its own leading exponent and
its monomials read ((w_nu, 1),).  Each value has one representation,
alone or as an exponent, so equality and hashing are structural.  w_0
is plain omega and never an atom.  The finite values below 64 are one
node each: every way of making one hands back that node, so comparing
small finite exponents stops at an identity test.  Identity is only a
shortcut; no test of equality depends on it.

The public constructor Ordinal(monomials) checks the normal form and
raises ValueError (TypeError for an exponent that is not an Ordinal);
the operations build their results, normal by construction, through
the unchecked _build.

The representable class is everything generated from 0 by such sums and
atoms.  Epsilon numbers other than the w_nu themselves have no notation
here and cannot be produced by the exported operations.

Countability is read off the chain of leading exponents: the exponents
of a normal form decrease and an atom exceeds every countable exponent,
so a value is below w_1 exactly when that chain ends at 0, not an atom.

The exponent-wise sums (natural_sum, mr_sum_counted) merge the
operands' monomial lists, already descending, by comparing exponents:
nothing is hashed or re-sorted.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple, Union


class Underflow(ArithmeticError):
    """Raised by left_subtract(a, b) when a > b."""


class ZeroInput(ValueError):
    """Raised by operations whose arguments must be non-zero ordinals."""


class Record:
    """Immutable record, the one kind of immutable value here: Ordinal
    and Atom too.  A subclass names its slots in __slots__, each value
    stored once, in its slot.  A slot named with a leading underscore is
    a memo (Instance._analysis); the others are the fields, which
    equality (same type too), hash, pickling and a dataclass-style repr
    read, so each constructor takes its fields positionally in slot
    order.  A subclass that defines neither __init__ nor __new__ gets a
    generated __init__(self, *fields) that stores them and sets each memo
    to None.  One that defines either (for checks or defaults) gets
    _init(self, *slots) instead, which writes every slot, and ends its
    constructor in one call to it.  It keeps dataclasses (and the
    inspect, ast and dis it loads) off the CLI's start-up.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        slots = cls.__slots__
        cls._fields = tuple(n for n in slots if not n.startswith("_"))
        # one function compiled per class, so a constructor pays one call
        # and no loop; each slot's own writer skips the guard in __setattr__
        scope = {"_set_" + n: getattr(cls, n).__set__ for n in slots}
        writes = "; ".join(f"_set_{n}(self, {n})" for n in slots) or "pass"
        if {"__init__", "__new__"} & vars(cls).keys():
            name, params = "_init", slots
        else:  # the generated constructor, its memos None
            memos = "".join(f"{n} = None; " for n in slots if n[0] == "_")
            name, params, writes = "__init__", cls._fields, memos + writes
        exec(f"def {name}({', '.join(('self',) + params)}): {writes}", scope)
        setattr(cls, name, scope[name])

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if type(other) is type(self):
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __reduce__(self):
        return type(self), self._astuple()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Ordinal(Record):
    """An ordinal in Cantor normal form.  Immutable; compare with <, ==, etc.

    Ordinal(monomials) takes (exponent, coefficient) pairs and raises
    unless they form a normal form.  The exponents themselves are not
    rechecked: they were checked when they were built.  A lone (w_nu, 1)
    gives the atom w_nu itself."""

    __slots__ = ("monomials",)

    def __new__(cls, monomials: tuple = ()):
        ms = tuple(monomials)
        for i, (e, c) in enumerate(ms):
            if not isinstance(e, Ordinal):
                raise TypeError(f"exponent {e!r} is not an Ordinal")
            if type(c) is not int or c < 1:
                raise ValueError(f"coefficient {c!r} is not an int >= 1")
            if i and compare(ms[i - 1][0], e) <= 0:
                raise ValueError("exponents must be strictly decreasing")
        return _build(ms)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.monomials

    def is_finite(self) -> bool:
        ms = self.monomials
        return not ms or (len(ms) == 1 and not ms[0][0].monomials)

    def is_successor(self) -> bool:
        ms = self.monomials
        return bool(ms) and not ms[-1][0].monomials

    def is_limit(self) -> bool:
        """True for limit ordinals; 0 is neither successor nor limit."""
        return not self.is_zero() and not self.is_successor()

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

    def leading_exponent(self) -> Ordinal:
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
        if type(other) is int:  # not a bool; no ordinal is negative
            other = from_int(other) if other >= 0 else None
        return isinstance(other, Ordinal) and self.monomials == other.monomials

    def __hash__(self):
        return hash(self.monomials)

    def __lt__(self, other):
        return compare(self, other) < 0

    def __le__(self, other):
        return compare(self, other) <= 0

    def __gt__(self, other):
        return compare(self, other) > 0

    def __ge__(self, other):
        return compare(self, other) >= 0

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __repr__(self):
        return format_cnf(self)


class Atom(Ordinal):
    """The initial ordinal w_nu, nu >= 1: the one node for that value,
    alone or as an exponent.  As w^(w_nu) = w_nu it is its own leading
    exponent, so its monomials read ((w_nu, 1),), made on each read so
    that the node holds no reference to itself.  Only atoms answer
    .index; comparison, equality, hashing and formatting stop here."""

    __slots__ = ("index",)

    def __new__(cls, index: Ordinal):
        index = _coerce(index)
        if index.is_zero():
            raise ValueError("w_0 is plain omega, not an atom")
        x = _new(Atom)
        x._init(index)
        return x

    @property
    def monomials(self) -> tuple:
        return ((self, 1),)

    # by index: the structural pair would recurse through ((self, 1),)
    __eq__, __hash__ = Record.__eq__, Record.__hash__


# the unchecked builder's writer, which skips the guard in __setattr__
_new = object.__new__
_set_monomials = Ordinal.monomials.__set__


def _build(ms: tuple) -> Ordinal:
    """The node for monomials already in normal form, unchecked: the one
    builder of the operations and of Ordinal(...).  A lone (w_nu, 1) is
    the atom w_nu, and a finite value below _SHARED is its one node in
    _FINITE; any other value is a new node."""
    if len(ms) == 1:
        e, c = ms[0]
        if c == 1 and type(e) is Atom:
            return e
        if not e.monomials and c < _SHARED:
            return _FINITE[c]
    elif not ms:
        return ZERO
    x = _new(Ordinal)
    _set_monomials(x, ms)
    return x


# the finite values 0 .. _SHARED - 1, one node each, written once: sharing
# w^n*c as well made construction dearer than the comparisons it saved
_SHARED = 64
_FINITE = [_new(Ordinal) for _ in range(_SHARED)]
ZERO, ONE = _FINITE[:2]
for _n, _x in enumerate(_FINITE):
    _set_monomials(_x, ((ZERO, _n),) if _n else ())
OMEGA = _build(((ONE, 1),))


def from_int(n: int) -> Ordinal:
    if type(n) is bool:
        raise TypeError(f"{n!r} is a bool, not an ordinal")
    if n < 0:
        raise ValueError("ordinals are non-negative")
    return _build(((ZERO, n),)) if n else ZERO


def _coerce(x) -> Ordinal:
    if isinstance(x, Ordinal):
        return x
    if isinstance(x, int):
        return from_int(x)
    raise TypeError(f"cannot interpret {x!r} as an ordinal")


def compare(a: Ordinal, b: Ordinal) -> int:
    """Three-way comparison: -1, 0 or 1, a total order.  Ints coerce."""
    if a is b:
        return 0
    try:
        ma, mb = a.monomials, b.monomials
    except AttributeError:
        return compare(_coerce(a), _coerce(b))
    for (ea, ca), (eb, cb) in zip(ma, mb):
        if ea is not eb:
            # only an atom is its own exponent, above every countable one
            k = (compare(a.index, b.index) if ea is a and eb is b
                 else 1 if ea is a and eb.is_countable()
                 else -1 if eb is b and ea.is_countable()
                 else compare(ea, eb))
            if k:
                return k
        if ca != cb:
            return -1 if ca < cb else 1
    la, lb = len(ma), len(mb)
    return (la > lb) - (la < lb)


def _merge(xs: Sequence, ys: Sequence) -> list:
    """The exponent-wise sum of two descending monomial lists: a two-way
    merge that adds the coefficients at equal exponents."""
    out = []
    i = j = 0
    while i < len(xs) and j < len(ys):
        (e, c), (f, d) = xs[i], ys[j]
        k = compare(e, f)
        out.append((e, c + d) if k == 0 else (e, c) if k > 0 else (f, d))
        i += k >= 0
        j += k <= 0
    out += xs[i:]
    out += ys[j:]
    return out


def add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal addition: a + b absorbs the tail of a below b's lead."""
    a, b = _coerce(a), _coerce(b)
    if b.is_zero():
        return a
    if a.is_zero():
        return b
    f, d = b.monomials[0]
    ms = a.monomials
    i = k = 0
    while i < len(ms) and (k := compare(ms[i][0], f)) > 0:
        i += 1
    if i < len(ms) and k == 0:
        return _build(ms[:i] + ((f, ms[i][1] + d),) + b.monomials[1:])
    return _build(ms[:i] + b.monomials)


def mul(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal multiplication, distributing a over b's normal form."""
    a, b = _coerce(a), _coerce(b)
    if a.is_zero() or b.is_zero():
        return ZERO
    # a*w^f*d is w^(e1+f)*d for f > 0, and a finite d scales a's lead;
    # the parts descend, so their monomials concatenate
    (e1, c1), *tail = a.monomials
    ms = [(add(e1, f), d) for f, d in b.monomials if f.monomials]
    if b.is_successor():
        ms += [(e1, c1 * b.monomials[-1][1]), *tail]
    return _build(tuple(ms))


def omega_pow(e: Union[Ordinal, int]) -> Ordinal:
    """w raised to e.  For e = w_nu this is w_nu itself."""
    return _build(((_coerce(e), 1),))


def initial_ordinal(nu: Union[Ordinal, int]) -> Ordinal:
    """The nu-th infinite initial ordinal: w_0 = w, and w_nu for nu >= 1."""
    nu = _coerce(nu)
    return OMEGA if nu.is_zero() else Atom(nu)


OMEGA1 = initial_ordinal(1)
OMEGA2 = initial_ordinal(2)


def left_subtract(a: Ordinal, b: Ordinal) -> Ordinal:
    """The unique d with a + d = b.  Raises Underflow when a > b."""
    a, b = _coerce(a), _coerce(b)
    i = 0
    for (ea, ca), (eb, cb) in zip(a.monomials, b.monomials):
        k = compare(ea, eb)
        if k < 0:
            return _build(b.monomials[i:])
        if k > 0:
            raise Underflow(f"{a} > {b}")
        if ca != cb:
            if ca > cb:
                raise Underflow(f"{a} > {b}")
            return _build(((eb, cb - ca),) + b.monomials[i + 1:])
        i += 1
    if i < len(a.monomials):
        raise Underflow(f"{a} > {b}")
    return _build(b.monomials[i:])


def natural_sum(*terms: Union[Ordinal, int]) -> Ordinal:
    """Hessenberg sum: coefficients are added exponent-wise.  The terms'
    descending monomial lists are merged two at a time."""
    ms: list = []
    for t in terms:
        ms = _merge(ms, _coerce(t).monomials)
    return _build(tuple(ms))


def cb_rank(x: Ordinal) -> Ordinal:
    """Cantor-Bendixson rank of the point x: the last exponent in its
    normal form, with cb_rank(0) = 0."""
    x = _coerce(x)
    if x.is_zero():
        return ZERO
    return x.monomials[-1][0]


def cofinality(a: Ordinal) -> Ordinal:
    """Cofinality: 0 for 0, 1 for successors, else w or a regular w_nu.
    A loop down the last exponents and atom indices, not a recursion."""
    a = _coerce(a)
    while a.monomials:
        e = a.monomials[-1][0]
        if e is a:
            # w_nu is regular for a successor nu, else as cofinal as nu
            if a.index.is_successor():
                return a
            a = a.index
        elif e.is_limit():
            a = e  # cf(w^e) is cf(e) for a limit e
        else:
            return OMEGA if e.monomials else ONE  # w^e for a successor e
    return ZERO


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
    return e, m, _build(rest)


def biembed_canonical(x: Ordinal) -> Ordinal:
    """Least member of x's biembeddability class: w^g*m is alone in its
    class, and everything strictly between w^g*m and w^g*(m+1) maps to
    w^g*m + 1."""
    x = _coerce(x)
    if len(x.monomials) < 2:
        return x
    return _build(x.monomials[:1] + ((ZERO, 1),))


def is_order_reinforcing(x: Ordinal) -> bool:
    """True exactly for the finite ordinals, w^g, and w^g*m + 1 (g > 0)."""
    x = _coerce(x)
    if x.is_finite():
        return True
    ms = x.monomials
    if len(ms) == 1:
        return ms[0][1] == 1
    return len(ms) == 2 and not ms[1][0].monomials and ms[1][1] == 1


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
    The s_j are merged as the natural sum of the rows, each scaled by its
    count, and g_n is the largest last exponent among the rows.
    """
    rows = [(_coerce(t), c) for t, c in entries]
    if not rows:
        raise ZeroInput("at least one target is required")
    if any(r.is_zero() for r, _ in rows):
        raise ZeroInput("targets must be non-zero")
    if not all(type(c) is int and c >= 1 for _, c in rows):
        raise ZeroInput("counts must be integers of at least 1")
    sums: list = []
    last, t = rows[0][0].monomials[-1][0], 0
    for r, c in rows:
        ms = r.monomials
        sums = _merge(sums, ms if c == 1 else [(e, k * c) for e, k in ms])
        k = compare(ms[-1][0], last)
        if k > 0:
            last, t = ms[-1][0], c
        elif k == 0:
            t += c
    n = 0
    while compare(sums[n][0], last):
        n += 1
    e, s = sums[n]
    # each of the t rows ending at g_n adds at least one to s_n
    sums[n] = e, s - t + 1
    return _build(tuple(sums[:n + 1]))


def p_ord(targets: Sequence[Union[Ordinal, int]]) -> Ordinal:
    """Classical pigeonhole number for ordinals: the least b such that any
    splitting of b into len(targets) pieces has piece i of order type at
    least targets[i] for some i.  Equals the Milner-Rado sum."""
    return mr_sum(targets)


# -- cardinals ---------------------------------------------------------------


class Cardinal(Record):
    """A finite cardinal or an aleph.  aleph_index is None for finite values."""

    __slots__ = ("aleph_index", "size")

    def __init__(self, aleph_index: Optional[Ordinal] = None, size: int = 0):
        if type(size) is not int:
            raise TypeError(f"size {size!r} is not an int")
        if aleph_index is not None and not isinstance(aleph_index, Ordinal):
            raise TypeError(f"aleph index {aleph_index!r} is not an Ordinal")
        if size < 0:
            raise ValueError("cardinals are non-negative")
        if size and aleph_index is not None:
            raise ValueError(f"an aleph has size 0, not {size}")
        self._init(aleph_index, size)

    @staticmethod
    def finite(n: int) -> "Cardinal":
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
        # the finite cardinals by size, then the alephs by index
        return (0, self.size) if self.aleph_index is None else \
            (1, self.aleph_index)

    def __lt__(self, other):
        return self._key() < _coerce_card(other)._key()

    def __le__(self, other):
        return self._key() <= _coerce_card(other)._key()

    def __gt__(self, other):
        return self._key() > _coerce_card(other)._key()

    def __ge__(self, other):
        return self._key() >= _coerce_card(other)._key()

    def __repr__(self):
        if self.aleph_index is None:
            return str(self.size)
        return "aleph" + _after_omega(self.aleph_index, "_", "_{}".format,
                                      True, _ASCII)


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


# -- formatting: the ascii and unicode styles -----------------------------------

_SUP = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")
_SUB = str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉")

# a style: omega, the product sign, the text of a finite exponent n >= 1
# (none for 1) and of a finite atom index, and whether an atom index w or
# w_nu goes unbracketed (an exponent w always does)
_ASCII = ("w", "*", lambda n: "^%d" % n if n > 1 else "", "_{}".format, True)
_UNICODE = ("ω", "·", lambda n: str(n).translate(_SUP) if n > 1 else "",
            lambda n: str(n).translate(_SUB), False)


def _after_omega(x: Ordinal, mark: str, finite, bare: bool, style) -> str:
    # the exponent x (mark "^") or atom index x (mark "_") after omega; a
    # finite x has no monomial or one of exponent 0, whose coefficient it is
    ms = x.monomials
    if not ms or len(ms) == 1 and not ms[0][0].monomials:
        return finite(ms[0][1] if ms else 0)
    if bare and (type(x) is Atom or x == OMEGA):
        return mark + format_cnf(x, style)
    return mark + "(" + format_cnf(x, style) + ")"


def format_cnf(x: Ordinal, _style=_ASCII) -> str:
    """Render in the ascii grammar: w^2*4+1, w_1*2+w, and so on.  The one
    walk for both styles: format_ordinal passes the unicode style."""
    if x.is_zero():
        return "0"
    w, times, exponent, index, bare = _style
    parts = []
    for e, c in x.monomials:
        if type(e) is Atom:
            base = w + _after_omega(e.index, "_", index, bare, _style)
        elif not e.monomials:
            parts.append(str(c))
            continue
        else:
            base = w + _after_omega(e, "^", exponent, True, _style)
        parts.append(base if c == 1 else base + times + str(c))
    return "+".join(parts)
