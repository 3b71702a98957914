"""The benchmark's construction contract with the kernel.

bench/shapes.py builds program values from shape tuples with the bare
Ordinal and Atom constructors, reads them back through .monomials and
hasattr(e, "index"), and builds the "point below" of a sweep op the
same way.  Those values carry the kernel's shared finite nodes, so the
sweep's construction path meets them.  The module is read by path and
run here, not imported, so nothing under bench/ is written.
"""

import types
from pathlib import Path

import pytest

from ordpigeon import ordinal

SHAPES_PY = Path(__file__).resolve().parents[1] / "bench" / "shapes.py"


def load_shapes():
    module = types.ModuleType("bench_shapes")
    module.__file__ = str(SHAPES_PY)
    code = compile(SHAPES_PY.read_text(encoding="utf-8"), str(SHAPES_PY),
                   "exec")
    exec(code, module.__dict__)
    return module


shapes = load_shapes()
make = shapes.ValueMaker(ordinal)
nat, power, initial, combine = (shapes.nat, shapes.power, shapes.initial,
                                shapes.combine)
ONE, W, W1, W2 = shapes.ONE, shapes.W, shapes.W1, shapes.W2
W1_EXP = ("w_", ONE)

COUNTABLE = {
    "0": shapes.ZERO,
    "5": nat(5),
    "w": W,
    "w^2*3+w+4": combine([(nat(2), 3), (ONE, 1), ((), 4)]),
    "w^(w^w+1)*2+1": combine([(combine([(W, 1), ((), 1)]), 2), ((), 1)]),
    "w^(w^(w^2))": power(power(power(nat(2)))),
}
ATOMIC = {
    "w_1": W1,
    "w_2*3": combine([(("w_", nat(2)), 3)]),
    "w_w": initial(W),
    "w_(w_1)": initial(W1),
    "w_(w+1)+w_1*2+w": combine([(("w_", combine([(ONE, 1), ((), 1)])), 1),
                                (W1_EXP, 2), (ONE, 1)]),
    "w^(w_1+1)*2+w_1+3": combine([(combine([(W1_EXP, 1), ((), 1)]), 2),
                                  (W1_EXP, 1), ((), 3)]),
    "w^(w^(w_1*2))": power(power(combine([(W1_EXP, 2)]))),
}
SHAPES = {**COUNTABLE, **ATOMIC}


def check_index(x, s):
    # only an atom exponent answers .index, at every depth
    assert len(x.monomials) == len(s)
    for (e, _), (f, _) in zip(x.monomials, s):
        assert hasattr(e, "index") == shapes.is_atom(f)
        if shapes.is_atom(f):
            check_index(e.index, f[1])
        else:
            check_index(e, f)


@pytest.mark.parametrize("s", SHAPES.values(), ids=SHAPES)
def test_values_built_from_shapes_read_back(s):
    x = make(s)
    assert shapes.shape_of(x) == s
    check_index(x, s)
    assert (s in ATOMIC.values()) == (not x.is_countable())


@pytest.mark.parametrize("s", SHAPES.values(), ids=SHAPES)
def test_points_below_build_and_lie_below(s):
    if not s:
        return
    for k in (1, 3):
        lower = make(shapes.below(s, k))
        assert shapes.shape_of(lower) == shapes.below(s, k)
        assert lower < make(s)


def nodes(x):
    """x and every value under it: its exponents and atom indices."""
    yield x
    for e, _ in x.monomials:
        yield from nodes(e.index if hasattr(e, "index") else e)


def test_made_values_carry_the_shared_finite_nodes():
    assert make(nat(5)) is ordinal.from_int(5)
    assert make(shapes.ZERO) is ordinal.ZERO and make(ONE) is ordinal.ONE
    x = make(combine([(nat(2), 3), (ONE, 1), ((), 4)]))
    for (e, _), n in zip(x.monomials, (2, 1, 0), strict=True):
        assert e is ordinal.from_int(n)
    # and so do the sweep's points below, at every depth
    for s in SHAPES.values():
        for y in [make(s)] + [make(shapes.below(s, k)) for k in (1, 3) if s]:
            for z in nodes(y):
                if z.is_finite():
                    assert z is ordinal.from_int(int(z))
