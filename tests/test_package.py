"""The lazily resolved package root and the immutable records."""

import ast
import copy
import pickle
from pathlib import Path

import pytest

import ordpigeon
from ordpigeon import engine, ordinal, parser, witness
from ordpigeon.engine import (
    Analysis,
    CasePath,
    Exists,
    Independent,
    Infinite,
    Instance,
    NormalizedInstance,
    analyze,
    normalize,
)
from ordpigeon.oracle import EnumerationBounds
from ordpigeon.ordinal import (
    OMEGA,
    OMEGA1,
    OMEGA2,
    Atom,
    Cardinal,
    Ordinal,
    add,
    omega_pow,
)
from ordpigeon.parser import OrdinalExpression, parse_expression
from ordpigeon.selftest import CriterionResult

# the names the package root exported when it imported every submodule
EXPORTS = {
    ordinal: """Atom Cardinal ONE OMEGA OMEGA1 OMEGA2 Ordinal Underflow ZERO
        ZeroInput add biembed_canonical cb_rank cofinality compare format_cnf
        from_int initial_ordinal is_order_reinforcing is_power_of_omega
        leading_decomposition left_subtract mr_sum mul natural_sum omega_pow
        p_ord""",
    engine: """Analysis CasePath EmptyInstance Exists Independent Infinite
        Instance NormalizedInstance PowerOfOmegaInput RelationVerdict analyze
        case6_decompose classify minimal_omega_power_bound normalize p_top
        relation_holds""",
    witness: """CertKind ColouringMode NotBelowThreshold ObstructionCertificate
        OutOfDomain OutOfScope PreconditionViolated RankColouring
        build_counterexample eval_colouring natsum_expressible
        verify_certificates""",
    parser: """OrdinalExpression OrdinalSyntaxError format_ordinal
        parse_cardinal parse_expression parse_ordinal""",
}
HOMES = [(name, module) for module, names in EXPORTS.items()
         for name in names.split()]

w = OMEGA


def test_root_exports_the_same_names():
    assert sorted(ordpigeon.__all__) == sorted(name for name, _ in HOMES)
    assert len(ordpigeon.__all__) == 62
    assert set(ordpigeon.__all__) <= set(dir(ordpigeon))


@pytest.mark.parametrize("name, module", HOMES, ids=[n for n, _ in HOMES])
def test_root_name_is_its_home_object(name, module):
    assert getattr(ordpigeon, name) is getattr(module, name)


def test_root_star_import_and_unknown_name():
    scope = {}
    exec("from ordpigeon import *", scope)
    assert scope["Instance"] is Instance and scope["OMEGA1"] is OMEGA1
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        ordpigeon.frobnicate
    with pytest.raises(ImportError):
        exec("from ordpigeon import frobnicate", {})


def make_records():
    """One record of each kind, built afresh on each call."""
    return [
        Cardinal.finite(3), Cardinal.aleph(1), Cardinal(),
        OrdinalExpression("1+w", w, True),
        Instance.of((add(w, 1), 3)),
        normalize(Instance.of((add(w, 1), 3))),
        Exists(w), Infinite(), Independent(OMEGA2),
        analyze(Instance.of((add(w, 1), 3))),
        analyze(Instance.of((OMEGA1, 2))),
        Ordinal(((ordinal.ONE, 2), (ordinal.ZERO, 1))), add(OMEGA1, w),
        Atom(ordinal.ONE),
        EnumerationBounds(w, 2, 2),
        CriterionResult(1, "alpha", True, "fine", 0.5, 1.0),
    ]


def test_equal_fields_give_equal_records_and_hashes():
    for a, b in zip(make_records(), make_records()):
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
    assert Cardinal.finite(3) != Cardinal.finite(4)
    assert len({*make_records(), *make_records()}) == len(make_records())


def test_same_fields_of_another_type_differ():
    for x in (w, OMEGA1, omega_pow(2)):
        assert Exists(x) != Independent(x)
        assert Independent(x) != Exists(x)
    assert Exists(w) != w and Cardinal.finite(0) != 0
    assert Infinite() == Infinite() and Infinite() != Exists(w)


def test_records_are_immutable():
    for rec in make_records():
        name = rec.__slots__[0] if rec.__slots__ else "_values"
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, name)


def test_keywords_and_defaults():
    assert Cardinal(size=2) == Cardinal.finite(2)
    assert Cardinal(aleph_index=ordinal.ONE) == Cardinal.aleph(1)
    full = Independent(OMEGA2)
    assert Independent(zfc_lower=OMEGA2) == full
    a = Analysis(CasePath.C1, (), Infinite(), None)
    assert a == Analysis(case=CasePath.C1, trail=(), result=Infinite(),
                         normalized=None, decompositions=None,
                         distinguished=None)
    assert OrdinalExpression(source="w", value=w, noncanonical=False) == \
        parse_expression("w")
    assert NormalizedInstance(entries=(), kappa=Cardinal()) == \
        NormalizedInstance((), Cardinal(None, 0))


def test_reprs_match_the_dataclass_ones():
    assert repr(Instance.of((add(w, 1), 3))) == \
        "Instance(entries=((w+1, 3),))"
    assert repr(normalize(Instance.of((2, Cardinal.aleph(0))))) == \
        "NormalizedInstance(entries=((2, aleph_0),), kappa=aleph_0)"
    assert repr(parse_expression("1+w")) == \
        "OrdinalExpression(source='1+w', value=w, noncanonical=True)"
    assert repr(analyze(Instance.of((OMEGA1, 2)))) == (
        "Analysis(case=<CasePath.C3: 'C3'>, trail=('no target exceeds w_1',"
        " 'at least two copies of w_1 among the targets'), "
        "result=Independent(zfc_lower=w_2), normalized=NormalizedInstance("
        "entries=((w_1, 2),), kappa=2), decompositions=None, "
        "distinguished=None)")
    assert repr(analyze(Instance.of((w, 2)))) == (
        "Analysis(case=<CasePath.C6b: 'C6b'>, trail=('no target exceeds w_1',"
        " 'every target is countable', 'finitely many colours', "
        "'some target is a power of w'), result=Exists(w), normalized="
        "NormalizedInstance(entries=((w, 2),), kappa=2), "
        "decompositions=None, distinguished=None)")
    assert repr(EnumerationBounds(w, 2, 2)) == \
        "EnumerationBounds(max_exponent=w, max_coefficient=2, max_monomials=2)"
    assert repr(CriterionResult(1, "alpha", True, "fine", 0.5, 1.0)) == (
        "CriterionResult(number=1, title='alpha', ok=True, detail='fine', "
        "elapsed=0.5, limit=1.0)")
    # classes with their own __repr__ keep it
    assert [repr(x) for x in (Cardinal.finite(3), Cardinal.aleph(w),
                              Exists(w), Infinite(), Independent(OMEGA2))] \
        == ["3", "aleph_w", "Exists(w)", "Infinite",
            "Independent(zfc_lower=w_2)"]


def test_instance_keeps_its_empty_check():
    with pytest.raises(engine.EmptyInstance):
        Instance(((w, Cardinal.finite(0)),))
    with pytest.raises(engine.EmptyInstance):
        Instance.of((w, 0))


COPIES = {"copy": copy.copy, "deepcopy": copy.deepcopy,
          "pickle": lambda x: pickle.loads(pickle.dumps(x))}


@pytest.mark.parametrize("how", COPIES)
def test_values_and_records_copy_and_pickle(how):
    analysed = Instance.of((add(w, 1), 3))
    analysis = analyze(analysed)
    values = [ordinal.ZERO, w, OMEGA1, omega_pow(omega_pow(w)),
              add(OMEGA1, 1), ordinal.Atom(ordinal.ONE)]
    for x in [*values, *make_records(), analysed]:
        y = COPIES[how](x)
        assert type(y) is type(x)
        assert y == x and hash(y) == hash(x) and repr(y) == repr(x)
    # a copy of an analysed instance carries no analysis: it makes its own
    twin = COPIES[how](analysed)
    assert analyze(twin) == analysis and analyze(twin) is not analysis


def forwarding_constructors(sources):
    """The Record subclasses (by name) whose __init__ only forwards its
    parameters, in order and with no defaults but trailing None ones, to
    one self._init call (memo slots as None): the generated constructor
    does that already, declared optional=k for k None defaults."""
    classes = [node for source in sources for node in ast.walk(
        ast.parse(source)) if isinstance(node, ast.ClassDef)]
    records, grown = {"Record"}, True
    while grown:
        grown = False
        for cls in classes:
            if cls.name not in records and any(
                    isinstance(b, ast.Name) and b.id in records
                    for b in cls.bases):
                records.add(cls.name)
                grown = True
    found = []
    for cls in classes:
        for f in cls.body:
            if not (cls.name in records and isinstance(f, ast.FunctionDef)
                    and f.name == "__init__"):
                continue
            a = f.args
            params = [p.arg for p in a.args[1:]]
            body = [st for st in f.body if not (
                isinstance(st, ast.Expr) and isinstance(st.value, ast.Constant)
                and isinstance(st.value.value, str))]
            call = body[0].value if len(body) == 1 and isinstance(
                body[0], ast.Expr) else None
            if (a.kwonlyargs or a.vararg or a.kwarg or any(
                    ast.unparse(d) != "None" for d in a.defaults)
                    or a.posonlyargs or not isinstance(call, ast.Call)
                    or call.keywords or ast.unparse(call.func) != "self._init"):
                continue
            names = [x.id for x in call.args if isinstance(x, ast.Name)]
            if names == params and all(
                    isinstance(x, ast.Name) or ast.unparse(x) == "None"
                    for x in call.args):
                found.append(cls.name)
    return found


def test_no_record_restates_the_generated_constructor():
    sources = [path.read_text(encoding="utf-8") for path in
               sorted(Path(ordinal.__file__).parent.glob("*.py"))]
    assert forwarding_constructors(sources) == []


def test_the_constructor_guard_finds_a_forwarder():
    forwarder = """
class Base(Record):
    __slots__ = ("a", "_memo")
    def __init__(self, a):
        self._init(a, None)
class Sub(Base):
    __slots__ = ("b",)
    def __init__(self, b):
        \"\"\"Documented.\"\"\"
        self._init(b)
class Checked(Record):
    __slots__ = ("a",)
    def __init__(self, a=0):
        self._init(a)
class Swapped(Record):
    __slots__ = ("a", "b")
    def __init__(self, a, b):
        self._init(b, a)
class Defaulted(Record):
    __slots__ = ("a", "b", "_memo")
    def __init__(self, a, b=None):
        self._init(a, b, None)
"""
    assert forwarding_constructors([forwarder]) == ["Base", "Sub", "Defaulted"]


def test_each_record_class_compiles_one_constructor():
    # a generated __init__, or its own constructor ending in _init
    for cls in (NormalizedInstance, Exists, Infinite, Independent,
                OrdinalExpression, CriterionResult, witness.RankColouring,
                Analysis, witness.ObstructionCertificate):
        assert "__init__" in vars(cls) and "_init" not in vars(cls), cls
    for cls in (Instance, Cardinal, EnumerationBounds, Ordinal, Atom):
        assert "_init" in vars(cls), cls
    assert NormalizedInstance((), Cardinal())._facts is None
    with pytest.raises(TypeError):
        Exists(w, w)
