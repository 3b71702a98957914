"""The lazily resolved package root and the immutable records."""

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
from ordpigeon.ordinal import OMEGA, OMEGA1, OMEGA2, Cardinal, add, omega_pow
from ordpigeon.parser import OrdinalExpression, parse_expression

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
        parse_expression("1+w"),
        Instance.of((add(w, 1), 3)),
        normalize(Instance.of((add(w, 1), 3))),
        Exists(w), Infinite(), Independent(OMEGA2),
        analyze(Instance.of((add(w, 1), 3))),
        analyze(Instance.of((OMEGA1, 2))),
    ]


def test_equal_fields_give_equal_records_and_hashes():
    for a, b in zip(make_records(), make_records()):
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
    assert Cardinal.finite(3) != Cardinal.finite(4)
    assert Independent(OMEGA2) != Independent(OMEGA2, "other note")
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
    assert Independent(zfc_lower=OMEGA2,
                       equiconsistency=full.equiconsistency) == full
    a = Analysis(CasePath.C1, (), Infinite(), None)
    assert a == Analysis(case=CasePath.C1, trail=(), result=Infinite(),
                         normalized=None, flat=None, decompositions=None,
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
        "entries=((w_1, 2),), kappa=2), flat=None, decompositions=None, "
        "distinguished=None)")
    assert repr(analyze(Instance.of((w, 2)))) == (
        "Analysis(case=<CasePath.C6b: 'C6b'>, trail=('no target exceeds w_1',"
        " 'every target is countable', 'finitely many colours', "
        "'some target is a power of w'), result=Exists(w), normalized="
        "NormalizedInstance(entries=((w, 2),), kappa=2), flat=(w, w), "
        "decompositions=None, distinguished=None)")
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
