"""The contract every Record subclass keeps.  Pickling and copying
rebuild a record by calling its class with its fields, so each
constructor takes them positionally, in slot order; a slot named with a
leading underscore is a memo, outside equality, hash, repr and
pickling.  Record is the one mechanism for immutable values.  The two
witness-file types are Records too, registered as dataclasses only so
that dataclasses.replace works on them."""

import copy
import dataclasses
import enum
import gc
import importlib
import inspect
import pickle
import pkgutil

import pytest

import ordpigeon
from ordpigeon import oracle, selftest  # noqa: F401  (each defines one)
from ordpigeon.engine import (
    Analysis,
    Instance,
    NormalizedInstance,
    analyze,
    classify,
    normalize,
)
from ordpigeon.ordinal import OMEGA, ONE, Record, add, mul
from ordpigeon.parser import OrdinalExpression  # noqa: F401  (defines one)
from ordpigeon.witness import (
    CertKind,
    ObstructionCertificate,
    RankColouring,
    build_counterexample,
    verify_certificates,
)


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


RECORDS = list(subclasses(Record))


def test_the_walk_finds_every_record():
    assert {cls.__name__ for cls in RECORDS} >= {
        "Cardinal", "OrdinalExpression", "Instance", "NormalizedInstance",
        "Exists", "Infinite", "Independent", "Analysis", "Ordinal", "Atom",
        "EnumerationBounds", "CriterionResult", "RankColouring",
        "ObstructionCertificate"}


def test_only_the_witness_file_types_are_dataclasses():
    found = set()
    for info in pkgutil.iter_modules(ordpigeon.__path__, "ordpigeon."):
        module = importlib.import_module(info.name)
        found |= {name for name, obj in vars(module).items()
                  if isinstance(obj, type) and dataclasses.is_dataclass(obj)
                  and obj.__module__ == info.name}
    assert found == {"RankColouring", "ObstructionCertificate"}


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_init_takes_the_fields_positionally_in_slot_order(cls):
    fields = [name for name in cls.__slots__ if not name.startswith("_")]
    params = inspect.signature(cls).parameters.values()
    assert [p.name for p in params] == fields
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)


def test_the_analysis_memo_is_not_a_field():
    assert "_analysis" in Instance.__slots__
    analysed, fresh = (Instance.of((add(OMEGA, 1), 3)) for _ in range(2))
    analyze(analysed)
    assert analysed._analysis is not None and fresh._analysis is None
    assert analysed == fresh and hash(analysed) == hash(fresh)
    assert repr(analysed) == repr(fresh) == "Instance(entries=((w+1, 3),))"
    assert analysed.__reduce__() == (Instance, (analysed.entries,))


def test_the_case_tree_memo_is_not_a_field():
    assert "_facts" in NormalizedInstance.__slots__
    classified, fresh = (normalize(Instance.of((add(OMEGA, 1), 3)))
                         for _ in range(2))
    classify(classified)
    assert classified._facts is not None and fresh._facts is None
    assert classified == fresh and hash(classified) == hash(fresh)
    assert repr(classified) == repr(fresh) == (
        "NormalizedInstance(entries=((w+1, 3),), kappa=3)")
    assert classified.__reduce__() == (
        NormalizedInstance, (classified.entries, classified.kappa))
    copy = pickle.loads(pickle.dumps(classified))
    assert copy == classified and copy._facts is None


def test_the_case_tree_memo_never_reaches_its_norm():
    # an Analysis points back at its norm, so keeping one in the norm's
    # memo would form a reference cycle; walk everything the memo holds
    # (C6cI keeps decompositions and a distinguished index too), short of
    # the classes, which reach whole modules
    norm = normalize(Instance.of((mul(OMEGA, 2), 2)))
    assert classify(norm).distinguished == 0
    seen, todo = set(), [norm._facts]
    while todo:
        x = todo.pop()
        assert x is not norm and not isinstance(x, Analysis)
        if id(x) not in seen and not isinstance(x, type):
            seen.add(id(x))
            todo += gc.get_referents(x)
    assert len(seen) > 10


# -- the witness-file types -------------------------------------------------------


def witness_records():
    # a DerivativeNotEmbeddable certificate sets every optional field but bound
    norm = normalize(Instance.of((mul(OMEGA, 2), 2)))
    col, certs = build_counterexample(add(mul(OMEGA, OMEGA), 1), norm)
    return [col, *certs]


WITNESS_IDS = ["colouring", "not_embeddable_cert", "empty_cert"]


def changed(value):
    # a value of the same kind that differs from value
    if isinstance(value, enum.Enum):
        return next(m for m in type(value) if m is not value)
    if isinstance(value, tuple):
        return value[1:]
    if value is None:
        return ONE
    return value + 1 if type(value) is int else add(value, 1)


@pytest.mark.parametrize("record", witness_records(), ids=WITNESS_IDS)
def test_replace_builds_what_the_constructor_builds(record):
    cls, fields = type(record), type(record)._fields
    assert [f.name for f in dataclasses.fields(record)] == list(fields)
    for k, name in enumerate(fields):
        values = [getattr(record, n) for n in fields]
        values[k] = changed(values[k])
        replaced = dataclasses.replace(record, **{name: values[k]})
        assert replaced == cls(*values)
        assert replaced != record
        assert hash(replaced) == hash(cls(*values))


def test_the_colouring_pass_memo_is_not_a_field():
    # the verifier keeps its colouring pass in _checked; copies start empty
    assert "_checked" in RankColouring.__slots__
    norm = normalize(Instance.of((mul(OMEGA, 2), 2)))
    col, certs = build_counterexample(add(mul(OMEGA, OMEGA), 1), norm)
    fresh = RankColouring(*col._astuple())
    before = repr(col)
    assert col._checked is None and verify_certificates(col, norm, certs)
    assert col._checked is not None and fresh._checked is None
    assert "_checked" not in RankColouring._fields
    assert [f.name for f in dataclasses.fields(col)] == list(
        RankColouring._fields)
    assert col == fresh and hash(col) == hash(fresh)
    assert repr(col) == repr(fresh) == before
    assert col.__reduce__() == (RankColouring, col._astuple())
    for twin in (pickle.loads(pickle.dumps(col)), copy.copy(col),
                 copy.deepcopy(col), dataclasses.replace(col),
                 dataclasses.replace(col, zero_colour=None)):
        assert twin == col and twin._checked is None
    with pytest.raises(AttributeError):
        setattr(col, "_checked", None)
    with pytest.raises(AttributeError):
        delattr(col, "_checked")
    assert col._checked is not None


@pytest.mark.parametrize("record", witness_records(), ids=WITNESS_IDS)
def test_witness_records_are_immutable(record):
    for name in type(record)._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)


@pytest.mark.parametrize("record", witness_records(), ids=WITNESS_IDS)
def test_witness_records_pickle_and_copy(record):
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                 copy.deepcopy(record)):
        assert type(twin) is type(record)
        assert twin == record and hash(twin) == hash(record)
        assert repr(twin) == repr(record)


def test_a_certificate_repr_is_pinned():
    cert = witness_records()[1]
    assert repr(cert) == (
        "ObstructionCertificate(colour=0, kind=<CertKind."
        "DERIVATIVE_NOT_EMBEDDABLE: 'DerivativeNotEmbeddable'>, "
        "claimed_target=w*2, level=0, bound=None, class_residual=w+1, "
        "target_residual=w*2)")
    assert repr(ObstructionCertificate(1, CertKind.DERIVATIVE_EMPTY, OMEGA,
                                       level=ONE)) == (
        "ObstructionCertificate(colour=1, kind=<CertKind.DERIVATIVE_EMPTY: "
        "'DerivativeEmpty'>, claimed_target=w, level=1, bound=None, "
        "class_residual=None, target_residual=None)")
    assert repr(witness_records()[0]) == (
        "RankColouring(domain=w^2+1, mode=<ColouringMode.RANK: 'rank'>, "
        "rank_classes=(((1, 2),), ((0, 1),)), top_point_colours=(0,), "
        "zero_colour=None)")
