"""The contract every Record subclass keeps.  Pickling and copying
rebuild a record by calling its class with its fields, so each
constructor takes them positionally, in slot order; a slot named with a
leading underscore is a memo, outside equality, hash, repr and
pickling.  Record is the one mechanism for immutable values: only the
two witness-file types stay dataclasses."""

import dataclasses
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
from ordpigeon.ordinal import OMEGA, Record, add, mul
from ordpigeon.parser import OrdinalExpression  # noqa: F401  (defines one)


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


RECORDS = list(subclasses(Record))


def test_the_walk_finds_every_record():
    assert {cls.__name__ for cls in RECORDS} >= {
        "Cardinal", "OrdinalExpression", "Instance", "NormalizedInstance",
        "Exists", "Infinite", "Independent", "Analysis", "Ordinal", "Atom",
        "EnumerationBounds", "CriterionResult"}


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
