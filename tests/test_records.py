"""The contract every Record subclass keeps.  Pickling and copying
rebuild a record by calling its class with its fields, so each
constructor takes them positionally, in slot order; a slot named with a
leading underscore is a memo, outside equality, hash, repr and
pickling.  Record is the one mechanism for immutable values: only the
two witness-file types stay dataclasses."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import ordpigeon
from ordpigeon import oracle, selftest  # noqa: F401  (each defines one)
from ordpigeon.engine import Instance, analyze
from ordpigeon.ordinal import OMEGA, Record, add
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
