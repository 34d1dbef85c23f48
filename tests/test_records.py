"""The package's frozen records: construction, checks, equality, hashing,
immutability and repr."""
import copy
import pickle

import pytest
from dense_kernel import rebuilt

from linksgould.braid import BraidWord, parse_braid
from linksgould.diagram import OrientedDiagram, braid_closure
from linksgould.sliced import SlicedDiagram, to_sliced
from linksgould.tensor import TensorAssignment, lg11_fixture
from linksgould.verify import ReportDocument, VerificationCell

MATRICES = ("R", "Rinv", "n", "ntilde", "u", "utilde")


def cell():
    return VerificationCell("theorem2", {"m": 1, "k": 3}, "t - t^-1", "t - t^-1", True)


# name -> (a fresh record, a fresh record equal in every field, one that differs)
VALUE_RECORDS = {
    "BraidWord": (
        lambda: BraidWord(3, ((1, 1), (2, -1))),
        lambda: parse_braid("1 -2"),
        lambda: BraidWord(3, ((1, 1), (2, 1))),
    ),
    "SlicedDiagram": (
        lambda: to_sliced(parse_braid("1 1")),
        lambda: SlicedDiagram(to_sliced(parse_braid("1 1")).rows),
        lambda: to_sliced(parse_braid("1 -1")),
    ),
    "OrientedDiagram": (
        lambda: braid_closure(parse_braid("1 1 1")),
        lambda: braid_closure(parse_braid("1 1 1")),
        lambda: braid_closure(parse_braid("-1 -1 -1")),
    ),
    "TensorAssignment": (
        lg11_fixture,
        lambda: rebuilt(lg11_fixture()),
        lambda: TensorAssignment(1, ((1,),), ((1,),), ((1,),), ((1,),), ((1,),), ((1,),)),
    ),
}

IDENTITY_RECORDS = {
    "VerificationCell": cell,
    "ReportDocument": lambda: ReportDocument("0", "theorem2", (cell(),), 0.5),
}

RECORDS = {
    **{name: fresh for name, (fresh, _, _) in VALUE_RECORDS.items()},
    **IDENTITY_RECORDS,
}

FIELDS = {
    "BraidWord": ("strands", "letters"),
    "SlicedDiagram": ("rows",),
    "OrientedDiagram": ("crossings", "components"),
    "TensorAssignment": ("dim",) + MATRICES,
    "VerificationCell": ("suite", "params", "left", "right", "passed"),
    "ReportDocument": ("version", "suite", "cells", "elapsed_seconds"),
}


def values(record):
    return tuple(getattr(record, name) for name in FIELDS[type(record).__name__])


@pytest.mark.parametrize("name", VALUE_RECORDS)
def test_value_records_compare_and_hash_by_fields(name):
    fresh, equal, other = VALUE_RECORDS[name]
    a, b, c = fresh(), equal(), other()
    assert type(a) is type(b) is type(c)
    assert a == b and not a != b
    if name == "TensorAssignment":
        # Its entries have no hash, and the error names the record itself.
        with pytest.raises(TypeError, match="unhashable type: 'TensorAssignment'"):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    assert a != c and not a == c
    # A tuple of the same fields is not the record.
    assert a != values(a)


@pytest.mark.parametrize("name", IDENTITY_RECORDS)
def test_identity_records_compare_by_identity(name):
    a, b = IDENTITY_RECORDS[name](), IDENTITY_RECORDS[name]()
    assert a == a
    assert a != b
    assert hash(a) == object.__hash__(a)
    assert len({a, b}) == 2


@pytest.mark.parametrize("name", RECORDS)
def test_records_refuse_assignment_and_deletion(name):
    record = RECORDS[name]()
    for field in FIELDS[name]:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, before)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is before
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name", RECORDS)
def test_positional_and_keyword_construction_agree(name):
    record = RECORDS[name]()
    cls = type(record)
    by_position = cls(*values(record))
    by_keyword = cls(**dict(zip(FIELDS[name], values(record))))
    for built in (by_position, by_keyword):
        assert type(built) is cls
        assert all(x is y for x, y in zip(values(built), values(record)))


@pytest.mark.parametrize(
    "build",
    [
        lambda: BraidWord(0, ()),
        lambda: BraidWord(2, ((2, 1),)),
        lambda: BraidWord(3, ((1, 2),)),
        lambda: OrientedDiagram(((0, 1),), (((1, True), (1, False)),)),
        lambda: OrientedDiagram(((0, 1),), (((0, True), (0, True)),)),
        lambda: OrientedDiagram(((0, 2),), (((0, True), (0, False)),)),
        lambda: TensorAssignment(0, (), (), (), (), (), ()),
        lambda: TensorAssignment(2, *(getattr(lg11_fixture(), n) for n in ("R", "Rinv", "u", "n", "ntilde", "utilde"))),
    ],
    ids=["no-strands", "index-too-big", "bad-sign", "crossing-ids", "one-sided", "crossing-sign",
         "dim-0", "wrong-shape"],
)
def test_construction_checks_raise_value_error(build):
    with pytest.raises(ValueError):
        build()


def test_repr_names_every_field():
    assert repr(BraidWord(2, ((1, 1),))) == "BraidWord(strands=2, letters=((1, 1),))"


@pytest.mark.parametrize(
    "name", ["BraidWord", "SlicedDiagram", "OrientedDiagram", "VerificationCell", "ReportDocument"],
)
def test_records_copy_and_pickle(name):
    record = RECORDS[name]()
    # The identity records compare through their JSON form.
    same = getattr(type(record), "to_dict", values)
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record)
        assert same(clone) == same(record)


def test_fixture_caches_its_pieces_once():
    fx = rebuilt(lg11_fixture())
    assert fx._pieces is fx._pieces
    assert fx._columns is fx._columns
    assert fx._closing is fx._closing
    assert fx == lg11_fixture()
