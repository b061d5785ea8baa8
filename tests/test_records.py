"""The immutable value records: equality, hashing, repr, immutability, checks.

Each record class keeps the semantics it had as a frozen dataclass, so the
expected hashes and reprs below are also compared with a frozen dataclass
built from the same field names and values.
"""

import copy
import dataclasses
import pickle

import pytest
from reference import ChowModel, KClass

from cobordlab.actions import CharacterGroup, Disjoint, HAct, PAct
from cobordlab.bounds import BoundReport
from cobordlab.chow import HAtom, PAtom, VExpr
from cobordlab.partitions import Record

MODEL = ChowModel(2, (3,))
P1 = PAct(((0,), (1,)))
H1 = HAct(((0,),), ((0,), (1,)))
PROD = (P1, H1)  # the factors of a product part
ATOMS = (PAtom(1), HAtom(2, 3))

# (record, its field values in slot order, its exact repr)
CASES = [
    (PAtom(0), (0,), "PAtom(n=0)"),
    (HAtom(0, 0), (0, 0), "HAtom(n=0, m=0)"),
    (CharacterGroup((2, 4)), ((2, 4),), "CharacterGroup(invariant_factors=(2, 4))"),
    (KClass(MODEL, ((4, (1,)),), -1), (MODEL, ((4, (1,)),), -1),
     "KClass(model=ChowModel(p=2, caps=(3,)), lines=((4, (1,)),), offset=-1)"),
    (PAtom(3), (3,), "PAtom(n=3)"),
    (HAtom(2, 3), (2, 3), "HAtom(n=2, m=3)"),
    (VExpr(((1, (PAtom(1),)),)), (((1, (PAtom(1),)),),), "VExpr(parts=((1, (PAtom(n=1),)),))"),
    (VExpr(((2, ATOMS),)), (((2, ATOMS),),), "VExpr(parts=((2, (PAtom(n=1), HAtom(n=2, m=3))),))"),
    (CharacterGroup((4,)), ((4,),), "CharacterGroup(invariant_factors=(4,))"),
    (P1, (((0,), (1,)),), "PAct(weights=((0,), (1,)))"),
    (H1, (((0,),), ((0,), (1,))), "HAct(V=((0,),), W=((0,), (1,)))"),
    (Disjoint(((1, (P1,)),)), (((1, (P1,)),),), "Disjoint(parts=((1, (PAct(weights=((0,), (1,))),)),))"),
    (Disjoint(((2, PROD),)), (((2, PROD),),),
     "Disjoint(parts=((2, (PAct(weights=((0,), (1,))), HAct(V=((0,),), W=((0,), (1,))))),))"),
    (BoundReport(2, "h", (4,), {"p": 2}), (2, "h", (4,), {"p": 2}),
     "BoundReport(bound=2, hypothesis_checked='h', certificate=(4,), inputs={'p': 2})"),
]
IDS = [f"{type(x).__name__}-{i}" for i, (x, _, _) in enumerate(CASES)]
HASHABLE = [pytest.param(*c, id=i) for i, c in zip(IDS, CASES) if not isinstance(c[0], BoundReport)]


def test_every_record_class_is_covered():
    covered = {type(x) for x, _, _ in CASES}
    assert covered == {KClass, PAtom, HAtom, VExpr, CharacterGroup,
                       PAct, HAct, Disjoint, BoundReport}
    assert all(issubclass(cls, Record) for cls in covered)


def _frozen_dataclass_twin(x, values):
    cls = dataclasses.make_dataclass(type(x).__name__, type(x).__slots__, frozen=True)
    return cls(*values)


def _twin(x, values):
    """An instance of another record class with the same field names and values."""
    cls = type("Twin", (Record,), {"__slots__": type(x).__slots__})
    twin = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(twin, name, value)
    return twin


@pytest.mark.parametrize("x,values,text", CASES, ids=IDS)
def test_fields_repr_and_equality(x, values, text):
    assert tuple(getattr(x, name) for name in type(x).__slots__) == values
    assert repr(x) == text
    assert repr(x) == repr(_frozen_dataclass_twin(x, values))
    # a fresh instance with the same fields is equal, and not identical
    y = type(x)(*values)
    assert y is not x and y == x and not (y != x)
    # another record class with equal field values is not equal, nor is the tuple
    twin = _twin(x, values)
    assert twin != x and x != twin
    assert x != values
    assert not hasattr(x, "__dict__")
    # the kept hash is no field: a hashed record equals a fresh one, and repr and reduce leave it out
    if not isinstance(x, BoundReport):
        hash(x)
        assert type(x)(*values) == x and x == type(x)(*values)
    assert "_hash" not in type(x).__slots__ and "_hash" not in repr(x)
    assert x.__reduce__() == (type(x), values)


@pytest.mark.parametrize("x,values,text", HASHABLE)
def test_hash_is_the_field_tuple_hash(x, values, text, monkeypatch):
    assert hash(x) == hash(values)
    assert hash(x) == hash(_frozen_dataclass_twin(x, values))
    assert hash(type(x)(*values)) == hash(x)
    assert len({x, type(x)(*values)}) == 1
    # the first hash is kept: hashing a record again reads no field
    y = type(x)(*values)
    reads = []
    read = type(x)._values
    monkeypatch.setattr(type(x), "_values", staticmethod(lambda obj: reads.append(obj) or read(obj)))
    assert hash(y) == hash(y) == hash(values)
    assert len(reads) == 1 and reads[0] is y


def test_bound_report_is_unhashable():
    report = BoundReport(2, "h", (4,), {"p": 2})
    with pytest.raises(TypeError):
        hash(report)
    with pytest.raises(TypeError):
        {report}
    # no hash is kept, so every call raises, not only the first
    for _ in range(2):
        with pytest.raises(TypeError):
            hash(report)
    assert not hasattr(report, "_hash")


def test_unequal_fields_are_unequal():
    assert PAtom(3) != PAtom(4)
    assert HAtom(2, 3) != HAtom(2, 4)
    assert PAct(((0,), (1,))) != PAct(((0,), (0,)))
    assert KClass(MODEL, (), 0) != KClass(MODEL, (), 1)
    assert CharacterGroup((4,)) != CharacterGroup((2, 2))


@pytest.mark.parametrize("x,values,text", CASES, ids=IDS)
def test_assignment_and_deletion_raise(x, values, text):
    for name in type(x).__slots__:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
        assert getattr(x, name) == values[type(x).__slots__.index(name)]
    with pytest.raises(AttributeError):
        x.extra = 1
    # nor can the kept hash be set or dropped, before or after the first hash
    for hashed in (False, True):
        if hashed and not isinstance(x, BoundReport):
            hash(x)
        with pytest.raises(AttributeError):
            x._hash = 0
        with pytest.raises(AttributeError):
            del x._hash
    if not isinstance(x, BoundReport):
        assert hash(x) == hash(values)


@pytest.mark.parametrize("x,values,text", CASES, ids=IDS)
def test_copy_and_pickle_round_trip(x, values, text):
    assert copy.copy(x) == x
    # ChowModel compares by identity, so a deep copy of a KClass is equal only in repr
    for y in (copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is type(x) and repr(y) == text
        assert y == x or isinstance(x, KClass)
    # a hashed record's copies carry no kept hash: they hash their fields again, to the same value
    if not isinstance(x, BoundReport):
        hash(x)
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert not hasattr(y, "_hash")
            assert y == x and hash(y) == hash(x) or isinstance(x, KClass)


def test_keywords_and_defaults():
    assert KClass(MODEL, ()) == KClass(MODEL, (), offset=0)
    assert KClass(model=MODEL, lines=((1, (1,)),), offset=2).offset == 2
    assert PAtom(n=3) == PAtom(3)
    assert HAtom(n=1, m=2) == HAtom(1, 2)
    assert VExpr(parts=()) == VExpr(())
    assert CharacterGroup(invariant_factors=(3,)) == CharacterGroup.cyclic(3)
    assert PAct(weights=((0,),)) == PAct(((0,),))
    assert HAct(V=((0,),), W=((0,),)) == HAct(((0,),), ((0,),))
    assert Disjoint(parts=()) == Disjoint(())
    report = BoundReport(bound=1, hypothesis_checked="h", certificate=None, inputs={})
    assert report == BoundReport(1, "h", None, {})
    with pytest.raises(TypeError):
        PAtom()
    with pytest.raises(TypeError):
        HAtom(1, 2, 3)
    with pytest.raises(TypeError):
        PAtom(m=1)


@pytest.mark.parametrize(
    "build,message",
    [
        pytest.param(lambda: HAtom(3, 2), "n <= m", id="HAtom-order"),
        pytest.param(lambda: PAtom(-1), "^P index must be nonnegative$", id="PAtom-negative"),
        pytest.param(lambda: HAtom(-1, 2), "^H indices must be nonnegative$", id="HAtom-negative-n"),
        pytest.param(lambda: HAtom(-2, -1), "^H indices must be nonnegative$", id="HAtom-negative-both"),
        pytest.param(lambda: CharacterGroup(()), "at least one invariant factor", id="CharacterGroup-empty"),
        pytest.param(lambda: CharacterGroup((2, 3)), "powers of one prime", id="CharacterGroup-two-primes"),
        pytest.param(lambda: CharacterGroup((6,)), "not a prime power", id="CharacterGroup-6"),
        pytest.param(lambda: CharacterGroup((1,)), "not a prime power", id="CharacterGroup-1"),
        pytest.param(lambda: PAct(()), "dim V >= 1", id="PAct-empty"),
        pytest.param(lambda: PAct(((1,), (0,))), "stored sorted", id="PAct-unsorted"),
        pytest.param(lambda: HAct((), ((0,),)), "nonempty", id="HAct-empty-V"),
        pytest.param(lambda: HAct(((0,),), ()), "nonempty", id="HAct-empty-W"),
        pytest.param(lambda: HAct(((1,), (0,)), ((0,), (1,))), "stored sorted", id="HAct-unsorted-V"),
        pytest.param(lambda: HAct(((0,),), ((1,), (0,))), "stored sorted", id="HAct-unsorted-W"),
        pytest.param(lambda: HAct(((0,), (0,)), ((0,), (1,))), "sub-multiset", id="HAct-V-not-in-W"),
        pytest.param(lambda: Disjoint(((1, (PAtom(1),)),)), "atomic actions", id="Product-atom"),
        pytest.param(lambda: Disjoint(((1, (P1, Disjoint(()))),)), "atomic actions", id="Product-nested"),
        pytest.param(lambda: Disjoint(((0, PROD),)), "positive", id="Disjoint-zero-multiplicity"),
        pytest.param(lambda: Disjoint(((1, P1),)), "must be products", id="Disjoint-bare-action"),
    ],
)
def test_construction_checks(build, message):
    with pytest.raises(ValueError, match=message):
        build()
