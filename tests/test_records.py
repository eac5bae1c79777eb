"""Value records: equality, hashing, immutability, pickling and repr of
every record class, and the checks of every public factory."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from gl3weights import cycling
from gl3weights.arith import Record, decompose_exponent, exp_class, orbit_of
from gl3weights.breuil import (
    cuspidal,
    cuspidal_dual,
    descent_exponents,
    principal_series,
    random_module,
    validate,
)
from gl3weights.cycling import cycle
from gl3weights.elimination import eliminate
from gl3weights.induction import AntidominantCochar, constituents_short
from gl3weights.predicted import PredictedSet, enumerate_predicted, nine_weight_table
from gl3weights.slopes import hodge_data
from gl3weights.tame_types import tau, tau_exponent, type_from_exponent
from gl3weights.weights import WeightClass, canonicalize, weight

P = 29


def T():
    return tau("123", (17, 9, 0), P)


def W():
    return weight(P, 15, 8, 0)


# record class name -> a function building one instance afresh
RECORDS = {
    "ExpClass": lambda: exp_class(7, 3, 5),
    "FrobOrbit": lambda: orbit_of(P, 3, 278),
    "Decomposition": lambda: decompose_exponent(10, 7),
    "WeightClass": W,
    "TameType": T,
    "BreuilModule": lambda: validate(7, 3, 2, (0, 0, 0), (1, 7, 49)),
    "LiftType": lambda: principal_series(P, (20, 10, 2)),
    "PredictedSet": lambda: enumerate_predicted(T()),
    "AntidominantCochar": lambda: AntidominantCochar((0, 1, 1)),
    "EliminationReport": lambda: eliminate(weight(P, 32, 16, 0), T()),
    "CyclingGraph": lambda: cycle(T(), W()),
    "_Frame": lambda: cycling._frame.__wrapped__(T()),
    "HodgeData": lambda: hodge_data(3, 1, 1, [(2, 1, 0)], [0, 1, 2]),
}
UNHASHABLE = {"_Frame"}  # its table and decided fields are dicts


@pytest.mark.parametrize("name", RECORDS)
def test_record_semantics(name):
    a, b = RECORDS[name](), RECORDS[name]()
    cls = type(a)
    assert cls.__name__ == name
    assert a is not b and a == b and not a != b
    if name not in UNHASHABLE:
        assert hash(a) == hash(b)
    fields = a.__reduce__()[1]
    assert a != fields and a != tuple(fields)
    # a plain tuple on the left compares through the record's reflected methods
    assert tuple(fields) != a and not tuple(fields) == a
    # a record of another class, even of the same name and fields, is unequal too
    twin = type(cls.__name__, (Record,), {"__slots__": (), "_fields": cls._fields})
    other = twin.__new__(twin, *fields)
    assert a != other and not a == other and other != a and not other == a
    if name not in UNHASHABLE:
        assert {tuple(fields): 1}.get(a) is None
    trusted = cls.__new__(cls, *fields)
    assert trusted == a
    if name not in UNHASHABLE:
        assert hash(trusted) == hash(a)
    first = cls._fields[0]
    with pytest.raises(AttributeError):
        setattr(a, first, None)
    with pytest.raises(AttributeError):
        delattr(a, first)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert pickle.loads(pickle.dumps(a)) == a
    assert copy.deepcopy(a) == a and copy.copy(a) == a


def test_trusted_path_runs_no_check():
    w = WeightClass.__new__(WeightClass, 9, 3, (0, 1, 2))
    assert w.coords == (0, 1, 2)
    with pytest.raises(ValueError):
        WeightClass(9, 3, (0, 1, 2))


def test_record_field_count_is_checked():
    for name, make in RECORDS.items():
        record = make()
        cls, fields = type(record), record.__reduce__()[1]
        with pytest.raises(TypeError):
            cls(*fields, extra=1)  # fields are positional only
        for build in (
            lambda: cls(*fields[:-1]),
            lambda: cls.__new__(cls, *fields[:-1]),
            lambda: cls.__new__(cls, *fields, None),
        ):
            with pytest.raises(TypeError) as info:
                build()
            assert str(info.value) == f"{name} takes the fields {', '.join(cls._fields)}"
    with pytest.raises(TypeError) as info:
        PredictedSet(P, frozenset())
    assert str(info.value) == "PredictedSet takes the fields p, weights, source"


def test_records_repr_as_before():
    assert repr(W()) == "WeightClass(p=29, n=3, coords=(15, 8, 0))"
    assert repr(T()) == "TameType(p=29, chars=(FrobOrbit(p=29, d=3, rep=278, size=3),))"
    assert repr(T().chars[0]) == "FrobOrbit(p=29, d=3, rep=278, size=3)"
    assert repr(eliminate(W(), T())) == (
        "EliminationReport(weight=WeightClass(p=29, n=3, coords=(15, 8, 0)), "
        "source=TameType(p=29, chars=(FrobOrbit(p=29, d=3, rep=278, size=3),)), "
        "branch='crystalline', verdict='consistent', matched_orbit=278, "
        "lift_sets=None, intersection=None)"
    )


def test_weight_hash_equals_field_hash():
    # the cached hash is the hash a dataclass would compute, so set order is unchanged
    assert hash(W()) == hash((P, 3, (15, 8, 0)))
    assert hash(T()) == hash((P, T().chars))


@pytest.mark.parametrize("make, message", [
    (lambda: weight(7, 9, 1, 0), "coordinates (9, 1, 0) are not p-restricted"),
    (lambda: weight(9, 3, 2, 0), "characteristic must be a prime >= 5, got 9"),
    (lambda: canonicalize((3, 2), 7), "expected 3 coordinates, got 2"),
    (lambda: canonicalize((3, 2, 1), 1), "characteristic must be a prime >= 5, got 1"),
    (lambda: exp_class(7, 4, 1), "niveau must be one of (1, 2, 3), got 4"),
    (lambda: exp_class(1, 3, 5), "characteristic must be a prime >= 5, got 1"),
    (lambda: tau("123", (5, 3, 1), 9), "characteristic must be a prime >= 5, got 9"),
    (lambda: tau_exponent("123", (1, 2, 3), 1), "characteristic must be a prime >= 5, got 1"),
    (lambda: type_from_exponent(65537, 5),
     "characteristic must be a prime below 65536, got 65537"),
    (lambda: principal_series(4, (1, 2, 3)), "characteristic must be a prime >= 5, got 4"),
    (lambda: cuspidal(9, (20, 10, 2)), "characteristic must be a prime >= 5, got 9"),
    (lambda: cuspidal_dual(15, (20, 10, 2)), "characteristic must be a prime >= 5, got 15"),
    (lambda: cuspidal(17, (15, 8, 0)),
     "parameters (15, 8, 0) violate a-b > 2, b-c > 2, a-c < p-3 at p=17"),
    (lambda: validate(7, 3, 6, (0, 0, 0), (0, 0, 0)), "weight bound r=6 must lie in [0, 5]"),
    (lambda: random_module(random.Random(0), 1, 3, 2),
     "characteristic must be a prime >= 5, got 1"),
    (lambda: random_module(random.Random(0), 7, 3, -1), "weight bound r=-1 must lie in [0, 5]"),
    (lambda: descent_exponents(7, 3, 0, (0,)), "need 3 heights, got 1"),
    (lambda: descent_exponents(7, 3, 0, (0, 0, 0, 0)), "need 3 heights, got 4"),
    (lambda: hodge_data(3, 1, 1, [(2, 1, 0), (2, 1, 0)], [0, 0, 0]),
     "need one tuple per embedding: 1, got 2"),
    (lambda: hodge_data(3, 1, 1, [(0, 1, 2)], [Fraction(1, 2), 0, 0]),
     "Hodge tuple (0, 1, 2) is not non-increasing"),
    (lambda: nine_weight_table(20, 9, 3, 1), "characteristic must be a prime >= 5, got 1"),
    (lambda: constituents_short(5, 3, 1, 1), "characteristic must be a prime >= 5, got 1"),
], ids=["weight", "weight-p", "canonicalize", "canonicalize-p1", "exp_class", "exp_class-p1",
        "tau", "tau_exponent-p1", "type_from_exponent", "principal_series", "cuspidal",
        "cuspidal_dual", "cuspidal-gaps", "validate", "random_module-p1", "random_module-r",
        "descent_exponents-short", "descent_exponents-long", "hodge_data",
        "hodge_data-order", "nine_weight_table-p1", "constituents_short-p1"])
def test_factory_refuses_invalid_input(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message

