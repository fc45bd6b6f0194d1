"""The record idiom behind every value type: equality and hashing within
one type only, validation on every construction path, immutability,
pickling and repr."""

import importlib
import math
import pickle

import pytest

from bayesflip.bayes_factor import BayesFactorResult, Direction, NormalPrior, TestSetup
from bayesflip.cauchy import CauchyPrior
from bayesflip.cli import Table
from bayesflip.errors import DomainError
from bayesflip.flip import FlipPointResult, ReversalPair, flip_point, reversal_pair
from bayesflip.report import FigureRow, SweepRow, TableOneRow, sweep_flip_row, table_rows
from bayesflip.svg import Marker, Series

SETUP = TestSetup(50, 2.0)
SAMPLES = [
    SETUP,
    NormalPrior(0.5),
    CauchyPrior(0.5),
    BayesFactorResult.from_log(-0.25),
    flip_point(2.0),
    reversal_pair(SETUP),
    sweep_flip_row(SETUP),
    table_rows()[0],
    FigureRow("a", 2.0, 1.5, 0.9, math.log(0.9), Direction.FAVOURS_H1, "point"),
    Series("z=2", (1.0, 2.0), (0.5, 0.25)),
    Marker(1.0, 2.0, label="tau*"),
    Table("flip", ("z", "k_star"), ((2.0, 3.92),)),
]
RECORD_TYPES = (TestSetup, NormalPrior, CauchyPrior, BayesFactorResult, FlipPointResult,
                ReversalPair, SweepRow, TableOneRow, FigureRow, Series, Marker, Table)


# records with no checks and no methods: the namedtuple type itself
PLAIN_TYPES = (FlipPointResult, ReversalPair, SweepRow, TableOneRow, FigureRow, Table,
               Series, Marker)


def ids(records):
    return [type(r).__name__ for r in records]


def test_samples_cover_every_record_type():
    assert {type(r) for r in SAMPLES} == set(RECORD_TYPES)


class TestEquality:
    def test_same_fields_different_type(self):
        normal, cauchy = NormalPrior(0.5), CauchyPrior(0.5)
        assert tuple(normal) == tuple(cauchy)
        assert normal != cauchy and not normal == cauchy
        assert hash(normal) != hash(cauchy)
        assert len({normal, cauchy}) == 2

    def test_never_equal_to_a_plain_tuple(self):
        for r in SAMPLES:
            assert r != tuple(r) and tuple(r) != r
            assert not r == tuple(r)
        assert len({NormalPrior(0.5), (0.5,)}) == 2

    def test_distinct_types_never_equal(self):
        for i, a in enumerate(SAMPLES):
            for b in SAMPLES[i + 1:]:
                assert a != b

    @pytest.mark.parametrize("r", SAMPLES, ids=ids(SAMPLES))
    def test_equal_copies_hash_equal(self, r):
        twin = type(r)._make(tuple(r))
        assert twin == r and not twin != r
        assert hash(twin) == hash(r)


# record, field, invalid value
INVALID = [
    (SETUP, "n", 0),
    (SETUP, "z", math.nan),
    (NormalPrior(0.5), "tau", 0.0),
    (CauchyPrior(0.5), "r", math.inf),
]


class TestValidation:
    @pytest.mark.parametrize("r,field,value", INVALID,
                             ids=[f"{type(r).__name__}.{f}" for r, f, _ in INVALID])
    def test_replace_validates(self, r, field, value):
        with pytest.raises(DomainError):
            r._replace(**{field: value})

    @pytest.mark.parametrize("r,field,value", INVALID,
                             ids=[f"{type(r).__name__}.{f}" for r, f, _ in INVALID])
    def test_make_validates(self, r, field, value):
        with pytest.raises(DomainError):
            type(r)._make(value if f == field else v for f, v in zip(r._fields, r))

    def test_replace_rejects_unknown_fields(self):
        with pytest.raises(ValueError):
            NormalPrior(0.5)._replace(sigma=1.0)


class TestImmutability:
    @pytest.mark.parametrize("r", SAMPLES, ids=ids(SAMPLES))
    def test_fields_cannot_be_set(self, r):
        with pytest.raises(AttributeError):
            setattr(r, r._fields[0], r[0])

    @pytest.mark.parametrize("r", SAMPLES, ids=ids(SAMPLES))
    def test_no_new_attributes(self, r):
        with pytest.raises(AttributeError):
            r.note = "extra"
        assert not hasattr(r, "__dict__")


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trips_every_record(protocol):
    for r in SAMPLES:
        back = pickle.loads(pickle.dumps(r, protocol))
        assert type(back) is type(r) and back == r


@pytest.mark.parametrize("cls", PLAIN_TYPES, ids=[c.__name__ for c in PLAIN_TYPES])
def test_plain_record_is_one_type_in_its_own_module(cls):
    assert cls.__mro__ == (cls, tuple, object)
    assert getattr(importlib.import_module(cls.__module__), cls.__qualname__) is cls
    assert cls.__doc__ and not cls.__doc__.startswith(cls.__name__ + "(")


def test_repr():
    assert repr(TestSetup(50, 2.0)) == "TestSetup(n=50, z=2.0)"
    assert repr(NormalPrior(0.5)) == "NormalPrior(tau=0.5)"
    assert repr(Marker(1.0, 2.0)) == "Marker(x=1.0, y=2.0, label='')"


def test_keyword_construction_and_defaults():
    assert TestSetup(n=50, z=2.0) == TestSetup(50, 2.0)
    assert Marker(1.0, 2.0) == Marker(1.0, 2.0, "")
    assert Series._fields == ("label", "xs", "ys")
