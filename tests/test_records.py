"""The record idiom behind every value type: equality and hashing within
one type only, validation on every construction path, immutability,
pickling and repr."""

import math
import pickle

import pytest

from bayesflip.bayes_factor import BayesFactorResult, Direction, NormalPrior, TestSetup
from bayesflip.cauchy import CauchyPrior
from bayesflip.cli import RunConfig
from bayesflip.errors import DomainError
from bayesflip.flip import FlipPointResult, ReversalPair, flip_point, reversal_pair
from bayesflip.numerics import Bracket, SolverConfig
from bayesflip.report import FigureRow, SweepRow, TableOneRow, sweep_flip_row, table_rows
from bayesflip.svg import Marker, Series

from _quadrature import MarginalIntegrand

SETUP = TestSetup(50, 2.0)
SAMPLES = [
    SETUP,
    NormalPrior(0.5),
    CauchyPrior(0.5),
    BayesFactorResult.from_log(-0.25),
    Bracket(0.5, 2.0),
    SolverConfig(),
    MarginalIntegrand(2.0, 50, "cauchy", 0.7),
    flip_point(2.0),
    reversal_pair(SETUP),
    sweep_flip_row(SETUP),
    table_rows()[0],
    FigureRow("a", 2.0, 1.5, 0.9, math.log(0.9), Direction.FAVOURS_H1, "point"),
    Series("z=2", (1.0, 2.0), (0.5, 0.25)),
    Marker(1.0, 2.0, label="tau*"),
]
RECORD_TYPES = (TestSetup, NormalPrior, CauchyPrior, BayesFactorResult, Bracket,
                SolverConfig, MarginalIntegrand, FlipPointResult, ReversalPair, SweepRow,
                TableOneRow, FigureRow, Series, Marker, RunConfig)


def ids(records):
    return [type(r).__name__ for r in records]


def test_samples_cover_every_record_type():
    assert {type(r) for r in SAMPLES} | {RunConfig} == set(RECORD_TYPES)


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
    (SETUP, "sigma", 2.0),
    (NormalPrior(0.5), "tau", 0.0),
    (CauchyPrior(0.5), "r", math.inf),
    (Bracket(0.5, 2.0), "lo", 3.0),
    (SolverConfig(), "rel_tol", -1.0),
    (SolverConfig(), "abs_tol", -1e-3),
    (SolverConfig(), "max_iter", 0),
    (MarginalIntegrand(2.0, 50, "cauchy", 0.7), "prior_family", "laplace"),
    (MarginalIntegrand(2.0, 50, "cauchy", 0.7), "scale", -1.0),
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

    def test_solver_config_replace(self):
        with pytest.raises(DomainError, match="rel_tol"):
            SolverConfig()._replace(rel_tol=-1.0)
        cfg = SolverConfig()._replace(abs_tol=0.0)
        assert type(cfg) is SolverConfig and cfg == SolverConfig(1e-12, 0.0, 200)

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
    records = [*SAMPLES, RunConfig("bf", {"z": 2.0, "n": 50}, "json", None, 4)]
    for r in records:
        back = pickle.loads(pickle.dumps(r, protocol))
        assert type(back) is type(r) and back == r


def test_repr():
    assert repr(TestSetup(50, 2.0)) == "TestSetup(n=50, z=2.0, sigma=1.0)"
    assert repr(NormalPrior(0.5)) == "NormalPrior(tau=0.5)"
    assert repr(SolverConfig()) == "SolverConfig(rel_tol=1e-12, abs_tol=1e-14, max_iter=200)"


def test_keyword_construction_and_defaults():
    assert TestSetup(n=50, z=2.0) == TestSetup(50, 2.0, 1.0)
    assert Marker(1.0, 2.0) == Marker(1.0, 2.0, "", "#d62728")
    assert Series("s", (), ()).color == "#1f77b4"
