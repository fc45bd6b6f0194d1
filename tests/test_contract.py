"""The package's contract over every input a caller can type: each public
callable returns finite floats, records of them or a documented None, or
raises a ``BayesFlipError``; no other exception and no inf or nan gets
out.

Each name in ``bayesflip.__all__`` that can be called, each public
function of ``bayesflip.report``, and the public methods of the records
that check their inputs, get a strategy that draws from every
finite float of both signs (subnormals and +-DBL_MAX included), from
integers up to 10**400 for a sample size, from the enum members, and
from points in [-2, 300].  A callable with no strategy fails
``test_every_public_callable_has_a_contract``.
"""

import inspect
import math
import sys
from enum import Enum
from functools import partial

from hypothesis import example, given, settings, strategies as st

import bayesflip
from bayesflip import report
from bayesflip.bayes_factor import TestSetup
from bayesflip.errors import BayesFlipError

DBL_MAX = sys.float_info.max
EXAMPLES = 200

# public names that are not covered, and why
EXCLUDED = {
    # exception classes: raised, never returned
    "BayesFlipError", "ConvergenceError", "DomainError", "MaxIterExceeded", "NoFlipPoint",
    "NoSignChange", "NotAReversal",
    # enums: their members are drawn as arguments
    "Direction", "FlipMethod",
    # records that take their fields unchecked; BayesFactorResult's methods are covered
    "BayesFactorResult", "FlipPointResult", "ReversalPair",
}
# names documented to return None for some inputs
MAY_RETURN_NONE = {"bf_argmin_k", "report.sweep_flip_row"}

FLOATS = st.floats(allow_nan=False, allow_infinity=False)
N = st.integers(-2, 10**400)
POINTS = st.integers(-2, 300)
SCALES = st.lists(FLOATS, max_size=4)
SETUPS = st.builds(TestSetup, st.integers(1, int(DBL_MAX)), FLOATS)
NORMAL_PRIORS = st.builds(bayesflip.NormalPrior, st.floats(0.0, DBL_MAX, exclude_min=True))
CAUCHY_PRIORS = st.builds(bayesflip.CauchyPrior, st.floats(0.0, DBL_MAX, exclude_min=True))
# bf01 and bf01_cauchy take either record: the other family's used to raise AttributeError
PRIORS = NORMAL_PRIORS | CAUCHY_PRIORS
RESULTS = st.builds(bayesflip.BayesFactorResult.from_log, st.floats(-DBL_MAX, math.log(DBL_MAX)))


def _shifted(c, x):
    return x - c


def _step(c, x):
    return -1.0 if x < c else 1.0


ROOT_FUNCTIONS = st.sampled_from([math.atan, math.tanh, math.erf]) | st.builds(
    partial, st.sampled_from([_shifted, _step]), FLOATS)

COVERED = set()


def _resolve(name):
    obj = bayesflip
    for part in name.split("."):
        obj = getattr(obj, part)
    return obj.fget if isinstance(obj, property) else obj


def _finite(value, none_ok=False):
    """True for a finite float, an int, a string label or an enum member,
    and for a list or record of them.  None passes where ``none_ok`` is
    set, and as the k of a SweepRow (None for a Cauchy sweep)."""
    if value is None:
        return none_ok
    if isinstance(value, float):
        return math.isfinite(value)
    if isinstance(value, (int, str, Enum)):
        return True
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    assert isinstance(value, tuple) and hasattr(value, "_fields"), repr(value)
    return all(_finite(v, isinstance(value, report.SweepRow) and field == "k")
               for field, v in zip(value._fields, value))


def _contract(name, args, *pins):
    """The contract test of ``name``: its arguments drawn from ``args`` (a
    strategy of tuples), with each pin in ``pins`` run first."""
    COVERED.add(name)
    function = _resolve(name)

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(args)
    def test(drawn):
        try:
            value = function(*drawn)
        except BayesFlipError:
            return
        assert _finite(value, name in MAY_RETURN_NONE), (name, drawn, value)
        if name == "find_root":
            assert drawn[1] <= value <= drawn[2], (drawn, value)

    for pin in pins:
        test = example(pin)(test)
    return test


def test_every_public_callable_has_a_contract():
    public = {name for name in bayesflip.__all__ if callable(getattr(bayesflip, name))}
    public |= {f"report.{name}" for name in report.__all__
               if inspect.isfunction(getattr(report, name))}
    assert EXCLUDED <= public, EXCLUDED - public
    assert public - EXCLUDED - COVERED == set()


# bayesflip.bayes_factor
test_test_setup = _contract("TestSetup", st.tuples(N, FLOATS))
test_xbar = _contract("TestSetup.xbar", st.tuples(SETUPS))
test_from_sample_mean = _contract("TestSetup.from_sample_mean", st.tuples(N, FLOATS))
test_normal_prior = _contract("NormalPrior", st.tuples(FLOATS))
# n tau^2 used to overflow to inf
test_normal_prior_k = _contract("NormalPrior.k", st.tuples(NORMAL_PRIORS, SETUPS),
                                (bayesflip.NormalPrior(1e200), TestSetup(1, 1.0)))
test_from_log = _contract("BayesFactorResult.from_log", st.tuples(FLOATS))
test_posterior_h0 = _contract("BayesFactorResult.posterior_h0", st.tuples(RESULTS, FLOATS))
test_bf01 = _contract("bf01", st.tuples(SETUPS, PRIORS),
                      (TestSetup(1, 2.0), bayesflip.CauchyPrior(0.707)))
test_bf_argmin_k = _contract("bf_argmin_k", st.tuples(FLOATS))
test_dlogbf_dk = _contract("dlogbf_dk", st.tuples(FLOATS, FLOATS))
test_log_bf01 = _contract("log_bf01", st.tuples(FLOATS, FLOATS))
test_posterior_prob_h0 = _contract("posterior_prob_h0", st.tuples(FLOATS, FLOATS))
test_two_sided_p = _contract("two_sided_p", st.tuples(FLOATS))

# bayesflip.cauchy: past |z| ~ 1.27e308, 2xy used to overflow in the
# Voigt kernel's real-axis term, and cos(inf) raised ValueError
test_cauchy_prior = _contract("CauchyPrior", st.tuples(FLOATS))
test_bf01_cauchy = _contract(
    "bf01_cauchy", st.tuples(SETUPS, PRIORS),
    (TestSetup(1, 2.0), bayesflip.NormalPrior(0.8)),
    (TestSetup(1, 1.3e308), bayesflip.CauchyPrior(1.0)),
    (TestSetup(1, -DBL_MAX), bayesflip.CauchyPrior(1.0)))
test_cauchy_flip_scale = _contract("cauchy_flip_scale", st.tuples(SETUPS))

# bayesflip.flip
test_flip_point = _contract("flip_point", st.tuples(FLOATS, st.sampled_from(bayesflip.FlipMethod)))
test_phi = _contract("phi", st.tuples(FLOATS))
test_phi_inverse = _contract("phi_inverse", st.tuples(FLOATS))
test_reversal_pair = _contract("reversal_pair", st.tuples(SETUPS, FLOATS))
test_tau_star = _contract("tau_star", st.tuples(FLOATS, N))
test_validate_pair = _contract("validate_pair", st.tuples(SETUPS, FLOATS, FLOATS))

# bayesflip.numerics: c - b used to overflow over a bracket wider than
# DBL_MAX, giving -inf for atan and no convergence for the identity
test_find_root = _contract(
    "find_root", st.tuples(ROOT_FUNCTIONS, FLOATS, FLOATS, st.floats()),
    (math.atan, -1e308, 1e308, 1e-14),
    (partial(_shifted, 0.0), -1e308, 1e308, 1e-14),
    (partial(_shifted, 0.3), -DBL_MAX, DBL_MAX, 1e-14))

# bayesflip.report: the last log point used to round past log(DBL_MAX)
# before it was set to hi, and exp overflowed
test_scale_grid = _contract(
    "report.scale_grid",
    st.tuples(FLOATS, FLOATS, POINTS, st.sampled_from(["linear", "log", "cubic"])),
    (2.898708081470005e-121, DBL_MAX, 6, "log"))
test_sweep_rows = _contract(
    "report.sweep_rows", st.tuples(SETUPS, st.sampled_from(["normal", "cauchy", "t"]), SCALES))
test_sweep_flip_row = _contract("report.sweep_flip_row", st.tuples(SETUPS))
test_table_rows = _contract("report.table_rows", st.just(()))
test_figure_panel_a = _contract("report.figure_panel_a", st.tuples(POINTS))
test_figure_panel_b = _contract("report.figure_panel_b", st.tuples(POINTS))
