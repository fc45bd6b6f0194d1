"""Kernel checks: bracketed root finding and Lambert W, the latter
against mpmath at 50 digits."""

import math

import mpmath
import numpy as np
import pytest

from bayesflip import numerics
from bayesflip.errors import DomainError, MaxIterExceeded, NoSignChange
from bayesflip.numerics import find_root, lambert_w0


class TestBracketAndConfig:
    """find_root checks its bracket [lo, hi] and its tolerance before it
    evaluates f."""

    @staticmethod
    def unreachable(t):
        raise AssertionError("f evaluated")

    def test_bracket_order_enforced(self):
        with pytest.raises(DomainError, match=r"lo < hi, got \[2.0, 1.0\]"):
            find_root(self.unreachable, 2.0, 1.0)
        with pytest.raises(DomainError, match="lo < hi"):
            find_root(self.unreachable, 1.0, 1.0)
        with pytest.raises(DomainError, match="lo < hi"):
            find_root(self.unreachable, math.nan, 1.0)

    @pytest.mark.parametrize("kwargs", [
        {"abs_tol": -1e-18},
        {"abs_tol": -1.0},
        {"abs_tol": -math.inf},
        {"abs_tol": math.nan},
    ])
    def test_config_validation(self, kwargs):
        with pytest.raises(DomainError, match="abs_tol must be nonnegative"):
            find_root(self.unreachable, 1.0, 2.0, **kwargs)


class TestFindRoot:
    def test_sqrt_two(self):
        x = find_root(lambda t: t * t - 2.0, 1.0, 2.0)
        assert x == pytest.approx(math.sqrt(2.0), abs=2e-12)

    def test_identity_function(self):
        x = find_root(lambda t: t, -1.0, 1.0)
        assert x == pytest.approx(0.0, abs=1e-12)

    def test_flip_equation_reference_root(self):
        """(1+k) log(1+k) - 4k has its nontrivial zero near 49.44."""
        x = find_root(lambda k: (1.0 + k) * math.log1p(k) - 4.0 * k,
                      3.0, 100.0)
        assert x == pytest.approx(49.44, abs=0.01)

    def test_root_at_endpoint_returned_directly(self):
        assert find_root(lambda t: t - 1.0, 1.0, 3.0) == 1.0
        assert find_root(lambda t: t - 3.0, 1.0, 3.0) == 3.0

    def test_no_sign_change(self):
        with pytest.raises(NoSignChange):
            find_root(lambda t: t * t + 1.0, -1.0, 1.0)

    def test_max_iter_exceeded(self, monkeypatch):
        monkeypatch.setattr(numerics, "_MAX_ITER", 2)
        with pytest.raises(MaxIterExceeded, match="within 2 iterations"):
            find_root(lambda t: t * t - 2.0, 1.0, 2.0, abs_tol=1e-18)

    def test_abs_tol_zero_stops_on_relative_width(self):
        x = find_root(lambda t: t * t - 2.0, 1.0, 2.0, abs_tol=0.0)
        assert x == pytest.approx(math.sqrt(2.0), rel=2e-12)

    def test_result_stays_inside_bracket(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            c = float(rng.uniform(-1.5, 1.5))
            x = find_root(lambda t: t * t * t - c, -2.0, 2.0)
            assert -2.0 <= x <= 2.0
            expected = math.copysign(abs(c) ** (1.0 / 3.0), c)
            assert x == pytest.approx(expected, abs=1e-9)


class TestLambertW:
    def test_trivial_points(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(math.e) == pytest.approx(1.0, rel=1e-14)

    def test_branch_point(self):
        assert lambert_w0(-math.exp(-1.0)) == -1.0

    def test_below_branch_point_rejected(self):
        with pytest.raises(DomainError):
            lambert_w0(-0.5)
        with pytest.raises(DomainError):
            lambert_w0(float("nan"))

    def test_infinite_input_names_x(self):
        """inf used to run the Halley loop on nan and end in MaxIterExceeded."""
        with pytest.raises(DomainError, match=r"lambert_w0 domain is \[-1/e, inf\); got inf"):
            lambert_w0(math.inf)

    def test_flip_equation_consistency(self):
        """The W0 route must reproduce the root of (1+k)log(1+k) = 4k
        found independently by the bracketed solver."""
        oracle = find_root(lambda k: (1.0 + k) * math.log1p(k) - 4.0 * k,
                           3.0, 100.0)
        w = lambert_w0(-4.0 * math.exp(-4.0))
        k = math.expm1(w + 4.0)
        assert k == pytest.approx(oracle, rel=1e-9)
        assert k == pytest.approx(49.44, abs=0.01)

    def test_defining_identity_across_domain(self):
        """w * exp(w) = x to within ten solver tolerances, 1000 samples."""
        rng = np.random.default_rng(7)
        xs = list(np.exp(rng.uniform(np.log(1e-6), np.log(1e3), 500)))
        xs += list(rng.uniform(-math.exp(-1.0) + 1e-12, 0.0, 500))
        for x in map(float, xs):
            w = lambert_w0(x)
            assert w >= -1.0
            assert w * math.exp(w) == pytest.approx(x, rel=1e-11, abs=1e-300)


class TestLambertWAgainstMpmath:
    """W0 at 50 digits over [-1/e, 1e300].  Near -1/e, W0 has slope
    ~ 1/sqrt(e x + 1), so there the error is scaled by that root."""

    @staticmethod
    def mp_w0(x):
        with mpmath.workdps(50):
            return mpmath.lambertw(mpmath.mpf(x)).real

    def test_near_branch_point(self):
        """Where x + 1/e is in about [6e-15, 4e-9], Halley's step test is
        never met: these points used to raise MaxIterExceeded."""
        worst = 0.0
        with mpmath.workdps(50):
            for d in np.logspace(-16.0, -2.0, 400):
                x = float(-mpmath.exp(-1) + float(d))
                w0 = self.mp_w0(x)
                q = mpmath.sqrt(mpmath.e * mpmath.mpf(x) + 1)
                worst = max(worst, float(abs(lambert_w0(x) - w0) * q))
        assert worst <= 1e-15

    def test_relative_error_across_domain(self):
        xs = np.concatenate([np.logspace(-300.0, 300.0, 400),
                             -np.logspace(-300.0, math.log10(0.3678), 200)])
        worst = max(abs(lambert_w0(x) / float(self.mp_w0(x)) - 1.0) for x in map(float, xs))
        assert worst <= 1e-15
