"""Kernel checks: bracketed root finding, and the log-space Lambert W0
against mpmath at 60 digits and more."""

import math
import sys

import mpmath
import numpy as np
import pytest

from bayesflip import flip, numerics
from bayesflip.errors import DomainError, MaxIterExceeded, NoSignChange
from bayesflip.flip import FlipMethod, flip_point, log_neg_w0
from bayesflip.numerics import find_root


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

    @pytest.mark.parametrize("f", [math.atan, lambda t: t])
    def test_bracket_wider_than_the_largest_float(self, f):
        # c - b overflowed: atan gave -inf, the identity never converged
        assert find_root(f, -1e308, 1e308) == 0.0

    def test_bracket_of_the_whole_float_range(self):
        x = find_root(lambda t: t - 0.3, -sys.float_info.max, sys.float_info.max)
        assert -sys.float_info.max <= x <= sys.float_info.max
        assert x == pytest.approx(0.3, abs=1e-12)

    def test_steep_power_over_a_wide_bracket(self):
        # Brent's method gave up here after 200 iterations
        assert find_root(lambda t: t ** 9 - 1.0, 0.0, 1e30) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("f,lo,hi,abs_tol", [
        # bisected 200 times when the false-position point was formed from
        # the worse end
        (lambda t: t - 3.904171043707114, 2.81693115198867e-49, 2.976446641443861e104, 1.0),
        # roots among the subnormals, from either end of the bracket
        (lambda t: math.atan(t - 3.4734188398e-313), -5e-324, 6.376996648062979e199, 1.0),
        (lambda t: math.atan(t - 2.619595e-318), -1.9182914e-317, 1.4238265361997726, 0.0),
    ])
    def test_result_inside_bracket_at_the_float_range_edges(self, f, lo, hi, abs_tol):
        assert lo <= find_root(f, lo, hi, abs_tol) <= hi

    def test_bisection_in_float_order_reaches_a_tiny_root(self):
        # false position lands on 0.0 again and again here; 200 arithmetic
        # halvings from 5e164 reached only 6.6e104
        lo, hi, root = -1.7306775256325628e-78, 5.281930245500092e+164, 1.018383958456759e-297
        x = find_root(lambda t: t - root, lo, hi, 0.0)
        assert lo <= x <= hi
        assert abs(x / root - 1.0) <= 1e-11

    @pytest.mark.parametrize("f", [math.tanh, math.erf, math.atan,
                                   lambda t: math.copysign(1.0, t)])
    def test_saturating_f_over_a_wide_bracket(self, f):
        # f is -1 and +1 at the ends, so false position took the arithmetic
        # midpoint: 200 halvings from 1e300 never got near 3
        x = find_root(lambda t: f(t - 3.0), -1e200, 1e300)
        assert -1e200 <= x <= 1e300
        assert abs(x / 3.0 - 1.0) <= 1e-12

    def test_sign_change_between_adjacent_subnormals(self):
        # with abs_tol 0 the relative width test asks for less than the
        # subnormal spacing, so the bracket stopped at one ulp and ran out
        lo, hi, root = -1e-300, 9.735225980225838e32, 2.7e-322
        x = find_root(lambda t: -1.0 if t < root else 1.0, lo, hi, 0.0)
        assert lo <= x <= hi
        assert x in (math.nextafter(root, 0.0), root)

    @pytest.mark.parametrize("a,b", [(-1e308, 1e308), (1e-300, 1e300), (-1e-300, -1e300),
                                     (-5e-324, 5e-324), (0.0, 1.0), (1.0, 3.0), (-2.0, -7.0)])
    def test_midpoint_lies_strictly_between(self, a, b):
        m = numerics._midpoint(a, b)
        assert min(a, b) < m < max(a, b)
        if 0.0 < a / b <= 4.0:  # one sign, within a factor of 4: the arithmetic midpoint
            assert m == 0.5 * (a + b)
        elif a * b > 0.0:  # the float-order midpoint of one sign: about sqrt(ab)
            assert 0.5 < abs(m) / math.sqrt(a * b) < 2.0
        else:  # across zero, or from it: near zero
            assert abs(m) < 1e-150


def mp_log_neg_w0(d: float):
    """log(-W0(-exp(-1 - d))) at 60 + max(0, -log10 d) digits: at 60 alone
    mpmath cannot tell -1 - d from -1 for tiny d."""
    with mpmath.workdps(60 + max(0, math.ceil(-math.log10(d)))):
        return mpmath.log(-mpmath.lambertw(-mpmath.exp(-1 - mpmath.mpf(d))))


class TestLambertW:
    """log_neg_w0(d) = log(-W0(x)) at log(-x) = -1 - d, i.e. the root
    l <= 0 of expm1(l) - l = d."""

    def test_trivial_points(self):
        """d = 5e-324, the least float, lies so close to the branch point
        that the branch-point series -sqrt(2d) is exact."""
        assert log_neg_w0(5e-324) == -math.sqrt(1e-323)
        assert log_neg_w0(1e300) == -1e300  # W0 = -e^(-1 - d) to every digit

    def test_branch_point(self):
        assert log_neg_w0(0.0) == 0.0  # W0(-1/e) = -1
        assert -math.exp(log_neg_w0(0.0)) == -1.0

    def test_below_branch_point_rejected(self):
        with pytest.raises(DomainError, match=r"got d = -1e-300"):
            log_neg_w0(-1e-300)
        with pytest.raises(DomainError, match=r"got d = -0.5"):
            log_neg_w0(-0.5)
        with pytest.raises(DomainError, match=r"got d = nan"):
            log_neg_w0(float("nan"))

    def test_infinite_input_names_x(self):
        """The argument, d, is named."""
        with pytest.raises(DomainError, match=r"log_neg_w0 domain is 0 <= d < inf; got d = inf"):
            log_neg_w0(math.inf)

    def test_flip_equation_consistency(self):
        """The Lambert-W route of flip_point must reproduce the root of
        (1+k)log(1+k) = 4k found independently by the bracketed solver."""
        oracle = find_root(lambda k: (1.0 + k) * math.log1p(k) - 4.0 * k,
                           3.0, 100.0)
        fp = flip_point(2.0, FlipMethod.LAMBERT_W)
        assert fp.method is FlipMethod.LAMBERT_W
        assert fp.k_star == pytest.approx(oracle, rel=1e-9)
        assert fp.k_star == pytest.approx(49.44, abs=0.01)

    def test_defining_identity_across_domain(self):
        """expm1(l) - l = d to rounding, 1000 samples over [1e-6, 1e3]."""
        rng = np.random.default_rng(7)
        for d in map(float, np.exp(rng.uniform(np.log(1e-6), np.log(1e3), 1000))):
            ell = log_neg_w0(d)
            assert ell <= 0.0
            assert math.expm1(ell) - ell == pytest.approx(d, rel=1e-11)

    def test_four_newton_steps_suffice(self, monkeypatch):
        monkeypatch.setattr(flip, "_W0_MAX_STEPS", 4)
        for d in np.concatenate([np.logspace(-300.0, 300.0, 601), np.linspace(0.0, 40.0, 801)]):
            log_neg_w0(float(d))

    def test_max_steps_exceeded(self, monkeypatch):
        monkeypatch.setattr(flip, "_W0_MAX_STEPS", 1)
        with pytest.raises(MaxIterExceeded, match="at d = 1.0"):
            log_neg_w0(1.0)


class TestLambertWAgainstMpmath:
    """log(-W0) against mpmath within 1e-15 relative, with d, the distance
    below the branch point, given exactly."""

    def test_near_branch_point(self):
        """d from the least float to 1, where the x-form W0 lost digits."""
        ds = [5e-324, 1e-320, *np.logspace(-300.0, 0.0, 301), *np.linspace(0.0, 1.0, 201)[1:]]
        worst = max(abs(log_neg_w0(d) / float(mp_log_neg_w0(d)) - 1.0) for d in map(float, ds))
        assert worst <= 1e-15

    def test_relative_error_across_domain(self):
        ds = np.concatenate([np.logspace(-300.0, 300.0, 601), np.linspace(0.0, 40.0, 401)[1:]])
        worst = max(abs(log_neg_w0(d) / float(mp_log_neg_w0(d)) - 1.0) for d in map(float, ds))
        assert worst <= 1e-15
