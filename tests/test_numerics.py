"""Kernel checks: bracketed root finding, Lambert W, the standard normal
density/CDF, and the adaptive real-line quadrature oracle of the tests
(``tests/_quadrature.py``)."""

import math

import numpy as np
import pytest

from bayesflip import numerics
from bayesflip.errors import (
    ConvergenceError,
    DomainError,
    MaxIterExceeded,
    NoSignChange,
)
from bayesflip.numerics import (
    find_root,
    lambert_w0,
    std_normal_cdf,
    std_normal_pdf,
)

from _quadrature import MarginalIntegrand, integrate_real_line


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


class TestIntegrateRealLine:
    def test_normal_density_normalizes(self):
        assert integrate_real_line(std_normal_pdf) == pytest.approx(1.0, abs=1e-10)

    def test_cauchy_density_normalizes(self):
        f = lambda x: 1.0 / (math.pi * (1.0 + x * x))
        assert integrate_real_line(f) == pytest.approx(1.0, abs=1e-8)

    def test_likelihood_prior_product(self):
        """N(z; sqrt(n) mu, 1) x N(mu; 0, tau^2) at z=2, n=50, tau=0.8:
        the implied Bayes factor N(2;0,1)/integral is 0.83."""
        z, n, tau = 2.0, 50, 0.8
        sn = math.sqrt(n)
        f = lambda mu: std_normal_pdf(z - sn * mu) * std_normal_pdf(mu / tau) / tau
        val = integrate_real_line(f, scale=tau, breakpoints=(z / sn,))
        assert std_normal_pdf(2.0) / val == pytest.approx(0.83, abs=0.01)

    @pytest.mark.parametrize("family,center,width", [
        ("normal", 0.0, 0.02),
        ("normal", 0.0, 1.0),
        ("normal", 3.0, 0.5),
        ("normal", 0.0, 50.0),
        ("cauchy", 0.0, 0.1),
        ("cauchy", 0.0, 1.0),
        ("cauchy", -2.0, 5.0),
    ])
    def test_normalized_density_integrates_to_one(self, family, center, width):
        if family == "normal":
            f = lambda x: std_normal_pdf((x - center) / width) / width
        else:
            f = lambda x: width / (math.pi * (width * width + (x - center) ** 2))
        val = integrate_real_line(f, scale=width, breakpoints=(center,))
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_nonintegrable_tail_raises(self):
        with pytest.raises(ConvergenceError):
            integrate_real_line(lambda x: 1.0 / (1.0 + abs(x)))

    def test_fast_path_matches_generic_route(self):
        """A recognized marginal integrand and the same function passed as
        a plain lambda must integrate to the same value."""
        mi = MarginalIntegrand(z=2.0, n=50, prior_family="cauchy", scale=0.6)
        fast = integrate_real_line(mi)
        generic = integrate_real_line(lambda mu: mi(mu), scale=0.6,
                                      breakpoints=(2.0 / math.sqrt(50.0),))
        assert fast == pytest.approx(generic, rel=1e-9)

    def test_marginal_integrand_validation(self):
        with pytest.raises(DomainError):
            MarginalIntegrand(z=1.0, n=10, prior_family="laplace", scale=1.0)
        with pytest.raises(DomainError):
            MarginalIntegrand(z=1.0, n=10, prior_family="normal", scale=0.0)
        with pytest.raises(DomainError):
            MarginalIntegrand(z=1.0, n=0, prior_family="normal", scale=1.0)

    @pytest.mark.parametrize("n", [2.5, 10.0, True])
    def test_marginal_integrand_needs_integer_n(self, n):
        with pytest.raises(DomainError):
            MarginalIntegrand(z=1.0, n=n, prior_family="normal", scale=1.0)


class TestStdNormal:
    def test_cdf_at_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_pdf_at_zero(self):
        assert std_normal_pdf(0.0) == pytest.approx(0.3989422804, abs=1e-10)

    def test_two_sided_tail_at_significance_boundary(self):
        assert 2.0 * (1.0 - std_normal_cdf(1.96)) == pytest.approx(0.050, abs=1e-4)

    def test_cdf_symmetry(self):
        for x in np.linspace(-8.0, 8.0, 161):
            assert std_normal_cdf(x) + std_normal_cdf(-x) == pytest.approx(1.0, abs=1e-15)

    def test_cdf_monotone(self):
        grid = np.linspace(-6.0, 6.0, 500)
        vals = [std_normal_cdf(float(x)) for x in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(0.0 < v < 1.0 for v in vals)


class TestIntegrateRealLineContract:
    """Arbitrary callables go through the log-space driver as log f, so
    the integrand must be nonnegative."""

    @pytest.mark.parametrize("bad", [-1e-3, math.nan])
    def test_negative_or_nan_value_is_domain_error(self, bad):
        f = lambda x: bad if x == 0.0 else std_normal_pdf(x)
        with pytest.raises(DomainError, match=r"f\(0\.0\)"):
            integrate_real_line(f)

    def test_signed_integrand_is_domain_error(self):
        with pytest.raises(DomainError, match="nonnegative"):
            integrate_real_line(lambda x: x * std_normal_pdf(x))

    def test_infinite_value_is_convergence_error(self):
        f = lambda x: math.inf if x == 0.0 else std_normal_pdf(x)
        with pytest.raises(ConvergenceError):
            integrate_real_line(f)

    def test_zero_integrand(self):
        assert integrate_real_line(lambda x: 0.0) == 0.0
