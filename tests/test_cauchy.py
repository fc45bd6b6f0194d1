"""Cauchy-prior Bayes factors, the numerically located flip scale, and
the scipy quadrature oracle of ``tests/_reference.py`` against the normal
closed form."""

import math
import re
import sys

import numpy as np
import pytest

from bayesflip.bayes_factor import NormalPrior, TestSetup, bf01, log_bf01
from bayesflip.cauchy import CauchyPrior, bf01_cauchy, cauchy_flip_scale
from bayesflip.errors import DomainError, NoFlipPoint

from _reference import quad_log_bf01

SETUP_Z2_N50 = TestSetup(n=50, z=2.0)


class TestCauchyBayesFactor:
    @pytest.mark.parametrize("r,expected,tol", [
        (0.6, 0.9, 0.05),
        (1.0, 1.3, 0.05),
        (math.sqrt(2.0) / 2.0, 1.00, 0.05),
        (1e-6, 1.0, 0.01),
    ])
    def test_reference_values(self, r, expected, tol):
        res = bf01_cauchy(SETUP_Z2_N50, CauchyPrior(r))
        assert res.bf01 == pytest.approx(expected, abs=tol)

    def test_regression_pins(self):
        # frozen from an independent adaptive-quadrature run
        assert bf01_cauchy(SETUP_Z2_N50, CauchyPrior(0.6)).bf01 == pytest.approx(
            0.893125, abs=2e-5)
        assert bf01_cauchy(SETUP_Z2_N50, CauchyPrior(1.0)).bf01 == pytest.approx(
            1.312124, abs=2e-5)

    def test_scale_validation(self):
        with pytest.raises(DomainError):
            CauchyPrior(0.0)
        with pytest.raises(DomainError):
            CauchyPrior(-0.5)

    def test_even_in_z(self):
        for z in (0.7, 1.96, 3.0):
            plus = bf01_cauchy(TestSetup(n=50, z=z), CauchyPrior(0.8)).log_bf01
            minus = bf01_cauchy(TestSetup(n=50, z=-z), CauchyPrior(0.8)).log_bf01
            assert plus == pytest.approx(minus, abs=1e-12)

    def test_neutral_as_prior_collapses(self):
        res = bf01_cauchy(SETUP_Z2_N50, CauchyPrior(1e-6))
        assert res.bf01 == pytest.approx(1.0, abs=0.01)

    def test_increasing_above_the_minimum(self):
        """On a 20-point grid the factor rises monotonically once past its
        numerically located minimum in r."""
        rs = np.exp(np.linspace(math.log(1e-3), math.log(10.0), 20))
        vals = [bf01_cauchy(SETUP_Z2_N50, CauchyPrior(float(r))).bf01 for r in rs]
        imin = int(np.argmin(vals))
        assert imin < len(vals) - 1
        tail = vals[imin:]
        assert all(b > a for a, b in zip(tail, tail[1:]))


class TestCauchyFlipScale:
    def test_reference_flip_scale(self):
        """The flip scale for z=2, n=50 sits at the conventional default
        scale sqrt(2)/2, and the factor is neutral there."""
        r_star = cauchy_flip_scale(SETUP_Z2_N50)
        assert r_star == pytest.approx(0.707, abs=0.05)
        assert bf01_cauchy(SETUP_Z2_N50, CauchyPrior(r_star)).log_bf01 == pytest.approx(
            0.0, abs=1e-9)

    def test_no_flip_for_z_one(self):
        setup = TestSetup(n=50, z=1.0)
        with pytest.raises(NoFlipPoint):
            cauchy_flip_scale(setup)
        # scan oracle: the log factor keeps one sign across the range
        for r in np.exp(np.linspace(math.log(1e-4), math.log(1e3), 12)):
            assert bf01_cauchy(setup, CauchyPrior(float(r))).log_bf01 > 0.0

    def test_larger_z_needs_more_diffuse_prior(self):
        r3 = cauchy_flip_scale(TestSetup(n=50, z=3.0))
        assert r3 > 0.707
        assert bf01_cauchy(TestSetup(n=50, z=3.0), CauchyPrior(r3)).log_bf01 == pytest.approx(
            0.0, abs=1e-9)


class TestHugeZ:
    """z^2 / 2 overflows a float: both used to return a number (inf, and
    log BF01 = -inf with BF01 = 0.0)."""

    @pytest.mark.parametrize("z", [1e200, -1e200])
    def test_flip_scale_names_z(self, z):
        with pytest.raises(DomainError, match=re.escape(f"z = {z}, n = 50")):
            cauchy_flip_scale(TestSetup(50, z))

    @pytest.mark.parametrize("z", [1e200, -1e200])
    def test_bayes_factor_names_z(self, z):
        with pytest.raises(DomainError, match=re.escape(f"z = {z}, r = 1.0")):
            bf01_cauchy(TestSetup(50, z), CauchyPrior(1.0))

    @pytest.mark.parametrize("z", [1.3e308, -sys.float_info.max])
    def test_bayes_factor_names_z_past_the_kernel_overflow(self, z):
        # 2xy overflowed in the Voigt kernel here, and cos(inf) raised ValueError
        with pytest.raises(DomainError, match=re.escape(f"z = {z}, r = 1.0")):
            bf01_cauchy(TestSetup(1, z), CauchyPrior(1.0))

    def test_largest_finite_flip_scale_is_kept(self):
        # log r* just below log(DBL_MAX): exp is still a float
        r_star = cauchy_flip_scale(TestSetup(1, 37.6))
        assert 1e306 < r_star < math.inf


class TestNormalViaQuadrature:
    def test_matches_closed_form_reference_case(self):
        quad = math.exp(quad_log_bf01(2.0, 50, "normal", 0.8))
        closed = bf01(SETUP_Z2_N50, NormalPrior(0.8))
        assert quad == pytest.approx(closed.bf01, rel=1e-8)
        assert quad == pytest.approx(0.8260, abs=1e-3)

    def test_degenerate_prior_is_neutral(self):
        assert math.exp(quad_log_bf01(2.0, 50, "normal", 1e-9)) == pytest.approx(1.0, abs=1e-6)

    def test_large_sample_value(self):
        assert math.exp(quad_log_bf01(1.96, 5000, "normal", 1.0)) == pytest.approx(10.4, abs=0.1)


class TestMarginalLogIntegral:
    def test_matches_headline_bayes_factor(self):
        assert quad_log_bf01(2.0, 50, "normal", 0.8) == pytest.approx(log_bf01(2.0, 32.0),
                                                                      abs=1e-10)
