"""Closed-form Bayes factor: headline values, derivative analysis, and
the structural properties that drive the reversal phenomenon."""

import math
import re
import sys

import mpmath
import numpy as np
import pytest

from bayesflip.bayes_factor import (
    BayesFactorResult,
    Direction,
    NormalPrior,
    TestSetup,
    bf01,
    bf_argmin_k,
    dlogbf_dk,
    log_bf01,
    posterior_prob_h0,
    two_sided_p,
)
from bayesflip.errors import DomainError
from bayesflip.flip import tau_star


class TestSetupAndPrior:
    def test_setup_validation(self):
        with pytest.raises(DomainError):
            TestSetup(n=0, z=1.0)
        with pytest.raises(TypeError):  # the model fixes sigma = 1
            TestSetup(n=10, z=1.0, sigma=1.0)

    def test_xbar_is_z_over_sqrt_n(self):
        setup = TestSetup(n=50, z=2.0)
        assert setup.xbar == pytest.approx(2.0 / math.sqrt(50.0), rel=1e-15)

    def test_from_sample_mean_roundtrip(self):
        setup = TestSetup.from_sample_mean(5000, 0.028)
        assert setup.z == pytest.approx(math.sqrt(5000.0) * 0.028, rel=1e-15)
        assert setup.xbar == pytest.approx(0.028, rel=1e-15)

    def test_prior_validation_and_derived_k(self):
        with pytest.raises(DomainError):
            NormalPrior(0.0)
        with pytest.raises(DomainError):
            NormalPrior(-1.0)
        assert NormalPrior(0.8).k(TestSetup(n=50, z=2.0)) == pytest.approx(32.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_inputs_rejected(self, bad):
        """A NaN must not come back as evidence for H0."""
        with pytest.raises(DomainError):
            TestSetup(n=50, z=bad)
        with pytest.raises(DomainError):
            NormalPrior(bad)


class TestLogBf01:
    def test_zero_precision_is_neutral_for_any_z(self):
        for z in (-7.0, -1.0, 0.0, 0.5, 2.0, 30.0):
            assert log_bf01(z, 0.0) == 0.0

    def test_negative_k_rejected(self):
        with pytest.raises(DomainError):
            log_bf01(2.0, -1e-9)

    @pytest.mark.parametrize("z,k,expected,tol", [
        (2.0, 32.0, 0.83, 0.01),       # n=50, tau=0.8
        (2.0, 112.5, 1.47, 0.01),      # n=50, tau=1.5
        (1.96, 2500.0, 7.3, 0.1),      # n=5000, tau ~ 0.707
    ])
    def test_headline_values(self, z, k, expected, tol):
        assert math.exp(log_bf01(z, k)) == pytest.approx(expected, abs=tol)

    def test_closed_form_spot_check(self):
        # 0.5*log(33) - 4*32/(2*33), written out
        assert log_bf01(2.0, 32.0) == pytest.approx(
            0.5 * math.log(33.0) - 64.0 / 33.0, rel=1e-15)

    def test_grows_without_bound(self):
        assert log_bf01(2.0, 1e12) > math.log(1e3)

    def test_matches_mpmath_over_the_whole_domain(self):
        """Within 4 ulps of the larger of its terms 0.5 log(1+k) and
        z^2 k / (2 (1+k)) against 50 digits, z in [0, 40], k log-spaced up
        to the largest float.  Past k = DBL_MAX / 2, 2 (1 + k) overflows, and
        forming z^2 k / (2 (1+k)) there dropped the z^2 term."""
        dbl_max = sys.float_info.max
        ks = [float(k) for k in np.logspace(-300, 308, 153)] + [1.05e308, dbl_max]
        with mpmath.workdps(50):
            for z in np.linspace(0.0, 40.0, 46):
                z = float(z)
                for k in ks:
                    lead = mpmath.log1p(k) / 2
                    quad = mpmath.mpf(z) ** 2 * k / (2 * (1 + mpmath.mpf(k)))
                    ulp = math.ulp(float(max(lead, quad)))
                    assert abs(log_bf01(z, k) - (lead - quad)) <= 4 * ulp, (z, k)


class TestBf01Wrapper:
    @pytest.mark.parametrize("tau,expected,tol,direction", [
        (1.0, 10.4, 0.1, Direction.FAVOURS_H0),
        (2.0, 20.7, 0.2, Direction.FAVOURS_H0),
        (0.05, 0.62, 0.01, Direction.FAVOURS_H1),
    ], ids=lambda v: f"Direction.{v.name}" if isinstance(v, Direction) else None)
    def test_large_sample_scenario(self, tau, expected, tol, direction):
        res = bf01(TestSetup(n=5000, z=1.96), NormalPrior(tau))
        assert res.bf01 == pytest.approx(expected, abs=tol)
        assert res.direction is direction

    def test_bf_is_exp_of_log(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            res = bf01(TestSetup(n=int(rng.integers(1, 10000)), z=float(rng.uniform(-4, 4))),
                       NormalPrior(float(rng.uniform(0.01, 5.0))))
            assert res.bf01 == pytest.approx(math.exp(res.log_bf01), rel=1e-15)

    def test_direction_band(self):
        assert BayesFactorResult.from_log(0.0).direction is Direction.NEUTRAL
        assert BayesFactorResult.from_log(5e-13).direction is Direction.NEUTRAL
        assert BayesFactorResult.from_log(-1e-11).direction is Direction.FAVOURS_H1
        assert BayesFactorResult.from_log(1e-11).direction is Direction.FAVOURS_H0


class TestDerivative:
    def test_slope_at_origin(self):
        # (1 - z^2)/2: negative exactly when |z| > 1
        assert dlogbf_dk(2.0, 0.0) == pytest.approx(-1.5, rel=1e-15)
        assert dlogbf_dk(1.0, 0.0) == 0.0

    def test_zero_at_minimum(self):
        assert dlogbf_dk(2.0, 3.0) == 0.0

    def test_negative_k_rejected(self):
        with pytest.raises(DomainError):
            dlogbf_dk(1.0, -0.1)

    def test_matches_mpmath_up_to_huge_k(self):
        """Within 1e-15 of the scale of its terms, (1+k + z^2) / (2 (1+k)^2),
        against 50 digits up to k = 1e300; (1+k)^2 overflows from
        k ~ 9.5e153 on, where the slope is about 1 / (2k), not 0."""
        with mpmath.workdps(50):
            for z in np.linspace(0.0, 40.0, 21):
                for k in np.logspace(-300, 300, 121):
                    z, k = float(z), float(k)
                    kp1 = 1 + mpmath.mpf(k)
                    ref = (kp1 - z * z) / (2 * kp1 ** 2)
                    scale = (kp1 + z * z) / (2 * kp1 ** 2)
                    assert abs(dlogbf_dk(z, k) - ref) <= 1e-15 * scale, (z, k)
        assert dlogbf_dk(2.0, 1e200) == pytest.approx(5e-201, rel=1e-15)

    def test_matches_central_finite_difference(self):
        """Analytic derivative vs central differences at 100 random (z, k)."""
        rng = np.random.default_rng(42)
        for _ in range(100):
            z = float(rng.uniform(-4.0, 4.0))
            k = float(10.0 ** rng.uniform(-3.0, 3.0))
            h = 1e-4 * (1.0 + k)
            fd = (log_bf01(z, k + h) - log_bf01(z, k - h)) / (2.0 * h)
            assert dlogbf_dk(z, k) == pytest.approx(fd, abs=1e-6)


class TestArgminAndShape:
    def test_argmin_values(self):
        assert bf_argmin_k(2.0) == pytest.approx(3.0)
        assert bf_argmin_k(3.0) == pytest.approx(8.0)
        assert bf_argmin_k(1.0) is None
        assert bf_argmin_k(0.3) is None

    def test_argmin_matches_mpmath(self):
        """z^2 - 1 without cancellation: over gaps |z| - 1 down to 1e-15 and
        a uniform draw of z, against 50-digit mpmath (z * z - 1.0 was off
        by 5e-10 at a gap of 1e-9)."""
        rng = np.random.default_rng(3)
        zs = np.concatenate((1.0 + np.logspace(-15, -1, 300),
                             rng.uniform(1.0 + 1e-7, 40.0, 20_000)))
        with mpmath.workdps(50):
            for z in map(float, zs):
                ref = mpmath.mpf(z) ** 2 - 1
                assert abs(bf_argmin_k(z) / ref - 1) <= 2.5e-16, z
                assert bf_argmin_k(-z) == bf_argmin_k(z)

    @pytest.mark.parametrize("z", [1.5, 2.0, 3.0])
    def test_unimodal_with_minimum_at_argmin(self, z):
        """Strictly decreasing before z^2 - 1, strictly increasing after,
        sampled at 100 points per flank."""
        kmin = bf_argmin_k(z)
        down = np.linspace(kmin / 101.0, kmin, 100)
        vals = [log_bf01(z, float(k)) for k in down]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        up = np.exp(np.linspace(math.log(kmin * 1.0001), math.log(1e6), 100))
        vals = [log_bf01(z, float(k)) for k in up]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("z", [0.0, 0.5, 0.9, 1.0, -1.0])
    def test_small_z_never_favours_h1(self, z):
        """For |z| <= 1 the log Bayes factor is nonnegative everywhere."""
        for k in np.concatenate(([0.0], np.exp(np.linspace(-8, 12, 60)))):
            assert log_bf01(z, float(k)) >= -1e-12
            if k > 0:
                assert dlogbf_dk(z, float(k)) >= 0.0

    def test_even_in_z(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            z = float(rng.uniform(0.0, 6.0))
            k = float(10.0 ** rng.uniform(-3.0, 4.0))
            assert log_bf01(z, k) == log_bf01(-z, k)


class TestPosteriorProbability:
    def test_neutral_point(self):
        assert posterior_prob_h0(1.0, 0.5) == 0.5

    def test_values_from_headline_bayes_factors(self):
        # direct arithmetic: pi0*bf/(pi0*bf + 1 - pi0) at pi0 = 1/2
        assert posterior_prob_h0(7.3) == pytest.approx(0.8795, abs=0.005)
        assert posterior_prob_h0(0.62) == pytest.approx(0.3827, abs=0.005)

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            posterior_prob_h0(0.0)
        with pytest.raises(DomainError):
            posterior_prob_h0(-2.0)
        with pytest.raises(DomainError):
            posterior_prob_h0(1.0, pi0=0.0)
        with pytest.raises(DomainError):
            posterior_prob_h0(1.0, pi0=1.0)

    @pytest.mark.parametrize("pi0", [0.5, 0.01, 0.99, 1e-300, 1.0 - 2.0 ** -53])
    def test_result_posterior_is_the_formula_where_bf_is_positive(self, pi0):
        for setup, tau in ((TestSetup(50, 2.0), 0.8), (TestSetup(50, 2.0), 1.5),
                           (TestSetup(50, 38.0), 1.0)):  # BF01 ~ 1e-313, subnormal
            res = bf01(setup, NormalPrior(tau))
            assert res.bf01 > 0.0
            assert res.posterior_h0(pi0) == posterior_prob_h0(res.bf01, pi0)

    @pytest.mark.parametrize("z,pi0,nonzero", [
        (40.0, 0.5, False), (39.3, 0.5, False), (39.3, 1.0 - 2.0 ** -53, True)])
    def test_result_posterior_from_log_bf_against_mpmath(self, z, pi0, nonzero):
        """BF01 underflowed (log BF01 ~ -782 at z = 40, ~ -755 at 39.3): at
        pi0 = 1 - 2^-53 the prior odds, e^36.7, lift the posterior at
        z = 39.3 back into the floats."""
        res = bf01(TestSetup(50, z), NormalPrior(1.0))
        assert res.bf01 == 0.0
        with mpmath.workdps(50):
            bf = mpmath.exp(mpmath.mpf(res.log_bf01))
            p = mpmath.mpf(pi0)
            want = float(p * bf / (p * bf + 1 - p))
        got = res.posterior_h0(pi0)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert (got > 0.0) == nonzero

    @pytest.mark.parametrize("pi0", [0.0, 1.0, -0.5, math.nan])
    def test_result_posterior_checks_pi0(self, pi0):
        for setup in (TestSetup(50, 2.0), TestSetup(50, 40.0)):
            with pytest.raises(DomainError, match="pi0"):
                bf01(setup, NormalPrior(1.0)).posterior_h0(pi0)

    def test_decision_flips_exactly_at_bf_one(self):
        """sign(P(H0) - 1/2) = sign(BF - 1): the zero-one-loss decision
        turns over at the same point as the evidence direction."""
        for bf in (1e-6, 0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0, 1e6):
            lhs = posterior_prob_h0(bf) - 0.5
            rhs = bf - 1.0
            assert (lhs > 0) == (rhs > 0) and (lhs < 0) == (rhs < 0)


class TestTwoSidedP:
    @pytest.mark.parametrize("z,expected", [
        (1.96, 0.050),
        (0.0, 1.0),
        (3.00, 0.003),
        (1.50, 0.134),
        (2.00, 0.046),
        (2.50, 0.012),
    ])
    def test_reference_values(self, z, expected):
        assert two_sided_p(z) == pytest.approx(expected, abs=5e-4)

    def test_even_and_bounded(self):
        for z in np.linspace(-5, 5, 101):
            p = two_sided_p(float(z))
            assert 0.0 < p <= 1.0
            assert p == two_sided_p(float(-z))


class TestInputContract:
    @pytest.mark.parametrize("n", [2.5, 50.0, True, False, "50", None])
    def test_sample_size_must_be_an_integer(self, n):
        with pytest.raises(DomainError):
            TestSetup(n=n, z=2.0)

    def test_sample_size_beyond_float_range_names_n(self):
        """n = 10**400 used to fail later with a bare OverflowError."""
        for make in (lambda n: TestSetup(n, 2.0), lambda n: tau_star(4.0, n)):
            with pytest.raises(DomainError, match="sample size n must fit in a float"):
                make(10**400)
            with pytest.raises(DomainError, match="1024-bit"):
                make(int(sys.float_info.max) + 1)
        assert TestSetup(int(sys.float_info.max), 2.0).n == int(sys.float_info.max)

    @pytest.mark.parametrize("n,match", [(-1, "integer >= 1"), (0, "integer >= 1"),
                                         (2.5, "integer >= 1"),
                                         (10**400, "must fit in a float")],
                             ids=["-1", "0", "2.5", "10**400"])
    def test_from_sample_mean_checks_n_before_its_square_root(self, n, match):
        """math.sqrt(n) raised a bare ValueError for n = -1 and a bare
        OverflowError for n = 10**400."""
        with pytest.raises(DomainError, match=match):
            TestSetup.from_sample_mean(n, 0.1)

    def test_integer_like_sample_sizes_accepted(self):
        assert TestSetup(n=np.int64(50), z=2.0).n == 50

    def test_nan_log_bf_rejected(self):
        with pytest.raises(DomainError):
            BayesFactorResult.from_log(float("nan"))

    @pytest.mark.parametrize("log_bf", [math.nextafter(math.log(1.7976931348623157e308), 1e9),
                                        710.0, 800.0, 1e308, math.inf])
    def test_log_bf_above_float_range_names_the_log(self, log_bf):
        with pytest.raises(DomainError, match=re.escape(f"log BF01 = {log_bf!r}")):
            BayesFactorResult.from_log(log_bf)

    def test_largest_log_bf_is_finite(self):
        log_max = math.log(1.7976931348623157e308)
        res = BayesFactorResult.from_log(log_max)
        assert res.bf01 == math.exp(log_max) > 1.79e308
        assert res.direction is Direction.FAVOURS_H0

    def test_underflowed_bf_keeps_its_log(self):
        # |z| = 40: BF01 = e^-782 underflows, log BF01 and direction stay exact
        res = bf01(TestSetup(50, 40.0), NormalPrior(1.0))
        assert res.bf01 == 0.0
        assert res.log_bf01 == pytest.approx(log_bf01(40.0, 50.0), rel=1e-15)
        assert res.direction is Direction.FAVOURS_H1


@pytest.mark.parametrize("k", [math.inf, math.nan])
def test_log_bf01_rejects_non_finite_k(k):
    with pytest.raises(DomainError, match="k must be"):
        log_bf01(2.0, k)


def test_overflowing_prior_precision_names_k():
    with pytest.raises(DomainError, match="k must be nonnegative and finite, got inf"):
        bf01(TestSetup(n=50, z=2.0), NormalPrior(1e307))


def test_prior_precision_where_z2_k_overflows():
    """z^2 k overflows for k near 1e306 while log BF01 stays finite: this
    was a DomainError.  The reference is mpmath at 50 digits."""
    res = bf01(TestSetup(n=1, z=30.0), NormalPrior(1e153))
    assert res.log_bf01 == pytest.approx(-97.70448077191101, rel=1e-15)
    assert res.direction is Direction.FAVOURS_H1


@pytest.mark.parametrize("fn,args,names", [
    (two_sided_p, (math.nan,), "nan"),
    (two_sided_p, (math.inf,), "inf"),
    (log_bf01, (math.nan, 1.0), "z = nan"),
    (log_bf01, (math.inf, 1.0), "z = inf"),
    (log_bf01, (math.inf, 0.0), "z = inf"),
    (log_bf01, (1e200, 1.0), "z = 1e+200"),
    (bf_argmin_k, (math.nan,), "z = nan"),
    (bf_argmin_k, (math.inf,), "z = inf"),
    (bf_argmin_k, (1e200,), "z = 1e+200"),
    (dlogbf_dk, (2.0, math.nan), "nan"),
    (dlogbf_dk, (2.0, math.inf), "inf"),
    (dlogbf_dk, (math.nan, 1.0), "z = nan"),
    (dlogbf_dk, (1e200, 1.0), "z = 1e+200"),
    (posterior_prob_h0, (math.inf,), "inf"),
    # z^2 overflows: the documented contract, even at k = 0
    (log_bf01, (1e200, 0.0), "z = 1e+200"),
    (log_bf01, (-1e200, 1e-300), "z = -1e+200"),
    (dlogbf_dk, (1e200, 1e300), "z = 1e+200"),
])
def test_bare_inputs_give_a_finite_value_or_domain_error(fn, args, names):
    """Each of these raises DomainError naming its bad input; all but the
    last three returned nan or an infinity before."""
    with pytest.raises(DomainError, match=re.escape(names)):
        fn(*args)
