"""Flip-point machinery: the phi bijection, the two independent routes
to k*, critical prior scales, and reversal-pair construction."""

import math
import re
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bayesflip import flip
from bayesflip.bayes_factor import (NEUTRAL_LOG_BAND, Direction, NormalPrior, TestSetup,
                                    bf01, bf_argmin_k, log_bf01)
from bayesflip.errors import DomainError, NoFlipPoint, NotAReversal
from bayesflip.flip import (
    FlipMethod,
    flip_point,
    phi,
    phi_inverse,
    reversal_pair,
    tau_star,
    validate_pair,
)

# the z grid used for cross-method and residual properties
Z_GRID = (1.1, 1.5, 1.96, 2.0, 2.5, 3.0, 4.0, 5.0)


class TestPhi:
    def test_limit_at_zero_from_above(self):
        # phi(k) = 1 + k/2 - k^2/6 + ... near the origin
        assert phi(1e-8) == pytest.approx(1.0 + 5e-9, abs=1e-9)

    def test_closed_form_at_log_one(self):
        # log(1+k) = 1 forces phi = (1+k)/k = e/(e-1)
        k = math.e - 1.0
        assert phi(k) == pytest.approx(math.e / (math.e - 1.0), rel=1e-12)

    def test_value_at_reference_flip_point(self):
        assert phi(49.44) == pytest.approx(4.00, abs=0.001)

    def test_domain(self):
        with pytest.raises(DomainError):
            phi(0.0)
        with pytest.raises(DomainError):
            phi(-1.0)

    def test_infinite_k_names_k(self):
        """phi(inf) used to return nan (inf / inf)."""
        with pytest.raises(DomainError, match="phi domain is 0 < k < inf, got inf"):
            phi(math.inf)

    def test_strictly_increasing(self):
        ks = np.exp(np.linspace(math.log(1e-6), math.log(1e6), 300))
        vals = [phi(float(k)) for k in ks]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(v > 1.0 for v in vals)


class TestPhiInverse:
    def test_reference_values(self):
        assert phi_inverse(2.25) == pytest.approx(5.82, abs=0.01)
        assert phi_inverse(1.96 ** 2) == pytest.approx(41.58, abs=0.01)

    def test_roundtrip_at_seven(self):
        assert phi_inverse(phi(7.0)) == pytest.approx(7.0, rel=1e-9)

    def test_domain(self):
        with pytest.raises(DomainError):
            phi_inverse(1.0)
        with pytest.raises(DomainError):
            phi_inverse(0.5)

    def test_roundtrip_property(self):
        """phi(phi_inverse(y)) = y to 1e-9 relative across (1.01, 30)."""
        for y in np.linspace(1.01, 30.0, 40):
            assert phi(phi_inverse(float(y))) == pytest.approx(float(y), rel=1e-9)


class TestFlipPoint:
    @pytest.mark.parametrize("z,expected,tol", [
        (2.0, 49.44, 0.01),
        (2.5, 510.72, 0.05),
        (3.0, 8093.08, 0.5),
    ])
    def test_reference_values(self, z, expected, tol):
        for method in (FlipMethod.BRACKETED, FlipMethod.LAMBERT_W):
            assert flip_point(z, method).k_star == pytest.approx(expected, abs=tol)

    @pytest.mark.parametrize("z", [1.0, 0.5, 0.0, -1.0])
    def test_no_flip_point_for_small_z(self, z):
        with pytest.raises(NoFlipPoint):
            flip_point(z)

    def test_even_in_z(self):
        assert flip_point(-2.0).k_star == pytest.approx(flip_point(2.0).k_star, rel=1e-12)

    def test_methods_agree(self):
        """Bracketed and Lambert-W routes agree to 1e-9 relative; they
        share no code path, so this is a genuine cross-check."""
        for z in Z_GRID:
            b = flip_point(z, FlipMethod.BRACKETED).k_star
            l = flip_point(z, FlipMethod.LAMBERT_W).k_star
            assert l == pytest.approx(b, rel=1e-9)

    def test_residual_bound(self):
        for z in Z_GRID:
            for method in (FlipMethod.BRACKETED, FlipMethod.LAMBERT_W):
                fp = flip_point(z, method)
                assert abs(fp.residual) <= 1e-9 * z * z * fp.k_star

    def test_above_bayes_factor_minimum(self):
        for z in Z_GRID:
            assert flip_point(z).k_star > z * z - 1.0

    def test_monotone_in_z(self):
        ks = [flip_point(z).k_star for z in Z_GRID]
        assert all(b > a for a, b in zip(ks, ks[1:]))

    def test_sign_pattern_around_flip(self):
        """Evidence favours H1 just below k* and H0 just above it."""
        for z in Z_GRID:
            k = flip_point(z).k_star
            assert log_bf01(z, 0.99 * k) < 0.0
            assert log_bf01(z, 1.01 * k) > 0.0

    def test_matches_phi_inverse(self):
        for z in Z_GRID:
            assert phi_inverse(z * z) == pytest.approx(flip_point(z).k_star, rel=1e-9)

    def test_near_boundary_keeps_the_lambert_route(self):
        fp = flip_point(1.0005, FlipMethod.LAMBERT_W)
        assert fp.method is FlipMethod.LAMBERT_W
        assert fp.k_star > 0.0

    def test_method_echo(self):
        assert flip_point(1.2, FlipMethod.LAMBERT_W).method is FlipMethod.LAMBERT_W
        assert flip_point(1.2, FlipMethod.BRACKETED).method is FlipMethod.BRACKETED

    @pytest.mark.parametrize("method", ["lambert_w", "bracketed", None, 0])
    def test_method_must_be_a_member(self, method):
        with pytest.raises(DomainError, match=re.escape(f"got {method!r}")):
            flip_point(2.0, method)


class TestTauStar:
    def test_reference_values(self):
        assert tau_star(49.44, 50) == pytest.approx(0.99, abs=0.01)
        assert tau_star(41.58, 5000) == pytest.approx(0.09, abs=0.005)

    def test_identity_when_k_equals_n(self):
        for n in (1, 50, 5000):
            assert tau_star(float(n), n) == 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            tau_star(0.0, 50)
        with pytest.raises(DomainError):
            tau_star(1.0, 0)

    @pytest.mark.parametrize("k_star,n", [(4.0, math.nan), (4.0, 2.5), (4.0, True),
                                          (math.inf, 3), (math.nan, 3)])
    def test_non_integer_n_or_non_finite_k_star(self, k_star, n):
        with pytest.raises(DomainError):
            tau_star(k_star, n)


class TestReversalPair:
    def test_default_pair_for_reference_data(self):
        setup = TestSetup(n=50, z=2.0)
        pair = reversal_pair(setup)
        assert pair.tau1 < pair.tau_star < pair.tau2
        assert pair.bf1 < 1.0 < pair.bf2
        assert pair.tau_star == pytest.approx(0.99, abs=0.01)
        # the constructed scales really produce those factors
        assert bf01(setup, NormalPrior(pair.tau1)).bf01 == pytest.approx(pair.bf1, rel=1e-15)
        assert bf01(setup, NormalPrior(pair.tau2)).bf01 == pytest.approx(pair.bf2, rel=1e-15)

    def test_spread_validation(self):
        setup = TestSetup(n=50, z=2.0)
        for spread in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                reversal_pair(setup, spread)

    def test_tiny_spread_falls_back_to_the_minimum(self):
        pair = reversal_pair(TestSetup(n=50, z=2.0), spread=1e-18)
        assert pair.bf1 < 1.0 < pair.bf2
        assert pair.tau1 < pair.tau_star < pair.tau2

    @pytest.mark.parametrize("z", [26.5, 26.6])
    def test_pair_where_z2_k_overflows(self, z):
        """The upper scale's k nears 1e306, where z^2 k overflowed."""
        pair = reversal_pair(TestSetup(n=1, z=z))
        assert pair.tau1 < pair.tau_star < pair.tau2
        assert pair.bf1 < 1.0 < pair.bf2

    @staticmethod
    def count_bayes_factors(monkeypatch) -> list:
        calls = []

        def counting_bf01(setup, prior):
            calls.append(prior)
            return bf01(setup, prior)

        monkeypatch.setattr(flip, "bf01", counting_bf01)
        return calls

    def test_first_try_costs_two_bayes_factors(self, monkeypatch):
        calls = self.count_bayes_factors(monkeypatch)
        pair = reversal_pair(TestSetup(n=50, z=2.0), 0.5)
        assert (pair.tau1, pair.tau2) == (pair.tau_star * 0.5, pair.tau_star / 0.5)
        assert calls == [NormalPrior(pair.tau1), NormalPrior(pair.tau2)]

    def test_tiny_spread_costs_four_bayes_factors(self, monkeypatch):
        """Spread 1e-18 leaves 1 - spread at 1, so the first pair is tau*
        twice; the second is the minimum's scale and its mirror."""
        calls = self.count_bayes_factors(monkeypatch)
        pair = reversal_pair(TestSetup(n=50, z=2.0), 1e-18)
        assert len(calls) <= 4
        assert pair.tau1 == math.sqrt(3 / 50)
        assert pair.tau2 == pair.tau_star * (pair.tau_star / pair.tau1)
        assert pair.bf1 == pytest.approx(0.4463, abs=5e-5)
        assert pair.bf2 == pytest.approx(3.8745, abs=5e-5)

    def test_no_pair_costs_four_bayes_factors(self, monkeypatch):
        z = 1.000000533384319
        assert log_bf01(z, bf_argmin_k(z)) >= -NEUTRAL_LOG_BAND
        calls = self.count_bayes_factors(monkeypatch)
        with pytest.raises(NotAReversal):
            reversal_pair(TestSetup(n=941_499, z=z), 6.07e-16)
        assert len(calls) <= 4

    @pytest.mark.parametrize("n", [1, 50])
    @pytest.mark.parametrize("z", [1.0000012, 1.000002, 1.000005])
    def test_pair_at_the_minimum_near_z_one(self, z, n):
        """Spread 0.9 steps tau1 past the narrow range where BF01 favours
        H1; widening further only overflowed n tau2^2.  The pair is the
        minimum's scale and its mirror about tau*."""
        setup = TestSetup(n=n, z=z)
        assert log_bf01(z, bf_argmin_k(z)) < -NEUTRAL_LOG_BAND
        pair = reversal_pair(setup, 0.9)
        assert pair.tau1 == math.sqrt(bf_argmin_k(z) / n)
        assert pair.tau2 == pytest.approx(pair.tau_star ** 2 / pair.tau1, rel=1e-15)
        assert pair.tau1 < pair.tau_star < pair.tau2
        assert bf01(setup, NormalPrior(pair.tau1)).direction is Direction.FAVOURS_H1
        assert bf01(setup, NormalPrior(pair.tau2)).direction is Direction.FAVOURS_H0

    @pytest.mark.parametrize("z", [1.0000001, 1.000001])
    def test_no_pair_where_the_minimum_is_neutral(self, z):
        assert log_bf01(z, bf_argmin_k(z)) >= -NEUTRAL_LOG_BAND
        for spread in (0.05, 0.5, 0.9):
            with pytest.raises(NotAReversal, match=rf"z = {re.escape(repr(z))} .*"
                                                   r"neutral band \|log BF01\| <= 1e-12"):
                reversal_pair(TestSetup(n=50, z=z), spread)

    @pytest.mark.parametrize("z,spread", [(26.6, 0.9), (26.63, 0.5), (26.64, 0.05)])
    def test_pair_where_n_tau2_squared_would_overflow(self, z, spread):
        """tau* / (1 - spread) has an n tau^2 above the float range; tau2
        stops at the largest scale whose n tau^2 is a float."""
        setup = TestSetup(n=1, z=z)
        pair = reversal_pair(setup, spread)
        assert pair.tau1 < pair.tau_star < pair.tau2
        assert math.isfinite(pair.tau2 ** 2)
        assert bf01(setup, NormalPrior(pair.tau1)).direction is Direction.FAVOURS_H1
        assert bf01(setup, NormalPrior(pair.tau2)).direction is Direction.FAVOURS_H0

    @settings(deadline=None)
    @given(z=st.floats(1 + 1e-5, 26.6, exclude_min=True), sign=st.sampled_from((1, -1)),
           n=st.integers(1, 10**9), spread=st.floats(0.0, 1.0, exclude_min=True,
                                                      exclude_max=True))
    def test_strict_pair_or_a_neutral_minimum(self, z, sign, n, spread):
        """At most 4 Bayes factors a call, and NotAReversal only where no
        scale gives BF01 outside the neutral band on the H1 side."""
        setup = TestSetup(n=n, z=sign * z)
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = self.count_bayes_factors(monkeypatch)
            try:
                pair = reversal_pair(setup, spread)
            except NotAReversal:
                pair = None
        assert len(calls) <= 4
        if pair is None:
            assert log_bf01(z, bf_argmin_k(z)) >= -NEUTRAL_LOG_BAND
            return
        assert pair.tau1 < pair.tau_star < pair.tau2
        assert pair.bf1 < 1.0 < pair.bf2
        assert bf01(setup, NormalPrior(pair.tau1)).direction is Direction.FAVOURS_H1
        assert bf01(setup, NormalPrior(pair.tau2)).direction is Direction.FAVOURS_H0

    def test_no_flip_point_for_small_z(self):
        with pytest.raises(NoFlipPoint):
            reversal_pair(TestSetup(n=50, z=1.0))
        with pytest.raises(NoFlipPoint):
            validate_pair(TestSetup(n=50, z=1.0), 0.5, 2.0)


class TestValidatePair:
    def test_reference_pair_accepted(self):
        pair = validate_pair(TestSetup(n=50, z=2.0), 0.8, 1.5)
        assert pair.bf1 == pytest.approx(0.83, abs=0.01)
        assert pair.bf2 == pytest.approx(1.47, abs=0.01)
        assert pair.tau_star == pytest.approx(0.99, abs=0.01)

    def test_large_sample_pair_accepted(self):
        pair = validate_pair(TestSetup(n=5000, z=1.96), 0.05, 0.707)
        assert pair.bf1 == pytest.approx(0.62, abs=0.01)
        assert pair.bf2 == pytest.approx(7.3, abs=0.1)

    def test_wrong_order_rejected(self):
        with pytest.raises(NotAReversal, match="not below"):
            validate_pair(TestSetup(n=50, z=2.0), 1.5, 0.8)

    def test_pair_on_one_side_rejected(self):
        """Both scales above tau*: both factors exceed 1, so the small
        side cannot favour H1."""
        setup = TestSetup(n=50, z=2.0)
        assert bf01(setup, NormalPrior(1.2)).bf01 > 1.0
        assert bf01(setup, NormalPrior(1.5)).bf01 > 1.0
        with pytest.raises(NotAReversal, match="favour H1"):
            validate_pair(setup, 1.2, 1.5)

    def test_nonpositive_scales_rejected(self):
        with pytest.raises(DomainError):
            validate_pair(TestSetup(n=50, z=2.0), 0.0, 1.5)


def mp_k_star(z):
    """k* = expm1(W0(-z^2 e^{-z^2}) + z^2) at 50 digits, from the float z."""
    with mpmath.workdps(50):
        z2 = mpmath.mpf(z) ** 2
        return mpmath.expm1(mpmath.lambertw(-z2 * mpmath.exp(-z2)) + z2)


class TestFlipPointDomainEdges:
    def test_near_one_matches_mpmath(self):
        # k* ~ 4 (z - 1): both sides of the flip equation cancel here
        for d in np.logspace(-9, -3, 40):
            z = 1.0 + float(d)
            k = flip_point(z).k_star
            assert abs(k / mp_k_star(z) - 1) <= 1e-10, z

    def test_reported_near_one_case(self):
        z = 1.0000001422860376
        assert abs(flip_point(z).k_star / mp_k_star(z) - 1) <= 1e-10

    @pytest.mark.parametrize("z", [26.5, 26.64, 26.6417475])
    def test_largest_finite_k_star(self, z):
        b = flip_point(z, FlipMethod.BRACKETED)
        l = flip_point(z, FlipMethod.LAMBERT_W)
        for fp in (b, l):
            assert math.isfinite(fp.k_star) and math.isfinite(fp.residual)
        assert l.k_star == pytest.approx(b.k_star, rel=1e-9)
        assert b.k_star == pytest.approx(float(mp_k_star(z)), rel=1e-10)

    def test_both_routes_share_one_overflow_boundary(self):
        """Over the 100 floats about sqrt(log(DBL_MAX)), both routes raise
        exactly where z^2 > log(DBL_MAX) and agree to 1e-12 below it."""
        log_max = math.log(sys.float_info.max)
        z = math.sqrt(log_max)
        for _ in range(50):
            z = math.nextafter(z, math.inf)
        for _ in range(100):
            if z * z > log_max:
                for method in FlipMethod:
                    with pytest.raises(DomainError, match="k\\* overflows"):
                        flip_point(z, method)
            else:
                b, l = (flip_point(z, method).k_star for method in FlipMethod)
                assert b == pytest.approx(l, rel=1e-12), z
            z = math.nextafter(z, 0.0)

    @pytest.mark.parametrize("z", [27.0, 30.0, 40.0, -30.0])
    @pytest.mark.parametrize("method", [FlipMethod.BRACKETED, FlipMethod.LAMBERT_W])
    def test_overflowing_k_star_is_domain_error(self, z, method):
        with pytest.raises(DomainError, match=f"z = {z}"):
            flip_point(z, method)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("method", [FlipMethod.BRACKETED, FlipMethod.LAMBERT_W])
    def test_non_finite_z_is_named(self, z, method):
        with pytest.raises(DomainError, match=f"must be finite, got z = {z}"):
            flip_point(z, method)


def mp_phi_inverse(y):
    """The k with phi(k) = y at 50 digits, solved in u = log(1 + k) from the
    float y, independently of the package's bracket and series."""
    with mpmath.workdps(50):
        y = mpmath.mpf(y)
        u = mpmath.findroot(lambda u: u * mpmath.exp(u) / mpmath.expm1(u) - y,
                            (y - 1, y + mpmath.mpf("0.5")), solver="anderson")
        return mpmath.expm1(u)


class TestPhiOverItsWholeDomain:
    def test_phi_matches_mpmath(self):
        for k in np.logspace(-300, 308, 200):
            k = float(k)
            with mpmath.workdps(50):
                ref = (1 + mpmath.mpf(k)) * mpmath.log1p(k) / k
            assert abs(phi(k) / ref - 1) <= 3e-16, k

    def test_phi_finite_up_to_the_largest_float(self):
        assert phi(1e306) == pytest.approx(704.591038456178, rel=1e-12)
        assert phi(sys.float_info.max) == pytest.approx(math.log(sys.float_info.max),
                                                        rel=1e-12)

    def test_phi_inverse_matches_mpmath(self):
        # y - 1 log-spaced over (1e-9, 708.5]: y up to 709.5
        for d in np.logspace(-9, math.log10(708.5), 61)[1:]:
            y = 1.0 + float(d)
            assert abs(phi_inverse(y) / mp_phi_inverse(y) - 1) <= 1e-14, y

    def test_phi_inverse_of_709(self):
        # the old doubling bracket returned 2.556e305 here, where phi is 704
        k = phi_inverse(709.0)
        assert abs(k / mp_phi_inverse(709.0) - 1) <= 1e-12
        assert phi(k) == pytest.approx(709.0, rel=1e-14)

    def test_phi_inverse_of_the_largest_float_phi(self):
        """Finite at y = log(DBL_MAX), phi of the largest float."""
        y = math.log(sys.float_info.max)
        assert phi(phi_inverse(y)) == pytest.approx(y, rel=1e-15)

    @pytest.mark.parametrize("y", [math.nextafter(math.log(sys.float_info.max), math.inf),
                                   710.0, 800.0, 1e308, math.inf])
    def test_phi_inverse_overflow_is_domain_error(self, y):
        with pytest.raises(DomainError, match=re.escape(f"y = {y}")):
            phi_inverse(y)


class TestLambertRouteNearOne:
    def test_accuracy_from_its_threshold(self):
        """|z| - 1 log-spaced over (1e-7, 0.05], both signs: the route knows
        the distance below W0's branch point to every digit."""
        for dz in np.logspace(-7.0, math.log10(0.05), 141)[1:]:
            for z in (1.0 + float(dz), -1.0 - float(dz)):
                fp = flip_point(z, FlipMethod.LAMBERT_W)
                assert fp.method is FlipMethod.LAMBERT_W
                assert abs(fp.k_star / mp_k_star(z) - 1) <= 1e-13, z

    @pytest.mark.parametrize("z", [1.001, 1.005, 1.0099, -1.005])
    def test_bracketed_below_its_threshold(self, z):
        """The bracketed route, the independent second one, below 1.01."""
        fp = flip_point(z, FlipMethod.BRACKETED)
        assert fp.method is FlipMethod.BRACKETED
        assert abs(fp.k_star / mp_k_star(z) - 1) <= 1e-12


class TestBracketedRoute:
    """The bracketed route over 60 log-spaced z in (1 + 1e-7, 1.01] and the
    241 z of ``test_matches_mpmath_over_the_finite_range``."""

    Z = [1.0 + float(d) for d in np.logspace(-7.0, -2.0, 61)[1:]] + [
        float(z) for z in np.linspace(1.01, 26.6, 241)]

    def test_matches_mpmath(self):
        for z in self.Z:
            fp = flip_point(z, FlipMethod.BRACKETED)
            assert abs(fp.k_star / mp_k_star(z) - 1) <= 3e-13, z

    def test_evaluation_budget(self, monkeypatch):
        """The 301 solves take 2,337 evaluations of phi(k) - 1 - (z^2 - 1);
        Brent's method took 2,314.  The cap is 1.02 times that."""
        solve = flip.find_root
        evals = 0

        def counted(f, lo, hi, abs_tol):
            def g(k):
                nonlocal evals
                evals += 1
                return f(k)
            return solve(g, lo, hi, abs_tol)

        monkeypatch.setattr(flip, "find_root", counted)
        for z in self.Z:
            flip_point(z, FlipMethod.BRACKETED)
        assert evals <= 1.02 * 2314


class TestDefaultRoute:
    """flip_point takes the Lambert-W closed form unless asked otherwise,
    so no caller that needs only k* runs a root solve, for any |z| > 1."""

    @pytest.mark.parametrize("z,route", [
        (z, FlipMethod.LAMBERT_W)
        for z in (1.0005, 1.005, 1.0099, -1.005, 1.01, -1.01, 1.2, 2.0, -3.0, 26.6)
    ])
    def test_route_taken(self, z, route):
        assert flip_point(z).method is route

    @settings(max_examples=300, deadline=None)
    @given(a=st.floats(1.0, 26.6, exclude_min=True), sign=st.sampled_from((1, -1)))
    def test_lambert_route_for_every_z_above_one(self, a, sign):
        """Down to the float next to 1, where k* ~ 4.4e-16."""
        l = flip_point(sign * a, FlipMethod.LAMBERT_W)
        assert l.method is FlipMethod.LAMBERT_W
        assert l.k_star == pytest.approx(flip_point(sign * a, FlipMethod.BRACKETED).k_star,
                                         rel=1e-9)

    def test_matches_mpmath_over_the_finite_range(self):
        for z in np.linspace(1.01, 26.6, 241):
            z = float(z)
            assert abs(flip_point(z).k_star / mp_k_star(z) - 1) <= 1e-13, z

    @pytest.mark.parametrize("z", [1.0005, 1.005, 1.01, 1.5, 2.0, -2.5, 4.0, 26.0])
    def test_callers_run_no_root_solve(self, z, monkeypatch):
        from bayesflip.report import figure_panel_a, sweep_flip_row, table_rows

        def no_solve(*args, **kwargs):
            raise AssertionError("find_root called")

        monkeypatch.setattr(flip, "find_root", no_solve)
        setup = TestSetup(n=50, z=z)
        pair = reversal_pair(setup)
        assert validate_pair(setup, pair.tau1, pair.tau2) == pair
        assert sweep_flip_row(setup).k == flip_point(z).k_star
        assert phi_inverse(z * z) == pytest.approx(flip_point(z).k_star, rel=1e-9)
        assert len(table_rows()) == 5 and len(figure_panel_a(2)) == 15
