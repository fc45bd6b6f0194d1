"""The closed-form Voigt (Faddeeva) route for Cauchy-prior Bayes factors
and flip scales, against oracles that share none of its code: mpmath at
50 digits, scipy's wofz, and the scipy quadrature of
``tests/_oracles.py``."""

import math
import sys
from bisect import bisect_left

import mpmath
import numpy as np
import pytest
from scipy.special import wofz

from bayesflip import _kernels, cauchy
from bayesflip.bayes_factor import TestSetup
from bayesflip.cauchy import Z_CRIT, CauchyPrior, bf01_cauchy, cauchy_flip_scale
from bayesflip.errors import ConvergenceError, DomainError, NoFlipPoint

from _oracles import quad_log_bf01

MP_DPS = 50


def mp_re_w(x, y):
    """Re w(x + iy) at the working precision.  exp(-zeta^2) erfc(-i zeta)
    loses the phase 2xy once x*y nears 1e20 at 50 digits (checked against
    scipy's wofz up to x*y = 6e14), so beyond 1e15 the Voigt integral
    Re w = 1/(sqrt(pi) y) * int_0^inf exp(-s - s^2/(4y^2)) cos(xs/y) ds
    is taken instead.  Re w is about y/|zeta| of |w| where y << x, so the
    erfc form is taken with ceil(log10(|zeta|/y)) more digits."""
    if x * y < 1e15:
        zeta = mpmath.mpc(x, y)
        extra = max(0, int(mpmath.ceil(mpmath.log10(abs(zeta) / y))))
        with mpmath.workdps(mpmath.mp.dps + extra):
            return mpmath.re(mpmath.exp(-zeta * zeta) * mpmath.erfc(-1j * zeta))
    return mpmath.quad(lambda s: mpmath.exp(-s - s * s / (4 * y * y)) * mpmath.cos(x * s / y),
                       [0, mpmath.inf]) / (mpmath.sqrt(mpmath.pi) * y)


def mp_log_bf01(z, gamma):
    with mpmath.workdps(MP_DPS):
        x = abs(mpmath.mpf(z)) / mpmath.sqrt(2)
        return float(-x * x - mpmath.log(mp_re_w(x, mpmath.mpf(gamma) / mpmath.sqrt(2))))


def mp_log_gamma_star(z):
    """log gamma*, gamma* = sqrt(n) r*: the upper root of log BF01 in log
    gamma, bracketed by unit steps down from log(sqrt(2/pi) e^{z^2/2}) + 1."""
    with mpmath.workdps(MP_DPS):
        x = mpmath.mpf(z) / mpmath.sqrt(2)

        def f(t):
            return -x * x - mpmath.log(mp_re_w(x, mpmath.exp(t) / mpmath.sqrt(2)))

        hi = x * x + mpmath.log(2 / mpmath.pi) / 2 + 1
        lo = hi - 1
        while f(lo) >= 0:
            hi, lo = lo, lo - 1
        t = mpmath.findroot(f, (lo, hi), solver="anderson", verify=False)
        eps = mpmath.mpf(10) ** -30
        assert f(t - eps) < 0 < f(t + eps)
        return t


def wofz_log_bf01(z, gamma):
    z = np.asarray(z, dtype=float)
    return -0.5 * z * z - np.log(wofz((np.abs(z) + 1j * np.asarray(gamma)) / math.sqrt(2.0)).real)


def voigt_log_bf01(z, gamma):
    # n = 1 makes gamma = r exactly
    return bf01_cauchy(TestSetup(n=1, z=float(z)), CauchyPrior(float(gamma))).log_bf01


class TestAgainstMpmath:
    Z = (0.0, 0.5, 1.3, 2.0, 2.9, 4.2, 6.0, 8.0, 9.9, 11.3, 15.0, 20.0, 28.0, 40.0)
    GAMMA = tuple(10.0 ** e for e in np.arange(-9.0, 13.6, 1.5)) + (0.35, 0.7, 1.4, 2.9, 3e13)

    def test_grid(self):
        """|z| in [0, 40], gamma in [1e-9, 3e13]: every route of the
        kernel and the borders between them."""
        worst = max(abs(voigt_log_bf01(z, g) - mp_log_bf01(z, g))
                    for z in self.Z for g in self.GAMMA)
        assert worst <= 1e-10

    def test_large_z_tiny_gamma_corner(self):
        """Re w ~ exp(-x^2) is a vanishing share of |w| here, where a
        single rational approximation of w fails.  The kernel reaches
        ~3e-14; 1e-12 also holds the exp(-zeta^2) term of the asymptotic
        route, worth 6e-11 at z = 9.9, gamma = 1e-9."""
        for z in (4.0, 5.0, 6.0, 7.5, 9.0, 9.9, 10.0, 12.0, 40.0):
            for g in (1e-9, 1e-7, 1e-6, 1e-4, 1e-2):
                assert voigt_log_bf01(z, g) == pytest.approx(mp_log_bf01(z, g), abs=1e-12)

    def test_vanishing_y_on_the_asymptotic_route(self):
        """|zeta| >= 7 with y near and below the smallest normal float,
        against the route's own model summed at 50 digits,
        Re w = exp(y^2 - x^2) cos(2xy) + Re(i / (sqrt(pi) zeta) sum_k c_k zeta^-2k),
        c_k = (2k-1)!! / 2^k, summed while the terms fall; then against
        the true value from ``mp_re_w``."""
        for x, y in ((7.5, 1e-300), (27.0, 1e-300), (27.0, 1e-310), (1e4, 1e-305)):
            with mpmath.workdps(MP_DPS):
                zeta = mpmath.mpc(x, y)
                u, term, total, k = 1 / (zeta * zeta), mpmath.mpc(1), mpmath.mpc(1), 0
                while True:
                    k += 1
                    nxt = term * (k - mpmath.mpf(0.5)) * u
                    if abs(nxt) >= abs(term) or abs(nxt) < mpmath.mpf(10) ** -40:
                        break
                    term, total = nxt, total + nxt
                series = mpmath.re(1j * total / zeta) / mpmath.sqrt(mpmath.pi)
                mx, my = mpmath.mpf(x), mpmath.mpf(y)
                want = mpmath.log(mpmath.exp(my * my - mx * mx) * mpmath.cos(2 * mx * my) + series)
            assert _kernels.log_re_faddeeva(x, y) == pytest.approx(float(want), abs=1e-12)
        # and against the true value, from erfc with y/|zeta| more digits
        # (log Re w(27, 1e-310) = -720.96303158831, at 362 digits)
        for x, y in ((27.0, 1e-310), (7.5, 1e-300), (1e4, 1e-305)):
            with mpmath.workdps(MP_DPS):
                want = mpmath.log(mp_re_w(mpmath.mpf(x), mpmath.mpf(y)))
            assert _kernels.log_re_faddeeva(x, y) == pytest.approx(float(want), abs=1e-12)
        # the least subnormal y: Re w ~ y / (sqrt(pi) x^2) is not a float
        assert math.isfinite(_kernels.log_re_faddeeva(30.0, 5e-324))


class TestAgainstWofz:
    def test_dense_grid(self):
        rng = np.random.default_rng(11)
        z = rng.uniform(0.0, 40.0, 3000)
        gamma = 10.0 ** rng.uniform(-9.0, 13.5, 3000)
        got = np.array([voigt_log_bf01(a, b) for a, b in zip(z, gamma)])
        assert np.max(np.abs(got - wofz_log_bf01(z, gamma))) <= 1e-12

    def test_realistic_grid_through_n_and_r(self):
        """z <= 4, n <= 1e5, r in [0.05, 5]: the inputs a user types."""
        rng = np.random.default_rng(12)
        for _ in range(300):
            z = float(rng.uniform(-4.0, 4.0))
            n = int(rng.choice([1, 10, 50, 1000, 100000]))
            r = float(np.exp(rng.uniform(math.log(0.05), math.log(5.0))))
            got = bf01_cauchy(TestSetup(n=n, z=z), CauchyPrior(r)).log_bf01
            assert got == pytest.approx(wofz_log_bf01(z, math.sqrt(n) * r), abs=1e-12)


class TestAgainstQuadrature:
    def test_realistic_grid(self):
        """30 draws, plus two inputs once hard for quadrature: a coarse
        piece accepted by chance, and a tiny r."""
        rng = np.random.default_rng(13)
        cases = [(1.9715455944964426, 1463, 3.1498679315220457), (3.0, 10, 1e-6)]
        for _ in range(30):
            z = float(rng.uniform(0.0, 4.0))
            n = int(rng.choice([10, 50, 1000, 100000]))
            r = float(np.exp(rng.uniform(math.log(0.05), math.log(5.0))))
            cases.append((z, n, r))
        for z, n, r in cases:
            voigt = bf01_cauchy(TestSetup(n=n, z=z), CauchyPrior(r)).log_bf01
            assert voigt == pytest.approx(quad_log_bf01(z, n, "cauchy", r), abs=1e-10)


class TestFlipScale:
    Z = (1.31, 1.35, 1.5, 2.0, 3.0, 4.5, 6.0, 6.8, 10.0, 25.0, 37.0)
    N = (1, 50, 10**6, 10**9)

    def test_against_mpmath_root(self):
        for z in self.Z:
            log_gamma = mp_log_gamma_star(z)
            for n in self.N:
                want = float(mpmath.exp(log_gamma - mpmath.log(n) / 2))
                assert cauchy_flip_scale(TestSetup(n=n, z=z)) == pytest.approx(want, rel=1e-10)
                assert cauchy_flip_scale(TestSetup(n=n, z=-z)) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("z,n", [(4.5, 50), (4.0, 1), (1.5, 10**9)])
    def test_flips_the_old_scan_missed(self, z, n):
        r = cauchy_flip_scale(TestSetup(n=n, z=z))
        gamma = math.sqrt(n) * r
        assert mp_log_bf01(z, gamma * (1 - 1e-9)) < 0.0 < mp_log_bf01(z, gamma * (1 + 1e-9))

    @pytest.mark.parametrize("z", [1.0, 1.2, 1.30, -1.30, Z_CRIT])
    def test_no_flip_at_or_below_critical_z(self, z):
        with pytest.raises(NoFlipPoint):
            cauchy_flip_scale(TestSetup(n=50, z=z))

    @pytest.mark.parametrize("z", [Z_CRIT + 1e-8, Z_CRIT + 1e-6, Z_CRIT + 3.9e-5,
                                   -(Z_CRIT + 1e-8), -(Z_CRIT + 1e-6)])
    def test_too_close_above_critical_z_raises(self, z):
        """Below the 4e-5 floor, float log BF01 changes sign over more than
        2e-7 relative around the root (over 4.3e-6 at a gap of 1e-5)."""
        with pytest.raises(ConvergenceError, match=r"z = -?1\.3069.*below 4e-05"):
            cauchy_flip_scale(TestSetup(n=1, z=z))

    @pytest.mark.parametrize("gap", [1e-5, 1e-4])
    def test_from_the_gap_on_against_mpmath_root(self, gap):
        """100 log-spaced gaps |z| - Z_CRIT over the decade from `gap`, and
        the floor if it falls there, where the float root is least accurate:
        below the floor the flip scale raises, from it on (41 gaps to 1e-4)
        it is within 3e-7 of the 50-digit root."""
        floor = cauchy._MIN_CRIT_GAP
        grid = [*gap * 10.0 ** np.linspace(0.0, 1.0, 100), floor]
        for g in (float(g) for g in grid if gap <= g <= 10.0 * gap):
            for z in (Z_CRIT + g, -(Z_CRIT + g)):
                if g < floor:
                    with pytest.raises(ConvergenceError, match="below 4e-05"):
                        cauchy_flip_scale(TestSetup(n=1, z=z))
                else:
                    want = float(mpmath.exp(mp_log_gamma_star(Z_CRIT + g)))
                    assert cauchy_flip_scale(TestSetup(n=1, z=z)) == pytest.approx(want, rel=3e-7), g

    def test_critical_z_is_where_the_slope_at_zero_changes_sign(self):
        """Z_CRIT = sqrt(2) x0 with 2 x0 F(x0) = 1, F Dawson's function."""
        with mpmath.workdps(MP_DPS):
            dawson = lambda x: mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-x * x) * mpmath.erfi(x)
            x0 = mpmath.findroot(lambda x: 2 * x * dawson(x) - 1, 0.92)
            assert Z_CRIT == pytest.approx(float(mpmath.sqrt(2) * x0), rel=1e-15)

    def test_kernel_is_never_evaluated_twice_at_one_point(self, monkeypatch):
        """The solve is one find_root run on a bracket known before any
        evaluation, and each of its points lies strictly inside the
        bracket left by the points before, so none is evaluated twice."""
        seen = []

        def recording(x, y):
            seen.append((x, y))
            return _kernels.log_re_faddeeva(x, y)

        monkeypatch.setattr(cauchy, "log_re_faddeeva", recording)
        for z in self.Z:
            for n in self.N:
                seen.clear()
                cauchy_flip_scale(TestSetup(n=n, z=z))
                assert len(set(seen)) == len(seen), (z, n)

    # |z| where gamma_a = sqrt(2/pi) exp(z^2/2) reaches 1e10, the shortcut
    Z_ASYMPTOTIC = math.sqrt(2.0 * math.log(1e10) - math.log(2.0 / math.pi))

    def test_bracket_changes_sign(self):
        """log BF01 < 0 at gamma_a (1 - exp(-2 (|z| - Z_CRIT))) and > 0 just
        above gamma_a, for 30,000 z from the floor to gamma_a = 1e10."""
        floor, top = cauchy._MIN_CRIT_GAP, self.Z_ASYMPTOTIC - Z_CRIT
        gaps = floor * (top / floor) ** np.linspace(0.0, 1.0, 20_000, endpoint=False)
        zs = [*(Z_CRIT + gaps), *np.linspace(1.5, self.Z_ASYMPTOTIC, 10_000, endpoint=False)]
        for z in map(float, zs):
            gamma_a = math.exp(0.5 * z * z + 0.5 * math.log(2.0 / math.pi))
            s_lo = math.log1p(-math.exp(-2.0 * (z - Z_CRIT)))
            assert cauchy._log_bf01(z, 1, gamma_a * math.exp(s_lo)) < 0.0, z
            assert cauchy._log_bf01(z, 1, gamma_a * math.exp(cauchy._S_HI)) > 0.0, z

    def test_solves_where_log_bf01_at_gamma_a_rounds_below_zero(self):
        """From |z| ~ 6.1 to the shortcut, log BF01 at gamma_a is under its
        rounding: a bracket ending at gamma_a itself found no sign change
        for about one z in 45 there."""
        for z in np.linspace(6.1, self.Z_ASYMPTOTIC, 2_000, endpoint=False):
            gamma_a = math.sqrt(2.0 / math.pi) * math.exp(0.5 * z * z)
            assert cauchy_flip_scale(TestSetup(n=1, z=float(z))) == pytest.approx(gamma_a, rel=1e-13)

    def test_kernel_calls_no_more_than_the_bracket_walk(self, monkeypatch):
        """Kernel calls over the 41 flip-phase z of perfbench's lattice and
        over 80 log-spaced gaps in [4e-5, 1e-3): the unit-step bracket walk
        it replaced made 259 and 1,704."""
        calls = 0

        def counting(x, y):
            nonlocal calls
            calls += 1
            return _kernels.log_re_faddeeva(x, y)

        monkeypatch.setattr(cauchy, "log_re_faddeeva", counting)
        for zs, walk in (([1.5 + i / 16 for i in range(41)], 259),
                         ([Z_CRIT + 4e-5 * 25.0 ** (i / 80) for i in range(80)], 1_704)):
            calls = 0
            for z in zs:
                cauchy_flip_scale(TestSetup(n=1, z=z))
            assert calls <= walk, (calls, walk)

    def test_overflowing_flip_scale_is_a_domain_error(self):
        with pytest.raises(DomainError):
            cauchy_flip_scale(TestSetup(n=1, z=37.8))
        # the same z resolves once sqrt(n) brings r* back into range
        assert math.isfinite(cauchy_flip_scale(TestSetup(n=10**9, z=37.8)))


class TestHugeGamma:
    """gamma = sqrt(n) r near and past the largest float: past it, log BF01
    is taken in log gamma (Re w ~ 1 / (sqrt(pi) y))."""

    @pytest.mark.parametrize("z,n,r", [
        (3.0, 10**6, 1.1e305),  # gamma = 1.1e308, still a float
        (2.0, 50, 2.5e307),     # gamma = 1.77e308, among the last floats
        (2.0, 50, 2.6e307),     # gamma overflows from here on
        (2.0, 50, 1e308),
        (3.0, 50, 1.7e308),
        (30.0, 50, 1e308),
    ])
    def test_against_mpmath(self, z, n, r):
        got = bf01_cauchy(TestSetup(n=n, z=z), CauchyPrior(r)).log_bf01
        with mpmath.workdps(MP_DPS):
            gamma = mpmath.sqrt(n) * mpmath.mpf(r)
        assert got == pytest.approx(mp_log_bf01(z, gamma), rel=4e-16)

    def test_log_bf01_overflowing_a_float_is_a_domain_error(self):
        with pytest.raises(DomainError, match="BF01 overflows a float"):
            bf01_cauchy(TestSetup(n=50, z=0.5), CauchyPrior(1e308))


def _series_terms_needed(r2):
    """The least K with c_{K+1} / r2^(K+1) <= 1e-17, c_k = (2k-1)!! / 2^k,
    at 50 digits: terms 0..K of the asymptotic series suffice."""
    with mpmath.workdps(MP_DPS):
        r2, c, k = mpmath.mpf(r2), mpmath.mpf(1), 0
        while True:
            c *= k + mpmath.mpf(0.5)  # c_{k+1}
            if c / r2 ** (k + 1) <= mpmath.mpf("1e-17"):
                return k
            k += 1


def _points_on_circle(r2, y_near):
    """Points (x, y) whose float x*x + y*y is exactly r2, for y near each
    of y_near; the kernel routes on that sum."""
    points = []
    for y0 in y_near:
        y = y0
        for _ in range(200):
            x0 = math.sqrt(max(r2 - y * y, 0.0))
            hit = next((x for x in (x0, *(x0 + d * math.ulp(x0) for d in (-2, -1, 1, 2)))
                        if x * x + y * y == r2), None)
            if hit is not None:
                points.append((hit, y))
                break
            # the next y moves y*y by about a third of an ulp of r2
            y += max(math.ulp(y), 0.37 * math.ulp(r2) / (2.0 * y))
        else:
            raise AssertionError(f"no float point at r^2 = {r2!r} near y = {y0}")
    return points


# the term-count thresholds of the asymptotic route, falling
SERIES_R2 = tuple(-t for t in _kernels._NEG_SERIES_R2)


class TestAsymptoticBorders:
    """The asymptotic route starts at |zeta|^2 = 49 and sums a number of
    terms read from r^2 = x^2 + y^2: both borders, from either side, and on
    each side of y = 1, where the exp(-zeta^2) term joins."""

    # the route's start, an accuracy point between thresholds, and the thresholds
    THRESHOLDS = (_kernels._ASYMPTOTIC_R2, 2048.0,
                  *(t for t in SERIES_R2 if t >= _kernels._ASYMPTOTIC_R2))

    def test_thresholds_are_where_one_term_fewer_suffices(self):
        table = SERIES_R2
        assert table[-1] <= _kernels._ASYMPTOTIC_R2 < table[-2]
        for k, t in enumerate(table):
            assert _series_terms_needed(t * (1 + 1e-14)) == k
            assert _series_terms_needed(t * (1 - 1e-14)) == k + 1
        assert len(_kernels._HORNER) == len(table)
        for k, coeffs in enumerate(_kernels._HORNER):
            c = [1.0]
            for j in range(1, k + 1):
                c.append(c[-1] * (2 * j - 1) / 2)
            assert coeffs == tuple(reversed(c))

    @staticmethod
    def bisected_terms(r2):
        return bisect_left(_kernels._NEG_SERIES_R2, -r2)

    def test_bisected_term_count_is_the_least_that_suffices(self):
        for m in range(49, 2048):
            assert self.bisected_terms(float(m)) == _series_terms_needed(m), m

    def test_bisected_term_count_steps_at_each_threshold(self):
        """K drops by one exactly at each float threshold.  The float
        thresholds lie within 4 ulps of the 50-digit boundaries, checked at
        1e-14 relative by test_thresholds_are_where_one_term_fewer_suffices."""
        for k, t in enumerate(SERIES_R2):
            assert self.bisected_terms(math.nextafter(t, 0.0)) == k + 1
            assert self.bisected_terms(t) == self.bisected_terms(math.nextafter(t, math.inf)) == k

    @pytest.mark.parametrize("r2", THRESHOLDS)
    def test_accuracy_on_both_sides(self, r2):
        worst = 0.0
        for r2_side in (math.nextafter(r2, 0.0), r2, math.nextafter(r2, math.inf)):
            y_near = (0.01, 0.5, 0.999, 1.0, 3.0, math.sqrt(r2) * 0.8, math.sqrt(r2) * 0.999)
            for x, y in _points_on_circle(r2_side, y_near):
                with mpmath.workdps(MP_DPS):
                    want = mpmath.log(mp_re_w(mpmath.mpf(x), mpmath.mpf(y)))
                worst = max(worst, abs(_kernels.log_re_faddeeva(x, y) - float(want)))
        assert worst <= 1e-13


class TestInputs:
    @pytest.mark.parametrize("r", [math.inf, math.nan, 0.0, -1.0])
    def test_scale_must_be_positive_and_finite(self, r):
        with pytest.raises(DomainError):
            CauchyPrior(r)

    @pytest.mark.parametrize("x", [1e154, 9.2e307, sys.float_info.max])
    @pytest.mark.parametrize("y", [5e-324, 0.5, 0.999])
    def test_kernel_takes_every_finite_x(self, x, y):
        # 2xy used to overflow on the real-axis term, and cos(inf) raised
        assert math.isfinite(_kernels.log_re_faddeeva(x, y))

    def test_finite_over_the_user_domain(self):
        for z in (0.0, 1.96, 8.0, 40.0):
            for n in (1, 1000, 10**6, 10**9):
                for r in 10.0 ** np.arange(-9.0, 9.5, 1.0):
                    res = bf01_cauchy(TestSetup(n=n, z=z), CauchyPrior(float(r)))
                    assert math.isfinite(res.log_bf01)


class TestTrapezoidalRoute:
    """Inside |zeta| < 7 the kernel sums the modified trapezoidal rule on
    one of two node grids, chosen by x / h mod 1 (h = 1/2), plus a pole
    correction.  A rational approximation of w loses Re w where it is a
    tiny share of |w|, near the real axis; the sum of positive terms keeps it."""

    @staticmethod
    def points():
        rng = np.random.default_rng(15)
        pts = []
        # the quarter disc, uniformly
        r, th = 7.0 * np.sqrt(rng.uniform(0.0, 1.0, 1500)), rng.uniform(0.0, math.pi / 2, 1500)
        pts += zip(r * np.cos(th), r * np.sin(th))
        # y log-uniform down to 1e-320
        x = rng.uniform(0.0, 7.0, 800)
        pts += zip(x, 10.0 ** rng.uniform(-320.0, np.log10(np.sqrt(49.0 - x * x)), 800))
        # x near the nodes of both grids (k / 4) and the grid switches (k / 2 +- 1 / 8)
        x = np.repeat(np.arange(56) / 8.0, 20)
        x += rng.choice([-1.0, 1.0], x.size) * 10.0 ** rng.uniform(-16.0, -2.0, x.size)
        pts += zip(np.abs(x), 10.0 ** rng.uniform(-12.0, 0.5, x.size))
        # subnormal x
        pts += zip(10.0 ** rng.uniform(-323.5, -308.0, 300), 10.0 ** rng.uniform(-12.0, 0.8, 300))
        # r^2 from 1e-16 to 1e-3 below 49, the larger of x and y stepped
        # down until x^2 + y^2 < 49
        r = np.sqrt(49.0 - 10.0 ** rng.uniform(-16.0, -3.0, 600))
        th = rng.uniform(0.0, math.pi / 2, 600)
        for x, y in zip(r * np.cos(th), r * np.sin(th)):
            x, y = float(x), float(y)
            while x * x + y * y >= 49.0:
                x, y = (math.nextafter(x, 0.0), y) if x > y else (x, math.nextafter(y, 0.0))
            pts.append((x, y))
        pts = [(float(a), float(b)) for a, b in pts]
        return [(a, b) for a, b in pts if b > 0.0 and a * a + b * b < 49.0]

    def test_dense_against_mpmath(self):
        pts = self.points()
        assert len(pts) >= 4000
        with mpmath.workdps(40):
            worst = max((abs(_kernels.log_re_faddeeva(x, y)
                             - float(mpmath.log(mp_re_w(mpmath.mpf(x), mpmath.mpf(y))))), x, y)
                        for x, y in pts)
        assert worst[0] <= 1e-14, worst
