"""The closed-form Voigt (Faddeeva) route for Cauchy-prior Bayes factors
and flip scales, against oracles that share none of its code: mpmath at
50 digits, scipy's wofz, and the adaptive quadrature of
``tests/_quadrature.py``."""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import wofz

from bayesflip import _kernels
from bayesflip.bayes_factor import TestSetup
from bayesflip.cauchy import Z_CRIT, CauchyPrior, bf01_cauchy, cauchy_flip_scale
from bayesflip.errors import DomainError, NoFlipPoint

from _quadrature import MarginalIntegrand, log_std_normal_pdf, marginal_log_integral

MP_DPS = 50


def mp_re_w(x, y):
    """Re w(x + iy) at the working precision.  exp(-zeta^2) erfc(-i zeta)
    loses the phase 2xy once x*y nears 1e20 at 50 digits (checked against
    scipy's wofz up to x*y = 6e14), so beyond 1e15 the Voigt integral
    Re w = 1/(sqrt(pi) y) * int_0^inf exp(-s - s^2/(4y^2)) cos(xs/y) ds
    is taken instead."""
    if x * y < 1e15:
        zeta = mpmath.mpc(x, y)
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


def quadrature_log_bf01(z, n, r):
    mi = MarginalIntegrand(z=z, n=n, prior_family="cauchy", scale=r)
    return log_std_normal_pdf(z) - marginal_log_integral(mi)


class TestAgainstQuadrature:
    def test_realistic_grid(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            z = float(rng.uniform(0.0, 4.0))
            n = int(rng.choice([10, 50, 1000, 100000]))
            r = float(np.exp(rng.uniform(math.log(0.05), math.log(5.0))))
            voigt = bf01_cauchy(TestSetup(n=n, z=z), CauchyPrior(r)).log_bf01
            assert voigt == pytest.approx(quadrature_log_bf01(z, n, r), abs=1e-10)

    def test_quadrature_accepts_no_piece_by_chance(self):
        """Adaptive Simpson used to accept a coarse piece whose two
        estimates agreed by chance, off by 9.6e-8 in log BF01 here; and
        it missed its tolerance by 6.4e-11 at tiny r."""
        z, n, r = 1.9715455944964426, 1463, 3.1498679315220457
        assert quadrature_log_bf01(z, n, r) == pytest.approx(
            mp_log_bf01(z, math.sqrt(n) * r), abs=1e-11)
        assert quadrature_log_bf01(3.0, 10, 1e-6) == pytest.approx(
            mp_log_bf01(3.0, math.sqrt(10) * 1e-6), abs=1e-11)


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

    def test_critical_z_is_where_the_slope_at_zero_changes_sign(self):
        """Z_CRIT = sqrt(2) x0 with 2 x0 F(x0) = 1, F Dawson's function."""
        with mpmath.workdps(MP_DPS):
            dawson = lambda x: mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-x * x) * mpmath.erfi(x)
            x0 = mpmath.findroot(lambda x: 2 * x * dawson(x) - 1, 0.92)
            assert Z_CRIT == pytest.approx(float(mpmath.sqrt(2) * x0), rel=1e-15)

    def test_overflowing_flip_scale_is_a_domain_error(self):
        with pytest.raises(DomainError):
            cauchy_flip_scale(TestSetup(n=1, z=37.8))
        # the same z resolves once sqrt(n) brings r* back into range
        assert math.isfinite(cauchy_flip_scale(TestSetup(n=10**9, z=37.8)))


class TestInputs:
    @pytest.mark.parametrize("r", [math.inf, math.nan, 0.0, -1.0])
    def test_scale_must_be_positive_and_finite(self, r):
        with pytest.raises(DomainError):
            CauchyPrior(r)

    def test_finite_over_the_user_domain(self):
        for z in (0.0, 1.96, 8.0, 40.0):
            for n in (1, 1000, 10**6, 10**9):
                for r in 10.0 ** np.arange(-9.0, 9.5, 1.0):
                    res = bf01_cauchy(TestSetup(n=n, z=z), CauchyPrior(float(r)))
                    assert math.isfinite(res.log_bf01)


class TestWeidemanCoefficients:
    def test_literals_match_regeneration(self):
        """Weideman (1994): the N coefficients of p from the FFT of
        exp(-t^2) (L^2 + t^2) sampled at t = L tan(theta/2)."""
        n = len(_kernels._WEIDEMAN_A)
        m = 2 * n
        L = math.sqrt(n / math.sqrt(2.0))
        t = L * np.tan(np.arange(-m + 1, m) * np.pi / m / 2.0)
        f = np.concatenate([[0.0], np.exp(-t * t) * (L * L + t * t)])
        a = np.real(np.fft.fft(np.fft.fftshift(f))) / (2 * m)
        assert _kernels._WEIDEMAN_L == pytest.approx(L, rel=1e-15)
        np.testing.assert_allclose(_kernels._WEIDEMAN_A, a[1:n + 1][::-1], rtol=0, atol=1e-15)
