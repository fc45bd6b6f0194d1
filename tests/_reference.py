"""Every reference value the tests check the package against: mpmath at
40 to 60 digits and more, and scipy's quadrature and Faddeeva function.
It imports no ``bayesflip``, so no oracle shares code with what it checks."""

import functools
import math

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.special import wofz

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# runs a function at 50 digits; what it returns keeps them
at_50_digits = mpmath.workdps(50)

mp_abs_err = at_50_digits(lambda got, want: abs(got - want))
mp_rel_err = at_50_digits(lambda got, want: abs(got / want - 1))
mp_bf_argmin_k = at_50_digits(lambda z: mpmath.mpf(z) ** 2 - 1)  # where BF01 is least in k
mp_phi = at_50_digits(lambda k: (1 + mpmath.mpf(k)) * mpmath.log1p(k) / k)


@at_50_digits
def mp_log_bf01_normal(z, k):
    """log BF01 = log(1 + k) / 2 - z^2 k / (2 (1 + k)); its larger term as a float."""
    lead, term = mpmath.log1p(k) / 2, mpmath.mpf(z) ** 2 * k / (2 * (1 + mpmath.mpf(k)))
    return lead - term, float(max(lead, term))


@at_50_digits
def mp_dlogbf_dk(z, k):
    """d log BF01 / dk = (1 + k - z^2) / (2 (1 + k)^2), and the scale of its
    terms, (1 + k + z^2) / (2 (1 + k)^2), with z^2 the float z * z."""
    kp1 = 1 + mpmath.mpf(k)
    return (kp1 - z * z) / (2 * kp1 ** 2), (kp1 + z * z) / (2 * kp1 ** 2)


@at_50_digits
def mp_posterior_h0(log_bf01, pi0):
    """P(H0 | data) = pi0 BF01 / (pi0 BF01 + 1 - pi0) from log BF01, as a float."""
    bf, p = mpmath.exp(mpmath.mpf(log_bf01)), mpmath.mpf(pi0)
    return float(p * bf / (p * bf + 1 - p))


@at_50_digits
def mp_phi_inverse(y):
    """The k with phi(k) = y, solved in u = log(1 + k) from the float y,
    independently of the package's bracket and series."""
    y = mpmath.mpf(y)
    u = mpmath.findroot(lambda u: u * mpmath.exp(u) / mpmath.expm1(u) - y,
                        (y - 1, y + mpmath.mpf("0.5")), solver="anderson")
    return mpmath.expm1(u)


@at_50_digits
def mp_k_star(z):
    """k* = expm1(W0(-z^2 e^{-z^2}) + z^2), from the float z."""
    z2 = mpmath.mpf(z) ** 2
    return mpmath.expm1(mpmath.lambertw(-z2 * mpmath.exp(-z2)) + z2)


def mp_log_neg_w0(d: float):
    """log(-W0(-exp(-1 - d))) at 60 + max(0, -log10 d) digits: at 60 alone
    mpmath cannot tell -1 - d from -1 for tiny d."""
    with mpmath.workdps(60 + max(0, math.ceil(-math.log10(d)))):
        return mpmath.log(-mpmath.lambertw(-mpmath.exp(-1 - mpmath.mpf(d))))


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


def mp_log_re_w(x, y, dps=50):
    """log Re w(x + iy) for floats x, y at dps digits, as a float."""
    with mpmath.workdps(dps):
        return float(mpmath.log(mp_re_w(mpmath.mpf(x), mpmath.mpf(y))))


@at_50_digits
def mp_asymptotic_log_re_w(x, y):
    """log Re w, as a float, from the model of the kernel's asymptotic route,
    Re w = exp(y^2 - x^2) cos(2xy) + Re(i / (sqrt(pi) zeta) sum_k c_k zeta^-2k),
    c_k = (2k-1)!! / 2^k, summed while the terms fall and exceed 1e-40."""
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
    return float(mpmath.log(mpmath.exp(my * my - mx * mx) * mpmath.cos(2 * mx * my) + series))


@at_50_digits
def series_terms_needed(r2):
    """The least K with c_{K+1} / r2^(K+1) <= 1e-17, c_k = (2k-1)!! / 2^k:
    terms 0..K of the asymptotic series suffice."""
    r2, c, k = mpmath.mpf(r2), mpmath.mpf(1), 0
    while True:
        c *= k + mpmath.mpf(0.5)  # c_{k+1}
        if c / r2 ** (k + 1) <= mpmath.mpf("1e-17"):
            return k
        k += 1


@at_50_digits
def mp_log_bf01_cauchy(z, r, n=1):
    """log BF01 = -x^2 - log Re w(x + iy), x = |z| / sqrt(2) and
    y = sqrt(n) r / sqrt(2), as a float."""
    x, gamma = abs(mpmath.mpf(z)) / mpmath.sqrt(2), mpmath.sqrt(n) * mpmath.mpf(r)
    return float(-x * x - mpmath.log(mp_re_w(x, gamma / mpmath.sqrt(2))))


@functools.cache
@at_50_digits
def mp_log_gamma_star(z):
    """log gamma*, gamma* = sqrt(n) r*: the upper root of log BF01 in log
    gamma, bracketed by unit steps down from log(sqrt(2/pi) e^{z^2/2}) + 1."""
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


@at_50_digits
def mp_cauchy_flip_scale(z, n=1):
    """The Cauchy flip scale r* = gamma* / sqrt(n), as a float."""
    return float(mpmath.exp(mp_log_gamma_star(z) - mpmath.log(n) / 2))


@at_50_digits
def mp_z_crit():
    """Z_CRIT = sqrt(2) x0 with 2 x0 F(x0) = 1, F Dawson's function, as a float."""
    dawson = lambda x: mpmath.sqrt(mpmath.pi) / 2 * mpmath.exp(-x * x) * mpmath.erfi(x)
    return float(mpmath.sqrt(2) * mpmath.findroot(lambda x: 2 * x * dawson(x) - 1, 0.92))


def wofz_log_bf01(z, gamma):
    z = np.asarray(z, dtype=float)
    return -0.5 * z * z - np.log(wofz((np.abs(z) + 1j * np.asarray(gamma)) / math.sqrt(2.0)).real)


def quad_log_bf01(z, n, family, scale):
    """log BF01 = log N(z; 0, 1) minus the log of the integral over mu of
    N(z; sqrt(n) mu, 1) * prior(mu; 0, scale), family "normal" or "cauchy",
    by scipy's adaptive quadrature.

    The integrand is divided by its larger value at the two modes, mu = 0
    and mu = z / sqrt(n), so it neither underflows nor overflows.  The
    line is split at each mode and at +-8 and +-40 of that mode's width
    (the prior scale at 0, 1 / sqrt(n) at z / sqrt(n)); the two tails are
    integrated on infinite intervals.
    """
    sqrt_n = math.sqrt(n)
    if family not in ("normal", "cauchy"):
        raise ValueError(f"unknown prior family {family!r}")

    def log_f(mu):
        d = z - sqrt_n * mu
        t = mu / scale
        if family == "normal":
            log_prior = -_LOG_SQRT_2PI - 0.5 * t * t
        else:
            log_prior = -math.log(math.pi) - math.log1p(t * t)
        return -_LOG_SQRT_2PI - 0.5 * d * d + log_prior - math.log(scale)

    xbar = z / sqrt_n
    shift = max(log_f(0.0), log_f(xbar))
    f = lambda mu: math.exp(log_f(mu) - shift)
    points = sorted({mode + s * width for mode, width in ((0.0, scale), (xbar, 1.0 / sqrt_n))
                     for s in (-40.0, -8.0, 0.0, 8.0, 40.0)})
    edges = [-math.inf, *points, math.inf]
    total = sum(quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
                for a, b in zip(edges, edges[1:]))
    return -_LOG_SQRT_2PI - 0.5 * z * z - shift - math.log(total)
