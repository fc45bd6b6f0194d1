"""Bayes factors for a zero-centred Cauchy prior on the mean, showing that
flip behaviour is not an artifact of the normal prior.

The Cauchy scale prior sits directly on mu with sigma = 1, so mu
coincides with the standardized effect size, and with gamma = sqrt(n)*r
the H1 marginal of z is a Voigt profile: a unit normal convolved with a
Cauchy of half-width gamma.  In closed form,

    log BF01 = -z^2/2 - log Re w((|z| + i*gamma) / sqrt(2)),

with w the Faddeeva function (the kernel ``log_re_faddeeva``, defined
here with its one caller).  BF01 depends on n and r only through gamma,
so the flip scale solves for gamma* = sqrt(n)*r*, a function of z alone,
in log gamma.  A flip exists exactly when |z| > Z_CRIT = sqrt(2)*x0,
where x0 maximises Dawson's function: below it BF01 >= 1 for every r.
"""

from __future__ import annotations

import math
from bisect import bisect_left

from ._record import record
from .bayes_factor import _LOG_DBL_MAX, BayesFactorResult, TestSetup
from .errors import ConvergenceError, DomainError, NoFlipPoint

__all__ = ["CauchyPrior", "Z_CRIT", "bf01_cauchy", "cauchy_flip_scale"]

# sqrt(2) * x0, with x0 the root of 2 x F(x) = 1 (F Dawson's function)
Z_CRIT = 1.306929727719281

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2_OVER_PI = 0.5 * math.log(2.0 / math.pi)
_LOG_SQRT_PI_OVER_2 = -_LOG_SQRT_2_OVER_PI
# gamma* = gamma_a * exp(-(z^2 + 1) / gamma_a^2 + ...), and from gamma_a =
# 1e10 on the correction is below 5e-19: gamma_a is gamma* in double
# precision.
_LOG_GAMMA_ASYMPTOTIC = math.log(1e10)
_MIN_CRIT_GAP = 4e-5  # below this |z| - Z_CRIT, r* is lost to rounding by over 2e-7
_S_HI = 1e-12  # the flip-scale bracket's upper end in s: log BF01 >= 9.9e-13 there
_BAD_SCALE = "Cauchy scale must be positive and finite, got {}"

# Routes of log_re_faddeeva (see its docstring).  The trapezoidal rule
# takes the nodes |t| <= _TRAP_T: the next adds under 2e-17 relative.
_ASYMPTOTIC_R2 = 49.0
_SERIES_TOL = 1e-17
_H = 0.5
_TRAP_T = 6.5
_TWO_PI = 2.0 * math.pi
_H_OVER_PI = _H / math.pi
_LOG_SQRT_PI = 0.5723649429247


def _asymptotic_tables():
    """Horner coefficients and term-count thresholds of the asymptotic
    series sum_k c_k u^k, c_k = (2k-1)!! / 2^k, u = zeta^-2.

    Terms k = 0..K suffice once the first omitted one, c_{K+1} / r^{2(K+1)}
    with r = |zeta|, is at most _SERIES_TOL (relative to the leading 1):
    from r^2 >= thresholds[K] = (c_{K+1} / _SERIES_TOL)^(1/(K+1)) on.  The
    thresholds fall with K, and the last one is at most _ASYMPTOTIC_R2, so
    no point of the route needs more terms.  K at r^2 is the number of
    thresholds above r^2; they are returned negated, so that they rise
    and bisect_left counts them.
    """
    c, thresholds, horner = [1.0], [], []
    while not thresholds or thresholds[-1] > _ASYMPTOTIC_R2:
        k = len(c)
        horner.append(tuple(c[::-1]))  # c_{k-1}, ..., c_0
        c.append(c[-1] * (k - 0.5))
        thresholds.append((c[k] / _SERIES_TOL) ** (1.0 / k))
    return tuple(-t for t in thresholds), tuple(horner)


_NEG_SERIES_R2, _HORNER = _asymptotic_tables()


def _trapezoid_nodes(offset):
    """(t, exp(-t^2)) at the nodes t = (k + offset) h in [0, _TRAP_T], the
    smallest terms first; the sum takes each at +-t, so the weight at t = 0
    is halved."""
    ts = (_H * (k + offset) for k in range(int(_TRAP_T / _H), -1, -1))
    return tuple((t, math.exp(-t * t) if t else 0.5) for t in ts if t <= _TRAP_T)


_WHOLE_NODES, _HALF_NODES = _trapezoid_nodes(0.0), _trapezoid_nodes(0.5)


def _goertzel(coeffs, a, b):
    """(b_0, b_1) of the Goertzel (Clenshaw) recurrence
    b_j = c_j + 2a b_{j+1} - (a a + b b) b_{j+2} over real coefficients c,
    highest power first: their polynomial at t = a + ib is b_0 - conj(t) b_1."""
    p, q = a + a, a * a + b * b
    b0 = b1 = 0.0
    for c in coeffs:
        b0, b1 = c + p * b0 - q * b1, b0
    return b0, b1


def log_re_faddeeva(x, y):
    """log Re w(x + iy) for y > 0, where w(zeta) = exp(-zeta^2) erfc(-i zeta)
    is the Faddeeva function; Re w is even in x.

    Re w((z + i gamma) / sqrt(2)) / sqrt(2 pi) is the Voigt profile at z
    (a unit normal convolved with a Cauchy of half-width gamma).  Re w can
    be a tiny share of |w| (y small, x not), so both routes sum positive
    terms for Re w alone:

    - |x + iy| >= 7: the asymptotic series
      w ~ i / (sqrt(pi) zeta) * sum_k (2k-1)!! / (2 zeta^2)^k, whose real
      part is a sum of nonnegative terms, taken in log space so neither
      y -> 0 nor y -> inf underflows; for y < 1 it is joined by the
      exp(-zeta^2) term that the series misses on the real axis.  Terms
      0..K are summed by ``_goertzel`` over precomputed coefficients, K
      bisected from r^2 = x^2 + y^2 in a table of thresholds past which
      the first omitted term is at most 1e-17 (``_asymptotic_tables``).
    - inside: the modified trapezoidal rule (Al Azah and Chandler-Wilde,
      SIAM J. Numer. Anal. 59:2346, 2021) for
      Re w = (y / pi) int exp(-t^2) / ((x - t)^2 + y^2) dt, with h = 1/2,
      q = exp(-2 pi y / h) and phi = 2 pi x / h:
      Re w = (h y / pi) sum_t exp(-t^2) / ((x - t)^2 + y^2)
             - 2q exp(y^2 - x^2) (s cos(phi - 2xy) - q cos 2xy)
               / (1 - 2sq cos phi + q^2),
      on the nodes t = kh (s = 1) or (k + 1/2) h (s = -1), whichever lie
      at least h/4 from x.  The correction tends to exp(-x^2) as y -> 0.

    Against 40-digit mpmath, log Re w is within 7.1e-15 inside (4,320
    points of tests/test_voigt.py, y down to 1e-320) and within the
    rounding of x^2 outside (1.1e-13 at |x| = 40).
    """
    x = abs(x)
    r2 = x * x + y * y
    if r2 >= _ASYMPTOTIC_R2:
        k = bisect_left(_NEG_SERIES_R2, -r2)
        if k:
            # the sum S at u = 1 / zeta^2 = a + ib, S = b_0 - conj(u) b_1
            t = 1.0 / r2
            a = (x - y) * (x + y) * t * t
            b = -2.0 * x * y * t * t
            b0, b1 = _goertzel(_HORNER[k], a, b)
            # Re(i S / zeta) |zeta|^2 = y Re S - x Im S; Im S <= 0: no cancellation.
            # Its log and log r^2 are taken apart: the quotient, ~y / r^2,
            # underflows for a subnormal y
            log_re = math.log(y * (b0 - a * b1) - x * b * b1) - math.log(r2) - _LOG_SQRT_PI
        else:  # S = 1; r^2 may overflow
            log_re = math.log(y) - 2.0 * math.log(math.hypot(x, y)) - _LOG_SQRT_PI
        if y < 1.0 and (tail := math.exp(y * y - x * x - log_re)):
            log_re += math.log1p(math.cos(2.0 * x * y) * tail)  # 2xy is finite here
        return log_re
    # the trapezoidal rule on the grid with no node within h/4 of x:
    # whole nodes kh (s = 1) where x/h mod 1 is in [1/4, 3/4], else half
    frac = x / _H % 1.0
    nodes, s = (_WHOLE_NODES, 1.0) if 0.25 <= frac <= 0.75 else (_HALF_NODES, -1.0)
    y2 = y * y
    total = 0.0
    for t, w in nodes:
        a, b = x - t, x + t
        total += w / (a * a + y2) + w / (b * b + y2)
    # the pole correction; s cos(phi) <= 0, so its denominator is >= 1
    q = math.exp(-_TWO_PI / _H * y)
    phi, c = _TWO_PI * frac, 2.0 * x * y
    pole = (-2.0 * q * math.exp(y2 - x * x) * (s * math.cos(phi - c) - q * math.cos(c))
            / (1.0 + q * (q - 2.0 * s * math.cos(phi))))
    return math.log(_H_OVER_PI * total * y + pole)


class CauchyPrior(record("CauchyPrior", "r")):
    """Zero-centred Cauchy prior on the mean with scale r."""

    __slots__ = ()

    def __new__(cls, r: float):
        if not 0.0 < r < math.inf:
            raise DomainError(_BAD_SCALE.format(r))
        return tuple.__new__(cls, (r,))


def _log_bf01(z: float, n: int, r: float) -> float:
    """log BF01 at scale r for a valid sample size n: ``bf01_cauchy``,
    Cauchy sweeps once per point with no prior record, and the
    flip-scale search in gamma (r = gamma at n = 1).

    Where gamma = sqrt(n) r overflows a float, Re w ~ 1 / (sqrt(pi) y)
    gives log BF01 = -z^2/2 + log(sqrt(pi/2) gamma) in log gamma = log r +
    log(n)/2, with a relative error O(gamma^-2) (gamma > 1.8e308 there).
    Raises DomainError for a scale that is not positive and finite, and
    where log BF01 is not a finite float (z^2/2 overflows).
    """
    if not 0.0 < r < math.inf:
        raise DomainError(_BAD_SCALE.format(r))
    gamma = math.sqrt(n) * r
    if gamma < math.inf:
        x = abs(z) / _SQRT2
        log_bf = -x * x - log_re_faddeeva(x, gamma / _SQRT2)
    else:
        log_bf = -0.5 * z * z + _LOG_SQRT_PI_OVER_2 + math.log(r) + 0.5 * math.log(n)
    if not math.isfinite(log_bf):
        raise DomainError(f"log BF01 is not a finite float for z = {z}, r = {r}")
    return log_bf


def bf01_cauchy(setup: TestSetup, prior: CauchyPrior) -> BayesFactorResult:
    """Bayes factor in favour of the null under the Cauchy prior, from the
    closed-form Voigt marginal (``_log_bf01``).  Raises DomainError where
    log BF01 (z^2/2 overflows) or BF01 is not a finite float, and, naming
    both records, for an argument that is not a TestSetup or a CauchyPrior.
    """
    try:
        return BayesFactorResult.from_log(_log_bf01(setup.z, setup.n, prior.r))
    except AttributeError:  # a NormalPrior has no r
        raise DomainError(f"bf01_cauchy takes a TestSetup and a CauchyPrior, "
                          f"got {setup!r}, {prior!r}") from None


def cauchy_flip_scale(setup: TestSetup) -> float:
    """The Cauchy scale r* at which BF01 crosses 1 from below as r grows.

    Solves log BF01 = 0 for gamma* = sqrt(n)*r* in s = log(gamma /
    gamma_a), gamma_a = sqrt(2/pi) exp(z^2/2) the large-gamma asymptote of
    gamma*, by one find_root solve on gamma_a (1 - e) < gamma* < gamma_a,
    e = exp(-2 (|z| - Z_CRIT)).  The upper end is proved (Re w <
    1/(sqrt(pi) y) for every y), but log BF01 there, ~(z^2 + 1)/gamma_a^2,
    sinks under its rounding from |z| ~ 6.1 on, so the solve stops at
    s = 1e-12 instead.  The lower end is measured: gamma*/gamma_a ~ 2.16
    (|z| - Z_CRIT) near Z_CRIT against 1 - e ~ 2 (|z| - Z_CRIT), and tends
    to 1 faster than 1 - e; log BF01 is at most -6.4e-10 there from the
    floor to gamma_a = 1e10, where gamma_a becomes gamma* to double
    precision and is returned as is.

    Near Z_CRIT log BF01 dips below 0 only by ~(|z| - Z_CRIT)^2, and its
    float sign changes over a band around the root: up to 2.1e-7 relative
    at gaps |z| - Z_CRIT below 3.6e-5, at most 1.8e-7 from the floor 4e-5
    on (50-digit scans).  So r* is within 2e-7 from the floor, 1.1e-8 from
    a gap of 1e-4, 1e-10 from 1e-3 and 2e-12 from 1e-2.

    Raises NoFlipPoint for |z| <= Z_CRIT, where BF01 >= 1 at every r;
    ConvergenceError for 0 < |z| - Z_CRIT < 4e-5; DomainError when r*
    overflows a float.
    """
    z = abs(setup.z)
    if not z > Z_CRIT:
        raise NoFlipPoint(
            f"no Cauchy flip scale for |z| = {z} <= {Z_CRIT}: BF01 >= 1 at every r")
    if z - Z_CRIT < _MIN_CRIT_GAP:
        raise ConvergenceError(f"Cauchy flip scale for z = {setup.z} is lost to rounding: "
                               f"|z| - Z_CRIT = {z - Z_CRIT:.3g} is below {_MIN_CRIT_GAP:g}")
    log_gamma_a = 0.5 * z * z + _LOG_SQRT_2_OVER_PI
    log_gamma = log_gamma_a
    if log_gamma_a < _LOG_GAMMA_ASYMPTOTIC:
        from .numerics import find_root  # here only: Bayes factors load no solver
        gamma_a = math.exp(log_gamma_a)
        s_lo = math.log1p(-math.exp(-2.0 * (z - Z_CRIT)))
        # gamma = r at n = 1
        log_gamma += find_root(lambda s: _log_bf01(z, 1, gamma_a * math.exp(s)), s_lo, _S_HI)
    log_r = log_gamma - 0.5 * math.log(setup.n)
    if log_r > _LOG_DBL_MAX:
        raise DomainError(
            f"Cauchy flip scale r* = exp({log_r:.6g}) overflows a float "
            f"for z = {setup.z}, n = {setup.n}")
    return math.exp(log_r)
