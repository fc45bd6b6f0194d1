"""The numerical kernels, in pure Python.

``log_re_faddeeva`` is the hot kernel: the closed-form Voigt marginal
behind every Cauchy-prior Bayes factor, flip-scale search and sweep.
``lambert_w0`` serves the normal-prior flip point; ``bayesflip.numerics``
exports it as is.

``log_re_faddeeva`` assumes domain-valid inputs (``bayesflip.cauchy``
validates); ``lambert_w0`` checks its own domain and raises the package's
exceptions.
"""

import math

from .errors import DomainError, MaxIterExceeded

_SQRT_PI = 1.7724538509055159
_INV_SQRT_PI = 0.5641895835477563
_LOG_SQRT_PI = 0.5723649429247
_TINY = 1e-300
# lambert_w0's least x: -1/e less a few ulps, tolerated (and giving -1)
# for callers that computed -1/e themselves
_W0_X_MIN = -math.exp(-1.0) - 4e-17
_LAMBERT_REL_TOL = 1e-12
_LAMBERT_MAX_ITER = 200


def lambert_w0(x: float) -> float:
    """Principal branch W0 of w * exp(w) = x on [-1/e, inf); W0 >= -1.

    Initial guess from the branch-point series near -1/e and the log-log
    asymptote for large x, refined by Halley iteration until its step is
    below 1e-12 relative.  Raises DomainError for x below -1/e, infinite
    or nan, MaxIterExceeded past 200 iterations.
    """
    if not _W0_X_MIN <= x < math.inf:  # nan fails too
        raise DomainError(f"lambert_w0 domain is [-1/e, inf); got {x}")
    if x == 0.0:
        return 0.0
    q = math.e * x + 1.0  # vanishes at the branch point, negative below it
    if q <= 0.0:
        return -1.0
    if x < -0.25:
        p = math.sqrt(2.0 * q)
        w = -1.0 + p - p * p / 3.0 + 11.0 * p * p * p / 72.0
    elif x < 3.0:
        w = x / (1.0 + x)
    else:
        l1 = math.log(x)
        l2 = math.log(l1)
        w = l1 - l2 + l2 / l1
    for _ in range(_LAMBERT_MAX_ITER):
        ew = math.exp(w)
        f = w * ew - x
        if f == 0.0:
            return w
        wp1 = w + 1.0
        if wp1 == 0.0:
            wp1 = _TINY
        dw = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        w -= dw
        if abs(dw) <= _LAMBERT_REL_TOL * (abs(w) + _TINY):
            return w
    raise MaxIterExceeded("Lambert W iteration did not converge")


# Weideman (1994, SIAM J. Numer. Anal. 31:1497) rational approximation of
# the Faddeeva function with N = 40 terms, valid for Im zeta >= 0:
#     w(zeta) ~ 2 p(Z) / (L - i zeta)^2 + 1 / (sqrt(pi) (L - i zeta)),
#     Z = (L + i zeta) / (L - i zeta),  L = sqrt(N / sqrt(2)),
# with p the polynomial whose coefficients (highest power first) follow.
# Its relative error in |w| is below 1e-15 (N = 32 reaches only 3e-13
# near the real axis).  tests/test_voigt.py regenerates the literals.
_WEIDEMAN_L = 5.3182958969449885
_WEIDEMAN_A = (
    -1.7356980998791865e-15, 1.201674910759281e-15, 1.1519170220749485e-14,
    -5.231716366324404e-15, -7.071088022159408e-14, 1.3778224047664046e-14,
    4.5341448909434655e-13, 1.203330952919568e-13, -2.90771851041427e-12,
    -2.7277735625830245e-12, 1.771418567386718e-11, 3.4727420938907015e-11,
    -9.055138860958323e-11, -3.5632350403602684e-10, 2.1085990731251058e-10,
    3.017780425551564e-09, 3.249746582945079e-09, -1.8315616834296834e-08,
    -6.351773483015411e-08, 1.419864237295343e-08, 5.912136953029057e-07,
    1.4835661133172014e-06, -1.066013898416273e-06, -1.8007447144723407e-05,
    -5.5913092642348794e-05, -3.939363145483805e-05, 0.000439807015986967,
    0.002705405633073729, 0.010048186242783535, 0.02920291647124188,
    0.07182361779074328, 0.15504263802479504, 0.2998943799615006,
    0.5266528988277086, 0.8472174576593815, 1.2563815675765133,
    1.7253830848179779, 2.201513794878312, 2.6160541527618597,
    2.899624509389705,
)
# Region split of log_re_faddeeva (see its docstring).
_ASYMPTOTIC_R2 = 49.0
_SMALL_Y = 0.5
_SMALL_Y_MIN_X = 2.0
_SERIES_TOL = 1e-17
_SERIES_MAX_TERMS = 64


def _weideman(x, y):
    d = complex(_WEIDEMAN_L + y, -x)  # L - i*zeta
    big_z = complex(_WEIDEMAN_L - y, x) / d
    p = 0j
    for c in _WEIDEMAN_A:
        p = p * big_z + c
    return 2.0 * p / (d * d) + _INV_SQRT_PI / d


def log_re_faddeeva(x, y):
    """log Re w(x + iy) for y > 0, where w(zeta) = exp(-zeta^2) erfc(-i zeta)
    is the Faddeeva function; Re w is even in x.

    Re w((z + i gamma) / sqrt(2)) / sqrt(2 pi) is the Voigt profile at z
    (a unit normal convolved with a Cauchy of half-width gamma).  Where
    Re w is far smaller than |w| (y small, x not), a rational
    approximation of w loses it, so there are three routes, each
    accurate to ~1e-13 relative:

    - |x + iy| >= 7: the asymptotic series
      w ~ i / (sqrt(pi) zeta) * sum_k (2k-1)!! / (2 zeta^2)^k, whose real
      part is a sum of nonnegative terms, taken in log space so neither
      y -> 0 nor y -> inf underflows; for y < 1 it is joined by the
      exp(-zeta^2) term that the series misses on the real axis.
    - y <= 0.5 and x >= 2: the real-axis split
      Re w = exp(y^2 - x^2) cos(2xy) - (2 / sqrt(pi)) Im F(x + iy), with
      Dawson's F(x) from the Weideman rational on the real axis and
      Im F(x + iy) from its Taylor series in iy, the derivatives by
      F^(k+1) = -2x F^(k) - 2k F^(k-1).
    - elsewhere the Weideman rational.
    """
    x = abs(x)
    if x * x + y * y >= _ASYMPTOTIC_R2:
        v = 1.0 / complex(x, y)
        u = v * v
        term = total = 1.0 + 0j
        for k in range(1, _SERIES_MAX_TERMS):
            term *= (k - 0.5) * u
            total += term
            if abs(term) <= _SERIES_TOL * abs(total):
                break
        # Re(i * total / zeta) * |zeta|^2; Im(total) <= 0, so no cancellation
        log_re = (math.log(y * total.real - x * total.imag)
                  - 2.0 * math.log(math.hypot(x, y)) - _LOG_SQRT_PI)
        if y < 1.0:
            log_re += math.log1p(math.cos(2.0 * x * y) * math.exp(y * y - x * x - log_re))
        return log_re
    if y <= _SMALL_Y and x >= _SMALL_Y_MIN_X:
        f_prev = 0.5 * _SQRT_PI * _weideman(x, 0.0).imag  # F(x)
        f = 1.0 - 2.0 * x * f_prev                        # F'(x)
        power = y                                         # +-y^k / k!
        im_f = f * y
        for k in range(1, 2 * _SERIES_MAX_TERMS, 2):
            f_prev, f = f, -2.0 * x * f - 2.0 * k * f_prev
            f_prev, f = f, -2.0 * x * f - 2.0 * (k + 1) * f_prev
            power *= -y * y / ((k + 1) * (k + 2))
            term = f * power
            im_f += term
            if abs(term) <= _SERIES_TOL * abs(im_f):
                break
        re_w = math.exp(y * y - x * x) * math.cos(2.0 * x * y) - 2.0 * _INV_SQRT_PI * im_f
        return math.log(re_w)
    return math.log(_weideman(x, y).real)
