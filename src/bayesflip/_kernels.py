"""The numerical kernels, in pure Python.

``log_re_faddeeva`` is the hot kernel: the closed-form Voigt marginal
behind every Cauchy-prior Bayes factor, flip-scale search and sweep.
``log_neg_w0`` is the principal branch of the Lambert W function in log
space, behind the normal-prior flip point.

``log_re_faddeeva`` takes every finite x and every y > 0;
``log_neg_w0`` checks its own domain and raises the package's exceptions.
"""

import math
from bisect import bisect_left

from .errors import DomainError, MaxIterExceeded

_SQRT_PI = 1.7724538509055159
_INV_SQRT_PI = 0.5641895835477563
_LOG_SQRT_PI = 0.5723649429247
# expm1(x) - x comes from its Taylor series (``_expm1_excess``) where |x|
# is below this, since the difference cancels there
_EXCESS_SERIES_X = 0.25
# a Newton step below 2^-27 relative leaves at most 2^-55 (the convergence
# is quadratic, with constant at most 1/2 in relative terms)
_W0_STEP_TOL = 2.0 ** -27
_W0_MAX_STEPS = 8


def _expm1_excess(x: float) -> float:
    """expm1(x) - x for |x| < 1/4, by its Taylor series to x^13 / 13!
    (the first omitted term is below 2e-18 relative)."""
    return x * x * (1 / 2 + x * (1 / 6 + x * (1 / 24 + x * (1 / 120 + x * (1 / 720 + x * (
        1 / 5040 + x * (1 / 40320 + x * (1 / 362880 + x * (1 / 3628800 + x * (
            1 / 39916800 + x * (1 / 479001600 + x / 6227020800)))))))))))


def log_neg_w0(d: float) -> float:
    """log(-W0(x)) for x = -exp(-1 - d), i.e. for log(-x) a distance d >= 0
    below log(1/e); W0 >= -1 is the principal branch of w e^w = x.

    Taking the argument as d keeps every digit near the branch point
    x = -1/e (d = 0, W0 = -1), where x itself would round them away, and
    never underflows for tiny -x.  With l = log(-W0), w e^w = x reads
    expm1(l) - l = d, whose root l <= 0 is found by Newton's method from
    -sqrt(2d) - d/3 below d = 1 (the branch-point series; Corless et al.,
    Adv. Comput. Math. 5:329, 1996, sec. 4) and from -1 - d (the
    asymptote) above it; expm1(l) - l comes from its own series where
    |l| < 1/4.  The iterates approach the root from below after the first
    step and stop once a step is under 2^-27 relative: at most 4 steps
    over [5e-324, 1e300], within 4.2e-16 of mpmath.  Raises DomainError
    for a negative, infinite or nan d, MaxIterExceeded past 8 steps.
    """
    if not 0.0 <= d < math.inf:  # nan fails too
        raise DomainError(f"log_neg_w0 domain is 0 <= d < inf; got d = {d}")
    if d < 1.0:
        ell = -math.sqrt(2.0 * d) - d / 3.0
        if d < 1e-16:  # the start, off by about d / 18 relative, is exact
            return ell
    else:
        ell = -1.0 - d
    for _ in range(_W0_MAX_STEPS):
        em1 = math.expm1(ell)
        step = ((em1 - ell if ell <= -_EXCESS_SERIES_X else _expm1_excess(ell)) - d) / em1
        ell -= step
        if abs(step) <= _W0_STEP_TOL * -ell:
            return ell
    raise MaxIterExceeded(f"log_neg_w0 did not converge at d = {d}")


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


def _goertzel(coeffs, a, b):
    """(b_0, b_1) of the Goertzel (Clenshaw) recurrence
    b_j = c_j + 2a b_{j+1} - (a a + b b) b_{j+2} over real coefficients c,
    highest power first: their polynomial at t = a + ib is b_0 - conj(t) b_1.
    |t|^2 is a*a + b*b from a and b as they are used, so the quadratic the
    recurrence divides by vanishes at t to one rounding; a |t|^2 rounded
    apart doubles the error near t = 1."""
    p, q = a + a, a * a + b * b
    b0 = b1 = 0.0
    for c in coeffs:
        b0, b1 = c + p * b0 - q * b1, b0
    return b0, b1


def _weideman(x, y):
    """(Re w, Im w) at x + iy from the Weideman rational, in real
    arithmetic: with s = L + y and m = s^2 + x^2, 1 / (L - i zeta) is
    (s + ix) / m and Z = ((L - y) s - x^2 + 2iLx) / m."""
    s = _WEIDEMAN_L + y
    m = s * s + x * x
    gr, gi = s / m, x / m
    u, v = ((_WEIDEMAN_L - y) * s - x * x) / m, 2.0 * _WEIDEMAN_L * gi
    b0, b1 = _goertzel(_WEIDEMAN_A, u, v)
    pr, pi = b0 - u * b1, v * b1  # p(Z)
    sr, si = (gr - gi) * (gr + gi), 2.0 * gr * gi  # 1 / (L - i zeta)^2
    return (2.0 * (pr * sr - pi * si) + _INV_SQRT_PI * gr,
            2.0 * (pr * si + pi * sr) + _INV_SQRT_PI * gi)


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
      exp(-zeta^2) term that the series misses on the real axis.  Terms
      0..K are summed by ``_goertzel`` over precomputed coefficients, K
      bisected from r^2 = x^2 + y^2 in a table of thresholds past which
      the first omitted term is at most 1e-17 (``_asymptotic_tables``).
    - y <= 0.5 and x >= 2: the real-axis split
      Re w = exp(y^2 - x^2) cos(2xy) - (2 / sqrt(pi)) Im F(x + iy), with
      Dawson's F(x) from the Weideman rational on the real axis and
      Im F(x + iy) from its Taylor series in iy, the derivatives by
      F^(k+1) = -2x F^(k) - 2k F^(k-1).
    - elsewhere the Weideman rational (``_weideman``), its polynomial
      summed by the same ``_goertzel``.
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
    if y <= _SMALL_Y and x >= _SMALL_Y_MIN_X:
        f_prev = 0.5 * _SQRT_PI * _weideman(x, 0.0)[1]  # F(x)
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
    return math.log(_weideman(x, y)[0])
