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


# Routes of log_re_faddeeva (see its docstring).  The trapezoidal rule
# takes the nodes |t| <= _TRAP_T: the next adds under 2e-17 relative.
_ASYMPTOTIC_R2 = 49.0
_SERIES_TOL = 1e-17
_H = 0.5
_TRAP_T = 6.5
_TWO_PI = 2.0 * math.pi
_H_OVER_PI = _H / math.pi


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
