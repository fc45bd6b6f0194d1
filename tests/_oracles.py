"""The H1 marginal likelihood by scipy's adaptive quadrature, a test
oracle that shares no code with the closed forms it is checked against:
the normal-prior BF01 formula and the Voigt (Faddeeva) marginal of the
Cauchy prior."""

import math

from scipy.integrate import quad

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def quad_log_bf01(z, n, family, scale):
    """log BF01 = log N(z; 0, 1) minus the log of the integral over mu of
    N(z; sqrt(n) mu, 1) * prior(mu; 0, scale), family "normal" or "cauchy".

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
