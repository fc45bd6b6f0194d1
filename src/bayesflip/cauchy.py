"""Bayes factors for a zero-centred Cauchy prior on the mean, showing that
flip behaviour is not an artifact of the normal prior.

The Cauchy scale prior sits directly on mu with sigma = 1, so mu
coincides with the standardized effect size, and with gamma = sqrt(n)*r
the H1 marginal of z is a Voigt profile: a unit normal convolved with a
Cauchy of half-width gamma.  In closed form,

    log BF01 = -z^2/2 - log Re w((|z| + i*gamma) / sqrt(2)),

with w the Faddeeva function (kernel ``log_re_faddeeva``).  BF01
depends on n and r only through gamma, so the flip scale solves for
gamma* = sqrt(n)*r*, a function of z alone, in log gamma.  A flip exists
exactly when |z| > Z_CRIT = sqrt(2)*x0, where x0 maximises Dawson's
function: below it BF01 >= 1 for every r.
"""

from __future__ import annotations

import math

from ._kernels import log_re_faddeeva
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
    log BF01 (z^2/2 overflows) or BF01 is not a finite float.
    """
    return BayesFactorResult.from_log(_log_bf01(setup.z, setup.n, prior.r))


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
