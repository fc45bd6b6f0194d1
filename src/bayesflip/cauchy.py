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
from .numerics import find_root

__all__ = ["CauchyPrior", "Z_CRIT", "bf01_cauchy", "cauchy_flip_scale"]

# sqrt(2) * x0, with x0 the root of 2 x F(x) = 1 (F Dawson's function)
Z_CRIT = 1.306929727719281

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2_OVER_PI = 0.5 * math.log(2.0 / math.pi)
# gamma* = gamma_a * exp(-(z^2 + 1) / gamma_a^2 + ...), and from gamma_a =
# 1e10 on the correction is below 5e-19: gamma_a is gamma* in double
# precision.
_LOG_GAMMA_ASYMPTOTIC = math.log(1e10)
_MAX_BRACKET_STEPS = 64


class CauchyPrior(record("CauchyPrior", "r")):
    """Zero-centred Cauchy prior on the mean with scale r."""

    __slots__ = ()

    def __new__(cls, r: float):
        if not 0.0 < r < math.inf:
            raise DomainError(f"Cauchy scale must be positive and finite, got {r}")
        return super().__new__(cls, r)


def _log_bf01_voigt(z: float, gamma: float) -> float:
    x = abs(z) / _SQRT2
    return -x * x - log_re_faddeeva(x, gamma / _SQRT2)


def bf01_cauchy(setup: TestSetup, prior: CauchyPrior) -> BayesFactorResult:
    """Bayes factor in favour of the null under the Cauchy prior, from the
    closed-form Voigt marginal."""
    gamma = math.sqrt(setup.n) * prior.r
    if gamma == math.inf:
        raise DomainError(f"sqrt(n) * r overflows a float (n = {setup.n}, r = {prior.r})")
    log_bf = _log_bf01_voigt(setup.z, gamma)
    if not math.isfinite(log_bf):  # z^2 / 2 overflows
        raise DomainError(f"log BF01 is not a finite float for z = {setup.z}, r = {prior.r}")
    return BayesFactorResult.from_log(log_bf)


def cauchy_flip_scale(setup: TestSetup) -> float:
    """The Cauchy scale r* at which BF01 crosses 1 from below as r grows.

    Solves log BF01 = 0 for gamma* = sqrt(n)*r* in s = log(gamma /
    gamma_a), where gamma_a = sqrt(2/pi) exp(z^2/2) is the large-gamma
    asymptote of gamma*.  log BF01 > 0 at gamma_a (Re w < 1/(sqrt(pi) y)
    for every y), and below gamma* it is negative down to gamma -> 0, so
    stepping s down from 0 by 1 brackets the root.  From gamma_a = 1e10 on,
    gamma_a is gamma* to double precision and is returned as is.

    Just above Z_CRIT log BF01 dips below 0 only by ~(|z| - Z_CRIT)^2, so
    the relative error of r* grows like 1e-16 / (|z| - Z_CRIT)^2: it is
    below 1e-10 from |z| = 1.3072 on and 5e-4 at |z| = 1.30693.

    Raises NoFlipPoint for |z| <= Z_CRIT, where BF01 >= 1 at every r;
    ConvergenceError when |z| is so close above Z_CRIT that log BF01 < 0
    is lost to rounding; DomainError when r* overflows a float.
    """
    z = abs(setup.z)
    if not z > Z_CRIT:
        raise NoFlipPoint(
            f"no Cauchy flip scale for |z| = {z} <= {Z_CRIT}: BF01 >= 1 at every r")
    log_gamma_a = 0.5 * z * z + _LOG_SQRT_2_OVER_PI
    log_gamma = log_gamma_a
    if log_gamma_a < _LOG_GAMMA_ASYMPTOTIC:
        gamma_a = math.exp(log_gamma_a)

        def f(s: float) -> float:
            return _log_bf01_voigt(z, gamma_a * math.exp(s))

        lo = 0.0
        while not f(lo) < 0.0:
            lo -= 1.0
            if lo < -_MAX_BRACKET_STEPS:
                raise ConvergenceError(
                    f"log BF01 does not resolve below 0 for |z| = {z}, too close to {Z_CRIT}")
        log_gamma += find_root(f, lo, lo + 1.0)
    log_r = log_gamma - 0.5 * math.log(setup.n)
    if log_r > _LOG_DBL_MAX:
        raise DomainError(
            f"Cauchy flip scale r* = exp({log_r:.6g}) overflows a float "
            f"for z = {setup.z}, n = {setup.n}")
    return math.exp(log_r)
