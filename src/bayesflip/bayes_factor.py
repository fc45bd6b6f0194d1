"""Closed-form Bayes factor for the normal point-null model with known
unit variance.

With z = sqrt(n) * xbar and k = n * tau^2 (the prior precision relative
to the data), the Bayes factor in favour of the null is

    BF01(z; k) = sqrt(1 + k) * exp(-z^2 k / (2 (1 + k))),

computed in log space throughout.  The module also carries the exact
log-derivative in k, the location of the Bayes-factor minimum, the
posterior probability of the null, and two-sided p-values.
"""

from __future__ import annotations

import math
import operator
import sys
from enum import Enum

from ._record import record
from .errors import DomainError

__all__ = [
    "Direction",
    "TestSetup",
    "NormalPrior",
    "BayesFactorResult",
    "NEUTRAL_LOG_BAND",
    "log_bf01",
    "bf01",
    "dlogbf_dk",
    "bf_argmin_k",
    "posterior_prob_h0",
    "two_sided_p",
]

_SQRT2 = math.sqrt(2.0)

# |log BF| at or below this counts as a tie: exact BF = 1 is measure-zero,
# but float comparisons need a band.
NEUTRAL_LOG_BAND = 1e-12

_DBL_MAX = sys.float_info.max
# the largest log BF01 whose BF01 is a float: exp of anything above overflows
_LOG_DBL_MAX = math.log(_DBL_MAX)


def _check_sample_size(n: int) -> None:
    """Raise DomainError unless n is an integer >= 1 (bool excluded) that
    fits in a float."""
    try:
        ok = not isinstance(n, bool) and operator.index(n) >= 1
    except TypeError:
        ok = False
    if not ok:
        raise DomainError(f"sample size must be an integer >= 1, got {n!r}")
    if n > _DBL_MAX:  # exact: an int and a float compare by value
        raise DomainError(f"sample size n must fit in a float (at most {_DBL_MAX:g}), "
                          f"got a {n.bit_length()}-bit integer")


class Direction(Enum):
    """Which hypothesis the Bayes factor favours."""

    FAVOURS_H1 = "favours_h1"
    NEUTRAL = "neutral"
    FAVOURS_H0 = "favours_h0"

    def __str__(self) -> str:
        return self.value


class TestSetup(record("TestSetup", "n z")):
    """Data summary: sample size n and z-statistic z = sqrt(n) * xbar,
    under a model whose known standard deviation is 1."""

    __slots__ = ()
    __test__ = False  # bare data, despite the Test* name pytest looks for

    def __new__(cls, n: int, z: float):
        _check_sample_size(n)
        if not math.isfinite(z):
            raise DomainError(f"z-statistic must be finite, got {z}")
        return tuple.__new__(cls, (n, z))

    @property
    def xbar(self) -> float:
        """Sample mean implied by the z-statistic: z / sqrt(n)."""
        return self.z / math.sqrt(self.n)

    @classmethod
    def from_sample_mean(cls, n: int, xbar: float) -> "TestSetup":
        _check_sample_size(n)  # before sqrt(n), which fails untyped for a bad n
        return cls(n=n, z=math.sqrt(n) * xbar)


class NormalPrior(record("NormalPrior", "tau")):
    """Zero-centred normal prior on the mean under H1, standard deviation tau."""

    __slots__ = ()

    def __new__(cls, tau: float):
        if not 0.0 < tau < math.inf:
            raise DomainError(f"tau must be positive and finite, got {tau}")
        return tuple.__new__(cls, (tau,))

    def k(self, setup: TestSetup) -> float:
        """Derived prior precision relative to the data: n * tau^2.  Raises
        DomainError, naming n and tau, where that overflows a float."""
        k = setup.n * self.tau * self.tau
        if not k < math.inf:
            raise DomainError(f"k must be nonnegative and finite, got {k} = n tau^2 "
                              f"for n = {setup.n}, tau = {self.tau}")
        return k


_NEUTRAL, _FAVOURS_H1, _FAVOURS_H0 = Direction.NEUTRAL, Direction.FAVOURS_H1, Direction.FAVOURS_H0


class BayesFactorResult(record("BayesFactorResult", "bf01 log_bf01 direction")):
    """BF01 with its natural log and the direction of evidence."""

    __slots__ = ()

    @staticmethod
    def from_log(log_bf: float) -> BayesFactorResult:
        """The result for log BF01: BF01 underflows to 0.0 below about -745,
        and a log BF01 above log(DBL_MAX) ~ 709.78 raises DomainError."""
        if abs(log_bf) <= NEUTRAL_LOG_BAND:
            direction = _NEUTRAL
        elif log_bf < 0.0:
            direction = _FAVOURS_H1
        elif log_bf > 0.0:
            if log_bf > _LOG_DBL_MAX:
                raise DomainError(f"BF01 overflows a float: log BF01 = {log_bf!r} is above "
                                  f"log(DBL_MAX) = {_LOG_DBL_MAX!r}")
            direction = _FAVOURS_H0
        else:  # only nan fails all three comparisons
            raise DomainError("log BF01 is nan")
        # the fields need no check: skip the namedtuple's Python __new__
        return tuple.__new__(BayesFactorResult, (math.exp(log_bf), log_bf, direction))

    def posterior_h0(self, pi0: float = 0.5) -> float:
        """Posterior probability of the null at prior probability pi0:
        ``posterior_prob_h0(bf01, pi0)``, or, where BF01 underflowed to
        0.0, exp(log BF01 + log(pi0 / (1 - pi0))), which is the same to
        rounding there (pi0 BF01 is far below 1 - pi0 >= 2^-53)."""
        if self.bf01 > 0.0:
            return posterior_prob_h0(self.bf01, pi0)
        _check_pi0(pi0)
        return math.exp(self.log_bf01 + math.log(pi0) - math.log1p(-pi0))


def log_bf01(z: float, k: float) -> float:
    """log BF01(z; k) = 0.5*log(1+k) - z^2 k / (2 (1+k)).

    Equals 0 at k = 0 for every z whose z^2 is a float; DomainError, naming
    z, where it is not finite, as wherever z^2 overflows (|z| > ~1.34e154).
    """
    if not 0.0 <= k < math.inf:
        raise DomainError(f"k must be nonnegative and finite, got {k}")
    # k / (1 + k) is finite for every finite k; z^2 k and 2 (1 + k) are not
    log_bf = 0.5 * math.log1p(k) - 0.5 * z * z * (k / (1.0 + k))
    if not math.isfinite(log_bf):
        raise DomainError(f"log BF01 is not a finite float for z = {z}, k = {k}")
    return log_bf


def bf01(setup: TestSetup, prior: NormalPrior) -> BayesFactorResult:
    """Bayes factor in favour of the null for the given data and prior."""
    return BayesFactorResult.from_log(log_bf01(setup.z, prior.k(setup)))


def dlogbf_dk(z: float, k: float) -> float:
    """Exact derivative of log BF01 in k: ((1+k) - z^2) / (2 (1+k)^2).

    Negative at k = 0 when |z| > 1, zero at k = z^2 - 1.  DomainError for
    a negative k, and naming z where z^2 overflows or the slope is not finite.
    """
    if k < 0.0:
        raise DomainError(f"k must be nonnegative, got {k}")
    kp1 = 1.0 + k
    # divided by 1 + k twice: (1 + k)^2 overflows from k ~ 9.5e153 on
    slope = 0.5 * (kp1 - z * z) / kp1 / kp1
    if not math.isfinite(slope):
        raise DomainError(f"dlogBF01/dk is not a finite float for z = {z}, k = {k}")
    return slope


def bf_argmin_k(z: float) -> float | None:
    """Location k = (|z| - 1)(|z| + 1) = z^2 - 1 of the Bayes-factor minimum
    when |z| > 1, within 2.5e-16 of 50-digit mpmath even near |z| = 1; None
    when |z| <= 1 (BF01 is nondecreasing on k >= 0).  Raises DomainError,
    naming z, for a non-finite z or one whose z^2 overflows."""
    a = abs(z)
    if a <= 1.0:
        return None
    k = (a - 1.0) * (a + 1.0)
    if not k < math.inf:  # nan fails too
        raise DomainError(f"z^2 - 1 is not a finite float for z = {z}")
    return k


def posterior_prob_h0(bf: float, pi0: float = 0.5) -> float:
    """Posterior probability of the null:
    pi0 * BF01 / (pi0 * BF01 + 1 - pi0).

    Under zero-one loss the decision flips exactly where BF01 crosses 1
    (at pi0 = 1/2), so the flip point moves the decision, not just the
    evidence summary.
    """
    if not 0.0 < bf < math.inf:
        raise DomainError(f"bf01 must be positive and finite, got {bf}")
    _check_pi0(pi0)
    return pi0 * bf / (pi0 * bf + 1.0 - pi0)


def _check_pi0(pi0: float) -> None:
    if not 0.0 < pi0 < 1.0:
        raise DomainError(f"pi0 must lie in (0, 1), got {pi0}")


def two_sided_p(z: float) -> float:
    """Two-sided p-value 2 * (1 - Phi(|z|)) of a finite z, via erfc."""
    if not math.isfinite(z):
        raise DomainError(f"z-statistic must be finite, got {z}")
    return math.erfc(abs(z) / _SQRT2)
