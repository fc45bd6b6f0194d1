"""Flip-point machinery.

For |z| > 1 there is a unique prior precision k* > z^2 - 1 at which
BF01(z; k*) = 1, the solution of

    (1 + k) log(1 + k) = z^2 k.

Below k* the evidence favours H1, above it H0.  The module computes k*
by two independent routes (a bracketed root solve and the Lambert-W
closed form exp(W0(-z^2 e^{-z^2}) + z^2) - 1), exposes the strictly
increasing map phi(k) = (1+k) log(1+k) / k whose inverse at z^2 is k*,
converts k* to the critical prior standard deviation sqrt(k*/n), and
builds/validates scale pairs that reverse the direction of evidence.
"""

from __future__ import annotations

import math
from enum import Enum

from ._record import record
from .bayes_factor import (_DBL_MAX, _LOG_DBL_MAX, NEUTRAL_LOG_BAND, Direction, NormalPrior,
                           TestSetup, _check_sample_size, bf01, bf_argmin_k)
from .errors import ConvergenceError, DomainError, NoFlipPoint, NotAReversal
from ._kernels import _EXCESS_SERIES_X, _expm1_excess, log_neg_w0
from .numerics import find_root

__all__ = [
    "FlipMethod",
    "FlipPointResult",
    "ReversalPair",
    "phi",
    "phi_inverse",
    "flip_point",
    "tau_star",
    "reversal_pair",
    "validate_pair",
]


class FlipMethod(Enum):
    BRACKETED = "bracketed"
    LAMBERT_W = "lambert_w"


# |(1+k*) log(1+k*) - z^2 k*| must stay within this times z^2 * k*.
_RESIDUAL_BOUND = 1e-9

# Below this k, phi(k) - 1 comes from its Taylor series (truncation error
# below 1e-17 relative); above it the closed form loses at most ~1e-13.
_PHI_SERIES_K = 0.01


FlipPointResult = record(
    "FlipPointResult", "k_star residual method z",
    """Flip point k* with the residual of its characterizing equation and
    the method that produced it.""")

ReversalPair = record(
    "ReversalPair", "tau1 tau2 tau_star bf1 bf2",
    """Two prior scales bracketing tau* whose Bayes factors point in
    opposite directions on the same data.""")


def phi(k: float) -> float:
    """phi(k) = (1+k) log(1+k) / k: strictly increasing bijection from
    (0, inf) onto (1, inf), with phi(0+) = 1; finite for every finite k.
    It is 1 + ``_phi_minus_one(k)``, within 3e-16 of 50-digit mpmath."""
    if not 0.0 < k < math.inf:
        raise DomainError(f"phi domain is 0 < k < inf, got {k}")
    return 1.0 + _phi_minus_one(k)


def phi_inverse(y: float) -> float:
    """The k > 0 with phi(k) = y, for y > 1, in closed form (the flip
    point's, with z^2 = y): within 3.6e-15 of 50-digit mpmath over
    1 + 1e-9 <= y <= 709.5, with no root solve.

    Raises DomainError where that k overflows a float, for y above
    log(DBL_MAX) ~ 709.78 (phi of the largest float).
    """
    if not y > 1.0:
        raise DomainError(f"phi_inverse domain is y > 1, got {y}")
    if y > _LOG_DBL_MAX:
        raise DomainError(f"phi_inverse(y) overflows a float for y above "
                          f"{_LOG_DBL_MAX:.2f}; got y = {y}")
    return _lambert_k(y - 1.0)


def _phi_minus_one(k: float) -> float:
    """phi(k) - 1 for k > 0, without the cancellation of the closed form at
    small k and without overflow up to the largest float."""
    if k < _PHI_SERIES_K:
        # phi(k) - 1 = sum_{m >= 2} (-1)^m k^(m-1) / (m (m-1))
        return k * (1 / 2 - k * (1 / 6 - k * (1 / 12 - k * (1 / 20 - k * (
            1 / 30 - k * (1 / 42 - k * (1 / 56 - k / 72)))))))
    return (1.0 + k) / k * math.log1p(k) - 1.0


def _lambert_k(t: float) -> float:
    """The k > 0 with phi(k) = 1 + t, for 0 < t <= log(DBL_MAX) - 1:
    k = exp(W0(x) + 1 + t) - 1 at x = -(1+t) e^{-(1+t)}.

    With l = log(-W0), log(1 + k) = 1 + t + W0 = t - expm1(l), and log(-x)
    lies d = t - log1p(t) below the branch point's -1 (from the series of
    expm1(v) - v, v = log1p(t), where that cancels), so W0 is known to
    every digit however small t is.
    """
    v = math.log1p(t)
    ell = log_neg_w0(t - v if v >= _EXCESS_SERIES_X else _expm1_excess(v))
    return math.expm1(t - math.expm1(ell))


def flip_point(z: float, method: FlipMethod = FlipMethod.LAMBERT_W) -> FlipPointResult:
    """The unique k* > z^2 - 1 with BF01(z; k*) = 1; requires |z| > 1.

    The default, LAMBERT_W, is the closed form and the more accurate route
    (within 7e-14 of 50-digit k* over 1 + 1e-7 <= |z| <= 26.6, where the
    bracketed route is within 2.9e-13); BRACKETED is the independent second
    route.  LAMBERT_W evaluates exp(W0(-z^2 e^{-z^2}) + z^2) - 1; the
    principal branch picks out the nontrivial root (W-1 only recovers
    k = 0).  It takes W0 from the distance of log(z^2 e^{-z^2}) below the
    branch point's -1, which it knows to every digit however close |z| is
    to 1; phi_inverse(y) is the same closed form at z^2 = y, within 3.6e-15
    of 50-digit mpmath.  BRACKETED solves phi(k) - 1 = z^2 - 1 by
    find_root: the flip equation (1+k) log(1+k) = z^2 k divided by k, with
    both sides formed so they stay accurate as z -> 1.  Both routes raise
    DomainError where k* is not a finite float, |z| above about 26.64, and
    for a non-finite z; a method that is not a FlipMethod member is a
    DomainError too.
    """
    if not math.isfinite(z):
        raise DomainError(f"z-statistic must be finite, got z = {z}")
    z2 = z * z
    # log(1 + k*) = z^2 + W0 with |W0| < 1e-300 wherever z^2 is near
    # log(DBL_MAX), so testing z^2 alone decides the overflow for both routes
    if z2 > _LOG_DBL_MAX:
        raise DomainError(f"k* overflows a float (log(1 + k*) > {_LOG_DBL_MAX:.2f}, "
                          f"i.e. |z| > {math.sqrt(_LOG_DBL_MAX):.3f}); got z = {z}")
    z2m1 = bf_argmin_k(z)  # k* lies above the Bayes-factor minimum
    if z2m1 is None:
        raise NoFlipPoint(f"|z| must exceed 1 for a flip point (BF01 >= 1 for all k); "
                          f"got z = {z}")
    if method is FlipMethod.LAMBERT_W:
        k_star = _lambert_k(z2m1)
    elif method is FlipMethod.BRACKETED:
        # log(1+k) < phi(k) < log(1+k) + 1 brackets the root before any
        # evaluation; k* > z^2 - 1 > 0, so a relative width alone stops it
        hi = math.expm1(z2m1 + 1.5) if z2m1 + 1.5 < _LOG_DBL_MAX else _DBL_MAX
        k_star = find_root(lambda k: _phi_minus_one(k) - z2m1, math.expm1(z2m1), hi,
                           abs_tol=0.0)
    else:
        raise DomainError(f"method must be a FlipMethod, got {method!r}")
    # (1+k) log(1+k) - z^2 k = k (phi(k) - z^2), formed so it cannot overflow
    gap = _phi_minus_one(k_star) - z2m1
    residual = k_star * gap
    if not k_star > z2m1 or abs(gap) > _RESIDUAL_BOUND * z2:
        raise ConvergenceError(
            f"flip point failed validation: k* = {k_star}, residual = {residual}"
        )
    return FlipPointResult(k_star=k_star, residual=residual, method=method, z=z)


def tau_star(k_star: float, n: int) -> float:
    """Critical prior standard deviation sqrt(k*/n) for sample size n."""
    if not 0.0 < k_star < math.inf:
        raise DomainError(f"k_star must be positive and finite, got {k_star}")
    _check_sample_size(n)
    return math.sqrt(k_star / n)


def _check_pair(setup: TestSetup, ts: float, tau1: float,
                tau2: float) -> tuple[ReversalPair, list[str]]:
    """The pair (tau1, tau2) about tau* = ts with its Bayes factors, and
    which of tau1 < tau* < tau2, BF01(tau1) < 1 < BF01(tau2) it fails."""
    r1 = bf01(setup, NormalPrior(tau1))
    r2 = bf01(setup, NormalPrior(tau2))
    problems = []
    if not tau1 < ts:
        problems.append(f"tau1 = {tau1:g} is not below tau* = {ts:.6g}")
    if not ts < tau2:
        problems.append(f"tau2 = {tau2:g} is not above tau* = {ts:.6g}")
    if r1.direction is not Direction.FAVOURS_H1:
        problems.append(f"BF01(tau1) = {r1.bf01:.6g} does not favour H1")
    if r2.direction is not Direction.FAVOURS_H0:
        problems.append(f"BF01(tau2) = {r2.bf01:.6g} does not favour H0")
    return ReversalPair(tau1=tau1, tau2=tau2, tau_star=ts, bf1=r1.bf01, bf2=r2.bf01), problems


def reversal_pair(setup: TestSetup, spread: float = 0.5) -> ReversalPair:
    """A pair of prior scales about tau* whose Bayes factors point in
    opposite directions on identical data: bf1 < 1 < bf2, both outside the
    neutral band.

    Two candidates are checked, at most 4 Bayes factors.  The first is the
    symmetric multiplicative pair tau* (1 - spread), tau* / (1 - spread).
    Where it is not strict, the second is the strongest reversal the data
    allow: the scale of the Bayes-factor minimum k = z^2 - 1 and its mirror
    tau*^2 / tau1 about tau*.  Either tau2 is capped where n tau2^2 stays
    a float.  Raises NotAReversal when the second pair fails too, as it
    does wherever BF01 at its minimum lies inside the neutral band (|z|
    within about 1e-6 of 1).
    """
    if not 0.0 < spread < 1.0:
        raise DomainError(f"spread must lie in (0, 1), got {spread}")
    n = setup.n
    ts = tau_star(flip_point(setup.z).k_star, n)
    tau_min = math.sqrt(bf_argmin_k(setup.z) / n)
    shrink = 1.0 - spread
    for tau1, tau2 in ((ts * shrink, ts / shrink), (tau_min, ts * (ts / tau_min))):
        if not n * tau2 * tau2 < math.inf:
            # 1 - 2^-50 leaves room for the roundings between the cap and n tau^2
            tau2 = math.sqrt(_DBL_MAX / n) * (1.0 - 2.0 ** -50)
        pair, problems = _check_pair(setup, ts, tau1, tau2)
        if not problems:
            return pair
    raise NotAReversal(f"no reversal pair for z = {setup.z} outside the neutral band "
                       f"|log BF01| <= {NEUTRAL_LOG_BAND:g}: " + "; ".join(problems))


def validate_pair(setup: TestSetup, tau1: float, tau2: float) -> ReversalPair:
    """Check that (tau1, tau2) is a legal reversal pair for the data:
    tau1 < tau* < tau2 with BF01(tau1) < 1 < BF01(tau2).

    Raises NotAReversal naming every condition that failed.
    """
    if not tau1 > 0.0 or not tau2 > 0.0:
        raise DomainError(f"prior scales must be positive, got ({tau1}, {tau2})")
    ts = tau_star(flip_point(setup.z).k_star, setup.n)
    pair, problems = _check_pair(setup, ts, tau1, tau2)
    if problems:
        raise NotAReversal("; ".join(problems))
    return pair
