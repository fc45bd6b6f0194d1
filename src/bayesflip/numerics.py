"""Self-contained numerical layer: bracketed root finding, the principal
branch of the Lambert W function, and the standard normal density and
distribution function.

Everything here is a pure function of its inputs and safe to call from
multiple threads.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from . import _kernels
from ._record import record
from .errors import DomainError, MaxIterExceeded, NoSignChange

__all__ = [
    "Bracket",
    "SolverConfig",
    "DEFAULT_CONFIG",
    "find_root",
    "lambert_w0",
    "std_normal_pdf",
    "std_normal_cdf",
    "log_std_normal_pdf",
]

_INV_E = math.exp(-1.0)
_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.9189385332046727
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class Bracket(record("Bracket", "lo hi")):
    """Solve interval [lo, hi].  The sign condition on the target
    function is checked at solve time, not here."""

    __slots__ = ()

    def __new__(cls, lo: float, hi: float):
        if not lo < hi:
            raise DomainError(f"bracket requires lo < hi, got [{lo}, {hi}]")
        return super().__new__(cls, lo, hi)


class SolverConfig(record("SolverConfig", "rel_tol abs_tol max_iter")):
    """Tolerances of find_root.

    rel_tol is dimensionless; abs_tol is an absolute floor for interval
    widths near zero; max_iter bounds root-finder iterations.
    """

    __slots__ = ()

    def __new__(cls, rel_tol: float = 1e-12, abs_tol: float = 1e-14, max_iter: int = 200):
        if not rel_tol > 0.0:
            raise DomainError(f"rel_tol must be positive, got {rel_tol}")
        if abs_tol < 0.0:
            raise DomainError(f"abs_tol must be nonnegative, got {abs_tol}")
        if max_iter < 1:
            raise DomainError(f"max_iter must be >= 1, got {max_iter}")
        return super().__new__(cls, rel_tol, abs_tol, max_iter)


DEFAULT_CONFIG = SolverConfig()


def find_root(f: Callable[[float], float], bracket: Bracket,
              cfg: SolverConfig = DEFAULT_CONFIG) -> float:
    """Root of f on the bracket by Brent's method: inverse-quadratic and
    secant steps with a bisection fallback, so convergence is guaranteed
    for any continuous sign-changing f.

    Terminates when the enclosing interval narrows below
    max(abs_tol, rel_tol * |x|); the result always lies inside the
    initial bracket.  Raises NoSignChange if f(lo) and f(hi) have the
    same sign, MaxIterExceeded past cfg.max_iter iterations.
    """
    a, b = bracket.lo, bracket.hi
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise NoSignChange(f"f({a}) = {fa} and f({b}) = {fb} have the same sign")

    c, fc = a, fa
    e = d = b - a
    for _ in range(cfg.max_iter):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 0.5 * max(cfg.abs_tol, cfg.rel_tol * abs(b))
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) < tol or abs(fa) <= abs(fb):
            e = d = m
        else:
            s = fb / fa
            if a == c:
                p = 2.0 * m * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            s, e = e, d
            if 2.0 * p < 3.0 * m * q - abs(tol * q) and p < abs(0.5 * s * q):
                d = p / q
            else:
                e = d = m
        a, fa = b, fb
        if tol < abs(d):
            b += d
        elif m > 0.0:
            b += tol
        else:
            b -= tol
        fb = f(b)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            e = d = b - a
    raise MaxIterExceeded(f"root not localized within {cfg.max_iter} iterations")


def lambert_w0(x: float) -> float:
    """Principal branch W0 of w * exp(w) = x on [-1/e, inf); W0 >= -1.
    Halley iteration stops once its step is below 1e-12 relative."""
    if math.isnan(x):
        raise DomainError("lambert_w0: x is nan")
    if x < -_INV_E:
        # tolerate a few ulps for callers that computed -1/e themselves
        if x < -_INV_E - 4e-17:
            raise DomainError(f"lambert_w0 domain is [-1/e, inf); got {x}")
        return -1.0
    try:
        return _kernels.lambert_w0(x)
    except ArithmeticError as exc:
        raise MaxIterExceeded(str(exc)) from None


def std_normal_pdf(x: float) -> float:
    """Standard normal density."""
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def log_std_normal_pdf(x: float) -> float:
    """Log of the standard normal density (no underflow for large |x|)."""
    return -_LOG_SQRT_2PI - 0.5 * x * x


def std_normal_cdf(x: float) -> float:
    """Standard normal distribution function, via erfc for tail accuracy."""
    return 0.5 * math.erfc(-x / _SQRT2)
