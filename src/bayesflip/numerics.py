"""Self-contained numerical layer: Brent's bracketed root finding.

Everything here is a pure function of its inputs and safe to call from
multiple threads.
"""

from __future__ import annotations

from collections.abc import Callable

from .errors import DomainError, MaxIterExceeded, NoSignChange

__all__ = ["find_root"]

# find_root's relative tolerance and iteration cap
_REL_TOL = 1e-12
_MAX_ITER = 200


def find_root(f: Callable[[float], float], lo: float, hi: float,
              abs_tol: float = 1e-14) -> float:
    """Root of f on [lo, hi] by Brent's method: inverse-quadratic and
    secant steps with a bisection fallback, so convergence is guaranteed
    for any continuous sign-changing f.

    Terminates when the enclosing interval narrows below
    max(abs_tol, 1e-12 * |x|); abs_tol is an absolute floor for roots
    near zero, and 0 stops on the relative width alone.  Any finite
    bracket is taken, even one wider than the largest float, and the
    result always lies inside it.  Raises DomainError unless lo < hi and
    abs_tol >= 0, NoSignChange if f(lo) and f(hi) have the same sign,
    MaxIterExceeded past 200 iterations.
    """
    if not lo < hi:
        raise DomainError(f"bracket requires lo < hi, got [{lo}, {hi}]")
    if not abs_tol >= 0.0:
        raise DomainError(f"abs_tol must be nonnegative, got {abs_tol}")
    a, b = lo, hi
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise NoSignChange(f"f({a}) = {fa} and f({b}) = {fb} have the same sign")

    c, fc = a, fa
    e = d = b - a
    for _ in range(_MAX_ITER):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 0.5 * max(abs_tol, _REL_TOL * abs(b))
        m = 0.5 * c - 0.5 * b  # c - b can overflow; halving a normal float is exact
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
    raise MaxIterExceeded(f"root not localized within {_MAX_ITER} iterations")
