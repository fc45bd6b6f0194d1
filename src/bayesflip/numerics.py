"""Self-contained root finding: false position (Anderson-Bjorck) with a
bisection guard.  Pure functions of their inputs, safe from any thread.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Callable

from .errors import DomainError, MaxIterExceeded, NoSignChange

__all__ = ["find_root"]

# find_root's relative tolerance and iteration cap
_REL_TOL = 1e-12
_MAX_ITER = 200
_SIGN = -(1 << 63)  # a negative float whose bits read as int64 i has ordinal _SIGN - i


def _midpoint(a: float, b: float) -> float:
    """The arithmetic midpoint of a and b where they share a sign within a
    factor of 4; elsewhere the midpoint of their IEEE-754 ordinals (the
    integer order of their bit patterns), which halves the count of floats
    between them, so that bisection closes any finite bracket in 64 steps."""
    if (a > 0.0) == (b > 0.0) and 0.25 * abs(b) <= abs(a) <= 4.0 * abs(b):
        return b + (0.5 * a - 0.5 * b)  # a - b can overflow; halving a normal float is exact
    oa, ob = struct.unpack("<2q", struct.pack("<2d", a, b))
    o = ((oa if oa >= 0 else _SIGN - oa) + (ob if ob >= 0 else _SIGN - ob)) // 2
    return struct.unpack("<d", struct.pack("<q", o if o >= 0 else _SIGN - o))[0]


def find_root(f: Callable[[float], float], lo: float, hi: float,
              abs_tol: float = 1e-14) -> float:
    """Root of f on [lo, hi] by false position with the Anderson-Bjorck
    weight (BIT 13:253, 1973); a step not below half the one before last
    is a bisection in float order (``_midpoint``) instead, so any
    continuous sign-changing f converges, also across many binades.

    Stops when the enclosing interval narrows below max(abs_tol, 1e-12 *
    |x|), or to two adjacent floats, and returns the end with the smaller
    |f|; abs_tol is an absolute floor for roots near zero, and 0 stops on
    the relative width alone.  Any finite bracket is taken, even one wider
    than the largest float, and the result always lies inside it.  Raises
    DomainError unless lo < hi and abs_tol >= 0, NoSignChange if f(lo)
    and f(hi) have the same sign, MaxIterExceeded past 200 iterations.
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

    step = prev_step = math.inf  # |c - b| one and two steps back
    for _ in range(_MAX_ITER):
        tol = 0.5 * max(abs_tol, _REL_TOL * abs(b))
        m = 0.5 * a - 0.5 * b  # a - b can overflow; halving a normal float is exact
        # b may be the point taken tol past the root; adjacent ends can close
        # no further, where tol is below the spacing of subnormals
        if abs(m) <= tol or math.nextafter(b, a) == a:
            return b if abs(fb) <= abs(fa) else a
        # false position, formed from the end with the smaller |f| so that it
        # does not round away, and at least tol from b so the bracket closes
        r = fa / fb  # < 0: fb is never 0 here
        if r == -1.0:  # f saturates at both ends: bisect in float order
            c = _midpoint(a, b)
        elif r < -1.0:
            c = b + 2.0 * m / (1.0 - r)
        else:
            c = a - 2.0 * m * (r / (r - 1.0))
        if not abs(c - b) >= tol:
            c = b + math.copysign(tol, m)
        if not (a < c < b or b < c < a) or not abs(c - b) <= 0.5 * prev_step:
            c = _midpoint(a, b)
        step, prev_step = abs(c - b), step
        fc = f(c)
        if fc == 0.0:
            return c
        if (fc > 0.0) != (fb > 0.0):
            a, fa = b, fb
        else:  # a is kept: scale fa, halving it where the weight is not positive
            g = 1.0 - fc / fb
            fa *= g if g > 0.0 else 0.5
        b, fb = c, fc
    raise MaxIterExceeded(f"root not localized within {_MAX_ITER} iterations")
