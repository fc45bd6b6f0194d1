"""Self-contained numerical kernel: bracketed root finding, the
principal branch of the Lambert W function, adaptive quadrature over the
whole real line, and the standard normal density and distribution
function.

Densities and integrands are handled in log space internally and
exponentiated late, so large sample sizes or extreme z-statistics do not
underflow.  Everything here is a pure function of its inputs and safe to
call from multiple threads.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from ._kernels import pure as _pure
from ._record import record
from .bayes_factor import _check_sample_size
from .errors import ConvergenceError, DomainError, MaxIterExceeded, NoSignChange

__all__ = [
    "Bracket",
    "SolverConfig",
    "DEFAULT_CONFIG",
    "MarginalIntegrand",
    "find_root",
    "lambert_w0",
    "integrate_real_line",
    "marginal_log_integral",
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
    """Tolerances shared by the solvers and the quadrature.

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


def lambert_w0(x: float, cfg: SolverConfig = DEFAULT_CONFIG) -> float:
    """Principal branch W0 of w * exp(w) = x on [-1/e, inf); W0 >= -1."""
    if math.isnan(x):
        raise DomainError("lambert_w0: x is nan")
    if x < -_INV_E:
        # tolerate a few ulps for callers that computed -1/e themselves
        if x < -_INV_E - 4e-17:
            raise DomainError(f"lambert_w0 domain is [-1/e, inf); got {x}")
        return -1.0
    try:
        return _pure.lambert_w0(x, cfg.rel_tol, cfg.max_iter)
    except ArithmeticError as exc:
        raise MaxIterExceeded(str(exc)) from None


class MarginalIntegrand(record("MarginalIntegrand", "z n prior_family scale")):
    """The H1 marginal-likelihood integrand
    mu -> N(z; sqrt(n)*mu, 1) * prior(mu; 0, scale), with prior_family
    "normal" or "cauchy".

    It is an ordinary callable, but carries enough structure that
    integrate_real_line can route it to the log-space quadrature kernel
    and place split points that resolve both the likelihood spike and the
    prior body.
    """

    __slots__ = ()

    def __new__(cls, z: float, n: int, prior_family: str, scale: float):
        if prior_family not in ("normal", "cauchy"):
            raise DomainError(f"unknown prior family {prior_family!r}")
        _check_sample_size(n)
        if not scale > 0.0:
            raise DomainError(f"prior scale must be positive, got {scale}")
        return super().__new__(cls, z, n, prior_family, scale)

    @property
    def kind(self) -> int:
        return _pure.PRIOR_NORMAL if self.prior_family == "normal" else _pure.PRIOR_CAUCHY

    def __call__(self, mu: float) -> float:
        return math.exp(
            _pure.log_marginal_integrand(mu, self.z, math.sqrt(self.n), self.kind, self.scale)
        )


def marginal_log_integral(f: MarginalIntegrand,
                          cfg: SolverConfig = DEFAULT_CONFIG) -> float:
    """log of integrate_real_line(f) for a MarginalIntegrand, computed
    fully in log space by adaptive quadrature."""
    try:
        return _pure.marginal_loglik(f.z, float(f.n), f.kind, f.scale, cfg.rel_tol)
    except ArithmeticError as exc:
        raise ConvergenceError(str(exc)) from None


def integrate_real_line(f: Callable[[float], float],
                        cfg: SolverConfig = DEFAULT_CONFIG, *,
                        scale: float = 1.0,
                        breakpoints: tuple[float, ...] = ()) -> float:
    """Integral of a nonnegative f over the whole real line, with
    estimated relative error at most cfg.rel_tol.

    MarginalIntegrand instances take the kernel fast path.  Arbitrary
    callables go through the same log-space quadrature as log f: the line
    is split at ``breakpoints`` plus {-8*scale, 0, 8*scale}, finite pieces
    go through adaptive Simpson, and the two tails are mapped through
    mu = edge +- scale * tan(theta), which keeps Cauchy-weight tails
    integrable where plain truncation fails.  ``scale`` should match the
    width of the integrand's slowest-decaying factor.  Signed integrands
    are not supported.

    Raises DomainError naming mu where f(mu) is negative or NaN, and
    ConvergenceError when f is +inf on the scan grid or the error
    estimate cannot reach rel_tol within the subdivision budget.
    """
    if isinstance(f, MarginalIntegrand):
        return math.exp(marginal_log_integral(f, cfg))
    if not scale > 0.0:
        raise DomainError(f"scale must be positive, got {scale}")
    pts = {-8.0 * scale, 0.0, 8.0 * scale}
    pts.update(float(p) for p in breakpoints)
    points = sorted(pts)

    def log_f(mu: float) -> float:
        v = f(mu)
        if v > 0.0:
            return math.log(v)
        if v == 0.0:
            return -math.inf
        raise DomainError(f"integrand must be nonnegative, got f({mu!r}) = {v!r}")

    try:
        return math.exp(_pure.integrate_log(log_f, points, scale, points, cfg.rel_tol))
    except ArithmeticError as exc:
        raise ConvergenceError(str(exc)) from None


def std_normal_pdf(x: float) -> float:
    """Standard normal density."""
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def log_std_normal_pdf(x: float) -> float:
    """Log of the standard normal density (no underflow for large |x|)."""
    return -_LOG_SQRT_2PI - 0.5 * x * x


def std_normal_cdf(x: float) -> float:
    """Standard normal distribution function, via erfc for tail accuracy."""
    return 0.5 * math.erfc(-x / _SQRT2)
