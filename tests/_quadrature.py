"""Adaptive real-line quadrature of the H1 marginal likelihood, kept as a
test oracle: it shares no code with the closed forms it is checked
against (the normal BF01 formula and the Voigt/Faddeeva marginal).

The marginal is integrated in log space over the whole real line.  Split
points isolate the likelihood spike and the prior body, finite pieces go
through adaptive Simpson with Richardson acceptance, and the two tails
are mapped through mu = edge +- scale * tan(theta), which keeps
Cauchy-weight tails integrable where plain truncation fails.  The
estimated relative error is at most REL_TOL.
"""

import math

from bayesflip._record import record
from bayesflip.bayes_factor import BayesFactorResult, _check_sample_size
from bayesflip.errors import ConvergenceError, DomainError

REL_TOL = 1e-12

PRIOR_NORMAL = 0
PRIOR_CAUCHY = 1

_LOG_SQRT_2PI = 0.9189385332046727
_LOG_PI = 1.1447298858494002
_TINY = 1e-300
# tan is finite in float64 at pi/2, so tail pieces can include the endpoint
_THETA_HI = math.pi / 2.0
_MIN_DEPTH = 5
_MAX_DEPTH = 48


def log_std_normal_pdf(x):
    """Log of the standard normal density (no underflow for large |x|)."""
    return -_LOG_SQRT_2PI - 0.5 * x * x


def log_marginal_integrand(mu, z, sqrt_n, kind, scale):
    """Log of N(z; sqrt(n)*mu, 1) times the prior density at mu.

    The Cauchy branch splits log(scale^2 + mu^2) so neither factor can
    underflow for extreme scales.
    """
    d = z - sqrt_n * mu
    ll = -_LOG_SQRT_2PI - 0.5 * d * d
    if kind == PRIOR_NORMAL:
        t = mu / scale
        return ll - _LOG_SQRT_2PI - math.log(scale) - 0.5 * t * t
    a = abs(mu)
    if a > scale:
        t = scale / a
        lsq = 2.0 * math.log(a) + math.log1p(t * t)
    else:
        t = a / scale
        lsq = 2.0 * math.log(scale) + math.log1p(t * t)
    return ll + math.log(scale) - _LOG_PI - lsq


def _shifted_exp(e):
    # the shift candidates should make e <= 0 near the max; clamp defensively
    if e > 700.0:
        e = 700.0
    return math.exp(e)


def adaptive_simpson(g, a, b, eps):
    """Adaptive Simpson with Richardson acceptance on [a, b].

    Returns (value, error_estimate, converged); eps is the absolute
    error budget for the interval and halves on each split.  Every piece
    is split at least _MIN_DEPTH times before it may be accepted: on a
    coarse piece the two Simpson estimates can agree by chance while
    both are wrong.  No piece is split more than _MAX_DEPTH times.
    """
    fa = g(a)
    fb = g(b)
    m = 0.5 * (a + b)
    fm = g(m)
    whole = (b - a) * (fa + 4.0 * fm + fb) / 6.0
    return _simpson_split(g, a, b, fa, fm, fb, whole, eps, _MAX_DEPTH, _MIN_DEPTH)


def _simpson_split(g, a, b, fa, fm, fb, whole, eps, depth, min_depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = g(lm)
    frm = g(rm)
    left = (m - a) * (fa + 4.0 * flm + fm) / 6.0
    right = (b - m) * (fm + 4.0 * frm + fb) / 6.0
    delta = left + right - whole
    if (abs(delta) <= 15.0 * eps and min_depth <= 0) or depth <= 0:
        return left + right + delta / 15.0, abs(delta) / 15.0, abs(delta) <= 15.0 * eps
    lv, le, lok = _simpson_split(g, a, m, fa, flm, fm, left, 0.5 * eps, depth - 1, min_depth - 1)
    rv, re, rok = _simpson_split(g, m, b, fm, frm, fb, right, 0.5 * eps, depth - 1, min_depth - 1)
    return lv + rv, le + re, lok and rok


def _spans(points):
    """Split the real line at ``points``: tan-mapped tails plus the finite
    pieces between consecutive split points.

    Each span is (mode, a, b, edge) where mode is 0 for a finite piece in
    mu, -1/+1 for the left/right tail integrated over theta in [0, pi/2]
    with mu = edge + mode * tail_scale * tan(theta).
    """
    spans = [(-1, 0.0, _THETA_HI, points[0])]
    for a, b in zip(points, points[1:]):
        spans.append((0, a, b, 0.0))
    spans.append((1, 0.0, _THETA_HI, points[-1]))
    return spans


def integrate_log(log_f, points, tail_scale, candidates):
    """Log of the integral of exp(log_f) over the real line; log_f is -inf
    where the integrand vanishes.

    ``points`` isolate the integrand's features into their own pieces;
    ``candidates`` are extra abscissae (at or near the modes) included in
    the max-shift scan so the shifted exponent never overflows.  The
    coarse 33-node scan per piece doubles as the error-budget estimate.
    Raises ArithmeticError when the scan meets log_f = +inf or the
    refinement cannot reach REL_TOL.
    """
    pts = sorted(set(points))
    spans = _spans(pts)
    log_ts = math.log(tail_scale)

    def log_g(mode, edge, t):
        if mode == 0:
            return log_f(t)
        mu = edge + mode * tail_scale * math.tan(t)
        return log_f(mu) + log_ts - 2.0 * math.log(math.cos(t))

    shift = -math.inf
    for c in candidates:
        v = log_f(c)
        if v > shift:
            shift = v
    node_vals = []
    for mode, a, b, edge in spans:
        h = (b - a) / 32.0
        vals = [log_g(mode, edge, a + j * h) for j in range(33)]
        node_vals.append(vals)
        vm = max(vals)
        if vm > shift:
            shift = vm
    if shift == -math.inf:
        return -math.inf
    if shift == math.inf:
        raise ArithmeticError("integrand is infinite on the scan grid")

    total_coarse = 0.0
    for (mode, a, b, edge), vals in zip(spans, node_vals):
        h = (b - a) / 32.0
        acc = 0.5 * (_shifted_exp(vals[0] - shift) + _shifted_exp(vals[32] - shift))
        for j in range(1, 32):
            acc += _shifted_exp(vals[j] - shift)
        total_coarse += acc * h
    eps = REL_TOL * max(total_coarse, _TINY) / len(spans)

    total = 0.0
    ok = True
    for mode, a, b, edge in spans:
        def g(t, _m=mode, _e=edge):
            return _shifted_exp(log_g(_m, _e, t) - shift)

        v, _, converged = adaptive_simpson(g, a, b, eps)
        total += v
        ok = ok and converged
    if not ok:
        raise ArithmeticError("adaptive quadrature did not reach the requested tolerance")
    if total <= 0.0:
        return -math.inf
    return shift + math.log(total)


def marginal_loglik(z, n, kind, scale):
    """Log marginal likelihood of the data under a scale prior on the mean:
    log of the integral over mu of N(z; sqrt(n)*mu, 1) * prior(mu; scale).

    Split points isolate the likelihood spike (width 1/sqrt(n) around the
    sample mean) and the prior body (width ``scale``); the tail map scale
    is matched to the wider of the two.
    """
    sqrt_n = math.sqrt(n)
    xbar = z / sqrt_n
    sig = 1.0 / sqrt_n

    def log_f(mu):
        return log_marginal_integrand(mu, z, sqrt_n, kind, scale)

    points = (
        xbar - 8.0 * sig,
        xbar,
        xbar + 8.0 * sig,
        -8.0 * scale,
        0.0,
        8.0 * scale,
    )
    k_eff = n * scale * scale
    candidates = (0.0, xbar, xbar * k_eff / (1.0 + k_eff))
    return integrate_log(log_f, points, max(scale, sig), candidates)


class MarginalIntegrand(record("MarginalIntegrand", "z n prior_family scale")):
    """The H1 marginal-likelihood integrand
    mu -> N(z; sqrt(n)*mu, 1) * prior(mu; 0, scale), with prior_family
    "normal" or "cauchy".

    It is an ordinary callable, but carries enough structure that
    integrate_real_line can route it to marginal_loglik, whose split
    points resolve both the likelihood spike and the prior body.
    """

    __slots__ = ()

    def __new__(cls, z, n, prior_family, scale):
        if prior_family not in ("normal", "cauchy"):
            raise DomainError(f"unknown prior family {prior_family!r}")
        _check_sample_size(n)
        if not scale > 0.0:
            raise DomainError(f"prior scale must be positive, got {scale}")
        return super().__new__(cls, z, n, prior_family, scale)

    @property
    def kind(self):
        return PRIOR_NORMAL if self.prior_family == "normal" else PRIOR_CAUCHY

    def __call__(self, mu):
        return math.exp(
            log_marginal_integrand(mu, self.z, math.sqrt(self.n), self.kind, self.scale))


def marginal_log_integral(f):
    """log of integrate_real_line(f) for a MarginalIntegrand, computed
    fully in log space."""
    try:
        return marginal_loglik(f.z, float(f.n), f.kind, f.scale)
    except ArithmeticError as exc:
        raise ConvergenceError(str(exc)) from None


def integrate_real_line(f, *, scale=1.0, breakpoints=()):
    """Integral of a nonnegative f over the whole real line, with
    estimated relative error at most REL_TOL.

    MarginalIntegrand instances take marginal_loglik.  Arbitrary callables
    go through the same log-space quadrature as log f, with the line split
    at ``breakpoints`` plus {-8*scale, 0, 8*scale}; ``scale`` should match
    the width of the integrand's slowest-decaying factor.  Signed
    integrands are not supported.

    Raises DomainError naming mu where f(mu) is negative or NaN, and
    ConvergenceError when f is +inf on the scan grid or the error
    estimate cannot reach REL_TOL within the subdivision budget.
    """
    if isinstance(f, MarginalIntegrand):
        return math.exp(marginal_log_integral(f))
    if not scale > 0.0:
        raise DomainError(f"scale must be positive, got {scale}")
    pts = {-8.0 * scale, 0.0, 8.0 * scale}
    pts.update(float(p) for p in breakpoints)
    points = sorted(pts)

    def log_f(mu):
        v = f(mu)
        if v > 0.0:
            return math.log(v)
        if v == 0.0:
            return -math.inf
        raise DomainError(f"integrand must be nonnegative, got f({mu!r}) = {v!r}")

    try:
        return math.exp(integrate_log(log_f, points, scale, points))
    except ArithmeticError as exc:
        raise ConvergenceError(str(exc)) from None


def bf01_normal_via_quadrature(setup, prior):
    """Normal-prior Bayes factor through the quadrature, to be checked
    against the closed form (they agree to ~1e-8 relative)."""
    integrand = MarginalIntegrand(z=setup.z, n=setup.n, prior_family="normal", scale=prior.tau)
    return BayesFactorResult.from_log(
        log_std_normal_pdf(setup.z) - marginal_log_integral(integrand))
