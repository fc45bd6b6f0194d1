"""Bayes factors for the normal point null with known unit variance.

Closed form for zero-centred normal priors, the closed-form Voigt
(Faddeeva) marginal for Cauchy priors, the prior-scale flip point at
which the direction of evidence reverses, and reversal-pair construction
showing that one dataset can support both hypotheses depending only on
the prior scale.

The numerical kernels are pure Python; ``bayesflip.KERNEL_BACKEND`` is
always ``"pure"``.
"""

from .bayes_factor import (
    BayesFactorResult,
    Direction,
    NormalPrior,
    TestSetup,
    bf01,
    bf_argmin_k,
    dlogbf_dk,
    log_bf01,
    posterior_prob_h0,
    two_sided_p,
)
from .cauchy import CauchyPrior, bf01_cauchy, bf01_normal_via_quadrature, cauchy_flip_scale
from .errors import (
    BayesFlipError,
    ConvergenceError,
    DomainError,
    MaxIterExceeded,
    NoFlipPoint,
    NoSignChange,
    NotAReversal,
)
from .flip import (
    FlipMethod,
    FlipPointResult,
    ReversalPair,
    flip_point,
    phi,
    phi_inverse,
    reversal_pair,
    tau_star,
    validate_pair,
)
from .numerics import (
    DEFAULT_CONFIG,
    Bracket,
    MarginalIntegrand,
    SolverConfig,
    find_root,
    integrate_real_line,
    lambert_w0,
    marginal_log_integral,
    std_normal_cdf,
    std_normal_pdf,
)

KERNEL_BACKEND = "pure"
__version__ = "0.1.0"

__all__ = [
    "KERNEL_BACKEND",
    "__version__",
    # bayes_factor
    "BayesFactorResult", "Direction", "NormalPrior", "TestSetup", "bf01",
    "bf_argmin_k", "dlogbf_dk", "log_bf01", "posterior_prob_h0", "two_sided_p",
    # cauchy
    "CauchyPrior", "bf01_cauchy", "bf01_normal_via_quadrature", "cauchy_flip_scale",
    # errors
    "BayesFlipError", "ConvergenceError", "DomainError", "MaxIterExceeded",
    "NoFlipPoint", "NoSignChange", "NotAReversal",
    # flip
    "FlipMethod", "FlipPointResult", "ReversalPair", "flip_point", "phi",
    "phi_inverse", "reversal_pair", "tau_star", "validate_pair",
    # numerics
    "DEFAULT_CONFIG", "Bracket", "MarginalIntegrand", "SolverConfig",
    "find_root", "integrate_real_line", "lambert_w0", "marginal_log_integral",
    "std_normal_cdf", "std_normal_pdf",
]
