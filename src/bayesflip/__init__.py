"""Bayes factors for the normal point null with known unit variance.

Closed form for zero-centred normal priors, the closed-form Voigt
(Faddeeva) marginal for Cauchy priors, the prior-scale flip point at
which the direction of evidence reverses, and reversal-pair construction
showing that one dataset can support both hypotheses depending only on
the prior scale.

The numerical kernels are pure Python, each in the module that calls it;
``bayesflip.KERNEL_BACKEND`` is always ``"pure"`` and stays only because
the benchmark, ``perfbench/run.py``, reads it.

The public names below, and the submodules, are imported on first access
(PEP 562), so ``import bayesflip`` loads nothing else and a command-line
run compiles only the modules it uses.
"""

KERNEL_BACKEND = "pure"
__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "bayes_factor": ("BayesFactorResult", "Direction", "NormalPrior", "TestSetup", "bf01",
                     "bf_argmin_k", "dlogbf_dk", "log_bf01", "posterior_prob_h0",
                     "two_sided_p"),
    "cauchy": ("CauchyPrior", "bf01_cauchy", "cauchy_flip_scale"),
    "errors": ("BayesFlipError", "ConvergenceError", "DomainError", "MaxIterExceeded",
               "NoFlipPoint", "NoSignChange", "NotAReversal"),
    "flip": ("FlipMethod", "FlipPointResult", "ReversalPair", "flip_point", "phi",
             "phi_inverse", "reversal_pair", "tau_star", "validate_pair"),
    "numerics": ("find_root",),
}
_SUBMODULES = ("bayes_factor", "cauchy", "cli", "errors", "flip", "numerics", "report", "svg")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["KERNEL_BACKEND", "__version__", *_HOME]


def __getattr__(name: str):
    from importlib import import_module

    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME, *_SUBMODULES})
