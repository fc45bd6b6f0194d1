"""Semantic exception hierarchy.

Public functions never raise bare ValueError; everything a caller can
provoke maps onto one of these types so the CLI can translate failures
into stable exit codes.
"""


class BayesFlipError(Exception):
    """Base class for all package errors."""


class DomainError(BayesFlipError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class NoSignChange(BayesFlipError):
    """Root bracket endpoints do not straddle a sign change."""


class MaxIterExceeded(BayesFlipError):
    """Iterative solver hit its iteration budget before converging."""


class ConvergenceError(BayesFlipError):
    """A numerical result could not reach the requested tolerance, such
    as a flip scale too close to its critical z-statistic to resolve in
    floating point."""


class NoFlipPoint(BayesFlipError):
    """No evidence-reversal point exists for the given inputs: |z| <= 1
    for a normal prior, |z| <= cauchy.Z_CRIT (~1.30693) for a Cauchy
    prior."""


class NotAReversal(BayesFlipError):
    """A candidate scale pair fails the reversal-pair invariants."""
