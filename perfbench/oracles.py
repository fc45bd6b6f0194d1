"""Independent reference values for every quantity the benchmark checks.

Nothing here imports bayesflip.  Each quantity takes a different route
from the program's:

- Cauchy log BF01 from the closed-form Voigt profile,
  -z^2/2 - log Re w((z + i*sqrt(n)*r) / sqrt(2)), with the Faddeeva
  function w from ``scipy.special.wofz`` (the program integrates
  numerically);
- normal log BF01 as a ratio of two normal densities from
  ``scipy.stats.norm`` (the program uses 0.5*log1p(k) - z^2 k/(2(1+k)));
- the flip point k* from ``mpmath.lambertw`` at 50 significant digits.

The scipy functions take and return numpy arrays, so a whole run's
outputs are checked in one call each.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.special import wofz
from scipy.stats import norm

_MP_DPS = 50


def cauchy_log_bf01(z, n, r):
    """log BF01 under a Cauchy(0, r) prior on the mean, for arrays z, n, r."""
    z = np.asarray(z, dtype=float)
    gamma = np.sqrt(np.asarray(n, dtype=float)) * np.asarray(r, dtype=float)
    return -0.5 * z * z - np.log(wofz((z + 1j * gamma) / math.sqrt(2.0)).real)


def normal_log_bf01(z, k):
    """log BF01 under a N(0, tau^2) prior with k = n*tau^2, for arrays z, k.

    The H1 marginal of z is N(0, 1 + k); the H0 one is N(0, 1).
    """
    z = np.asarray(z, dtype=float)
    k = np.asarray(k, dtype=float)
    return norm.logpdf(z) - norm.logpdf(z, scale=np.sqrt(1.0 + k))


def two_sided_p(z):
    """2 * P(Z > |z|) for arrays z."""
    return 2.0 * norm.sf(np.abs(np.asarray(z, dtype=float)))


def k_star(z: float) -> float:
    """Flip point k* = exp(W0(-z^2 e^{-z^2}) + z^2) - 1 for |z| > 1,
    evaluated at 50 significant digits and rounded once to float."""
    with mpmath.workdps(_MP_DPS):
        z2 = mpmath.mpf(z) ** 2
        w = mpmath.lambertw(-z2 * mpmath.exp(-z2), 0)
        return float(mpmath.expm1(mpmath.re(w) + z2))
