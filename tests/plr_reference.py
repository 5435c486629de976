"""Scalar reference for the pairwise likelihood ratio, used only by tests.

This is the one-pair-at-a-time formulation of Hyvarinen & Smith (JMLR 2013):
every sample is standardized and its entropy approximated on its own, with
log cosh written through ``np.logaddexp``. It shares nothing with the
blocked entropy kernel of ``measures`` (behind ``plr_matrix`` and
``state_entropies``) except the approximation's constants, so agreement
between the two checks the kernel's algebra and blocking.
"""

import math

import numpy as np

from pathlingam.errors import DegenerateCorrelation, ZeroVariance
from pathlingam.measures import GAMMA, H_GAUSS, K1, K2

LOG2 = math.log(2.0)


def log_cosh(u):
    # log(cosh(u)) = logaddexp(u, -u) - log 2; stable for large |u|.
    return np.logaddexp(u, -u) - LOG2


def approx_entropy(u):
    """Maximum entropy approximation H_hat of a 1-D sample.

    The input is standardized internally (population mean 0, variance 1).
    The result never exceeds the Gaussian entropy H_GAUSS because both
    correction terms are squared and subtracted.
    """
    u = np.asarray(u, dtype=float).ravel()
    std = u.std()
    if std == 0.0:
        raise ZeroVariance("approx_entropy input is constant")
    z = (u - u.mean()) / std
    t1 = np.mean(log_cosh(z)) - GAMMA
    t2 = np.mean(z * np.exp(-0.5 * z * z))
    return float(H_GAUSS - K1 * t1 * t1 - K2 * t2 * t2)


def plr(x, y):
    """Pairwise likelihood ratio between the directions x -> y and y -> x.

    Both inputs are standardized internally. Positive values favor x -> y.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise ValueError("plr needs equal-length vectors")
    sx = x.std()
    sy = y.std()
    if sx == 0.0 or sy == 0.0:
        raise ZeroVariance("plr input is constant")
    zx = (x - x.mean()) / sx
    zy = (y - y.mean()) / sy
    rho = float(np.mean(zx * zy))
    if abs(rho) >= 1.0:
        raise DegenerateCorrelation("|correlation| is 1")
    d = zy - rho * zx
    e = zx - rho * zy
    if d.std() == 0.0 or e.std() == 0.0:
        raise DegenerateCorrelation("residual has zero scale")
    return (
        -approx_entropy(zx) - approx_entropy(d)
        + approx_entropy(zy) + approx_entropy(e)
    )
