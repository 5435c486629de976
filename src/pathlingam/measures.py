"""Independence measures used as lattice edge weights.

Two measures are provided. The default is the pairwise likelihood ratio
between the two causal directions of a variable pair, built from a maximum
entropy approximation of differential entropy. The comparison measure is the
Kraskov k-nearest-neighbor mutual information estimator, extended so one
variable can be scored against a whole block of residuals.

Both operate on an N x m array of residual columns, one column per
remaining feature, and are pure functions.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.spatial import cKDTree
from scipy.special import digamma

from .errors import DegenerateCorrelation, InvalidK, ZeroVariance

# Maximum entropy approximation constants.
K1 = 79.047
K2 = 7.4129
GAMMA = 0.37457
# Entropy of a standard Gaussian, the approximation's upper bound.
H_GAUSS = 0.5 * (1.0 + math.log(2.0 * math.pi))

LOG2 = math.log(2.0)


class MeasureKind(Enum):
    PLR = "plr"
    KNN_MI = "knn_mi"


class KRule(Enum):
    """Neighbor-count rules for the kNN estimator."""

    FRACTION_5 = "frac5"
    FRACTION_10 = "frac10"
    SQRT_N = "sqrt"


@dataclass(frozen=True)
class MeasureConfig:
    """Which measure to use as the edge weight; k_rule applies to kNN only."""

    kind: MeasureKind = MeasureKind.PLR
    k_rule: KRule = KRule.SQRT_N


def k_from_rule(rule, n_samples):
    """Neighbor count for a sample size, using exact integer arithmetic.

    ceil(0.05 * N) in floats would give 51 at N = 1000; integer ceil division
    does not.
    """
    n = int(n_samples)
    if rule is KRule.FRACTION_5:
        return -(-n // 20)
    if rule is KRule.FRACTION_10:
        return -(-n // 10)
    if rule is KRule.SQRT_N:
        root = math.isqrt(n)
        return root if root * root == n else root + 1
    raise ValueError(f"unknown k rule {rule!r}")


def _log_cosh(u):
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
    t1 = np.mean(_log_cosh(z)) - GAMMA
    t2 = np.mean(z * np.exp(-0.5 * z * z))
    return float(H_GAUSS - K1 * t1 * t1 - K2 * t2 * t2)


def residual(xi, xj):
    """Least-squares residual of xi regressed on xj (population moments)."""
    xi = np.asarray(xi, dtype=float)
    xj = np.asarray(xj, dtype=float)
    if xi.shape != xj.shape or xi.ndim != 1 or xi.size < 2:
        raise ValueError("residual needs two equal-length vectors of size >= 2")
    mj = xj.mean()
    var = np.mean(xj * xj) - mj * mj
    if var == 0.0:
        raise ZeroVariance("regressor has zero variance")
    cov = np.mean(xi * xj) - xi.mean() * mj
    return xi - (cov / var) * xj


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


def _column_entropies(z):
    # H_hat of each already-standardized column.
    t1 = _log_cosh(z).mean(axis=0) - GAMMA
    t2 = (z * np.exp(-0.5 * z * z)).mean(axis=0)
    return H_GAUSS - K1 * t1 * t1 - K2 * t2 * t2


def plr_matrix(columns):
    """Likelihood-ratio matrix over a set of candidate columns.

    Entry [i, j] > 0 reads as evidence that candidate i causes candidate j.
    Writing h_i for the entropy of standardized column i and E_ij for the
    entropy of the standardized residual of column i on column j, the ratio
    is R_ij = (h_j - h_i) + (E_ij - E_ji), which is antisymmetric with an
    exactly zero diagonal by construction.
    """
    columns = np.asarray(columns, dtype=float)
    if columns.ndim != 2 or columns.shape[1] < 2:
        raise ValueError("plr_matrix needs at least 2 columns")
    n, m = columns.shape
    std = columns.std(axis=0)
    if np.any(std == 0.0):
        raise ZeroVariance("a candidate column is constant")
    z = (columns - columns.mean(axis=0)) / std
    rho = z.T @ z / n
    off = ~np.eye(m, dtype=bool)
    if np.any(np.abs(rho[off]) >= 1.0):
        raise DegenerateCorrelation("|correlation| is 1 between candidates")
    h = _column_entropies(z)
    e = np.empty((m, m))
    for j in range(m):
        # d[:, i] is the residual of column i on column j.
        d = z - z[:, j, None] * rho[None, :, j]
        d = d - d.mean(axis=0)
        sd = d.std(axis=0)
        sd[j] = 1.0  # the j-on-j residual is identically zero; entry unused
        if np.any(sd == 0.0):
            raise DegenerateCorrelation("residual has zero scale")
        e[:, j] = _column_entropies(d / sd)
    return (h[None, :] - h[:, None]) + (e - e.T)


def plr_costs(columns):
    """Step cost of every candidate, by residual-column position.

    The cost of candidate i is the mean over the other candidates j of
    min(0, R_ij)^2: zero exactly when every pairwise ratio says i is an
    upstream variable. Smaller is more independent, so these are usable as
    shortest-path edge weights directly.
    """
    entries = plr_matrix(columns)
    neg = np.minimum(entries, 0.0)
    return (neg * neg).sum(axis=1) / (entries.shape[0] - 1)


def knn_mi(x_block, y, k):
    """Kraskov mutual information between a column block and one variable.

    Neighborhoods use the max-norm. n_x counts neighbors within the joint
    k-th-neighbor distance in the block space (the one-to-many extension);
    n_y counts them along y. Estimates can be slightly negative.
    """
    x_block = np.asarray(x_block, dtype=float)
    if x_block.ndim == 1:
        x_block = x_block[:, None]
    y = np.asarray(y, dtype=float).ravel()
    n = y.size
    if x_block.shape[0] != n or x_block.shape[1] < 1:
        raise ValueError("x_block must have one row per sample of y")
    k = int(k)
    if k < 1 or k >= n:
        raise InvalidK(f"need 1 <= k < N, got k={k}, N={n}")
    joint = np.hstack([x_block, y[:, None]])
    dist, _ = cKDTree(joint).query(joint, k=k + 1, p=np.inf)
    eps = dist[:, -1]
    # Strict inequality: shrink the radius by one ulp, then drop self-counts.
    radius = np.nextafter(eps, -np.inf)
    n_x = cKDTree(x_block).query_ball_point(
        x_block, r=radius, p=np.inf, return_length=True
    )
    n_y = cKDTree(y[:, None]).query_ball_point(
        y[:, None], r=radius, p=np.inf, return_length=True
    )
    n_x = np.maximum(np.asarray(n_x) - 1, 0)
    n_y = np.maximum(np.asarray(n_y) - 1, 0)
    mean_psi = np.mean(digamma(n_x + 1.0) + digamma(n_y + 1.0))
    return float(digamma(k) - mean_psi + digamma(n))


def knn_step_cost(columns, pos, config):
    """kNN-MI step cost: dependence of the candidate on what remains.

    Computes I(column ``pos``; residuals of the other columns after
    regressing out column ``pos``), clamped below at 0 so Dijkstra sees
    nonnegative weights. The last remaining feature costs 0 by definition.
    """
    m = columns.shape[1]
    if m == 1:
        return 0.0
    xc = columns[:, pos]
    block = np.column_stack(
        [residual(columns[:, i], xc) for i in range(m) if i != pos]
    )
    k = k_from_rule(config.k_rule, xc.size)
    return max(0.0, knn_mi(block, xc, k))
