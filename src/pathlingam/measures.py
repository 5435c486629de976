"""Independence measures used as lattice edge weights.

Two measures are provided. The default is the pairwise likelihood ratio
between the two causal directions of a variable pair, built from a maximum
entropy approximation of differential entropy. The comparison measure is the
Kraskov k-nearest-neighbor mutual information estimator, extended so one
variable can be scored against a whole block of residuals.

Both operate on an N x m array of residual columns, one column per
remaining feature, and are pure functions. The likelihood ratio's entropies
all come from one blocked kernel, fed in two ways: pairwise residuals of
one state (``plr_matrix``, for the search), or the columns of many lattice
states at once (``state_entropies``, for a per-state entropy table).
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


# Samples per scratch buffer of the entropy kernel. The sample axis is walked
# in row blocks of about this many samples, so the two buffers stay in cache
# and memory does not grow with N.
_BLOCK_ELEMENTS = 1 << 15


# Least share 1 - rho^2 of a candidate's variance that must be left after
# regressing out another candidate. On exactly collinear columns rounding
# leaves up to about 2.4e-14 of it in the pairwise correlation (N = 10^5)
# and about 1e-28 in a residual column, so both feeders reject such pairs
# with this one test, while a pair keeping over a millionth of its scale
# passes.
_MIN_KEPT_VARIANCE = 1e-12


def _check_kept_variance(kept):
    """Raise DegenerateCorrelation if a pair keeps almost none of its variance."""
    if np.any(kept < _MIN_KEPT_VARIANCE):
        raise DegenerateCorrelation("|correlation| is 1 between candidates")


def _block_rows(n, width):
    """Rows per block when each stacked state holds ``width`` samples.

    Blocks are of near-equal size. They depend on N and the width only, so a
    state's entropies do not depend on what else shares its kernel call.
    """
    blocks = -(-n * width // _BLOCK_ELEMENTS)
    return -(-n // blocks)


def _max_entropy(fill, shape, n, rows):
    """Maximum entropy approximation of a stack of unit-variance samples.

    Each entropy is H_GAUSS - K1 (E[log cosh u] - GAMMA)^2
    - K2 E[u exp(-u^2 / 2)]^2 of one length-n sample u. ``fill(out, start,
    stop)`` writes observations start:stop of every sample of the stack, an
    array of ``shape``, into ``out``, whose last axis runs over observations.
    Both moment sums are accumulated in place over row blocks of ``rows``.
    Each sample is summed along its own contiguous row, so its result does
    not depend on the other samples of the stack.
    """
    u = np.empty(shape + (rows,))
    w = np.empty_like(u)
    log_cosh_sum = np.zeros(shape)
    gauss_sum = np.zeros(shape)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        ub, wb = u[..., :stop - start], w[..., :stop - start]
        fill(ub, start, stop)
        # u exp(-u^2 / 2)
        np.multiply(ub, ub, out=wb)
        wb *= -0.5
        np.exp(wb, out=wb)
        wb *= ub
        gauss_sum += wb.sum(axis=-1)
        # log cosh u + log 2 = |u| + log1p(exp(-2 |u|)), stable for large |u|
        np.abs(ub, out=ub)
        np.multiply(ub, -2.0, out=wb)
        np.exp(wb, out=wb)
        np.log1p(wb, out=wb)
        wb += ub
        log_cosh_sum += wb.sum(axis=-1)
    t1 = log_cosh_sum / n - LOG2 - GAMMA
    t2 = gauss_sum / n
    return H_GAUSS - K1 * t1 * t1 - K2 * t2 * t2


def state_entropies(stack, width):
    """Entropies and scales of the rows of a stack of lattice states.

    ``stack`` is a K x N array: the residual columns of K / ``width`` states
    of ``width`` columns each, one row per column. Returns two length-K
    arrays: the entropy of each row after centring and scaling it to unit
    variance, and its standard deviation. A row of zero variance raises
    DegenerateCorrelation: it is a residual with nothing left.
    """
    stack = np.ascontiguousarray(stack, dtype=float)
    k, n = stack.shape
    centered = stack - stack.mean(axis=1)[:, None]
    std = np.sqrt(np.mean(centered * centered, axis=1))
    if np.any(std == 0.0):
        raise DegenerateCorrelation("a residual column is constant")
    scale = std[:, None]

    def fill(out, start, stop):
        np.divide(centered[:, start:stop], scale, out=out)

    return _max_entropy(fill, (k,), n, _block_rows(n, width)), std


def _plr_ratios(e):
    """Likelihood ratios R_ij = (h_j - h_i) + (E_ij - E_ji).

    E_ij is the entropy of standardized candidate i after regressing out
    candidate j, and the diagonal of ``e`` holds h_i, the entropy of
    standardized candidate i itself. The result is antisymmetric with an
    exactly zero diagonal by construction.
    """
    h = np.diag(e)
    return (h[None, :] - h[:, None]) + (e - e.T)


def table_ratios(state, children):
    """``plr_matrix`` of a state from its entry in a per-state entropy table.

    An entry is the pair (entropies, scales) that ``state_entropies`` gives
    for the state's m columns; ``children[j]`` is the entry of the state
    without candidate j. By the Frisch-Waugh-Lovell theorem, column i of
    that child is the residual of column i on column j, so E_ij is the
    child's entropy of i, and its scale is sqrt(1 - rho_ij^2) times column
    i's. Pairs are checked for collinearity on that 1 - rho_ij^2 by the
    same test as in ``plr_matrix``.
    """
    h, scale = state
    m = h.size
    off = ~np.eye(m, dtype=bool)
    e = np.empty((m, m))
    kept = np.zeros((m, m))  # kept[i, j]: share of column i's scale left on j
    # e.T[off] runs over j, then i != j: child j's columns in order.
    e.T[off] = np.concatenate([child[0] for child in children])
    kept.T[off] = np.concatenate([child[1] for child in children])
    np.fill_diagonal(e, h)
    kept /= scale[:, None]
    _check_kept_variance(kept[off] * kept[off])
    return _plr_ratios(e)


def table_costs(state, children):
    """PLR step costs from table entries: ``plr_costs`` up to rounding."""
    return _step_costs(table_ratios(state, children))


def plr_matrix(columns):
    """Likelihood-ratio matrix over a set of candidate columns.

    Entry [i, j] > 0 reads as evidence that candidate i causes candidate j;
    see ``_plr_ratios``. With z the standardized columns and rho their
    correlations, the residual z_i - rho_ij z_j has mean 0 and variance
    1 - rho_ij^2, so the kernel is fed u_ij = (z_i - rho_ij z_j) /
    sqrt(1 - rho_ij^2). Setting rho_jj = 0 makes u_jj = z_j, so the diagonal
    of E holds h. A pair with 1 - rho_ij^2 below ``_MIN_KEPT_VARIANCE``
    raises DegenerateCorrelation.
    """
    columns = np.asarray(columns, dtype=float)
    if columns.ndim != 2 or columns.shape[1] < 2:
        raise ValueError("plr_matrix needs at least 2 columns")
    n, m = columns.shape
    std = columns.std(axis=0)
    if np.any(std == 0.0):
        raise ZeroVariance("a candidate column is constant")
    z = columns - columns.mean(axis=0)
    z /= std
    rho = z.T @ z / n
    np.fill_diagonal(rho, 0.0)
    kept = 1.0 - rho * rho
    _check_kept_variance(kept)
    inv_scale = (1.0 / np.sqrt(kept))[:, :, None]
    rho = rho[:, :, None]
    z = np.ascontiguousarray(z.T)

    def fill(out, start, stop):
        block = z[:, start:stop]
        np.multiply(rho, block[None, :, :], out=out)
        np.subtract(block[:, None, :], out, out=out)
        out *= inv_scale

    return _plr_ratios(_max_entropy(fill, (m, m), n, _block_rows(n, m * m)))


def _step_costs(entries):
    neg = np.minimum(entries, 0.0)
    return (neg * neg).sum(axis=1) / (entries.shape[0] - 1)


def plr_costs(columns):
    """Step cost of every candidate, by residual-column position.

    The cost of candidate i is the mean over the other candidates j of
    min(0, R_ij)^2: zero exactly when every pairwise ratio says i is an
    upstream variable. Smaller is more independent, so these are usable as
    shortest-path edge weights directly.
    """
    return _step_costs(plr_matrix(columns))


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
