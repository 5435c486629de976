"""Edge estimation: given an ordering, decide which coefficients are zero.

Each feature is regressed on its predecessors in the ordering with an
adaptive lasso: ordinary least squares supplies per-coefficient weights
1/|beta_ols| (gamma = 1), the weighted L1 problem is solved by cyclic
coordinate descent, the penalty level is picked by BIC over a 50-point
logarithmic grid, and surviving coefficients below 1e-6 in magnitude are
snapped to exact zeros.
"""

import numpy as np

from .errors import SingularDesign

ZERO_THRESHOLD = 1e-6
CD_TOLERANCE = 1e-8
CD_MAX_SWEEPS = 10_000
GRID_POINTS = 50
GRID_SPAN = 1e-4


def lasso_coordinate_descent(design, target, lam, start=None):
    """Minimize (1/2N)||y - Xw||^2 + lam * ||w||_1 by cyclic updates.

    Zero-norm design columns keep a zero coefficient. With lam = 0 this
    converges to the least-squares solution, which the tests use as an
    oracle. Returns the coefficient vector.
    """
    n, m = design.shape
    col_norms = np.mean(design * design, axis=0)
    w = np.zeros(m) if start is None else start.copy()
    resid = target - design @ w
    for _ in range(CD_MAX_SWEEPS):
        largest_step = 0.0
        for j in range(m):
            if col_norms[j] == 0.0:
                continue
            old = w[j]
            rho = np.mean(design[:, j] * resid) + col_norms[j] * old
            new = np.sign(rho) * max(abs(rho) - lam, 0.0) / col_norms[j]
            if new != old:
                resid += design[:, j] * (old - new)
                w[j] = new
                largest_step = max(largest_step, abs(new - old))
        if largest_step < CD_TOLERANCE:
            break
    return w


def _adaptive_lasso(design, target):
    n, m = design.shape
    beta_ols, *_ = np.linalg.lstsq(design, target, rcond=None)
    weights = np.abs(beta_ols)
    scaled = design * weights  # infinite penalty on zero-weight columns
    lam_max = np.max(np.abs(scaled.T @ target)) / n
    if lam_max == 0.0:
        return np.zeros(m)
    grid = np.geomspace(lam_max, lam_max * GRID_SPAN, GRID_POINTS)
    # The empty model competes too; rounding in the descent loop can leave
    # a vanishing coefficient at lam_max, so it cannot stand in for it.
    null_rss = float(np.sum(target * target))
    best_bic = n * np.log(max(null_rss, 1e-300) / n)
    best_u = np.zeros(m)
    u = np.zeros(m)
    for lam in grid:
        u = lasso_coordinate_descent(scaled, target, lam, start=u)
        rss = float(np.sum((target - scaled @ u) ** 2))
        df = int(np.count_nonzero(u))
        bic = n * np.log(max(rss, 1e-300) / n) + df * np.log(n)
        if bic < best_bic:
            best_bic = bic
            best_u = u.copy()
    beta = best_u * weights
    beta[np.abs(beta) < ZERO_THRESHOLD] = 0.0
    return beta


def estimate_adjacency(data, order):
    """Sparse coefficient matrix consistent with an ordering.

    For each feature, in causal position order, regress it on every
    predecessor with the adaptive lasso. ``b_hat[effect, cause]`` follows the
    structural convention x = Bx + e, so its nonzero entries are the directed
    edges, and permuting rows and columns by the ordering gives a strictly
    lower-triangular matrix.
    """
    sequence = tuple(getattr(order, "order", order))
    p = data.n_features
    if sorted(sequence) != list(range(p)):
        raise ValueError("order must be a permutation of the data's features")
    if data.n_samples <= p:
        raise ValueError("need more samples than features")
    centered = data.values - data.values.mean(axis=0)
    b_hat = np.zeros((p, p))
    for k in range(1, p):
        effect = sequence[k]
        causes = list(sequence[:k])
        design = centered[:, causes]
        if np.linalg.matrix_rank(design) < len(causes):
            raise SingularDesign(
                f"predecessor columns of feature {effect} are collinear"
            )
        beta = _adaptive_lasso(design, centered[:, effect])
        b_hat[effect, causes] = beta
    return b_hat
