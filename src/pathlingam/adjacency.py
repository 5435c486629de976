"""Edge estimation: given an ordering, decide which coefficients are zero.

Each feature is regressed on its predecessors in the ordering with an
adaptive lasso. Least squares, whose rank also tests for collinearity, gives
weights 1/|beta_ols| (gamma = 1). Coordinate descent for each penalty and BIC
over a 50-point log grid of penalties read only X'X/N and X'y/N (Friedman,
Hastie & Tibshirani, JSS 2010); a solve stopped by the sweep cap is logged.
Coefficients below 1e-6 in magnitude are snapped to exact zeros. Data whose
Gram statistics overflow, or whose mean squares underflow to 1e-300 or
below, raises NumericOverflow.
"""

import logging

import numpy as np

from .errors import NumericOverflow, SingularDesign

log = logging.getLogger(__name__)

ZERO_THRESHOLD = 1e-6
CD_TOLERANCE = 1e-8
CD_MAX_SWEEPS = 10_000
GRID_POINTS = 50
GRID_SPAN = 1e-4


def lasso_coordinate_descent(gram, corr, lam, start=None):
    """Minimize (1/2)w'Gw - c'w + lam * ||w||_1, which is the lasso
    (1/2N)||y - Xw||^2 + lam * ||w||_1 for G = X'X/N and c = X'y/N, by cyclic
    updates. Coordinates with G_jj = 0 keep a zero coefficient. With lam = 0
    this converges to least squares, and lam >= max|c| returns exact zeros.
    """
    diag = np.diag(gram)
    w = np.zeros(len(corr)) if start is None else start.copy()
    for _ in range(CD_MAX_SWEEPS):
        largest_step = 0.0
        for j in range(len(w)):
            if diag[j] == 0.0:
                continue
            old = w[j]
            rho = corr[j] - gram[j] @ w + diag[j] * old
            new = np.sign(rho) * max(abs(rho) - lam, 0.0) / diag[j]
            if new != old:
                w[j] = new
                largest_step = max(largest_step, abs(new - old))
        if largest_step < CD_TOLERANCE:
            break
    else:
        log.warning("coordinate descent stopped at %d sweeps for lam=%g; "
                    "last largest step %g", CD_MAX_SWEEPS, lam, largest_step)
    return w


# Least mean square y'y/N, and x'x/N of a predecessor column, that the
# adaptive lasso takes; it is also the floor under the BIC's mse. At or
# below it the statistics have lost their digits to underflow.
_MEAN_SQUARE_FLOOR = 1e-300


def _adaptive_lasso(design, target, beta_ols):
    n, m = design.shape
    weights = np.abs(beta_ols)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):  # raised below
        scaled = design * weights  # infinite penalty on zero-weight columns
        gram = scaled.T @ scaled / n
        corr = scaled.T @ target / n
        mean_square = float(target @ target) / n
        column_squares = np.einsum("ij,ij->j", design, design) / n
    if not (np.isfinite(gram).all() and np.isfinite(corr).all()
            and _MEAN_SQUARE_FLOOR < mean_square < np.inf
            and np.all(column_squares > _MEAN_SQUARE_FLOOR)):
        raise NumericOverflow(
            "the adaptive lasso's Gram statistics overflow or underflow at "
            "this data scale"
        )
    lam_max = np.max(np.abs(corr))
    if lam_max == 0.0:
        return np.zeros(m)
    # The first grid point, lam_max, returns exact zeros: the empty model.
    best_bic = np.inf
    u = np.zeros(m)
    for lam in np.geomspace(lam_max, lam_max * GRID_SPAN, GRID_POINTS):
        u = lasso_coordinate_descent(gram, corr, lam, start=u)
        mse = mean_square - 2.0 * (u @ corr) + u @ gram @ u
        bic = n * np.log(max(mse, _MEAN_SQUARE_FLOOR)) + np.count_nonzero(u) * np.log(n)
        if bic < best_bic:
            best_bic, best_u = bic, u.copy()
    beta = best_u * weights
    beta[np.abs(beta) < ZERO_THRESHOLD] = 0.0
    return beta


def estimate_adjacency(data, order):
    """Sparse coefficient matrix consistent with an ordering.

    ``order`` is a permutation of feature indices, first cause first. For
    each feature, in causal position order, regress it on every predecessor
    with the adaptive lasso. ``b_hat[effect, cause]`` follows the structural
    convention x = Bx + e, so its nonzero entries are the directed edges,
    and permuting rows and columns by the ordering gives a strictly
    lower-triangular matrix.
    """
    sequence = tuple(order)
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
        design, target = centered[:, causes], centered[:, effect]
        beta_ols, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
        if rank < len(causes):
            raise SingularDesign(
                f"predecessor columns of feature {effect} are collinear"
            )
        b_hat[effect, causes] = _adaptive_lasso(design, target, beta_ols)
    return b_hat
