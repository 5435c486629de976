"""Plain reference implementations of the measures, used only by tests.

- ``approx_entropy`` and ``plr``: the one-pair-at-a-time pairwise likelihood
  ratio of Hyvarinen & Smith (JMLR 2013). Every sample is standardized and
  its entropy approximated on its own, with log cosh written through
  ``np.logaddexp``. It shares nothing with the blocked entropy kernel of
  ``measures`` (behind ``plr_matrix`` and ``state_entropies``) except the
  approximation's constants, so agreement between the two checks the
  kernel's algebra and blocking.
- ``residual``: one column regressed on another from two-pass population
  moments, the per-column form of ``measures.residualize``.
- ``ksg_mi``: the Kraskov-Stogbauer-Grassberger estimator from the full
  matrix of max-norm distances, with no tree and no sorting, against which
  ``measures.knn_mi`` must agree bit for bit.
- ``prior_pairs``: the ordered pairs of a prior held as bitsets.
- ``table_ratios`` and ``table_costs``: ``measures.layer_ratios`` and
  ``measures.layer_costs`` called on one state, whose table entry and
  children's entries are given as ``state_entropies`` returns them.
- ``residual_lasso`` and ``residual_adjacency``: the adaptive lasso with a
  coordinate descent that keeps an N-length residual in step with the
  coefficients and a BIC that sums squared residuals over the samples, the
  residual form of ``adjacency``'s Gram-statistics solves.
"""

import math

import numpy as np
from scipy.special import digamma

from pathlingam.errors import DegenerateCorrelation, ZeroVariance
from pathlingam.adjacency import (
    CD_MAX_SWEEPS, CD_TOLERANCE, GRID_POINTS, GRID_SPAN, ZERO_THRESHOLD,
)
from pathlingam.measures import GAMMA, H_GAUSS, K1, K2, layer_costs, layer_ratios

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


def residual(xi, xj):
    """Least-squares residual of xi regressed on xj (population moments)."""
    xi = np.asarray(xi, dtype=float)
    xj = np.asarray(xj, dtype=float)
    if xi.shape != xj.shape or xi.ndim != 1 or xi.size < 2:
        raise ValueError("residual needs two equal-length vectors of size >= 2")
    # Two-pass moments, products of centred columns: the one-pass form
    # E[xy] - E[x]E[y] cancels when the regressor's variance is tiny.
    cj = xj - xj.mean()
    var = np.mean(cj * cj)
    if var == 0.0:
        raise ZeroVariance("regressor has zero variance")
    cov = np.mean((xi - xi.mean()) * cj)
    return xi - (cov / var) * xj


def max_norm_distances(points):
    """N x N matrix of max-norm distances between the rows of ``points``."""
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    return np.abs(points[None, :, :] - points[:, None, :]).max(axis=2)


def ksg_mi(x_block, y, k):
    """Kraskov mutual information I(x_block; y) from all pairwise distances.

    eps_i is the distance from point i to its k-th nearest other point in
    the joint space; n_x and n_y count the other points strictly closer
    than eps_i in each marginal space.
    """
    y = np.asarray(y, dtype=float)
    joint = max_norm_distances(np.column_stack([x_block, y]))
    np.fill_diagonal(joint, np.inf)
    eps = np.sort(joint, axis=1)[:, k - 1]
    # Strict counts include the point itself when eps > 0; drop it.
    n_x = np.maximum((max_norm_distances(x_block) < eps[:, None]).sum(axis=1) - 1, 0)
    n_y = np.maximum((max_norm_distances(y) < eps[:, None]).sum(axis=1) - 1, 0)
    mean_psi = np.mean(digamma(n_x + 1.0) + digamma(n_y + 1.0))
    return float(digamma(k) - mean_psi + digamma(y.size))


def prior_pairs(before):
    """The pairs (a, b), a before b, of a prior from ``expand_prior``, where
    bit a of ``before[b]`` is set when a precedes b."""
    return {
        (a, b)
        for b, bits in enumerate(before)
        for a in range(bits.bit_length())
        if bits >> a & 1
    }


def _one_state(state, children):
    """``layer_ratios``' arguments for one state: ``state`` is its table entry
    and ``children[j]`` that of the state without candidate j."""
    h, scale = (np.asarray(part, dtype=float)[None] for part in state)
    child_h = np.array([child[0] for child in children], dtype=float)[None]
    child_scale = np.array([child[1] for child in children], dtype=float)[None]
    return h, scale, child_h, child_scale


def table_ratios(state, children):
    """``layer_ratios`` of one state, from its table entries."""
    return layer_ratios(*_one_state(state, children))[0]


def table_costs(state, children):
    """``layer_costs`` of one state, from its table entries."""
    return layer_costs(*_one_state(state, children))[0]


def residual_lasso(design, target, lam, start=None):
    """Minimize (1/2N)||y - Xw||^2 + lam * ||w||_1 by cyclic updates, each
    update reading the N-length residual y - Xw."""
    col_norms = np.mean(design * design, axis=0)
    w = np.zeros(design.shape[1]) if start is None else start.copy()
    resid = target - design @ w
    for _ in range(CD_MAX_SWEEPS):
        largest_step = 0.0
        for j in range(design.shape[1]):
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


def _residual_adaptive_lasso(design, target):
    n, m = design.shape
    beta_ols, *_ = np.linalg.lstsq(design, target, rcond=None)
    weights = np.abs(beta_ols)
    scaled = design * weights
    lam_max = np.max(np.abs(scaled.T @ target)) / n
    if lam_max == 0.0:
        return np.zeros(m)
    # The empty model is scored on its own, apart from the grid.
    best_bic = n * np.log(max(float(np.sum(target * target)), 1e-300) / n)
    best_u = np.zeros(m)
    u = np.zeros(m)
    for lam in np.geomspace(lam_max, lam_max * GRID_SPAN, GRID_POINTS):
        u = residual_lasso(scaled, target, lam, start=u)
        rss = float(np.sum((target - scaled @ u) ** 2))
        bic = n * np.log(max(rss, 1e-300) / n) + np.count_nonzero(u) * np.log(n)
        if bic < best_bic:
            best_bic, best_u = bic, u.copy()
    beta = best_u * weights
    beta[np.abs(beta) < ZERO_THRESHOLD] = 0.0
    return beta


def residual_adjacency(values, order):
    """``estimate_adjacency`` of a full-rank data matrix, every regression
    solved in the residual form."""
    centered = values - values.mean(axis=0)
    b_hat = np.zeros((values.shape[1],) * 2)
    for k in range(1, len(order)):
        causes = list(order[:k])
        b_hat[order[k], causes] = _residual_adaptive_lasso(
            centered[:, causes], centered[:, order[k]]
        )
    return b_hat
