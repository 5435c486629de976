"""Independence measures used as lattice edge weights.

Two measures are provided. The default is the pairwise likelihood ratio
between the two causal directions of a variable pair, built from a maximum
entropy approximation of differential entropy. The comparison measure is the
Kraskov k-nearest-neighbor mutual information estimator, extended so one
variable can be scored against a whole block of residuals.

Both operate on an N x m array of residual columns, one column per
remaining feature, and are pure functions. ``residualize_rows`` is the one
lattice transition that makes those columns, for a stack of states held as
rows; ``residualize`` is its one-state case. The likelihood ratio's
entropies all come from one blocked kernel, fed in two ways: pairwise
residuals of one state (``plr_matrix``, for the search), or the columns of
many lattice states at once (``state_entropies``, for a per-state entropy
table read by ``layer_costs``). The kNN estimator counts neighbours along
one variable by sorting, in a one-column block by a kd-tree and sorting,
and in a wider block by exact distances over blocks of rows, whose cost
grows as N^2 (see ``knn_mi``); there scipy's compiled Chebyshev ``cdist``
makes the block's x distances. Only the kNN estimator needs scipy, and it
imports scipy when it first runs, so the likelihood ratio never loads it.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

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


def residualize_rows(stack, parents, pos):
    """The lattice transition for many states at once.

    ``stack`` is a K x m x N array holding the m residual columns of each of
    K states as contiguous rows. State k of the result is state
    ``parents[k]`` of the stack without row ``pos[k]``: each remaining row x
    is replaced by its least-squares residual x - b c on the chosen row c,
    with b = cov(x, c) / var(c), in one rank-1 update. Every state's sums
    run along its own rows, and its products are a matrix-vector product of
    their own, so a state's result does not depend on the other states of
    the stack.
    """
    parents = np.asarray(parents, dtype=np.intp)
    pos = np.asarray(pos, dtype=np.intp)
    chosen = stack[parents, pos]
    centered = chosen - chosen.mean(axis=1)[:, None]
    var = (centered * centered).sum(axis=1)
    if np.any(var == 0.0):
        constant = int(pos[np.flatnonzero(var == 0.0)[0]])
        raise ZeroVariance(f"residual column {constant} is constant at this state")
    others = np.arange(stack.shape[1] - 1)[None, :]
    others = others + (others >= pos[:, None])
    kept = stack[parents[:, None], others]
    slope = np.matmul(kept, centered[:, :, None]) / var[:, None, None]
    kept -= chosen[:, None, :] * slope
    return kept


def residualize(columns, pos):
    """Drop column ``pos`` of an N x m block, regressing it out of every other
    column: ``residualize_rows`` on one state. Returns an N x (m - 1) view
    of the child's rows."""
    rows = np.ascontiguousarray(np.asarray(columns, dtype=float).T)
    return residualize_rows(rows[None], [0], [pos])[0].T


# Elements per scratch buffer of the entropy kernel and of the kNN distance
# pass. Each walks its data in row blocks of about this many elements, so
# its two buffers stay in cache and memory does not grow with N.
_BLOCK_ELEMENTS = 1 << 15


# Least share 1 - rho^2 of a candidate's variance that must be left after
# regressing out another candidate. On exactly collinear columns rounding
# leaves up to about 2.4e-14 of it in the pairwise correlation (N = 10^5)
# and about 1e-28 in a residual column, so both PLR feeders and the kNN step
# reject such pairs with this one test, while a pair keeping over a millionth
# of its scale passes.
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
    DegenerateCorrelation: it is a residual with nothing left. The stack is
    walked in chunks of whole states that fill one row block of the kernel,
    so its scratch buffers stay in cache however many states come at once.
    """
    stack = np.ascontiguousarray(stack, dtype=float)
    k, n = stack.shape
    rows = _block_rows(n, width)
    chunk = width * max(1, _BLOCK_ELEMENTS // (width * rows))
    entropies, std = np.empty(k), np.empty(k)
    for start in range(0, k, chunk):
        part = slice(start, start + chunk)
        entropies[part], std[part] = _row_entropies(stack[part], rows)
    return entropies, std


def _row_entropies(stack, rows):
    # Entropies and scales of the rows of ``stack``, with ``rows`` samples
    # per kernel block.
    n = stack.shape[1]
    centered = stack - stack.mean(axis=1)[:, None]
    std = np.sqrt(np.mean(centered * centered, axis=1))
    if np.any(std == 0.0):
        raise DegenerateCorrelation("a residual column is constant")
    scale = std[:, None]

    def fill(out, start, stop):
        np.divide(centered[:, start:stop], scale, out=out)

    return _max_entropy(fill, (stack.shape[0],), n, rows), std


def _plr_ratios(e):
    """Likelihood ratios R_ij = (h_j - h_i) + (E_ij - E_ji).

    ``e`` is a stack of m x m matrices. E_ij is the entropy of standardized
    candidate i after regressing out candidate j, and the diagonal of ``e``
    holds h_i, the entropy of standardized candidate i itself. The result is
    antisymmetric with an exactly zero diagonal by construction.
    """
    h = np.diagonal(e, axis1=-2, axis2=-1)
    return (h[..., None, :] - h[..., :, None]) + (e - np.swapaxes(e, -1, -2))


def layer_ratios(h, scale, child_h, child_scale):
    """``plr_matrix`` of K states of m candidates from a per-state entropy table.

    A state's entry is the pair (entropies, scales) that ``state_entropies``
    gives for its m columns: ``h`` and ``scale`` are K x m. ``child_h`` and
    ``child_scale`` are K x m x (m - 1): [k, j] is the entry of state k
    without candidate j. By the Frisch-Waugh-Lovell theorem, column i of
    that child is the residual of column i on column j, so E_ij is the
    child's entropy of i, and its scale is sqrt(1 - rho_ij^2) times column
    i's. Pairs are checked for collinearity on that 1 - rho_ij^2 by the
    same test as in ``plr_matrix``.
    """
    k, m = h.shape
    off = ~np.eye(m, dtype=bool)
    e = np.empty((k, m, m))
    kept = np.zeros((k, m, m))  # kept[., i, j]: share of column i's scale left on j
    # Transposed, off-diagonal entries run over j, then i != j: child j's
    # columns in order.
    np.swapaxes(e, 1, 2)[:, off] = child_h.reshape(k, -1)
    np.swapaxes(kept, 1, 2)[:, off] = child_scale.reshape(k, -1)
    diagonal = np.arange(m)
    e[:, diagonal, diagonal] = h
    kept /= scale[:, :, None]
    _check_kept_variance(kept[:, off] * kept[:, off])
    return _plr_ratios(e)


def layer_costs(h, scale, child_h, child_scale):
    """PLR step costs of K states from table entries (see ``layer_ratios``):
    ``plr_costs`` up to rounding, K x m."""
    return _step_costs(layer_ratios(h, scale, child_h, child_scale))


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
    z = columns - columns.mean(axis=0)
    std = np.sqrt(np.mean(z * z, axis=0))
    if np.any(std == 0.0):
        raise ZeroVariance("a candidate column is constant")
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
    return (neg * neg).sum(axis=-1) / (entries.shape[-1] - 1)


def plr_costs(columns):
    """Step cost of every candidate, by residual-column position.

    The cost of candidate i is the mean over the other candidates j of
    min(0, R_ij)^2: zero exactly when every pairwise ratio says i is an
    upstream variable. Smaller is more independent, so these are usable as
    shortest-path edge weights directly.
    """
    return _step_costs(plr_matrix(columns))


def _count_at_most(s, v, r):
    """For each i, the number of j with s_j - v_i <= r_i; ``s`` is sorted.

    The difference is rounded as computed, and the rounded difference grows
    with s_j, so the j that pass are a prefix of ``s``. Bracketing on the
    rounded bound v_i + r_i can put its end a few values off, so each end is
    moved, a run of tied values at a time, until the value just inside it
    passes and the one just outside fails.
    """
    n = s.size
    end = np.searchsorted(s, v + r, side="right")
    while True:
        grow = end < n
        grow[grow] = s[end[grow]] - v[grow] <= r[grow]
        if not grow.any():
            break
        end[grow] = np.searchsorted(s, s[end[grow]], side="right")
    while True:
        shrink = end > 0
        shrink[shrink] = s[end[shrink] - 1] - v[shrink] > r[shrink]
        if not shrink.any():
            return end
        end[shrink] = np.searchsorted(s, s[end[shrink] - 1], side="left")


def _count_within(v, r):
    """For each i, the number of j with |v_j - v_i| <= r_i, i itself included.

    These are the counts of a max-norm ball query on one column, found by
    sorting instead of a tree. |d| <= r holds exactly when d <= r and
    -d <= r, and v_i - v_j is exactly -(v_j - v_i), so the j that pass are
    a prefix of the sorted values counted on v and a suffix counted on -v.
    A negative radius counts nothing.
    """
    s = np.sort(v)
    below = _count_at_most(s, v, r)
    above = _count_at_most(-s[::-1], -v, r)
    return np.maximum(below + above - s.size, 0)


def _abs_differences(values, start, stop, out):
    """|values[j] - values[i]| into ``out``, one row per i in start:stop.

    The rows are tiled first and then shifted in place, which ran about a
    third faster than one broadcast subtraction. It gives v_j - v_i where
    that gives v_i - v_j, and the two round to the same magnitude.
    """
    np.copyto(out, values)
    out -= values[start:stop, None]
    np.abs(out, out=out)


def _block_counts(x_block, y, k):
    """Radii and x counts of ``knn_mi`` for a block of two or more columns.

    Exact max-norm distances from a block of rows to all N points fill two
    rows x N buffers: the x distance, max_c |x_c[i] - x_c[j]| from scipy's
    compiled Chebyshev ``cdist``, and the joint distance, the maximum of
    that and |y[i] - y[j]|. Each |difference| is rounded once and the
    maximum is exact, so the x distance has the bits of a column-by-column
    numpy maximum. eps_i is the (k+1)-th smallest joint distance, point i
    included, as a kd-tree query of k + 1 neighbours returns it. Returns
    eps shrunk by one ulp, and for each i the number of j, i included,
    whose x distance is within it.
    """
    from scipy.spatial.distance import cdist

    # cdist copies a block that is not C-ordered, so copy it once here.
    x = np.ascontiguousarray(x_block)
    n = y.size
    rows = max(1, _BLOCK_ELEMENTS // n)
    dx = np.empty((rows, n))
    dj = np.empty_like(dx)
    radius = np.empty(n)
    n_x = np.empty(n, dtype=np.intp)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        bx, bj = dx[:stop - start], dj[:stop - start]
        cdist(x[start:stop], x, metric="chebyshev", out=bx)
        _abs_differences(y, start, stop, bj)
        np.maximum(bx, bj, out=bj)
        bj.partition(k, axis=1)
        radius[start:stop] = np.nextafter(bj[:, k], -np.inf)
        n_x[start:stop] = np.count_nonzero(bx <= radius[start:stop, None], axis=1)
    return radius, n_x


def knn_mi(x_block, y, k):
    """Kraskov mutual information between a column block and one variable.

    Neighborhoods use the max-norm. eps_i is the distance from point i to its
    k-th nearest other point in the joint space; n_x counts the points
    strictly closer than eps_i in the block space (the one-to-many
    extension), and n_y those along y. n_y is counted by sorting. A
    one-column block takes eps from a kd-tree and counts n_x by sorting; a
    wider one takes both from exact distances, blocks of rows at a time
    (``_block_counts``), its x distances from scipy's compiled Chebyshev
    ``cdist``. All give the exact counts, so the estimate equals the
    brute-force one bit for bit. Estimates can be slightly negative.

    The blocked pass costs O(N^2) per call against a tree's near
    O(N log N). Process CPU ms per call on a shared 2-core x86-64 guest,
    random data, k = ceil(sqrt(N)), best of 3-7 runs in one sitting:

        N                               1000   2000   4000   8000
        1 column, kd-tree plus sort      4.7   11.9   33.4   90.8
        1 column through the blocks      5.8   22.4   84.1  303.0
        3 columns, kd-trees             13.0   42.9  117.3  335.6
        3 columns, blocks, numpy maxima   7.9   30.3  123.0  368.8
        3 columns, blocks, cdist          5.8   22.4   85.7  278.9

    So one-column blocks stay on the tree, which the blocks never beat and
    which grows more slowly. Wider blocks go through the blocks at every
    N: with ``cdist`` they beat the kd-trees up to N = 8000.
    """
    from scipy.special import digamma

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
    # Strict inequality: each radius is eps shrunk by one ulp, and the
    # self-counts are dropped.
    if x_block.shape[1] == 1:
        from scipy.spatial import cKDTree

        joint = np.hstack([x_block, y[:, None]])
        dist, _ = cKDTree(joint).query(joint, k=[k + 1], p=np.inf)
        radius = np.nextafter(dist[:, 0], -np.inf)
        n_x = _count_within(x_block[:, 0], radius)
    else:
        radius, n_x = _block_counts(x_block, y, k)
    n_x = np.maximum(n_x - 1, 0)
    n_y = np.maximum(_count_within(y, radius) - 1, 0)
    mean_psi = np.mean(digamma(n_x + 1.0) + digamma(n_y + 1.0))
    return float(digamma(k) - mean_psi + digamma(n))


def knn_step_cost(columns, pos, config):
    """kNN-MI step cost: dependence of the candidate on what remains.

    Computes I(column ``pos``; the child state's columns, the others after
    regressing out column ``pos``), clamped below at 0 so Dijkstra sees
    nonnegative weights. A column keeping a share 1 - rho^2 of its
    variance below ``_MIN_KEPT_VARIANCE`` raises DegenerateCorrelation, as
    in ``plr_matrix``: its residual is rounding noise.
    """
    xc = columns[:, pos]
    k = k_from_rule(config.k_rule, xc.size)
    x_block = residualize(columns, pos)
    # A column with no variance to keep keeps none of it.
    var = np.delete(columns.var(axis=0), pos)
    kept = np.divide(x_block.var(axis=0), var, out=np.zeros_like(var), where=var > 0.0)
    _check_kept_variance(kept)
    return max(0.0, knn_mi(x_block, xc, k))
