"""Reference computations and output checks that do not call the package.

Everything here is rebuilt from the published formulas: the maximum-entropy
approximation of differential entropy (Hyvarinen 1998), the pairwise
likelihood ratio built on it (Hyvarinen & Smith 2013), the Kraskov et al.
(2004) max-norm mutual-information estimator, the rank-statistic AUC and
standardized moments. Each ``check_*`` function returns a list of problems;
an empty list means the outputs passed.
"""

import math
from itertools import islice, permutations

import numpy as np
from scipy.special import digamma

# Maximum-entropy approximation with G1 = log cosh, G2 = -exp(-u^2/2).
K1 = 79.047
K2 = 7.4129
GAMMA = 0.37457
H_GAUSS = 0.5 * (1.0 + math.log(2.0 * math.pi))

COST_TOLERANCE = 1e-9
MOMENT_RTOL = 1e-8


# ----- shared helpers --------------------------------------------------------

def standardize(values):
    values = np.asarray(values, dtype=float)
    return (values - values.mean(axis=0)) / values.std(axis=0)


def pair_accuracy(order, true_order):
    """1 - e_o: the share of variable pairs placed in their true order."""
    pos = {f: i for i, f in enumerate(order)}
    true = list(true_order)
    p = len(true)
    right = sum(
        pos[true[a]] < pos[true[b]] for a in range(p) for b in range(a + 1, p)
    )
    return right / (p * (p - 1) / 2)


def _order_problems(label, result, p):
    order = result["order"]
    problems = []
    if sorted(order) != list(range(p)):
        problems.append(f"{label}: order {order} is not a permutation of 0..{p - 1}")
    steps = result["step_costs"]
    if len(steps) != p or abs(sum(steps) - result["total_cost"]) > COST_TOLERANCE:
        problems.append(f"{label}: step costs do not sum to the total")
    return problems


# ----- pairwise likelihood ratio ---------------------------------------------

def _log_cosh(u):
    a = np.abs(u)
    return a + np.log1p(np.exp(-2.0 * a)) - math.log(2.0)


def _entropy(z):
    """Maximum-entropy entropy estimate of each standardized column."""
    t1 = _log_cosh(z).mean(axis=0) - GAMMA
    t2 = (z * np.exp(-0.5 * z * z)).mean(axis=0)
    return H_GAUSS - K1 * t1 * t1 - K2 * t2 * t2


def plr_step_costs(columns):
    """Cost of every candidate column: mean over j of min(0, R_ij)^2.

    R_ij = H(x_j) - H(x_i) + H(r_i|j) - H(r_j|i), where r_i|j is the
    standardized residual of x_i on x_j, computed here for all pairs at once.
    """
    z = standardize(columns)
    n, m = z.shape
    rho = z.T @ z / n
    h = _entropy(z)
    # r[:, i, j]: residual of column i on column j.
    r = z[:, :, None] - rho[None, :, :] * z[:, None, :]
    r = r - r.mean(axis=0)
    scale = r.std(axis=0)
    np.fill_diagonal(scale, 1.0)
    e = _entropy((r / scale).reshape(n, m * m)).reshape(m, m)
    ratio = (h[None, :] - h[:, None]) + (e - e.T)
    neg = np.minimum(ratio, 0.0)
    np.fill_diagonal(neg, 0.0)
    return (neg * neg).sum(axis=1) / (m - 1)


def projected_residuals(z, removed, remaining):
    """Residuals of the remaining columns on the span of the removed ones."""
    kept = z[:, remaining]
    if not removed:
        return kept
    basis, _ = np.linalg.qr(z[:, removed])
    return kept - basis @ (basis.T @ kept)


def plr_order_cost(values, order):
    """Step costs of one ordering under the PLR measure."""
    z = standardize(values)
    p = z.shape[1]
    steps = []
    for k in range(p - 1):
        remaining = sorted(order[k:])
        state = projected_residuals(z, list(order[:k]), remaining)
        steps.append(float(plr_step_costs(state)[remaining.index(order[k])]))
    steps.append(0.0)
    return steps


# ----- kNN mutual information ------------------------------------------------

def _regress_out(x, on):
    m_on = on.mean()
    var = np.mean(on * on) - m_on * m_on
    cov = np.mean(x * on) - x.mean() * m_on
    return x - (cov / var) * on


def sequential_residuals(z, removed):
    """Columns after regressing out the removed features one at a time, in
    ascending index order; returns {feature: column} for the others."""
    columns = {f: z[:, f].copy() for f in range(z.shape[1])}
    for f in sorted(removed):
        chosen = columns.pop(f)
        for g in columns:
            columns[g] = _regress_out(columns[g], chosen)
    return columns


def _chebyshev(points):
    points = points if points.ndim == 2 else points[:, None]
    dist = np.zeros((points.shape[0], points.shape[0]))
    for d in range(points.shape[1]):
        np.maximum(dist, np.abs(points[:, d, None] - points[None, :, d]), out=dist)
    return dist


def ksg_mi(block, y, k):
    """Kraskov estimator I(block; y) by brute-force max-norm distances."""
    n = y.size
    joint = _chebyshev(np.column_stack([block, y]))
    np.fill_diagonal(joint, np.inf)
    eps = np.partition(joint, k - 1, axis=1)[:, k - 1]
    # Counts are strict (distance < eps) and leave out the point itself.
    n_x = np.maximum((_chebyshev(block) < eps[:, None]).sum(axis=1) - 1, 0)
    n_y = np.maximum((_chebyshev(y) < eps[:, None]).sum(axis=1) - 1, 0)
    return float(
        digamma(k) - np.mean(digamma(n_x + 1.0) + digamma(n_y + 1.0)) + digamma(n)
    )


def knn_step_cost(values, order, step, k):
    """kNN-MI cost of choosing order[step] after order[:step]."""
    p = values.shape[1]
    if step == p - 1:
        return 0.0
    columns = sequential_residuals(standardize(values), order[:step])
    chosen = columns.pop(order[step])
    others = [column for _, column in sorted(columns.items())]
    block = np.column_stack([_regress_out(column, chosen) for column in others])
    return max(0.0, ksg_mi(block, chosen, k))


def sqrt_rule(n):
    root = math.isqrt(n)
    return root if root * root == n else root + 1


# ----- moments, kNN scores and AUC -------------------------------------------

def log_moments(lengths, log_epsilon):
    x = np.log(np.asarray(lengths, dtype=float) + log_epsilon)
    z = (x - x.mean()) / x.std()
    return [float(np.mean(z ** order)) for order in range(3, 31)]


def knn_scores(model, queries):
    """Share of label-1 rows among the k nearest z-scored model rows."""
    features = np.asarray(model["features"], dtype=float)
    labels = np.asarray(model["labels"], dtype=float)
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std[std == 0.0] = 1.0
    scaled = (features - mean) / std
    scores = []
    for query in queries:
        target = (np.asarray(query, dtype=float) - mean) / std
        distance = np.sqrt(np.sum((scaled - target) ** 2, axis=1))
        nearest = np.argsort(distance, kind="stable")[: model["k"]]
        scores.append(float(np.mean(labels[nearest] == 1.0)))
    return scores


def rank_auc(scores, labels):
    """Mann-Whitney AUC: P(score_pos > score_neg) + 0.5 P(tie)."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y != 1]
    wins = sum((a > b) + 0.5 * (a == b) for a in pos for b in neg)
    return wins / (len(pos) * len(neg))


# ----- checks ----------------------------------------------------------------

def check_order_outputs(values, true_order, prior, spp, with_prior, direct):
    """Checks on one dataset's spp-plr, spp-plr+prior and direct-plr results."""
    p = values.shape[1]
    problems = []
    runs = (("spp-plr", spp), ("spp-plr+prior", with_prior), ("direct-plr", direct))
    for label, result in runs:
        problems += _order_problems(label, result, p)
    if problems:
        return problems
    for label, result in runs:
        total = sum(plr_order_cost(values, result["order"]))
        if abs(total - result["total_cost"]) > COST_TOLERANCE:
            problems.append(
                f"{label}: total {result['total_cost']!r} != recomputed {total!r}"
            )
    true_total = sum(plr_order_cost(values, true_order))
    best = spp["total_cost"]
    if best > direct["total_cost"] + COST_TOLERANCE:
        problems.append("spp-plr total exceeds the direct-plr total")
    if best > true_total + COST_TOLERANCE:
        problems.append("spp-plr total exceeds the true order's cost")
    pos = {f: i for i, f in enumerate(with_prior["order"])}
    for a, b in zip(prior, prior[1:]):
        if pos[a] > pos[b]:
            problems.append(f"spp-plr+prior places {b} before {a}")
    return problems


def check_exhaustive(values, lengths, optimum, spot_checks):
    p = values.shape[1]
    if len(lengths) != math.factorial(p):
        return [f"exhaustive count {len(lengths)} != {p}!"]
    problems = []
    if abs(min(lengths) - optimum) > COST_TOLERANCE:
        problems.append(
            f"exhaustive minimum {min(lengths)!r} != search optimum {optimum!r}"
        )
    if not spot_checks:
        return problems
    # Lengths come out in lexicographic permutation order.
    picks = set(np.linspace(0, len(lengths) - 1, spot_checks).astype(int).tolist())
    for index, perm in enumerate(islice(permutations(range(p)), len(lengths))):
        if index in picks:
            cost = sum(plr_order_cost(values, perm))
            if abs(cost - lengths[index]) > COST_TOLERANCE:
                problems.append(f"permutation {perm}: {lengths[index]!r} != {cost!r}")
    return problems


def check_sampled(lengths, samples, optimum):
    if len(lengths) != samples:
        return [f"sampled count {len(lengths)} != {samples}"]
    low = min(lengths)
    if low < optimum - COST_TOLERANCE:
        return [f"sampled length {low!r} below the optimum {optimum!r}"]
    return []


def check_features(lengths, features):
    expected = log_moments(lengths, features["log_epsilon"])
    for order, (got, want) in enumerate(zip(features["moments"], expected), start=3):
        if not math.isclose(got, want, rel_tol=MOMENT_RTOL, abs_tol=1e-12):
            return [f"moment {order}: {got!r} != recomputed {want!r}"]
    if len(features["moments"]) != len(expected):
        return ["wrong number of moments"]
    return []


def check_scoring(model, test_rows, prediction, roc):
    queries = [row["features"] for row in test_rows]
    labels = [row["label"] for row in test_rows]
    problems = []
    expected = knn_scores(model, queries)
    if prediction["scores"] != expected:
        problems.append("predict scores differ from brute-force kNN")
    auc = rank_auc(prediction["scores"], labels)
    if abs(auc - roc["auc"]) > 1e-12:
        problems.append(f"eval auc {roc['auc']!r} != rank statistic {auc!r}")
    return problems


def check_baseline(values, result, spot_steps, k, adjacency=True):
    p = values.shape[1]
    problems = _order_problems("spp-knn", result, p)
    if problems:
        return problems
    order = result["order"]
    for step in spot_steps:
        cost = knn_step_cost(values, order, step, k)
        if abs(cost - result["step_costs"][step]) > COST_TOLERANCE:
            problems.append(
                f"spp-knn step {step}: {result['step_costs'][step]!r} != KSG {cost!r}"
            )
    if adjacency != ("b_hat" in result):
        return problems + ["b_hat is missing" if adjacency else "unexpected b_hat"]
    pos = {f: i for i, f in enumerate(order)}
    for effect, row in enumerate(result.get("b_hat", [])):
        for cause, value in enumerate(row):
            if value != 0.0 and pos[cause] >= pos[effect]:
                problems.append(f"b_hat[{effect}][{cause}] is not a predecessor edge")
    return problems
