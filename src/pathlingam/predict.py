"""Graph-property predictors built on path-distribution moment features.

A k-nearest-neighbor model (the fidelity target for every predictor here)
maps the 28 moment features to binary or real targets: confounder presence,
sparsity level, and expected reliability of the ordering algorithms.
Features are z-scored with training-set statistics before any distance is
computed, because high-order moments span many orders of magnitude.
"""

import logging
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import EmptyTrainingSet, SingleClass, TooManyFeatures
from .measures import MeasureConfig
from .metrics import ordering_error
from .pathdist import (
    ENUMERATION_CAP,
    PathMode,
    enumerate_paths,
    moment_features,
    sample_paths,
)
from .search import direct_lingam_order, shortest_path_order
from .simgen import generate, sample_benchmark_params
from .util import stable_seed

log = logging.getLogger(__name__)


class PredictTarget(Enum):
    CONFOUNDER = "confounder"
    SPARSITY_GT_HALF = "sparsity_gt_half"
    SPARSITY_VALUE = "sparsity_value"
    SPP_EXACT = "spp_exact"
    DIRECT_EXACT = "direct_exact"
    SPP_EO = "spp_eo"
    DIRECT_EO = "direct_eo"

BINARY_TARGETS = {
    PredictTarget.CONFOUNDER,
    PredictTarget.SPARSITY_GT_HALF,
    PredictTarget.SPP_EXACT,
    PredictTarget.DIRECT_EXACT,
}


@dataclass(frozen=True)
class LabeledFeatures:
    """One training or test row: feature vector, target value, provenance."""

    features: tuple
    label: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self, "features", tuple(float(v) for v in self.features)
        )
        object.__setattr__(self, "label", float(self.label))


@dataclass(frozen=True)
class RocSummary:
    """ROC metrics at the Youden-optimal operating point."""

    auc: float
    optimal_threshold: float
    precision: float
    recall: float
    accuracy: float

    def __post_init__(self):
        for name in ("auc", "precision", "recall", "accuracy"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


def default_k(train_size):
    """Neighbor count used when none is given: ceil(sqrt(train size))."""
    root = math.isqrt(int(train_size))
    return root if root * root == train_size else root + 1


def _feature_matrix(rows):
    return np.array([row.features for row in rows], dtype=float)


def _query_vector(query):
    vector = np.asarray(getattr(query, "moments", query), dtype=float).ravel()
    return vector


def _nearest_labels(train, query, k):
    if not train:
        raise EmptyTrainingSet("no training rows")
    k = int(k)
    if k < 1 or k > len(train):
        raise ValueError(f"need 1 <= k <= {len(train)}, got {k}")
    features = _feature_matrix(train)
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std[std == 0.0] = 1.0
    scaled = (features - mean) / std
    target = (_query_vector(query) - mean) / std
    distances = np.sqrt(np.sum((scaled - target) ** 2, axis=1))
    # Stable sort: distance ties resolve to the earlier training row.
    nearest = np.argsort(distances, kind="stable")[:k]
    return np.array([train[i].label for i in nearest])


def knn_classify(train, query, k=None):
    """Fraction of the k nearest training rows with label 1."""
    if k is None:
        k = default_k(len(train))
    return float(np.mean(_nearest_labels(train, query, k) == 1.0))


def knn_regress(train, query, k=None):
    """Mean label of the k nearest training rows."""
    if k is None:
        k = default_k(len(train))
    return float(_nearest_labels(train, query, k).mean())


def roc_summary(scores):
    """AUC, Youden-optimal threshold, and point metrics at that threshold.

    ``scores`` is a sequence of (score, label) pairs with binary labels.
    Tied scores are processed as a single threshold step, making the AUC the
    trapezoidal area (equivalently the tie-corrected rank statistic).
    """
    pairs = [(float(s), int(label)) for s, label in scores]
    n_pos = sum(label for _, label in pairs)
    n_neg = len(pairs) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("ROC needs both labels present")
    pairs.sort(key=lambda sl: -sl[0])
    auc = 0.0
    tp = fp = 0
    prev_tpr = prev_fpr = 0.0
    best_j = -np.inf
    best = None  # (threshold, tp, fp) at the Youden-optimal step
    index = 0
    while index < len(pairs):
        threshold = pairs[index][0]
        while index < len(pairs) and pairs[index][0] == threshold:
            if pairs[index][1] == 1:
                tp += 1
            else:
                fp += 1
            index += 1
        tpr = tp / n_pos
        fpr = fp / n_neg
        auc += (fpr - prev_fpr) * (tpr + prev_tpr) / 2.0
        prev_tpr, prev_fpr = tpr, fpr
        j = tpr - fpr
        if j > best_j:
            best_j = j
            best = (threshold, tp, fp)
    threshold, tp, fp = best
    fn = n_pos - tp
    tn = n_neg - fp
    precision = tp / (tp + fp) if tp + fp else 0.0
    return RocSummary(
        auc=auc,
        optimal_threshold=threshold,
        precision=precision,
        recall=tp / n_pos,
        accuracy=(tp + tn) / len(pairs),
    )


def _label_for(target, params, data, truth, config):
    if target is PredictTarget.CONFOUNDER:
        return 1.0 if params.n_confounders > 0 else 0.0
    if target is PredictTarget.SPARSITY_GT_HALF:
        return 1.0 if params.sparsity > 0.5 else 0.0
    if target is PredictTarget.SPARSITY_VALUE:
        return float(params.sparsity)
    if target in (PredictTarget.SPP_EXACT, PredictTarget.SPP_EO):
        result = shortest_path_order(data, config)
    else:
        result = direct_lingam_order(data, config)
    e_o = ordering_error(result.order, truth.true_order).e_o
    if target in (PredictTarget.SPP_EXACT, PredictTarget.DIRECT_EXACT):
        return 1.0 if e_o == 0.0 else 0.0
    return float(e_o)


def check_enumeration_cap(p_values, path_mode, max_features):
    """Raise TooManyFeatures if exhaustive mode would enumerate any p > cap."""
    largest = max((int(p) for p in p_values), default=0)
    if path_mode is PathMode.EXHAUSTIVE and largest > max_features:
        raise TooManyFeatures(
            f"p={largest} exceeds the enumeration cap {max_features}"
        )


def build_training_set(
    target,
    p_values,
    trials_per_p,
    seed,
    config=None,
    path_mode=PathMode.EXHAUSTIVE,
    n_samples=1000,
    path_samples=1000,
    max_features=ENUMERATION_CAP,
):
    """Generate labeled moment-feature rows across a grid of feature counts.

    Each trial draws benchmark parameters (confounders present in half the
    trials on average), generates a dataset, computes the moment features of
    its path distribution (exhaustive or sampled), and attaches the target
    label. Trials that fail numerically are skipped and logged. Rows carry
    meta keys "p", "seed" and "target". Exhaustive mode checks every p
    against ``max_features`` before the first trial and raises
    TooManyFeatures if one exceeds it.
    """
    config = config if config is not None else MeasureConfig()
    target = PredictTarget(target)
    check_enumeration_cap(p_values, path_mode, max_features)
    rows = []
    for p in p_values:
        for trial in range(int(trials_per_p)):
            trial_seed = stable_seed(int(seed), target.value, int(p), trial)
            rng = np.random.default_rng(trial_seed)
            with_confounders = bool(rng.integers(0, 2))
            params = sample_benchmark_params(
                p, n_samples, with_confounders, int(rng.integers(0, 2**63))
            )
            try:
                data, truth = generate(params)
                if path_mode is PathMode.EXHAUSTIVE:
                    dist = enumerate_paths(data, config, max_features=max_features)
                else:
                    dist = sample_paths(
                        data, config, path_samples, int(rng.integers(0, 2**63))
                    )
                features = moment_features(dist)
                label = _label_for(target, params, data, truth, config)
            except Exception as error:  # noqa: BLE001 - per-trial isolation
                log.warning(
                    "skipping trial p=%s index=%s: %s", p, trial, error
                )
                continue
            rows.append(
                LabeledFeatures(
                    features=features.moments,
                    label=label,
                    meta={"p": int(p), "seed": trial_seed, "target": target.value},
                )
            )
    return rows
