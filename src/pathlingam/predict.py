"""Graph-property predictors built on path-distribution moment features.

A k-nearest-neighbor model (the fidelity target for every predictor here)
maps the 28 moment features to binary or real targets: confounder presence,
sparsity level, and expected reliability of the ordering algorithms.
Features are z-scored with training-set statistics before any distance is
computed, because high-order moments span many orders of magnitude.
"""

import logging
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import EmptyTrainingSet, GenerationFailed, SingleClass
from .measures import MeasureConfig
from .metrics import ordering_error
from .pathdist import (
    ENUMERATION_CAP,
    MomentFeatures,
    PathMode,
    check_enumeration_cap,
    enumerate_lengths,
    moment_rows,
    sample_paths,
)
from .search import (
    check_data_size,
    direct_lingam_order,
    lattices_per_fill,
    shortest_path_order,
)
from .simgen import generate_trial
from .util import map_tasks, stable_seed

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


@dataclass(frozen=True)
class KnnModel:
    """Training rows, their labels and target, the neighbour count k, and
    the per-feature mean and std that z-score rows. Built by ``fit_knn``."""

    features: np.ndarray
    labels: np.ndarray
    target: PredictTarget
    k: int
    mean: np.ndarray
    std: np.ndarray


def fit_knn(features, labels, target, k=None):
    """The kNN model of training rows and their labels.

    This is the one place that decides the scaling (the rows' mean and std,
    a constant feature's std taken as 1) and the default k, ceil(sqrt(n)).
    Rows and labels must be finite, and labels of a binary target 0 or 1.
    """
    if len(features) != len(labels):
        raise ValueError("features and labels differ in length")
    if not len(features):
        raise EmptyTrainingSet("no training rows")
    features = np.array(features, dtype=float)  # rows of unequal width raise
    labels = np.array(labels, dtype=float)
    if features.ndim != 2:
        raise ValueError("training rows must be lists of numbers")
    if not (np.isfinite(features).all() and np.isfinite(labels).all()):
        raise ValueError("training rows and labels must be finite")
    target = PredictTarget(target)
    if target in BINARY_TARGETS and not np.isin(labels, (0.0, 1.0)).all():
        raise ValueError(f"{target.value} labels must be 0 or 1")
    n = len(features)
    k = math.isqrt(n - 1) + 1 if k is None else int(k)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got {k}")
    std = features.std(axis=0)
    std[std == 0.0] = 1.0
    return KnnModel(
        features, labels, target, k,
        features.mean(axis=0), std,
    )


def _nearest_labels(model, queries):
    """For each query row, the labels of its k nearest training rows.

    Queries are scored one at a time against the training rows, scaled
    once, so memory stays at one training matrix however many queries come.
    """
    scaled = (model.features - model.mean) / model.std
    for query in queries:
        query = np.asarray(query, dtype=float)
        if query.shape != model.mean.shape:
            raise ValueError(f"query width {query.size}, model width {model.mean.size}")
        if not np.isfinite(query).all():
            raise ValueError("query values must be finite")
        target = (query - model.mean) / model.std
        distances = np.sqrt(np.sum((scaled - target) ** 2, axis=1))
        # Stable sort: distance ties resolve to the earlier training row.
        yield model.labels[np.argsort(distances, kind="stable")[: model.k]]


def knn_classify(model, queries):
    """Per query row, the fraction of its k nearest training rows labelled 1."""
    return [float(np.mean(near == 1.0)) for near in _nearest_labels(model, queries)]


def knn_regress(model, queries):
    """Per query row, the mean label of its k nearest training rows."""
    return [float(near.mean()) for near in _nearest_labels(model, queries)]


def roc_summary(scores):
    """AUC, Youden-optimal threshold, and point metrics at that threshold.

    ``scores`` is a sequence of (score, label) pairs, each label 0 or 1.
    Tied scores are processed as a single threshold step, making the AUC the
    trapezoidal area (equivalently the tie-corrected rank statistic).
    """
    pairs = [(float(s), label) for s, label in scores]
    if any(label not in (0, 1) for _, label in pairs):
        raise ValueError("ROC labels must be 0 or 1")
    n_pos = sum(label == 1 for _, label in pairs)
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
    e_o = ordering_error(result.order, truth.true_order)
    if target in (PredictTarget.SPP_EXACT, PredictTarget.DIRECT_EXACT):
        return 1.0 if e_o == 0.0 else 0.0
    return e_o


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
    jobs=1,
):
    """Generate labeled moment-feature rows across a grid of feature counts.

    Each trial draws benchmark parameters (confounders present in half the
    trials on average), generates a dataset, computes the moment features of
    its path distribution (exhaustive or sampled), and attaches the target
    label. A trial whose parameters cannot generate data redraws them (see
    ``simgen.generate_trial``), so every trial gets its data or the call
    raises GenerationFailed; trials that then fail numerically are skipped
    and logged. Each row is the record that ``train`` writes as one JSONL
    line: "features" (the moments array), "label", and "meta" with keys
    "p", "seed" and "target". Every p must pass ``check_data_size`` and, in
    exhaustive mode, ``max_features``, checked before the first of the
    trials. The trials run in grid order over ``jobs`` processes, one task
    per run of consecutive trials of one p: in exhaustive mode a run holds
    ``search.lattices_per_fill`` trials (43, 16, 6, 2, 1 and 1 at p = 3-8
    and N = 1000), whose datasets take one stacked fill, totals expansion
    and moment pass; in sampled mode it holds one. The rows are the same,
    bit for bit, for any ``jobs`` and however the trials fall into runs.
    """
    config = config if config is not None else MeasureConfig()
    target = PredictTarget(target)
    check_enumeration_cap(p_values, path_mode, max_features)
    for p in p_values:
        check_data_size(int(p), n_samples)
    trials, tasks = int(trials_per_p), []
    for p in map(int, p_values):
        batch = 1
        if path_mode is PathMode.EXHAUSTIVE:
            batch = lattices_per_fill(p, n_samples)
        tasks += [
            (target, p, range(start, min(start + batch, trials)), int(seed),
             config, path_mode, n_samples, path_samples, max_features)
            for start in range(0, trials, batch)
        ]
    return [
        row
        for rows in map_tasks(_training_rows, tasks, jobs)
        for row in rows
        if row is not None
    ]


def _draw_trial(target, p, trial, seed, n_samples):
    """(trial seed, its rng, params, data, truth) of one training trial."""
    seed_parts = (seed, target.value, p, trial)
    trial_seed = stable_seed(*seed_parts)
    rng = np.random.default_rng(trial_seed)
    with_confounders = bool(rng.integers(0, 2))
    first_seed = int(rng.integers(0, 2**63))
    return (trial_seed, rng) + generate_trial(
        p, n_samples, with_confounders, first_seed, seed_parts
    )


def _training_rows(task):
    """The rows of a run of consecutive trials of one p, in trial order, with
    None for a trial that fails numerically.

    The run's datasets are enumerated as one stack and their moments taken
    in one pass (sampled mode runs one trial per task). A run that fails
    numerically is redone one trial at a time, so only the failing trial is
    skipped; every other row is the one it gets alone, bit for bit.
    """
    (target, p, trials, seed, config, path_mode, n_samples,
     path_samples, max_features) = task
    try:
        drawn = [_draw_trial(target, p, trial, seed, n_samples) for trial in trials]
        if path_mode is PathMode.EXHAUSTIVE:
            lengths = enumerate_lengths(
                [data for _, _, _, data, _ in drawn], config, max_features
            )
        else:
            lengths = [
                sample_paths(data, config, path_samples, int(rng.integers(0, 2**63)))
                .lengths
                for _, rng, _, data, _ in drawn
            ]
        moments = moment_rows(lengths)
        rows = [
            {
                "features": MomentFeatures(moments=row).moments,
                "label": float(_label_for(target, params, data, truth, config)),
                "meta": {"p": p, "seed": trial_seed, "target": target.value},
            }
            for row, (trial_seed, _, params, data, truth) in zip(moments, drawn)
        ]
    except GenerationFailed:
        raise  # every parameter draw failed: not a numerical failure
    except Exception as error:  # noqa: BLE001 - per-trial isolation
        if len(trials) > 1:
            one_by_one = (task[:2] + (range(t, t + 1),) + task[3:] for t in trials)
            return [row for one in one_by_one for row in _training_rows(one)]
        log.warning("skipping trial p=%s index=%s: %s", p, trials[0], error)
        return [None]
    return rows
