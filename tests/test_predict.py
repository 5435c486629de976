"""Tests for the kNN graph-property predictors and ROC summaries."""

import logging

import numpy as np
import pytest
from scipy import stats

from pathlingam import predict, simgen
from pathlingam.errors import (
    DegenerateCorrelation,
    EmptyTrainingSet,
    GenerationFailed,
    SingleClass,
)
from pathlingam.pathdist import enumerate_paths, moment_features
from pathlingam.predict import (
    BINARY_TARGETS,
    PredictTarget,
    RocSummary,
    build_training_set,
    fit_knn,
    knn_classify,
    knn_regress,
    roc_summary,
)
from pathlingam.model import Dataset
from pathlingam.simgen import generate, generate_trial, sample_benchmark_params
from pathlingam.util import stable_seed


def _row(features, label):
    return {"features": features, "label": label}


def _model(train, k=None, target=PredictTarget.CONFOUNDER):
    return fit_knn(
        [row["features"] for row in train], [row["label"] for row in train], target, k
    )


def _classify(train, query, k=None):
    return knn_classify(_model(train, k), [query])[0]


def _regress(train, query, k=None):
    return knn_regress(_model(train, k, PredictTarget.SPARSITY_VALUE), [query])[0]


def _default_k(train_size):
    return _model([_row((0.0,), 0.0)] * train_size).k


class TestDefaultK:
    def test_perfect_squares(self):
        assert _default_k(1) == 1
        assert _default_k(16) == 4
        assert _default_k(100) == 10

    def test_rounds_up(self):
        assert _default_k(2) == 2
        assert _default_k(99) == 10
        assert _default_k(101) == 11


class TestNearestNeighbors:
    def test_single_neighbor_label(self):
        train = [_row((0.0, 0.0), 0.0), _row((5.0, 5.0), 1.0)]
        assert _classify(train, (4.9, 5.1), k=1) == 1.0
        assert _classify(train, (0.1, -0.1), k=1) == 0.0

    def test_score_is_positive_fraction(self):
        train = [
            _row((0.0,), 1.0),
            _row((0.1,), 1.0),
            _row((0.2,), 0.0),
            _row((9.0,), 0.0),
        ]
        assert _classify(train, (0.0,), k=3) == pytest.approx(2.0 / 3.0)

    def test_regress_averages_labels(self):
        train = [_row((0.0,), 1.0), _row((0.1,), 3.0), _row((8.0,), 100.0)]
        assert _regress(train, (0.05,), k=2) == 2.0

    def test_z_scoring_balances_scales(self):
        # Raw distances would be dominated by the first coordinate (scale
        # 1000); after per-feature standardization both carry equal weight.
        train = [
            _row((0.0, 0.0), 0.0),
            _row((1000.0, 1.0), 1.0),
        ]
        # Query shares the large coordinate with row 1 but row 0's small one.
        # Standardized, it sits at (+1, -1): exactly equidistant. The stable
        # argsort then keeps the earlier row.
        assert _classify(train, (1000.0, 0.0), k=1) == 0.0
        # Nudge the small coordinate toward row 1 and it wins.
        assert _classify(train, (1000.0, 0.6), k=1) == 1.0

    def test_constant_feature_dimension_is_harmless(self):
        train = [_row((3.0, 0.0), 0.0), _row((3.0, 4.0), 1.0)]
        assert _classify(train, (3.0, 3.9), k=1) == 1.0
        assert _classify(train, (-50.0, 0.2), k=1) == 0.0

    def test_distance_ties_resolve_to_earlier_row(self):
        train = [_row((1.0,), 1.0), _row((-1.0,), 0.0)]
        assert _classify(train, (0.0,), k=1) == 1.0
        reordered = [train[1], train[0]]
        assert _classify(reordered, (0.0,), k=1) == 0.0

    def test_k_out_of_range(self):
        train = [_row((0.0,), 0.0), _row((1.0,), 1.0)]
        with pytest.raises(ValueError):
            _classify(train, (0.0,), k=0)
        with pytest.raises(ValueError):
            _classify(train, (0.0,), k=3)

    def test_empty_training_set(self):
        with pytest.raises(EmptyTrainingSet):
            _classify([], (0.0,), k=1)
        with pytest.raises(EmptyTrainingSet):
            _regress([], (0.0,))

    def test_default_k_used_when_omitted(self):
        train = [_row((float(i),), float(i % 2)) for i in range(4)]
        # k defaults to ceil(sqrt(4)) = 2; neighbors of 0.6 are rows 0 and 1.
        assert _classify(train, (0.6,), k=None) == 0.5


def _brute_force(features, labels, query, k):
    """Labels of the k nearest rows to one query, with the z-scoring
    statistics recomputed from the rows for this query alone."""
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    std[std == 0.0] = 1.0
    scaled = (features - mean) / std
    target = (np.asarray(query, dtype=float) - mean) / std
    distances = np.sqrt(np.sum((scaled - target) ** 2, axis=1))
    return labels[np.argsort(distances, kind="stable")[:k]]


class TestKnnModel:
    def test_statistics_and_default_k(self):
        model = fit_knn([[1.0, 5.0], [3.0, 5.0]], [0.0, 1.0], "confounder")
        assert model.target is PredictTarget.CONFOUNDER
        assert model.k == 2
        assert model.mean.tolist() == [2.0, 5.0]
        assert model.std.tolist() == [1.0, 1.0]  # the constant column's 0 is 1

    def test_scores_equal_a_per_query_brute_force(self):
        rng = np.random.default_rng(60)
        for _ in range(30):
            n = int(rng.integers(1, 401))
            width = int(rng.integers(1, 6))
            features = rng.normal(size=(n, width)) * 10.0 ** rng.integers(
                -3, 4, size=width
            )
            features[:, rng.integers(width)] = rng.normal()  # one constant column
            # Training rows among the queries put distance ties in play.
            queries = np.vstack([rng.normal(size=(5, width)), features[:3]])
            k = int(rng.integers(1, n + 1))
            binary = rng.integers(0, 2, size=n).astype(float)
            model = fit_knn(features, binary, "confounder", k)
            assert knn_classify(model, queries) == [
                float(np.mean(_brute_force(features, binary, q, k) == 1.0))
                for q in queries
            ]
            values = rng.random(n)
            model = fit_knn(features, values, "sparsity_value", k)
            assert knn_regress(model, queries) == [
                float(_brute_force(features, values, q, k).mean()) for q in queries
            ]

    def test_rows_of_another_width_raise(self):
        model = fit_knn([[0.0, 1.0], [1.0, 0.0]], [0.0, 1.0], "confounder")
        with pytest.raises(ValueError, match="width"):
            knn_classify(model, [[0.5]])
        with pytest.raises(ValueError, match="width"):
            knn_classify(model, [[0.5, 0.5], [0.5]])
        with pytest.raises(ValueError):
            fit_knn([[0.0, 1.0], [1.0]], [0.0, 1.0], "confounder")
        with pytest.raises(ValueError):
            fit_knn([0.0, 1.0], [0.0, 1.0], "confounder")

    def test_non_finite_rows_labels_and_queries_raise(self):
        # A stable sort of all-NaN distances would return the first k rows.
        with pytest.raises(ValueError, match="finite"):
            fit_knn([[0.0, 1.0], [np.nan, 0.0]], [0.0, 1.0], "confounder")
        with pytest.raises(ValueError, match="finite"):
            fit_knn([[0.0, 1.0], [1.0, 0.0]], [0.0, np.inf], "confounder")
        model = fit_knn([[0.0, 1.0], [1.0, 0.0]], [0.0, 1.0], "confounder")
        with pytest.raises(ValueError, match="finite"):
            knn_classify(model, [[0.5, 0.5], [np.nan, np.nan]])

    def test_no_queries_give_no_scores(self):
        model = fit_knn([[0.0], [1.0]], [0.0, 1.0], "confounder")
        assert knn_classify(model, []) == []


class TestRocSummary:
    def test_hand_computed_tied_case(self):
        scores = [(0.9, 1), (0.8, 0), (0.8, 1), (0.3, 0)]
        summary = roc_summary(scores)
        assert summary.auc == pytest.approx(0.875, abs=1e-12)
        assert summary.optimal_threshold == 0.9
        assert summary.recall == 0.5
        assert summary.precision == 1.0
        assert summary.accuracy == 0.75

    def test_perfect_separation(self):
        scores = [(0.9, 1), (0.8, 1), (0.2, 0), (0.1, 0)]
        summary = roc_summary(scores)
        assert summary.auc == 1.0
        assert summary.accuracy == 1.0
        assert summary.optimal_threshold == 0.8

    def test_label_flip_complements_auc(self):
        scores = [(0.9, 1), (0.8, 0), (0.8, 1), (0.3, 0)]
        flipped = [(s, 1 - label) for s, label in scores]
        assert roc_summary(flipped).auc == pytest.approx(1.0 - 0.875, abs=1e-12)

    def test_all_tied_scores_give_half(self):
        scores = [(0.7, 1), (0.7, 0), (0.7, 1), (0.7, 0)]
        assert roc_summary(scores).auc == 0.5

    def test_matches_rank_statistic(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, size=60)
        labels[0], labels[1] = 0, 1
        raw = np.round(rng.normal(size=60) + labels, 1)  # 1 decimal forces ties
        summary = roc_summary(list(zip(raw, labels)))
        pos = raw[labels == 1]
        neg = raw[labels == 0]
        u = stats.mannwhitneyu(pos, neg, alternative="two-sided").statistic
        assert summary.auc == pytest.approx(u / (len(pos) * len(neg)), abs=1e-12)

    def test_youden_first_maximum_wins(self):
        # Steps: t=0.9 gives J=0.5, t=0.5 returns to J=0.5 after a dip; the
        # strict comparison keeps the earlier, higher threshold.
        scores = [(0.9, 1), (0.7, 0), (0.5, 1), (0.2, 0)]
        summary = roc_summary(scores)
        assert summary.optimal_threshold == 0.9

    def test_single_class_rejected(self):
        with pytest.raises(SingleClass):
            roc_summary([(0.5, 1), (0.3, 1)])
        with pytest.raises(SingleClass):
            roc_summary([(0.5, 0), (0.3, 0)])

    def test_labels_other_than_0_and_1_rejected(self):
        with pytest.raises(ValueError, match="0 or 1"):
            roc_summary([(0.9, 0.7), (0.5, 0.2), (0.3, 1.0)])

    def test_summary_bounds_validated(self):
        with pytest.raises(ValueError):
            RocSummary(auc=1.2, optimal_threshold=0.0, precision=0.5, recall=0.5, accuracy=0.5)


class TestBuildTrainingSet:
    def test_smoke_rows_and_meta(self):
        rows = build_training_set(
            PredictTarget.CONFOUNDER, p_values=(3,), trials_per_p=6, seed=0
        )
        assert 0 < len(rows) <= 6
        for row in rows:
            assert len(row["features"]) == 28
            assert row["label"] in (0.0, 1.0)
            assert set(row["meta"]) == {"p", "seed", "target"}
            assert row["meta"]["p"] == 3
            assert row["meta"]["target"] == "confounder"

    def test_deterministic(self):
        kwargs = dict(p_values=(3,), trials_per_p=4, seed=5)
        a = build_training_set("confounder", **kwargs)
        b = build_training_set("confounder", **kwargs)
        assert np.array_equal(
            [r["features"] for r in a], [r["features"] for r in b]
        )
        assert [r["label"] for r in a] == [r["label"] for r in b]

    def test_confounder_label_matches_params(self):
        # The label must be 1 exactly when the generating parameters included
        # confounders; both label values must appear over enough trials.
        rows = build_training_set(
            PredictTarget.CONFOUNDER, p_values=(3,), trials_per_p=12, seed=1
        )
        labels = {row["label"] for row in rows}
        assert labels == {0.0, 1.0}

    def test_sparsity_value_labels_are_continuous(self):
        rows = build_training_set(
            PredictTarget.SPARSITY_VALUE, p_values=(3,), trials_per_p=6, seed=2
        )
        assert all(0.0 <= row["label"] <= 1.0 for row in rows)
        assert any(row["label"] not in (0.0, 1.0) for row in rows)

    def test_failed_generation_redraws_the_parameters(self):
        # Trial 89 of this grid draws parameters that cannot generate data.
        rows = build_training_set("confounder", [4], 90, 2)
        assert len(rows) == 90
        # Every earlier trial generates on its first draw, so its row is the
        # one drawn directly from the trial seed, recomputed here.
        for trial, row in enumerate(rows):
            trial_seed = stable_seed(2, "confounder", 4, trial)
            rng = np.random.default_rng(trial_seed)
            with_confounders = bool(rng.integers(0, 2))
            params = sample_benchmark_params(
                4, 1000, with_confounders, int(rng.integers(0, 2**63))
            )
            assert row["meta"] == {"p": 4, "seed": trial_seed, "target": "confounder"}
            if trial == 89:
                with pytest.raises(GenerationFailed):
                    generate(params)
                # The redraw keeps the trial's confounder coin.
                assert with_confounders and row["label"] == 1.0
                continue
            data, _ = generate(params)
            features = moment_features(enumerate_paths(data))
            assert np.array_equal(row["features"], features.moments)
            assert row["label"] == float(with_confounders)

    def test_exhausted_redraws_raise(self, monkeypatch):
        calls = []

        def failing(params):
            calls.append(params.seed)
            raise GenerationFailed("no loadings")

        monkeypatch.setattr(simgen, "generate", failing)
        monkeypatch.setattr(simgen, "GENERATION_ATTEMPTS", 5)
        with pytest.raises(GenerationFailed):
            build_training_set("confounder", [3], 2, 0)
        assert len(set(calls)) == len(calls) == 5

    def test_failing_trial_is_skipped_alone_from_its_batch(self, monkeypatch, caplog):
        # Trial 2's data repeats column 0 as column 1, so its residual on
        # column 0 is left with nothing: the batch of six fails and is redone
        # one trial at a time.
        kwargs = dict(p_values=[3], trials_per_p=6, seed=4)
        clean = build_training_set("confounder", **kwargs)
        bad = {}

        def with_a_bad_trial(p, n_samples, with_confounders, first_seed, seed_parts):
            params, data, truth = generate_trial(
                p, n_samples, with_confounders, first_seed, seed_parts
            )
            if seed_parts[-1] == 2:
                values = data.values.copy()
                values[:, 1] = values[:, 0]
                bad["data"] = data = Dataset(values=values)
            return params, data, truth

        monkeypatch.setattr(predict, "generate_trial", with_a_bad_trial)
        with caplog.at_level(logging.WARNING, logger="pathlingam.predict"):
            rows = build_training_set("confounder", **kwargs)
        with pytest.raises(DegenerateCorrelation) as alone:
            enumerate_paths(bad["data"])
        assert [r.getMessage() for r in caplog.records] == [
            f"skipping trial p=3 index=2: {alone.value}"
        ]
        assert len(rows) == 5
        for row, expected in zip(rows, clean[:2] + clean[3:]):
            assert row["features"].tobytes() == expected["features"].tobytes()
            assert row["label"] == expected["label"]
            assert row["meta"] == expected["meta"]

    def test_rows_do_not_depend_on_batches_or_jobs(self, monkeypatch):
        # 40 trials are 32 + 8 at p = 4 and one batch at p = 3.
        kwargs = dict(p_values=[4, 3], trials_per_p=40, seed=9)
        runs = [build_training_set("confounder", **kwargs)]
        runs.append(build_training_set("confounder", jobs=2, **kwargs))
        monkeypatch.setattr(predict, "lattices_per_fill", lambda p, n: 3)
        runs.append(build_training_set("confounder", **kwargs))
        monkeypatch.setattr(predict, "lattices_per_fill", lambda p, n: 1)
        runs.append(build_training_set("confounder", **kwargs))
        assert len(runs[0]) == 80
        for run in runs[1:]:
            assert len(run) == len(runs[0])
            for row, expected in zip(run, runs[0]):
                assert row["features"].tobytes() == expected["features"].tobytes()
                assert row["label"] == expected["label"]
                assert row["meta"] == expected["meta"]

    def test_binary_target_registry(self):
        assert PredictTarget.CONFOUNDER in BINARY_TARGETS
        assert PredictTarget.SPARSITY_VALUE not in BINARY_TARGETS
        assert PredictTarget.SPP_EO not in BINARY_TARGETS
