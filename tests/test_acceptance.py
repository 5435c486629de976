"""Whole-toolkit acceptance checks at realistic Monte Carlo scale.

The unit test modules pin each component in isolation; this module runs the
slow seeded experiments that tie them together: search-versus-enumeration
oracles, benchmark error levels, the value of prior knowledge, predictor
AUC floors, and end-to-end CLI determinism. A full run takes roughly a
quarter of an hour on one core; run it as

    pytest tests/test_acceptance.py -v
"""

import itertools
import json
import logging
import math
import os

import numpy as np
from scipy import stats

from pathlingam.adjacency import estimate_adjacency
from pathlingam.bench import run_trial
from pathlingam.cli import main
from pathlingam.measures import plr_costs, state_entropies
from pathlingam.model import Dataset, standardize_values
from pathlingam.pathdist import (
    PathDistribution,
    PathMode,
    enumerate_paths,
    moment_features,
    sample_paths,
)
from pathlingam.predict import (
    PredictTarget,
    build_training_set,
    fit_knn,
    knn_classify,
    roc_summary,
)
from pathlingam.search import residualize, shortest_path_order
from pathlingam.simgen import generate, sample_benchmark_params
from pathlingam.util import stable_seed

from reference import plr, table_costs


# Straight-line reimplementation of a single path's cost, shared with the
# pathdist unit tests: standardize once, then peel features in path order,
# regressing each out of the survivors. Everything except the pairwise
# ratio itself is recomputed independently of the lattice.
def _naive_path_cost(values, permutation):
    z = values - values.mean(axis=0)
    z = z / z.std(axis=0)
    columns = {f: z[:, f] for f in range(values.shape[1])}
    total = 0.0
    for candidate in permutation[:-1]:
        others = [f for f in columns if f != candidate]
        if others:
            ratios = [plr(columns[candidate], columns[f]) for f in others]
            total += float(np.mean([min(0.0, r) ** 2 for r in ratios]))
        chosen = columns.pop(candidate)
        for f in list(columns):
            y = columns[f]
            slope = np.mean(y * chosen) / np.mean(chosen * chosen)
            columns[f] = y - slope * chosen
    return total


class TestSearchOracle:
    def test_shortest_path_matches_enumerated_minimum(self):
        """The search total equals the minimum over all p! orderings, and
        the returned permutation actually attains that cost when its steps
        are recomputed from scratch."""
        for p in (3, 4, 5, 6):
            for trial in range(100):
                seed = stable_seed(42, "oracle", p, trial)
                params = sample_benchmark_params(p, 200, trial % 2 == 0, seed)
                data, _ = generate(params)
                result = shortest_path_order(data)
                best = min(enumerate_paths(data).lengths)
                assert abs(result.total_cost - best) <= 1e-9
                recomputed = _naive_path_cost(data.values, result.order)
                assert abs(recomputed - result.total_cost) <= 1e-9


class TestMeasureInvariants:
    def test_pair_invariants_hold_on_random_pairs(self):
        """Antisymmetry and positive-scale invariance of the pairwise ratio
        within 1e-9, and nonnegative step costs, across 1000 random pairs of
        dependent non-Gaussian vectors."""
        rng = np.random.default_rng(stable_seed(42, "invariants"))
        n = 300
        shapes = (
            lambda: rng.uniform(-1.0, 1.0, n),
            lambda: rng.laplace(0.0, 1.0, n),
            lambda: rng.exponential(1.0, n) - 1.0,
            lambda: rng.standard_t(5, n),
        )
        for _ in range(1000):
            x = shapes[rng.integers(0, len(shapes))]()
            alpha = rng.uniform(-1.2, 1.2)
            y = alpha * x + shapes[rng.integers(0, len(shapes))]()
            forward = plr(x, y)
            assert abs(forward + plr(y, x)) <= 1e-9
            a, b = rng.uniform(0.1, 10.0, 2)
            assert abs(plr(a * x, b * y) - forward) <= 1e-9
            columns = standardize_values(np.column_stack([x, y]))
            assert all(cost >= 0.0 for cost in plr_costs(columns))

    def test_known_direction_gets_positive_sign(self):
        """y built as 0.8x plus independent uniform noise should yield a
        positive ratio (meaning x causes y) in at least 95 of 100 seeds."""
        positives = 0
        for trial in range(100):
            rng = np.random.default_rng(stable_seed(42, "direction", trial))
            x = rng.uniform(-1.0, 1.0, 10_000)
            e = rng.uniform(-1.0, 1.0, 10_000)
            if plr(x, 0.8 * x + e) > 0.0:
                positives += 1
        assert positives >= 95


class TestBenchmarkLevels:
    def test_unconfounded_error_bands_at_p5(self):
        """Mean ordering error of both methods on clean p = 5 data sits in
        the expected band (250 trials, N = 1000)."""
        spp, direct = [], []
        for trial in range(250):
            seed = stable_seed(42, "bands", trial)
            spp.append(run_trial("spp-plr", 5, 1000, False, 0.0, seed)[0])
            direct.append(
                run_trial("direct-plr", 5, 1000, False, 0.0, seed)[0]
            )
        assert 0.16 <= float(np.mean(spp)) <= 0.26
        assert 0.17 <= float(np.mean(direct)) <= 0.27

    def test_search_improves_on_greedy_at_p10(self):
        """Global search should order p = 10 data at least as well as the
        greedy baseline, with a significant paired difference, over 250
        trials mixing confounded and unconfounded datasets."""
        spp, direct = [], []
        for trial in range(250):
            seed = stable_seed(42, "relative-p10", trial)
            confounded = trial % 2 == 0
            spp.append(
                run_trial("spp-plr", 10, 1000, confounded, 0.0, seed)[0]
            )
            direct.append(
                run_trial("direct-plr", 10, 1000, confounded, 0.0, seed)[0]
            )
        t_stat, p_value = stats.ttest_rel(spp, direct)
        assert float(np.mean(spp)) <= float(np.mean(direct))
        assert t_stat < 0.0 and p_value < 0.05

    def test_prior_knowledge_helps_monotonically(self):
        """Pinning a growing fraction of the true relative order never hurts
        the mean ordering error, and pruning at fraction 0.75 evaluates
        strictly fewer lattice edges than no prior at all (p = 8, paired
        over 200 trials per fraction)."""
        fracs = (0.0, 0.25, 0.5, 0.75)
        mean_eo, mean_edges = {}, {}
        for frac in fracs:
            errors, edges = [], []
            for trial in range(200):
                seed = stable_seed(42, "prior-trend", trial)
                e_o, _, n_edges = run_trial(
                    "spp-plr", 8, 1000, False, frac, seed
                )
                errors.append(e_o)
                edges.append(n_edges)
            mean_eo[frac] = float(np.mean(errors))
            mean_edges[frac] = float(np.mean(edges))
        for low, high in itertools.pairwise(fracs):
            assert mean_eo[high] <= mean_eo[low]
        assert mean_edges[0.75] < mean_edges[0.0]


class TestPathDistributionConsistency:
    def test_minimum_of_enumeration_is_search_total(self):
        for trial in range(50):
            p = 3 + trial % 4
            seed = stable_seed(42, "enumeration", trial)
            params = sample_benchmark_params(p, 300, trial % 2 == 1, seed)
            data, _ = generate(params)
            best = min(enumerate_paths(data).lengths)
            result = shortest_path_order(data)
            assert abs(best - result.total_cost) <= 1e-9

    def test_enumeration_matches_stepwise_recomputation_exactly(self):
        """Every enumerated total is bit-identical to a from-scratch walk of
        that permutation: residual states are canonical (features peeled in
        ascending index order) and a state's entropies do not depend on the
        states that shared its kernel call, so a path's cost has exactly one
        float realization. It also matches a walk that weighs each step with
        the pairwise kernel (plr_costs) to 1e-9 relative."""

        def canonical_columns(base, mask):
            columns = base
            kept = list(range(base.shape[1]))
            for removed in range(base.shape[1]):
                if mask & (1 << removed):
                    continue
                columns = residualize(columns, kept.index(removed))
                kept.remove(removed)
            return columns, kept

        def table_entry(base, mask):
            columns, _ = canonical_columns(base, mask)
            return state_entropies(columns.T, columns.shape[1])

        def stepwise_totals(data, permutation):
            base = standardize_values(data.values)
            mask = (1 << data.n_features) - 1
            table_total = pairwise_total = 0.0
            for feature in permutation[:-1]:
                columns, kept = canonical_columns(base, mask)
                children = [table_entry(base, mask & ~(1 << f)) for f in kept]
                position = kept.index(feature)
                table_total = table_total + float(
                    table_costs(table_entry(base, mask), children)[position]
                )
                pairwise_total = pairwise_total + float(
                    plr_costs(columns)[position]
                )
                mask &= ~(1 << feature)
            return table_total, pairwise_total

        for trial in range(3):
            seed = stable_seed(42, "exact-recompute", trial)
            params = sample_benchmark_params(4, 400, trial % 2 == 0, seed)
            data, _ = generate(params)
            lengths = enumerate_paths(data).lengths
            perms = list(itertools.permutations(range(4)))
            assert len(lengths) == len(perms)
            for total, perm in zip(lengths, perms):
                table_total, pairwise_total = stepwise_totals(data, perm)
                assert total == table_total
                assert abs(total - pairwise_total) <= 1e-9 * abs(pairwise_total)


class TestMomentReferenceValues:
    def test_two_point_moments_are_exact(self):
        """An equal-mass two-point sample standardizes to exactly +/-1, so
        every even moment is exactly 1.0; the fourth in particular."""
        dist = PathDistribution(
            (math.exp(-1.0), math.exp(1.0)), PathMode.EXHAUSTIVE
        )
        feats = moment_features(dist)
        for order, value in zip(range(3, 31), feats.moments):
            assert value == (1.0 if order % 2 == 0 else 0.0)

    def test_symmetric_data_has_vanishing_odd_moments(self):
        half = np.linspace(0.05, 1.8, 80)
        z = np.concatenate([half, -half])
        dist = PathDistribution(tuple(np.exp(z)), PathMode.EXHAUSTIVE)
        feats = moment_features(dist, log_epsilon=0.0)
        for order, value in zip(range(3, 31), feats.moments):
            if order % 2 == 1:
                assert abs(value) <= 1e-9

    def test_gaussian_kurtosis_is_three(self):
        rng = np.random.default_rng(stable_seed(42, "kurtosis"))
        z = rng.standard_normal(1_000_000)
        dist = PathDistribution(tuple(np.exp(z)), PathMode.SAMPLED)
        feats = moment_features(dist, log_epsilon=0.0)
        kurtosis = feats.moments[1]
        assert abs(kurtosis - 3.0) <= 0.1


class TestPredictorFloors:
    def test_detector_aucs_clear_their_floors(self):
        """Moment features must carry real signal: a confounder detector
        trained at p in {4, 5, 6} and tested at p = 7 reaches AUC >= 0.58,
        and a sparsity-over-half classifier reaches AUC >= 0.56."""
        for target, floor in (
            (PredictTarget.CONFOUNDER, 0.58),
            (PredictTarget.SPARSITY_GT_HALF, 0.56),
        ):
            train = build_training_set(target, (4, 5, 6), 700, seed=42, jobs=2)
            assert len(train) >= 2000
            test = build_training_set(target, (7,), 520, seed=43, jobs=2)
            assert len(test) >= 500
            model = fit_knn(
                [row["features"] for row in train], [row["label"] for row in train],
                target,
            )
            scores = knn_classify(model, [row["features"] for row in test])
            summary = roc_summary(zip(scores, [row["label"] for row in test]))
            assert summary.auc >= floor, (
                f"{target.value} AUC {summary.auc:.4f} below {floor}"
            )

    def test_sampled_path_auc_converges_with_sample_size(self):
        """Detector AUC from sampled path distributions, evaluated on 100
        datasets at p = 7, does not drop by more than 0.03 between
        consecutive sample sizes on {100, 250, 500, 1000, 2500}. Draws with
        one seed are prefix-nested, so one 2500-path run per dataset yields
        every smaller distribution by slicing."""
        grid = (100, 250, 500, 1000, 2500)

        def rows_per_size(p_values, trials_per_p, base_seed):
            per_size = {size: [] for size in grid}
            for p in p_values:
                for trial in range(trials_per_p):
                    seed = stable_seed(base_seed, "sampled-auc", p, trial)
                    rng = np.random.default_rng(seed)
                    confounded = bool(rng.integers(0, 2))
                    params = sample_benchmark_params(
                        p, 1000, confounded, int(rng.integers(0, 2**63))
                    )
                    data, _ = generate(params)
                    label = 1.0 if params.n_confounders > 0 else 0.0
                    full = sample_paths(
                        data, None, grid[-1], int(rng.integers(0, 2**63))
                    )
                    for size in grid:
                        dist = PathDistribution(
                            full.lengths[:size], PathMode.SAMPLED
                        )
                        per_size[size].append({
                            "features": moment_features(dist).moments,
                            "label": label,
                        })
            return per_size

        train = rows_per_size((4, 5, 6), 100, 44)
        test = rows_per_size((7,), 100, 45)
        aucs = []
        for size in grid:
            model = fit_knn(
                [row["features"] for row in train[size]],
                [row["label"] for row in train[size]],
                PredictTarget.CONFOUNDER,
            )
            scores = knn_classify(model, [row["features"] for row in test[size]])
            labels = [row["label"] for row in test[size]]
            aucs.append(roc_summary(zip(scores, labels)).auc)
        for previous, current in itertools.pairwise(aucs):
            assert current >= previous - 0.03, f"AUC path {aucs}"


class TestAdjacencyRecovery:
    def test_chain_edge_set_recovered_exactly(self, caplog):
        """Unit-coefficient chains with tiny noise (variance 0.01, N = 1e5)
        must come back with exactly the chain's edges in at least 95 of 100
        seeds: no missed links and no spurious skip-ahead edges. Every
        lasso solve converges, so nothing is logged."""
        caplog.set_level(logging.WARNING, logger="pathlingam.adjacency")
        n, p = 100_000, 4
        expected = frozenset((j - 1, j) for j in range(1, p))
        hits = 0
        for trial in range(100):
            rng = np.random.default_rng(stable_seed(42, "chains", trial))
            x = np.empty((n, p))
            x[:, 0] = rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), n)
            for j in range(1, p):
                noise = rng.uniform(-math.sqrt(0.03), math.sqrt(0.03), n)
                x[:, j] = x[:, j - 1] + noise
            b_hat = estimate_adjacency(Dataset(x), tuple(range(p)))
            edges = {(cause, effect) for effect, cause in zip(*np.nonzero(b_hat))}
            if edges == expected:
                hits += 1
        assert hits >= 95
        assert caplog.records == []


class TestCliDeterminism:
    def _rerun_identical(self, argv, out_dir):
        """Run one command twice with identical flags; return both rounds'
        outputs as {filename: normalized content}."""
        assert main(argv) == 0
        first = self._snapshot(out_dir)
        assert main(argv) == 0
        second = self._snapshot(out_dir)
        return first, second

    @staticmethod
    def _snapshot(out_dir):
        # Wall-clock values can never repeat across runs and are compared
        # structurally with the clock fields removed; every other byte must
        # match exactly.
        snapshot = {}
        for name in sorted(os.listdir(out_dir)):
            path = os.path.join(out_dir, name)
            with open(path, "rb") as handle:
                raw = handle.read()
            if name == "manifest.json":
                payload = json.loads(raw)
                payload.pop("started", None)
                payload.pop("finished", None)
                snapshot[name] = payload
            elif name == "result.json":
                payload = json.loads(raw)
                payload.pop("runtime_ms", None)
                snapshot[name] = payload
            elif name == "cells.json":
                payload = json.loads(raw)
                for cell in payload:
                    cell.pop("mean_runtime", None)
                snapshot[name] = payload
            elif name == "cells.csv":
                lines = raw.decode("utf-8").splitlines()
                drop = lines[0].split(",").index("mean_runtime")
                snapshot[name] = [
                    ",".join(
                        value
                        for index, value in enumerate(line.split(","))
                        if index != drop
                    )
                    for line in lines
                ]
            else:
                snapshot[name] = raw
        return snapshot

    def test_every_command_is_deterministic(self, tmp_path):
        gen_dir = tmp_path / "gen"
        first, second = self._rerun_identical(
            [
                "gen", "--p", "3", "--n", "240", "--sparsity", "0.3",
                "--seed", "5", "--out", str(gen_dir),
            ],
            gen_dir,
        )
        assert first == second
        data_csv = str(gen_dir / "data.csv")

        discover_dir = tmp_path / "discover"
        discover_dir.mkdir()
        first, second = self._rerun_identical(
            [
                "discover", "--data", data_csv, "--method", "spp-plr",
                "--adjacency", "--out", str(discover_dir / "result.json"),
            ],
            discover_dir,
        )
        assert first == second

        pathdist_dir = tmp_path / "pathdist"
        pathdist_dir.mkdir()
        first, second = self._rerun_identical(
            [
                "pathdist", "--data", data_csv, "--mode", "exhaustive",
                "--out", str(pathdist_dir / "pathdist.json"),
            ],
            pathdist_dir,
        )
        assert first == second

        features_dir = tmp_path / "features"
        features_dir.mkdir()
        first, second = self._rerun_identical(
            [
                "features", "--dist", str(pathdist_dir / "pathdist.json"),
                "--out", str(features_dir / "features.json"),
            ],
            features_dir,
        )
        assert first == second

        train_dir = tmp_path / "train"
        train_dir.mkdir()
        first, second = self._rerun_identical(
            [
                "train", "--target", "confounder", "--p", "4",
                "--trials-per-p", "10", "--n-samples", "300", "--seed", "9",
                "--out", str(train_dir / "training.jsonl"),
                "--model", str(train_dir / "model.json"),
            ],
            train_dir,
        )
        assert first == second

        predict_dir = tmp_path / "predict"
        predict_dir.mkdir()
        first, second = self._rerun_identical(
            [
                "predict", "--model", str(train_dir / "model.json"),
                "--features", str(train_dir / "training.jsonl"),
                "--out", str(predict_dir / "prediction.json"),
            ],
            predict_dir,
        )
        assert first == second

        eval_dir = tmp_path / "eval"
        eval_dir.mkdir()
        first, second = self._rerun_identical(
            [
                "eval", "--model", str(train_dir / "model.json"),
                "--test", str(train_dir / "training.jsonl"),
                "--out", str(eval_dir / "roc.json"),
            ],
            eval_dir,
        )
        assert first == second

        bench_dir = tmp_path / "bench"
        first, second = self._rerun_identical(
            [
                "bench", "--p", "3", "--n", "240", "--trials", "3",
                "--methods", "spp-plr,direct-plr", "--seed", "11",
                "--out", str(bench_dir),
            ],
            bench_dir,
        )
        assert first == second
