"""End-to-end tests of the command-line interface.

Every invocation goes through main(argv) in-process; exit codes and the
files left behind are the observable contract.
"""

import concurrent.futures
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from pathlingam import cli
from pathlingam.cli import main


def _gen(tmp_path, p=3, n=300, seed=0, extra=()):
    out = tmp_path / f"gen_p{p}_s{seed}"
    code = main(
        [
            "gen", "--p", str(p), "--n", str(n), "--sparsity", "0.3",
            "--seed", str(seed), "--out", str(out), *extra,
        ]
    )
    assert code == 0
    return out


def _scaled_copy(data_path, scale):
    """A copy of a data CSV beside it, every value multiplied by ``scale``."""
    lines = data_path.read_text().splitlines()
    values = np.loadtxt(lines[1:], delimiter=",") * scale
    scaled = data_path.parent / "scaled.csv"
    scaled.write_text(
        lines[0] + "\n"
        + "".join(",".join(repr(float(v)) for v in row) + "\n" for row in values)
    )
    return scaled


class TestGen:
    def test_writes_data_truth_manifest(self, tmp_path):
        out = _gen(tmp_path)
        data = (out / "data.csv").read_text().splitlines()
        assert data[0] == "x0,x1,x2"
        assert len(data) == 301
        truth = json.loads((out / "truth.json").read_text())
        assert set(truth) == {"B", "Lambda", "true_order", "params"}
        assert sorted(truth["true_order"]) == [0, 1, 2]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "gen"
        assert set(manifest) == {
            "command", "config_digest", "tool_version", "started",
            "finished", "outputs",
        }

    def test_truth_params_keep_their_keys_and_order(self, tmp_path):
        out = _gen(tmp_path, extra=("--confounders", "1"))
        params = json.loads((out / "truth.json").read_text())["params"]
        assert list(params.items()) == [
            ("p", 3), ("n_samples", 300), ("sparsity", 0.3),
            ("n_confounders", 1), ("confoundedness", 0.0),
            ("confounding_strength_exp", 1.0), ("noise_family", "standard12"),
            ("seed", 0),
        ]

    def test_byte_identical_reruns(self, tmp_path):
        first = _gen(tmp_path, seed=3)
        payload = (first / "data.csv").read_bytes()
        second_dir = tmp_path / "again"
        code = main(
            [
                "gen", "--p", "3", "--n", "300", "--sparsity", "0.3",
                "--seed", "3", "--out", str(second_dir),
            ]
        )
        assert code == 0
        assert (second_dir / "data.csv").read_bytes() == payload

    def test_invalid_sparsity_exits_2(self, tmp_path, capsys):
        code = main(
            ["gen", "--p", "3", "--n", "50", "--sparsity", "1.5",
             "--out", str(tmp_path)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_required_exits_2(self, tmp_path, capsys):
        assert main(["gen", "--n", "50", "--out", str(tmp_path)]) == 2
        assert "p" in capsys.readouterr().err

    @pytest.mark.parametrize("exponent", ["400", "1e6", "nan", "inf"])
    def test_strength_exponent_without_a_finite_power_exits_2(
        self, tmp_path, capsys, exponent
    ):
        # 10 ** 400 overflows, which escaped main as a traceback.
        code = main(
            ["gen", "--p", "3", "--n", "50", "--confounders", "1",
             "--strength-exp", exponent, "--out", str(tmp_path)]
        )
        assert code == 2
        assert "confounding_strength_exp" in capsys.readouterr().err

    def test_impossible_confounding_maps_to_5(self, tmp_path):
        code = main(
            ["gen", "--p", "3", "--n", "50", "--confounders", "2",
             "--confoundedness", "1.0", "--seed", "0", "--out", str(tmp_path)]
        )
        assert code == 5


class TestDiscover:
    def test_result_fields(self, tmp_path):
        out = _gen(tmp_path)
        result_path = tmp_path / "result.json"
        code = main(
            ["discover", "--data", str(out / "data.csv"),
             "--out", str(result_path)]
        )
        assert code == 0
        result = json.loads(result_path.read_text())
        assert list(result) == [
            "order", "total_cost", "step_costs", "edges_evaluated", "runtime_ms"
        ]
        assert sorted(result["order"]) == [0, 1, 2]
        assert len(result["step_costs"]) == 3
        assert result["step_costs"][-1] == 0.0

    def test_adjacency_flag_adds_b_hat(self, tmp_path):
        out = _gen(tmp_path, n=500)
        result_path = tmp_path / "adj.json"
        code = main(
            ["discover", "--data", str(out / "data.csv"), "--adjacency",
             "--out", str(result_path)]
        )
        assert code == 0
        result = json.loads(result_path.read_text())
        assert list(result) == [
            "order", "total_cost", "step_costs", "edges_evaluated",
            "b_hat", "runtime_ms",
        ]
        b_hat = np.array(result["b_hat"])
        assert b_hat.shape == (3, 3)
        ordering = result["order"]
        permuted = b_hat[np.ix_(ordering, ordering)]
        assert np.array_equal(np.triu(permuted), np.zeros((3, 3)))

    def test_spp_equals_direct_for_two_features(self, tmp_path):
        out = _gen(tmp_path, p=2, n=400, seed=5)
        results = {}
        for method in ("spp-plr", "direct-plr"):
            path = tmp_path / f"{method}.json"
            assert main(
                ["discover", "--data", str(out / "data.csv"),
                 "--method", method, "--out", str(path)]
            ) == 0
            results[method] = json.loads(path.read_text())
        assert results["spp-plr"]["order"] == results["direct-plr"]["order"]
        assert results["spp-plr"]["total_cost"] == pytest.approx(
            results["direct-plr"]["total_cost"], abs=1e-9
        )

    def test_full_prior_returned_verbatim(self, tmp_path):
        out = _gen(tmp_path, p=4, n=300, seed=6)
        prior_path = tmp_path / "prior.json"
        prior_path.write_text(json.dumps([[3, 1, 0, 2]]))
        result_path = tmp_path / "pinned.json"
        code = main(
            ["discover", "--data", str(out / "data.csv"),
             "--prior", str(prior_path), "--out", str(result_path)]
        )
        assert code == 0
        assert json.loads(result_path.read_text())["order"] == [3, 1, 0, 2]

    def test_single_index_sequences_carry_no_order(self, tmp_path):
        out = _gen(tmp_path, p=4, n=300, seed=6)
        prior_path = tmp_path / "prior.json"
        prior_path.write_text(json.dumps([[2, 0], [9]]))
        result_path = tmp_path / "r.json"
        assert main(
            ["discover", "--data", str(out / "data.csv"),
             "--prior", str(prior_path), "--out", str(result_path)]
        ) == 0
        order = json.loads(result_path.read_text())["order"]
        assert order.index(2) < order.index(0)

    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_data_of_any_finite_scale_gives_the_unscaled_orders(
        self, tmp_path, scale
    ):
        # 1e160 exited 5 (a variance overflowed to inf), 1e-170 exited 2 (a
        # variance underflowed to 0).
        out = _gen(tmp_path, p=4, n=300, seed=7)
        scaled = _scaled_copy(out / "data.csv", scale)
        for method in ("spp-plr", "direct-plr", "spp-knn"):
            results = []
            for data in (out / "data.csv", scaled):
                path = tmp_path / "r.json"
                assert main(["discover", "--data", str(data), "--method", method,
                             "--out", str(path)]) == 0
                results.append(json.loads(path.read_text()))
            assert results[1]["order"] == results[0]["order"]
            assert results[1]["step_costs"] == pytest.approx(
                results[0]["step_costs"], rel=1e-9, abs=1e-15
            )

    def test_adjacency_overflow_exits_5(self, tmp_path, capsys):
        out = _gen(tmp_path, p=4, n=300, seed=7)
        scaled = _scaled_copy(out / "data.csv", 1e160)
        code = main(["discover", "--data", str(scaled), "--adjacency",
                     "--out", str(tmp_path / "r.json")])
        assert code == 5
        assert "overflow" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [1e-152, 1e-160, 1e-170])
    def test_adjacency_underflow_exits_5(self, tmp_path, capsys, scale):
        # These scales exited 0 with a wrong or empty support, or exited on a
        # ValueError from the penalty grid.
        out = _gen(tmp_path, p=4, n=300, seed=7)
        scaled = _scaled_copy(out / "data.csv", scale)
        code = main(["discover", "--data", str(scaled), "--adjacency",
                     "--out", str(tmp_path / "r.json")])
        assert code == 5
        assert "underflow" in capsys.readouterr().err

    def test_cyclic_prior_exits_3(self, tmp_path, capsys):
        out = _gen(tmp_path)
        prior_path = tmp_path / "cycle.json"
        prior_path.write_text(json.dumps([[0, 1], [1, 0]]))
        code = main(
            ["discover", "--data", str(out / "data.csv"),
             "--prior", str(prior_path), "--out", str(tmp_path / "r.json")]
        )
        assert code == 3
        capsys.readouterr()

    def test_unknown_method_exits_2(self, tmp_path, capsys):
        out = _gen(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["discover", "--data", str(out / "data.csv"),
                  "--method", "magic"])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_missing_data_file_exits_2(self, tmp_path, capsys):
        code = main(
            ["discover", "--data", str(tmp_path / "nope.csv"),
             "--out", str(tmp_path / "r.json")]
        )
        assert code == 2
        capsys.readouterr()


class TestPathdistAndFeatures:
    def test_exhaustive_matches_discover_minimum(self, tmp_path):
        out = _gen(tmp_path)
        dist_path = tmp_path / "dist.json"
        result_path = tmp_path / "result.json"
        assert main(
            ["pathdist", "--data", str(out / "data.csv"),
             "--out", str(dist_path)]
        ) == 0
        assert main(
            ["discover", "--data", str(out / "data.csv"),
             "--out", str(result_path)]
        ) == 0
        dist = json.loads(dist_path.read_text())
        result = json.loads(result_path.read_text())
        assert dist["mode"] == "exhaustive"
        assert len(dist["lengths"]) == 6
        assert min(dist["lengths"]) == pytest.approx(
            result["total_cost"], abs=1e-9
        )

    @pytest.mark.parametrize("seed", [0, 5, 9, 12, 15, 27, 32])
    def test_collinear_data_exits_alike_in_discover_and_pathdist(
        self, tmp_path, capsys, seed
    ):
        # x2 = 2 x0 - 3 exactly. Rounding left the search an order on
        # seeds 5, 9, 12, 15, 27 and 32, made of noise; both commands must
        # reject every one.
        x = np.random.default_rng(seed).uniform(size=(300, 2))
        values = np.column_stack([x, 2.0 * x[:, 0] - 3.0])
        data = tmp_path / "collinear.csv"
        data.write_text(
            "x0,x1,x2\n"
            + "".join(",".join(repr(float(v)) for v in row) + "\n" for row in values)
        )
        codes = [
            main([command, "--data", str(data), "--out", str(tmp_path / "o.json")])
            for command in ("discover", "pathdist")
        ]
        assert codes == [5, 5]
        capsys.readouterr()

    @pytest.mark.parametrize("copy", ["duplicate", "affine", "sum"])
    def test_collinear_data_exits_5_under_the_knn_measure(
        self, tmp_path, capsys, copy
    ):
        # The kNN measure scored the rounding noise of a residual left by an
        # exact copy, where the likelihood ratio exits 5.
        rng = np.random.default_rng(1)
        x = rng.laplace(size=(60, 2))
        x[:, 1] += 0.5 * x[:, 0]
        third = {
            "duplicate": x[:, 0],
            "affine": 2.0 * x[:, 0] - 3.0,
            "sum": x[:, 0] + x[:, 1],
        }[copy]
        values = np.column_stack([x, third])
        data = tmp_path / "collinear.csv"
        data.write_text(
            "x0,x1,x2\n"
            + "".join(",".join(repr(float(v)) for v in row) + "\n" for row in values)
        )
        codes = [
            main([*command, "--data", str(data), "--out", str(tmp_path / "o.json")])
            for command in (["discover", "--method", "spp-knn"],
                            ["pathdist", "--measure", "knn"],
                            ["discover"], ["pathdist"])
        ]
        assert codes == [5, 5, 5, 5]
        assert "|correlation| is 1" in capsys.readouterr().err

    def test_enumeration_cap_exits_4(self, tmp_path, capsys):
        out = _gen(tmp_path, p=4)
        code = main(
            ["pathdist", "--data", str(out / "data.csv"),
             "--max-features", "3", "--out", str(tmp_path / "d.json")]
        )
        assert code == 4
        capsys.readouterr()

    def test_sampling_deterministic(self, tmp_path):
        out = _gen(tmp_path, p=4)
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert main(
                ["pathdist", "--data", str(out / "data.csv"), "--mode",
                 "sample", "--samples", "25", "--seed", "9",
                 "--out", str(path)]
            ) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_features_output(self, tmp_path):
        out = _gen(tmp_path)
        dist_path = tmp_path / "dist.json"
        feat_path = tmp_path / "features.json"
        assert main(
            ["pathdist", "--data", str(out / "data.csv"),
             "--out", str(dist_path)]
        ) == 0
        assert main(
            ["features", "--dist", str(dist_path), "--out", str(feat_path)]
        ) == 0
        feats = json.loads(feat_path.read_text())
        assert set(feats) == {"log_epsilon", "moments"}
        assert len(feats["moments"]) == 28

    @pytest.mark.parametrize("epsilon", ["-1", "0", "nan", "inf"])
    def test_log_epsilon_that_leaves_a_log_non_finite_exits_2(
        self, tmp_path, capsys, epsilon
    ):
        # Exhaustive distributions can hold lengths of exactly 0.
        dist_path = tmp_path / "dist.json"
        dist_path.write_text(
            json.dumps({"mode": "exhaustive", "lengths": [0.0, 1.0, 2.0]})
        )
        out = tmp_path / "features.json"
        assert main(
            ["features", "--dist", str(dist_path), f"--log-epsilon={epsilon}",
             "--out", str(out)]
        ) == 2
        assert "log_epsilon" in capsys.readouterr().err
        assert not out.exists()


class TestTrainPredictEval:
    def _train(self, tmp_path, target="confounder", trials=8, model=True):
        rows_path = tmp_path / f"{target}.jsonl"
        model_path = tmp_path / f"{target}_model.json"
        argv = [
            "train", "--target", target, "--p", "3", "--trials-per-p",
            str(trials), "--seed", "0", "--n-samples", "300",
            "--out", str(rows_path),
        ]
        if model:
            argv += ["--model", str(model_path)]
        assert main(argv) == 0
        return rows_path, model_path

    def test_training_rows_schema(self, tmp_path):
        rows_path, model_path = self._train(tmp_path)
        rows = [json.loads(line) for line in rows_path.read_text().splitlines()]
        assert 0 < len(rows) <= 8
        for row in rows:
            assert set(row) == {"features", "label", "meta"}
            assert len(row["features"]) == 28
            assert set(row["meta"]) == {"p", "seed", "target"}
        model = json.loads(model_path.read_text())
        assert set(model) == {
            "target", "k", "feature_mean", "feature_std", "features", "labels"
        }
        assert model["target"] == "confounder"
        assert len(model["feature_mean"]) == 28
        assert all(s > 0 for s in model["feature_std"])

    def test_train_deterministic(self, tmp_path):
        a, _ = self._train(tmp_path)
        b_dir = tmp_path / "again"
        b_dir.mkdir()
        b, _ = self._train(b_dir)
        assert a.read_bytes() == b.read_bytes()

    def test_predict_scores(self, tmp_path):
        rows_path, model_path = self._train(tmp_path)
        pred_path = tmp_path / "scores.json"
        code = main(
            ["predict", "--model", str(model_path), "--features",
             str(rows_path), "--out", str(pred_path)]
        )
        assert code == 0
        pred = json.loads(pred_path.read_text())
        assert pred["target"] == "confounder"
        assert pred["k"] >= 1
        rows = rows_path.read_text().splitlines()
        assert len(pred["scores"]) == len(rows)
        assert all(0.0 <= s <= 1.0 for s in pred["scores"])

    def test_predict_empty_model_exits_2(self, tmp_path, capsys):
        model_path = tmp_path / "empty.json"
        model_path.write_text(json.dumps({
            "target": "confounder", "k": 1, "feature_mean": [0.0] * 28,
            "feature_std": [1.0] * 28, "features": [], "labels": [],
        }))
        feats = tmp_path / "f.json"
        feats.write_text(json.dumps({"log_epsilon": 1e-12, "moments": [0.0] * 28}))
        code = main(
            ["predict", "--model", str(model_path), "--features", str(feats),
             "--out", str(tmp_path / "p.json")]
        )
        assert code == 2
        capsys.readouterr()

    def test_eval_roc(self, tmp_path):
        rows_path, model_path = self._train(tmp_path, trials=14)
        roc_path = tmp_path / "roc.json"
        code = main(
            ["eval", "--model", str(model_path), "--test", str(rows_path),
             "--out", str(roc_path)]
        )
        assert code == 0
        roc = json.loads(roc_path.read_text())
        assert set(roc) == {
            "auc", "optimal_threshold", "precision", "recall", "accuracy"
        }
        assert 0.0 <= roc["auc"] <= 1.0

    def test_train_over_enumeration_cap_exits_4(self, tmp_path, capsys):
        out = tmp_path / "rows.jsonl"
        code = main(
            ["train", "--target", "confounder", "--p", "9",
             "--trials-per-p", "1", "--out", str(out)]
        )
        assert code == 4
        assert "enumeration cap" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_train_jobs_checks_cap_before_any_worker(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        out = tmp_path / "rows.jsonl"
        code = main(
            ["train", "--target", "confounder", "--p", "6,9",
             "--trials-per-p", "2", "--jobs", "2", "--out", str(out)]
        )
        assert code == 4
        assert "enumeration cap" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_jobs_2_writes_the_rows_of_jobs_1(self, tmp_path):
        # Two p make two tasks, one run of trials each, over the pool; one p
        # makes one task, run in this process.
        for p, count in (("3,4", 6), ("4", 3)):
            rows = []
            for jobs in ("1", "2"):
                out = tmp_path / f"p{p}_jobs{jobs}.jsonl"
                assert main(
                    ["train", "--target", "confounder", "--p", p,
                     "--trials-per-p", "3", "--n-samples", "150", "--seed", "6",
                     "--jobs", jobs, "--out", str(out)]
                ) == 0
                rows.append(out.read_bytes())
            assert rows[0] == rows[1]
            assert rows[0].count(b"\n") == count

    def test_zero_jobs_exits_2(self, tmp_path, capsys):
        out = tmp_path / "rows.jsonl"
        code = main(
            ["train", "--target", "confounder", "--p", "3",
             "--trials-per-p", "1", "--jobs", "0", "--out", str(out)]
        )
        assert code == 2
        assert "jobs" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_eval_continuous_target_exits_2(self, tmp_path, capsys):
        rows_path, model_path = self._train(
            tmp_path, target="sparsity_value", trials=6
        )
        code = main(
            ["eval", "--model", str(model_path), "--test", str(rows_path),
             "--out", str(tmp_path / "roc.json")]
        )
        assert code == 2
        capsys.readouterr()

    def test_predict_reads_unlabeled_jsonl_rows(self, tmp_path):
        rows_path, model_path = self._train(tmp_path, trials=14)
        rows = [json.loads(line) for line in rows_path.read_text().splitlines()]
        unlabeled = tmp_path / "queries.jsonl"
        unlabeled.write_text("".join(
            json.dumps({"features": row["features"]}) + "\n" for row in rows
        ))
        scores = []
        for features in (rows_path, unlabeled):
            out = tmp_path / "prediction.json"
            assert main(
                ["predict", "--model", str(model_path), "--features",
                 str(features), "--out", str(out)]
            ) == 0
            scores.append(json.loads(out.read_text())["scores"])
        assert scores[0] == scores[1] and len(scores[0]) == len(rows)

    def test_eval_needs_labels(self, tmp_path, capsys):
        rows_path, model_path = self._train(tmp_path, trials=14)
        unlabeled = tmp_path / "queries.jsonl"
        unlabeled.write_text("".join(
            json.dumps({"features": json.loads(line)["features"]}) + "\n"
            for line in rows_path.read_text().splitlines()
        ))
        out = tmp_path / "roc.json"
        assert main(
            ["eval", "--model", str(model_path), "--test", str(unlabeled),
             "--out", str(out)]
        ) == 2
        assert "needs features and label" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_single_class_exits_5(self, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        row = {"features": [0.0] * 28, "label": 1.0, "meta": {}}
        model_path.write_text(json.dumps({
            "target": "confounder", "k": 1, "feature_mean": [0.0] * 28,
            "feature_std": [1.0] * 28, "features": [[0.0] * 28],
            "labels": [1.0],
        }))
        test_path = tmp_path / "t.jsonl"
        test_path.write_text(json.dumps(row) + "\n")
        code = main(
            ["eval", "--model", str(model_path), "--test", str(test_path),
             "--out", str(tmp_path / "roc.json")]
        )
        assert code == 5
        capsys.readouterr()


class TestBench:
    def test_outputs_and_schema(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code = main(
            ["bench", "--p", "3", "--n", "150", "--trials", "2",
             "--seed", "4", "--out", str(out)]
        )
        assert code == 0
        cells = json.loads((out / "cells.json").read_text())
        assert len(cells) == 2  # two default methods
        for cell in cells:
            assert set(cell) == {
                "method", "p", "n", "confounded", "prior_frac", "trials",
                "failed_trials", "mean_eo", "mean_runtime", "mean_edges",
                "valid",
            }
        csv_lines = (out / "cells.csv").read_text().splitlines()
        assert len(csv_lines) == 3
        assert csv_lines[0].startswith("method,")
        table = capsys.readouterr().out
        assert "spp-plr" in table and "direct-plr" in table

    def test_cells_json_booleans_agree_with_csv(self, tmp_path, capsys):
        out = tmp_path / "bench"
        assert main(
            ["bench", "--p", "3", "--n", "60", "--trials", "1", "--methods",
             "spp-plr", "--with-confounders", "both", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        cells = json.loads((out / "cells.json").read_text())
        header, *lines = (out / "cells.csv").read_text().splitlines()
        assert len(lines) == len(cells) == 2
        for cell, line in zip(cells, lines):
            fields = dict(zip(header.split(","), line.split(",")))
            for key in ("confounded", "valid"):
                assert isinstance(cell[key], bool)
                assert fields[key] == json.dumps(cell[key])
        assert {cell["confounded"] for cell in cells} == {False, True}

    def test_zero_trials_exits_2(self, tmp_path, capsys):
        code = main(
            ["bench", "--p", "3", "--trials", "0", "--out", str(tmp_path)]
        )
        assert code == 2
        capsys.readouterr()


    def test_zero_jobs_exits_2(self, tmp_path, capsys):
        code = main(
            ["bench", "--p", "3", "--trials", "1", "--jobs", "0",
             "--out", str(tmp_path / "bench")]
        )
        assert code == 2
        assert "at least 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["bench", "--p", "1", "--trials", "1"],
    ["bench", "--p", "3", "--n", "3", "--trials", "1"],
    ["bench", "--p", "3,5", "--n", "100,6", "--trials", "1"],
    ["train", "--target", "confounder", "--p", "1,4", "--trials-per-p", "1"],
    ["train", "--target", "confounder", "--p", "3", "--n-samples", "4",
     "--trials-per-p", "1"],
], ids=["bench-p1", "bench-n3", "bench-n6", "train-p1", "train-n4"])
def test_grid_no_trial_can_run_exits_2(tmp_path, capsys, argv):
    # Every trial needs p >= 2 and N >= p + 2; a grid that breaks the rule
    # anywhere is rejected before its first trial.
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert "need at least" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


class TestConfigMerge:
    def test_file_fills_and_flags_override(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"p": 3, "n": 200, "seed": 7}))
        out = tmp_path / "from_config"
        assert main(
            ["gen", "--config", str(config_path), "--out", str(out)]
        ) == 0
        assert (out / "data.csv").read_text().count("\n") == 201
        override = tmp_path / "override"
        assert main(
            ["gen", "--config", str(config_path), "--n", "80",
             "--out", str(override)]
        ) == 0
        assert (override / "data.csv").read_text().count("\n") == 81

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"p": 3, "n": 50, "bogus": 1}))
        assert main(
            ["gen", "--config", str(config_path), "--out", str(tmp_path)]
        ) == 2
        assert "bogus" in capsys.readouterr().err


class TestConfigFile:
    @pytest.mark.parametrize("config", [
        {"p": [3], "n": 50},
        {"p": 3, "n": "fifty"},
        {"p": 3, "n": 50, "noise_family": None},
        {"p": 3, "n": 50, "seed": True},
        {"p": 3.7, "n": 20},
        {"p": 3, "n": 20.5},
    ])
    def test_value_the_type_cannot_take_exits_2(self, tmp_path, capsys, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["gen", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert "config key" in capsys.readouterr().err

    def test_bool_option_takes_only_json_booleans(self, tmp_path, capsys):
        out = _gen(tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"adjacency": "false"}))
        argv = ["discover", "--config", str(path), "--data",
                str(out / "data.csv"), "--out", str(tmp_path / "r.json")]
        assert main(argv) == 2
        assert "adjacency" in capsys.readouterr().err
        path.write_text(json.dumps({"adjacency": False}))
        assert main(argv) == 0

    def test_choices_apply_to_config_values(self, tmp_path, capsys):
        out = _gen(tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"method": "spp-bogus"}))
        assert main(
            ["discover", "--config", str(path), "--data",
             str(out / "data.csv"), "--out", str(tmp_path / "r.json")]
        ) == 2
        assert "spp-bogus" in capsys.readouterr().err

    def test_int_and_float_spellings_give_one_digest(self, tmp_path):
        path = tmp_path / "config.json"
        out = tmp_path / "run"
        digests = []
        for sparsity in (0, 0.0):
            path.write_text(json.dumps({"p": 3, "n": 50, "sparsity": sparsity}))
            assert main(["gen", "--config", str(path), "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            digests.append(manifest["config_digest"])
        assert digests[0] == digests[1]

    def test_whole_float_is_taken_as_its_int(self, tmp_path):
        path = tmp_path / "config.json"
        out = tmp_path / "run"
        digests = []
        for p in (3, 3.0):
            path.write_text(json.dumps({"p": p, "n": 20}))
            assert main(["gen", "--config", str(path), "--out", str(out)]) == 0
            header = (out / "data.csv").read_text().splitlines()[0]
            assert header.split(",") == ["x0", "x1", "x2"]
            manifest = json.loads((out / "manifest.json").read_text())
            digests.append(manifest["config_digest"])
        assert digests[0] == digests[1]

    def test_list_options_take_json_lists(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"p": [3], "n": [120], "trials": 1,
                                    "methods": ["spp-plr"], "prior_fracs": [0]}))
        out = tmp_path / "bench"
        assert main(["bench", "--config", str(path), "--out", str(out)]) == 0
        cells = json.loads((out / "cells.json").read_text())
        assert [(c["method"], c["p"], c["n"]) for c in cells] == [
            ("spp-plr", 3, 120)
        ]


class TestMalformedInputFiles:
    @pytest.mark.parametrize("command, payload", [
        ("features", {"mode": "exhaustive", "lengths": 5}),
        ("features", {"mode": "exhaustive", "lengths": [1.0, None]}),
        ("predict", {"target": "confounder", "k": 1, "features": 5,
                     "labels": [1.0]}),
        ("discover", [1, 2]),
        ("predict", {"target": "confounder", "k": 1.5,
                     "features": [[0.0] * 28] * 2, "labels": [1.0, 0.0]}),
        ("predict", {"target": "confounder", "k": 1,
                     "features": [[0.0] * 28, [0.0] * 27], "labels": [1.0, 0.0]}),
        ("discover", [[0, 2.9]]),
        ("discover", [[True, 0]]),
        ("discover", [[0, 9]]),
        ("discover", [[0, 10**12]]),  # rejected before a table is sized by it
        ("discover", ["21"]),  # a string is not a sequence of indices
        ("predict", {"target": "confounder", "k": 1,
                     "features": [[0.0] * 28, [float("nan")] * 28],
                     "labels": [1.0, 0.0]}),
        ("predict", {"target": "confounder", "k": 1,
                     "features": [[0.0] * 28, [None] * 28], "labels": [1.0, 0.0]}),
        ("predict", {"target": "confounder", "k": 1, "features": [[0.0] * 28] * 2,
                     "labels": [1.0, float("inf")]}),
        # A binary target's labels must be 0 or 1.
        ("predict", {"target": "confounder", "k": 1, "features": [[0.0] * 28] * 3,
                     "labels": [0.7, 0.9, 0.2]}),
        ("predict", {"target": "sparsity_gt_half", "k": 1,
                     "features": [[0.0] * 28] * 2, "labels": [0.0, 2.0]}),
        ("features", {"mode": "exhaustive", "lengths": [float("inf"), 1.0, 2.0]}),
        # Query files that hold no rows.
        ("queries", {"features": []}),
        ("queries.jsonl", []),
    ])
    def test_exit_2(self, tmp_path, capsys, command, payload):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        out = str(tmp_path / "out.json")
        if command == "features":
            argv = ["features", "--dist", str(path), "--out", out]
        elif command.startswith("queries"):
            if command.endswith(".jsonl"):
                path = tmp_path / "input.jsonl"
                path.write_text("".join(json.dumps(row) + "\n" for row in payload))
            model = tmp_path / "model.json"
            model.write_text(json.dumps({
                "target": "confounder", "k": 1,
                "features": [[0.0] * 28, [1.0] * 28], "labels": [1.0, 0.0],
            }))
            argv = ["predict", "--model", str(model), "--features", str(path),
                    "--out", out]
        elif command == "predict":
            feats = tmp_path / "f.json"
            feats.write_text(json.dumps({"moments": [0.0] * 28}))
            argv = ["predict", "--model", str(path), "--features", str(feats),
                    "--out", out]
        else:
            data = _gen(tmp_path) / "data.csv"
            argv = ["discover", "--data", str(data), "--prior", str(path),
                    "--out", out]
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err
        assert not os.path.exists(out)


    @pytest.mark.parametrize("flag, name", [
        ("config", "c.json"), ("prior", "p.json"), ("dist", "d.json"),
        ("model", "m.json"), ("features", "f.json"), ("features", "f.jsonl"),
        ("test", "t.jsonl"),
        # UTF-16 text, which starts with the bytes FF FE.
        ("dist", "utf16.json"), ("data", "utf16.csv"),
    ])
    def test_non_json_input_names_the_file_and_line(
        self, tmp_path, capsys, flag, name
    ):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "target": "confounder", "k": 1, "features": [[0.0] * 28, [1.0] * 28],
            "labels": [1.0, 0.0],
        }))
        bad = tmp_path / name
        if name.startswith("utf16"):
            bad.write_text("x0,x1\n1,2\n", encoding="utf-16")
            where = str(bad)
        elif name.endswith(".jsonl"):
            row = json.dumps({"features": [0.5] * 28, "label": 1})
            bad.write_text(f"{row}\nnot json\n")
            where = f"{bad}:2"
        else:
            bad.write_text("not json\n")
            where = str(bad)
        argv = {
            "config": ["features", "--config", bad],
            "prior": ["discover", "--prior", bad],
            "dist": ["features", "--dist", bad],
            "model": ["predict", "--model", bad, "--features", bad],
            "features": ["predict", "--model", model, "--features", bad],
            "test": ["eval", "--model", model, "--test", bad],
            "data": ["discover", "--data", bad],
        }[flag]
        if flag == "prior":
            argv += ["--data", _gen(tmp_path) / "data.csv"]
        out = tmp_path / "out.json"
        assert main([str(arg) for arg in argv] + ["--out", str(out)]) == 2
        assert where in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_query_of_another_width_exits_2(self, tmp_path, capsys, command):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "target": "confounder", "k": 1, "features": [[0.0] * 28] * 2,
            "labels": [1.0, 0.0],
        }))
        out = str(tmp_path / "out.json")
        if command == "predict":
            feats = tmp_path / "f.json"
            feats.write_text(json.dumps({"moments": [0.5]}))
            argv = ["predict", "--model", str(model), "--features", str(feats)]
        else:
            test = tmp_path / "t.jsonl"
            rows = [{"features": [0.5] * 27, "label": label} for label in (0, 1)]
            test.write_text("".join(json.dumps(row) + "\n" for row in rows))
            argv = ["eval", "--model", str(model), "--test", str(test)]
        assert main([*argv, "--out", out]) == 2
        assert "width" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["predict", "eval"])
    def test_non_finite_query_exits_2(self, tmp_path, capsys, command):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "target": "confounder", "k": 1, "features": [[0.0] * 28, [1.0] * 28],
            "labels": [1.0, 0.0],
        }))
        out = str(tmp_path / "out.json")
        if command == "predict":
            feats = tmp_path / "f.json"
            feats.write_text(json.dumps({"moments": [float("nan")] * 28}))
            argv = ["predict", "--model", str(model), "--features", str(feats)]
        else:
            test = tmp_path / "t.jsonl"
            rows = [{"features": [value] * 28, "label": label}
                    for value, label in ((0.5, 0), (float("nan"), 1))]
            test.write_text("".join(json.dumps(row) + "\n" for row in rows))
            argv = ["eval", "--model", str(model), "--test", str(test)]
        assert main([*argv, "--out", out]) == 2
        assert "finite" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_eval_label_other_than_0_or_1_exits_2(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "target": "confounder", "k": 2,
            "features": [[float(i)] * 28 for i in range(4)],
            "labels": [0.0, 1.0, 0.0, 1.0],
        }))
        test = tmp_path / "t.jsonl"
        rows = [{"features": [value] * 28, "label": label}
                for value, label in ((0.2, 0.7), (1.4, 0.2), (2.9, 1.0))]
        test.write_text("".join(json.dumps(row) + "\n" for row in rows))
        out = str(tmp_path / "roc.json")
        assert main(["eval", "--model", str(model), "--test", str(test),
                     "--out", out]) == 2
        assert "0 or 1" in capsys.readouterr().err
        assert not os.path.exists(out)


class TestManifest:
    def test_manifest_written_next_to_outputs(self, tmp_path):
        out = _gen(tmp_path, seed=8)
        manifest = json.loads((out / "manifest.json").read_text())
        names = [os.path.basename(path) for path in manifest["outputs"]]
        assert names == ["data.csv", "truth.json"]
        assert manifest["tool_version"]
        assert manifest["started"] <= manifest["finished"]

    def test_config_digest_tracks_config_only(self, tmp_path):
        first = _gen(tmp_path, seed=9)
        a = json.loads((first / "manifest.json").read_text())
        # Identical invocation: digest unchanged even though timestamps move.
        repeat = _gen(tmp_path, seed=9)
        b = json.loads((repeat / "manifest.json").read_text())
        assert a["config_digest"] == b["config_digest"]
        # The output directory is part of the configuration.
        other = _gen(tmp_path / "sub", seed=9)
        c = json.loads((other / "manifest.json").read_text())
        assert a["config_digest"] != c["config_digest"]

    # Flag-only invocations with relative paths, and the digests they gave
    # when each option was declared by hand: declaring options differently
    # must not move them.
    PINNED = [
        (["gen", "--p", "4", "--n", "200", "--seed", "1", "--out", "run"],
         "d1f9b370321eef68273e6e8df75de7b0ea6effe59b45990dd46abd4db3c37f44"),
        (["gen", "--p", "3", "--n", "150", "--sparsity", "0.25",
          "--confounders", "1", "--confoundedness", "0.5",
          "--strength-exp", "1.5", "--noise-family", "laplace",
          "--seed", "2", "--out", "run"],
         "c2b604880397481d538e07aef265ce07f0b29a428ed02778a398fdf05886993d"),
        (["discover", "--data", "run/data.csv", "--out", "run/order.json"],
         "78354af3a8331089e696bbee9f6b7ad85b3346d14526c0b9cfbc61d007ee3a23"),
        (["discover", "--data", "run/data.csv", "--method", "direct-plr",
          "--k-rule", "frac5", "--adjacency", "--out", "run/order.json"],
         "c028409915e15ffc1e95bc13d50102ec66a990a456e88f31b6d15a41589de998"),
        (["pathdist", "--data", "run/data.csv", "--out", "run/dist.json"],
         "d8bd5db5fd1635a5c279a7daf109a9a9cb80061dd2d40ea48ca52dbd8edd3819"),
        (["pathdist", "--data", "run/data.csv", "--mode", "sample",
          "--samples", "40", "--seed", "3", "--max-features", "6",
          "--measure", "plr", "--k-rule", "frac10", "--out", "run/dist.json"],
         "bfd32c418c9e6a1439b7abe4c16cefd22212f05ab97df1c7497e4320b5133c3e"),
        (["features", "--dist", "run/dist.json", "--out", "run/feat.json"],
         "3e6f81aeef628f893e56a67e8427f9db0de6a71cdba42c4a3bb6d854fcab083f"),
        (["features", "--dist", "run/dist.json", "--log-epsilon", "1e-9",
          "--out", "run/feat.json"],
         "88fd55ff86557c4625da55b5f0febfa281330c7af9931476dbad0d2ea1fa4851"),
        (["train", "--target", "confounder", "--p", "3", "--trials-per-p", "2",
          "--n-samples", "100", "--out", "run/rows.jsonl"],
         "2a96417f65262a46917a96ac1f32cc00ca4946815bdb242c81ed1881e24f5a94"),
        (["bench", "--p", "3", "--n", "100", "--trials", "1", "--out", "run"],
         "e370a012267714d85ab8c9f80b45304d07b8afa7288acba2f36f43d3ab1e1271"),
    ]

    def test_flag_only_digests_are_pinned(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        found = []
        for argv, _ in self.PINNED:
            assert main(argv) == 0
            manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
            found.append(manifest["config_digest"])
        capsys.readouterr()
        assert found == [digest for _, digest in self.PINNED]

    def test_discover_deterministic_after_masking(self, tmp_path):
        out = _gen(tmp_path, seed=10)
        results = []
        for name in ("r1.json", "r2.json"):
            path = tmp_path / name
            assert main(
                ["discover", "--data", str(out / "data.csv"),
                 "--out", str(path)]
            ) == 0
            payload = json.loads(path.read_text())
            payload.pop("runtime_ms")
            results.append(payload)
        assert results[0] == results[1]


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
def test_outputs_take_the_mode_open_gives(tmp_path, capsys, umask):
    data = _gen(tmp_path) / "data.csv"  # before the umask changes
    previous = os.umask(umask)
    try:
        runs = {
            "gen": ["gen", "--p", "3", "--n", "100", "--out", tmp_path / "gen"],
            "discover": ["discover", "--data", data,
                         "--out", tmp_path / "discover" / "order.json"],
            "train": ["train", "--target", "confounder", "--p", "3",
                      "--trials-per-p", "3", "--n-samples", "100",
                      "--out", tmp_path / "train" / "rows.jsonl",
                      "--model", tmp_path / "train" / "model.json"],
            "bench": ["bench", "--p", "3", "--n", "60", "--trials", "1",
                      "--methods", "spp-plr", "--out", tmp_path / "bench"],
        }
        for command, argv in runs.items():
            (tmp_path / command).mkdir(exist_ok=True)
            assert main([str(arg) for arg in argv]) == 0
    finally:
        os.umask(previous)
    capsys.readouterr()
    modes = {
        f"{command}/{path.name}": path.stat().st_mode & 0o777
        for command in runs for path in (tmp_path / command).iterdir()
    }
    assert len(modes) == 11  # every output and each command's manifest.json
    assert set(modes.values()) == {0o666 & ~umask}, modes


def test_cli_import_does_not_load_scipy_stats(tmp_path):
    # Loading scipy costs more start-up time than everything else the CLI
    # loads, and only the kNN measure needs it: neither the import nor a
    # PLR command may load any scipy module.
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    probe = (
        "import sys, pathlingam.cli\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(scipy_modules())\n"
        "out = sys.argv[1]\n"
        "assert pathlingam.cli.main(['gen', '--p', '4', '--n', '200',\n"
        "                            '--seed', '3', '--out', out]) == 0\n"
        "assert pathlingam.cli.main(['discover', '--data', out + '/data.csv',\n"
        "                            '--out', out + '/order.json']) == 0\n"
        "print(scipy_modules())\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", probe, str(tmp_path)], env=env,
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.split("\n")[:2] == ["[]", "[]"]


def test_consecutive_commands_match_fresh_interpreters(tmp_path):
    # main builds its parser once per process; one command's options must
    # not reach the next.
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    fresh = "import sys; from pathlingam.cli import main; sys.exit(main(sys.argv[1:]))"

    def commands(work):
        data = str(work / "data.csv")
        return [
            ["gen", "--p", "4", "--n", "200", "--seed", "5", "--out", str(work)],
            ["discover", "--data", data, "--method", "spp-knn",
             "--k-rule", "frac5", "--out", str(work / "knn.json")],
            ["discover", "--data", data, "--out", str(work / "spp.json")],
            ["pathdist", "--data", data, "--mode", "sample", "--samples", "30",
             "--out", str(work / "dist.json")],
        ]

    def outputs(work):
        found = {"data.csv": (work / "data.csv").read_text()}
        for name in ("knn.json", "spp.json", "dist.json"):
            payload = json.loads((work / name).read_text())
            payload.pop("runtime_ms", None)
            found[name] = payload
        return found

    in_process, separate = tmp_path / "in_process", tmp_path / "separate"
    for work in (in_process, separate):
        work.mkdir()
    for argv in commands(in_process):
        assert main(argv) == 0
    for argv in commands(separate):
        subprocess.run([sys.executable, "-c", fresh, *argv], env=env, check=True)
    assert outputs(in_process) == outputs(separate)
    found = outputs(in_process)
    assert found["spp.json"]["step_costs"] != found["knn.json"]["step_costs"]


def _fresh_without_blas_setting(probe, **env):
    # Run ``probe`` in a new interpreter whose environment holds no
    # OPENBLAS_NUM_THREADS unless ``env`` gives one; returns its stdout.
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=dict(base, PYTHONPATH=src, **env),
        capture_output=True, text=True, check=True,
    )
    return done.stdout.strip()


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
    reason="thread count needs /proc/self/task and a spare core for a BLAS pool",
)
@pytest.mark.parametrize("setting, threads", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2")])
def test_cli_runs_one_blas_thread_unless_the_caller_sets_more(setting, threads):
    # An OpenBLAS pool thread costs CPU at start-up and no product here is
    # large enough to use it; a caller's setting is kept.
    probe = "import os, pathlingam.cli; print(len(os.listdir('/proc/self/task')))"
    assert _fresh_without_blas_setting(probe, **setting) == threads


def test_map_tasks_workers_inherit_the_cli_blas_setting():
    probe = (
        "import os, pathlingam.cli\n"
        "from pathlingam.util import map_tasks\n"
        "print(map_tasks(os.getenv, ['OPENBLAS_NUM_THREADS'] * 2, 2))\n"
    )
    assert _fresh_without_blas_setting(probe) == "['1', '1']"
