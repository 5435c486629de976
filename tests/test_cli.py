"""End-to-end tests of the command-line interface.

Every invocation goes through main(argv) in-process; exit codes and the
files left behind are the observable contract.
"""

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

        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        out = tmp_path / "rows.jsonl"
        code = main(
            ["train", "--target", "confounder", "--p", "6,9",
             "--trials-per-p", "2", "--jobs", "2", "--out", str(out)]
        )
        assert code == 4
        assert "enumeration cap" in capsys.readouterr().err
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

    def test_zero_trials_exits_2(self, tmp_path, capsys):
        code = main(
            ["bench", "--p", "3", "--trials", "0", "--out", str(tmp_path)]
        )
        assert code == 2
        capsys.readouterr()


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


def test_cli_import_does_not_load_scipy_stats():
    # scipy.stats costs more start-up time than everything else the CLI loads.
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    probe = "import sys, pathlingam.cli; print('scipy.stats' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        check=True,
    )
    assert done.stdout.strip() == "False"


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
