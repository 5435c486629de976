"""Golden outputs of a fixed command sequence on one seeded dataset.

``golden/cli_p6.json`` records what the commands below produce: ``train``
with ``--model`` for a binary target (confounder) and a continuous one
(sparsity_value) at p = 3, with ``predict`` on held-out rows for both and
``eval`` for the binary one; ``gen`` at p = 6, N = 300; ``discover`` with
spp-plr, spp-plr under a prior, direct-plr and spp-knn; exhaustive
``pathdist`` with both measures; and ``features`` of the PLR distribution.
Orders, edge counts and neighbour counts must match exactly. Costs, path
lengths, moments, model statistics and scores must match to 1e-9 relative,
which leaves room for kernels that reorder floating-point operations but not
for a change of the objective.

Regenerate the file only when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import math
import os
import tempfile

from pathlingam.cli import main

GOLDEN = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden", "cli_p6.json"
)
PRIOR = [[5, 2, 0]]  # contradicts the true order, so costs are nonzero
REL = 1e-9


def _run(argv):
    code = main(argv)
    if code != 0:
        raise AssertionError(f"{argv[0]} exited {code}")


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _predictor_outputs(work):
    """Train a model per target, then score held-out rows with it."""
    out = {}
    for target in ("confounder", "sparsity_value"):
        model = os.path.join(work, f"{target}_model.json")
        test = os.path.join(work, f"{target}_test.jsonl")
        common = ["train", "--target", target, "--p", "3", "--n-samples", "200"]
        _run([*common, "--trials-per-p", "24", "--seed", "0", "--out",
              os.path.join(work, f"{target}_train.jsonl"), "--model", model])
        _run([*common, "--trials-per-p", "10", "--seed", "1", "--out", test])
        stored = _load(model)
        entry = {key: stored[key] for key in ("k", "feature_mean", "feature_std")}
        scores = os.path.join(work, f"{target}_scores.json")
        k = ["--k", "3"] if target == "sparsity_value" else []
        _run(["predict", "--model", model, "--features", test, *k,
              "--out", scores])
        entry["predict"] = _load(scores)
        if target == "confounder":
            roc = os.path.join(work, "roc.json")
            _run(["eval", "--model", model, "--test", test, "--out", roc])
            entry["eval"] = _load(roc)
        out[f"train-{target}"] = entry
    return out


def run_commands(work):
    """Run the fixed command sequence in ``work``; return its outputs."""
    out = _predictor_outputs(work)
    _run(["gen", "--p", "6", "--n", "300", "--sparsity", "0.3",
          "--seed", "9", "--out", work])
    data = os.path.join(work, "data.csv")
    with open(data, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    out["gen"] = {
        "data_sha256": digest,
        "true_order": _load(os.path.join(work, "truth.json"))["true_order"],
    }
    prior = os.path.join(work, "prior.json")
    with open(prior, "w", encoding="utf-8") as handle:
        json.dump(PRIOR, handle)
    discover = {
        "spp-plr": [],
        "spp-plr-prior": ["--prior", prior],
        "direct-plr": ["--method", "direct-plr"],
        "spp-knn": ["--method", "spp-knn"],
    }
    for name, extra in discover.items():
        path = os.path.join(work, f"{name}.json")
        _run(["discover", "--data", data, "--out", path, *extra])
        result = _load(path)
        out[name] = {
            key: result[key]
            for key in ("order", "edges_evaluated", "total_cost", "step_costs")
        }
    for measure in ("plr", "knn"):
        path = os.path.join(work, f"pathdist_{measure}.json")
        _run(["pathdist", "--data", data, "--measure", measure, "--out", path])
        out[f"pathdist-{measure}"] = _load(path)
    path = os.path.join(work, "features.json")
    _run(["features", "--dist", os.path.join(work, "pathdist_plr.json"),
          "--out", path])
    out["features"] = _load(path)
    return out


def _assert_close(actual, expected, where):
    if isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), where
        for key in expected:
            _assert_close(actual[key], expected[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(actual) == len(expected), where
        for index, (a, e) in enumerate(zip(actual, expected)):
            _assert_close(a, e, f"{where}[{index}]")
    elif isinstance(expected, float):  # ints (orders, edge counts) stay exact
        assert math.isclose(actual, expected, rel_tol=REL, abs_tol=0.0), (
            f"{where}: {actual!r} != {expected!r}"
        )
    else:
        assert actual == expected, f"{where}: {actual!r} != {expected!r}"


def test_outputs_match_golden(tmp_path):
    expected = _load(GOLDEN)
    actual = run_commands(str(tmp_path))
    assert sorted(actual) == sorted(expected)
    for name in expected:
        _assert_close(actual[name], expected[name], name)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        outputs = run_commands(work)
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(outputs, handle, indent=1)
        handle.write("\n")
