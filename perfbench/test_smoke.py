"""Toy-size smoke runs of every workload, and proof that each output check
can fail: every check is fed a perturbed copy of real outputs and must
reject it."""

import copy
import io
import json
import sys
from contextlib import redirect_stdout

import pytest

from perfbench import reference, run, workloads

if run.SRC not in sys.path:
    sys.path.insert(0, run.SRC)

import pathlingam.cli as cli  # noqa: E402
import pathlingam.simgen as simgen  # noqa: E402


def _main(*argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(list(argv))
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["order", "paths", "baseline"])
def test_toy_run_reports_every_end_to_end_metric(workload):
    code, result = _main("--workload", workload, "--seed", "3", "--seconds", "0",
                         "--size", "toy")
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_toy_traced_run_reports_every_per_layer_metric():
    code, result = _main("--workload", "paths", "--seed", "3", "--seconds", "0",
                         "--size", "toy", "--trace", "1")
    assert code == 0 and result["correct"] is True
    metrics = result["metrics"]
    assert set(run.PER_LAYER) <= set(metrics)
    assert metrics["measures.plr_matrix.calls"]["value"] > 0
    assert metrics["pathdist.enumerate_paths.calls"]["value"] > 0
    assert metrics["search.costs_at.hits"]["value"] > 0


def test_tracer_restores_every_patched_reference():
    from perfbench import tracing

    before = dict(vars(cli)), dict(cli._SEARCHERS)
    with tracing.Tracer():
        assert cli.main is not before[0]["main"]
    assert dict(vars(cli)) == before[0] and dict(cli._SEARCHERS) == before[1]


def _outputs(name, tmp_path):
    workload = workloads.WORKLOADS[name]("toy")
    items = workload.setup(simgen, 11, str(tmp_path))
    runner = run.Runner(cli, workload)
    for item in items:
        runner.round(item)
    assert runner.failed == 0
    return workload, items


def _load(item, name):
    with open(item.path(name), encoding="utf-8") as handle:
        return json.load(handle)


def test_order_checks_reject_perturbed_outputs(tmp_path):
    workload, items = _outputs("order", tmp_path)
    ds = items[0].datasets[0]
    names = ("spp.json", "prior_out.json", "direct.json")
    outputs = [_load(items[0], name) for name in names]

    def problems(spp, prior, direct, true_order=ds["true_order"]):
        return reference.check_order_outputs(
            ds["values"], true_order, ds["prior"], spp, prior, direct
        )

    assert problems(*outputs) == []
    spp, prior, direct = (copy.deepcopy(o) for o in outputs)
    spp["total_cost"] += 1e-6
    spp["step_costs"][0] += 1e-6
    assert problems(spp, prior, direct)  # total differs from recomputation
    spp = copy.deepcopy(outputs[0])
    spp["order"][0] = spp["order"][1]
    assert problems(spp, prior, direct)  # not a permutation
    spp = copy.deepcopy(outputs[0])
    spp["step_costs"][0] += 0.5
    assert problems(spp, prior, direct)  # steps do not sum to the total
    wrong = copy.deepcopy(outputs[1])
    wrong["order"] = wrong["order"][::-1]
    assert problems(outputs[0], wrong, direct)  # prior pair reversed


def test_paths_checks_reject_perturbed_outputs(tmp_path):
    workload, items = _outputs("paths", tmp_path)
    item = items[0]
    assert workload.check(item) == []
    ex, sa = item.datasets[0], item.datasets[2]
    lengths = _load(item, f"{ex['label']}/dist.json")["lengths"]
    optimum = _load(item, f"{ex['label']}/order.json")["total_cost"]
    check = reference.check_exhaustive
    assert check(ex["values"], lengths, optimum, 3) == []
    assert check(ex["values"], lengths[:-1], optimum, 3)  # count is not p!
    assert check(ex["values"], lengths, optimum + 1e-6, 3)  # minimum differs
    bumped = list(lengths)
    bumped[-1] += 1e-6  # the last permutation is always spot-checked
    assert check(ex["values"], bumped, optimum, 3)
    sampled = _load(item, f"{sa['label']}/dist.json")["lengths"]
    sa_opt = _load(item, f"{sa['label']}/order.json")["total_cost"]
    samples = workload.size["samples"]
    assert reference.check_sampled(sampled, samples, sa_opt) == []
    assert reference.check_sampled([sa_opt - 1e-6] + sampled[1:], samples, sa_opt)
    features = _load(item, f"{ex['label']}/features.json")
    features["moments"][5] *= 1 + 1e-6
    assert reference.check_features(lengths, features)
    model, roc = _load(item, "model.json"), _load(item, "roc.json")
    prediction = _load(item, "prediction.json")
    with open(item.path("test.jsonl"), encoding="utf-8") as handle:
        test_rows = [json.loads(line) for line in handle]
    assert reference.check_scoring(model, test_rows, prediction, roc) == []
    flipped = copy.deepcopy(prediction)
    flipped["scores"][0] = 1.0 - flipped["scores"][0] + 0.01
    assert reference.check_scoring(model, test_rows, flipped, roc)
    assert reference.check_scoring(model, test_rows, prediction,
                                   dict(roc, auc=roc["auc"] * 0.9))


def test_baseline_checks_reject_perturbed_outputs(tmp_path):
    workload, items = _outputs("baseline", tmp_path)
    ds = items[0].datasets[0]
    result = _load(items[0], "result.json")
    k = reference.sqrt_rule(workload.size["n"])
    assert reference.check_baseline(ds["values"], result, (0, 1), k) == []
    bad = copy.deepcopy(result)
    bad["step_costs"][1] += 1e-6
    bad["total_cost"] += 1e-6
    assert reference.check_baseline(ds["values"], bad, (0, 1), k)
    bad = copy.deepcopy(result)
    first, last = bad["order"][0], bad["order"][-1]
    bad["b_hat"][first][last] = 0.5  # the first cause given a later parent
    assert reference.check_baseline(ds["values"], bad, (0, 1), k)


def test_reference_measures_match_their_formulas():
    labels = [1, 1, 0, 0]
    assert reference.rank_auc([0.9, 0.4, 0.4, 0.1], labels) == 0.875
    assert reference.pair_accuracy([0, 1, 2], [0, 1, 2]) == 1.0
    assert reference.pair_accuracy([2, 1, 0], [0, 1, 2]) == 0.0
