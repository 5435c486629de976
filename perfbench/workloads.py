"""The three workloads: inputs made from a seed, the CLI commands of one
round, the output checks and the accuracy figure.

A workload's set-up writes a pool of items (datasets and their files) into
a directory. One round runs the CLI commands of one item; the runner cycles
through the pool in rounds.
"""

import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from perfbench import reference

SIZES = {
    "order": {
        "full": {"p": (10, 11, 12, 13, 14), "n": 1000, "datasets": 40},
        "toy": {"p": (5, 6), "n": 300, "datasets": 2},
    },
    "paths": {
        "full": {
            "exhaustive_p": 8, "sampled_p": 10, "samples": 500, "n": 1000,
            "train_p": "3,4", "train_trials": 150, "test_trials": 50,
            "spot_checks": 5,
        },
        "toy": {
            "exhaustive_p": 5, "sampled_p": 6, "samples": 50, "n": 300,
            "train_p": "3", "train_trials": 24, "test_trials": 12,
            "spot_checks": 3,
        },
    },
    "baseline": {
        "full": {"p": 5, "n": 1000, "datasets": 12},
        "toy": {"p": 4, "n": 200, "datasets": 2},
    },
}

# Seeds of the training and held-out sets. They do not follow --seed:
# build_training_set skips trials whose generation fails, and a skip that
# came and went with the seed would make the failed share differ by seed.
TRAIN_SEED = 0
TEST_SEED = 1


@dataclass
class Item:
    """One round's inputs: a directory, and its datasets with ground truth."""

    directory: str
    datasets: list = field(default_factory=list)  # dicts: csv, values, true order
    failed: bool = False  # set when one of the round's commands failed

    def path(self, *parts):
        return os.path.join(self.directory, *parts)


def _seeds(seed, tag, count):
    rng = np.random.default_rng([seed, sum(map(ord, tag))])
    return [int(v) for v in rng.integers(0, 2**63, count)]


def _write_csv(path, values):
    # The benchmark's own writer, so that its inputs stay byte-identical
    # whatever a later change does to the package's CSV writer.
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(f"x{i}" for i in range(values.shape[1])) + "\n")
        for row in values:
            handle.write(",".join(repr(float(v)) for v in row) + "\n")


def _stratum(index, count):
    """Midpoint of the index-th of ``count`` equal bins of [0, 1]."""
    return (index % count + 0.5) / count


def _make_dataset(simgen, directory, p, n, confounded, seed, sparsity=None):
    """Simulate one dataset with the package's generator and write its CSV.

    Parameters are drawn as the package's benchmark draws them; a given
    ``sparsity`` replaces the uniform draw, so that a pool can cover the
    sparsity range in strata: search cost follows sparsity, and stratifying
    it narrows the spread of a pool's cost from seed to seed.
    """
    os.makedirs(directory, exist_ok=True)
    params = simgen.sample_benchmark_params(p, n, confounded, seed)
    if sparsity is not None:
        params = replace(params, sparsity=sparsity)
    data, truth = simgen.generate(params)
    csv = os.path.join(directory, "data.csv")
    _write_csv(csv, data.values)
    return {
        "dir": directory, "csv": csv, "values": np.array(data.values),
        "true_order": list(truth.true_order),
    }


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _jsonl(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


class Workload:
    """What the three workloads share: their size and the defaults below."""

    name = None

    def __init__(self, size):
        self.size = SIZES[self.name][size]

    def trials(self, item):
        """(train trials requested, rows written) in the item's round."""
        return 0, 0

    def cold_command(self, items, out):
        """The command timed in a fresh interpreter: spp-plr on the first
        dataset, a small call whose cost is mostly the import."""
        return ["discover", "--data", items[0].datasets[0]["csv"], "--out", out]


def _mean_pair_accuracy(items, result_name):
    return float(np.mean([
        reference.pair_accuracy(_load(item.path(result_name))["order"],
                                item.datasets[0]["true_order"])
        for item in items
    ]))


class Order(Workload):
    """The paper's main use: spp-plr, spp-plr with a prior, direct-plr."""

    name = "order"

    def setup(self, simgen, seed, root):
        size = self.size
        ps = size["p"]
        seeds = _seeds(seed, self.name, 2 * size["datasets"])
        items = []
        for i in range(size["datasets"]):
            p = ps[i % len(ps)]
            confounded = (i // len(ps)) % 2 == 1
            directory = os.path.join(root, f"d{i:02d}")
            ds = _make_dataset(
                simgen, directory, p, size["n"], confounded, seeds[2 * i],
                sparsity=_stratum(i // (2 * len(ps)), 4),
            )
            # The prior: the true relative order of half of the variables.
            rng = np.random.default_rng(seeds[2 * i + 1])
            chosen = set(rng.choice(p, p // 2, replace=False).tolist())
            ds["prior"] = [v for v in ds["true_order"] if v in chosen]
            prior_path = os.path.join(directory, "prior.json")
            with open(prior_path, "w", encoding="utf-8") as handle:
                json.dump([ds["prior"]], handle)
            items.append(Item(directory, [ds]))
        return items

    def commands(self, item):
        data = ["discover", "--data", item.datasets[0]["csv"]]
        return [
            data + ["--method", "spp-plr", "--out", item.path("spp.json")],
            data + ["--method", "spp-plr", "--prior", item.path("prior.json"),
                    "--out", item.path("prior_out.json")],
            data + ["--method", "direct-plr", "--out", item.path("direct.json")],
        ]

    def check(self, item):
        ds = item.datasets[0]
        return reference.check_order_outputs(
            ds["values"], ds["true_order"], ds["prior"],
            _load(item.path("spp.json")), _load(item.path("prior_out.json")),
            _load(item.path("direct.json")),
        )

    def accuracy(self, items):
        return _mean_pair_accuracy(items, "spp.json")


class Paths(Workload):
    """Exhaustive and sampled path-cost distributions, their moment features,
    a confounder detector trained on them and held-out scoring."""

    name = "paths"

    def setup(self, simgen, seed, root):
        size = self.size
        seeds = _seeds(seed, self.name, 6)
        item = Item(root)
        plan = [
            ("ex0", size["exhaustive_p"], False), ("ex1", size["exhaustive_p"], True),
            ("sa0", size["sampled_p"], False), ("sa1", size["sampled_p"], True),
        ]
        for (label, p, confounded), ds_seed in zip(plan, seeds):
            ds = _make_dataset(
                simgen, os.path.join(root, label), p, size["n"], confounded, ds_seed
            )
            ds["label"] = label
            ds["sample_seed"] = seeds[5]
            item.datasets.append(ds)
        return [item]

    def commands(self, item):
        size = self.size
        out = []
        for ds in item.datasets:
            d = ds["dir"]
            out.append(["discover", "--data", ds["csv"], "--method", "spp-plr",
                        "--out", os.path.join(d, "order.json")])
            if ds["label"].startswith("ex"):
                out.append(["pathdist", "--data", ds["csv"], "--mode", "exhaustive",
                            "--out", os.path.join(d, "dist.json")])
            else:
                out.append(["pathdist", "--data", ds["csv"], "--mode", "sample",
                            "--samples", str(size["samples"]),
                            "--seed", str(ds["sample_seed"]),
                            "--out", os.path.join(d, "dist.json")])
            out.append(["features", "--dist", os.path.join(d, "dist.json"),
                        "--out", os.path.join(d, "features.json")])
        common = ["--target", "confounder", "--p", size["train_p"],
                  "--n-samples", str(size["n"]), "--jobs", "1"]
        out.append(["train", *common, "--trials-per-p", str(size["train_trials"]),
                    "--seed", str(TRAIN_SEED), "--out", item.path("train.jsonl"),
                    "--model", item.path("model.json")])
        out.append(["train", *common, "--trials-per-p", str(size["test_trials"]),
                    "--seed", str(TEST_SEED), "--out", item.path("test.jsonl")])
        out.append(["eval", "--model", item.path("model.json"),
                    "--test", item.path("test.jsonl"), "--out", item.path("roc.json")])
        out.append(["predict", "--model", item.path("model.json"),
                    "--features", item.path("test.jsonl"),
                    "--out", item.path("prediction.json")])
        return out

    def trials(self, item):
        size = self.size
        per_p = len(size["train_p"].split(","))
        requested = per_p * (size["train_trials"] + size["test_trials"])
        written = 0
        for name in ("train.jsonl", "test.jsonl"):
            if os.path.exists(item.path(name)):
                written += len(_jsonl(item.path(name)))
        return requested, written

    def check(self, item):
        problems = []
        for ds in item.datasets:
            d = ds["dir"]
            optimum = _load(os.path.join(d, "order.json"))["total_cost"]
            lengths = _load(os.path.join(d, "dist.json"))["lengths"]
            if ds["label"].startswith("ex"):
                problems += reference.check_exhaustive(
                    ds["values"], lengths, optimum, self.size["spot_checks"]
                )
            else:
                problems += reference.check_sampled(
                    lengths, self.size["samples"], optimum
                )
            problems += reference.check_features(
                lengths, _load(os.path.join(d, "features.json"))
            )
        problems += reference.check_scoring(
            _load(item.path("model.json")), _jsonl(item.path("test.jsonl")),
            _load(item.path("prediction.json")), _load(item.path("roc.json")),
        )
        return problems

    def accuracy(self, items):
        return float(_load(items[0].path("roc.json"))["auc"])

    def cold_command(self, items, out):
        dist = os.path.join(items[0].datasets[0]["dir"], "dist.json")
        return ["features", "--dist", dist, "--out", out]


class Baseline(Workload):
    """LiNGAM-SPP's kNN mutual information, then adaptive-lasso edges.

    Each dataset goes through spp-knn, and through an exhaustive path
    distribution under the same measure, which evaluates every lattice edge:
    that fixed amount of kNN-MI work keeps a round's cost from following the
    search's luck. The unconfounded half also gets ``--adjacency``. On
    confounded data the adaptive lasso's coordinate descent takes from
    0.05 s to 28 s per dataset, a spread no run of this length can average
    out, so it is left out of the timed rounds.
    """

    name = "baseline"

    def setup(self, simgen, seed, root):
        size = self.size
        seeds = _seeds(seed, self.name, size["datasets"])
        items = []
        for i in range(size["datasets"]):
            confounded = i % 2 == 1
            directory = os.path.join(root, f"d{i:02d}")
            ds = _make_dataset(
                simgen, directory, size["p"], size["n"], confounded, seeds[i],
                sparsity=_stratum(i // 2, size["datasets"] // 2),
            )
            ds["adjacency"] = not confounded
            items.append(Item(directory, [ds]))
        return items

    def commands(self, item):
        ds = item.datasets[0]
        search = ["discover", "--data", ds["csv"], "--method", "spp-knn",
                  "--out", item.path("result.json")]
        return [
            search + ["--adjacency"] if ds["adjacency"] else search,
            ["pathdist", "--data", ds["csv"], "--mode", "exhaustive",
             "--measure", "knn", "--out", item.path("dist.json")],
        ]

    def check(self, item):
        ds = item.datasets[0]
        result = _load(item.path("result.json"))
        problems = reference.check_baseline(
            ds["values"], result, (0, self.size["p"] // 2),
            reference.sqrt_rule(self.size["n"]), ds["adjacency"],
        )
        lengths = _load(item.path("dist.json"))["lengths"]
        return problems + reference.check_exhaustive(
            ds["values"], lengths, result["total_cost"], 0
        )

    def accuracy(self, items):
        return _mean_pair_accuracy(items, "result.json")


WORKLOADS = {cls.name: cls for cls in (Order, Paths, Baseline)}

