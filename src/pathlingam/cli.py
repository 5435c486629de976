"""Command line front end.

Every subcommand accepts ``--config file.json`` holding values for its
options, declared once in ``OPTIONS``: a config value goes through its
option's type and choices as a flag's text does. Options passed on the
command line win over the file, and the file wins over built-in defaults.
Each successful run ends by atomically writing a ``manifest.json`` next to
its first output, recording the command, a digest of the fully resolved
configuration, the tool version, timestamps and the files written.

Exit codes: 0 success, 2 invalid input, 3 infeasible prior knowledge,
4 feature-count cap exceeded, 5 numeric failure (``exit_code`` of each
domain error).
"""

import argparse
import dataclasses
import functools
import hashlib
import json
import logging
import math
import os
import sys
from datetime import datetime, timezone
from typing import NamedTuple

# One BLAS thread per process, set before numpy loads OpenBLAS: no product
# here is larger than N x p, and ``--jobs`` worker processes (which inherit
# this environment) are the program's one kind of parallelism. The idle pool
# thread cost about 0.1 s of CPU per start on a 2-core x86-64 host. A
# caller's value is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from . import __version__
from .adjacency import estimate_adjacency
from .bench import SEARCHERS as _SEARCHERS, BenchConfig, run_benchmark
from .errors import EmptyTrainingSet, PathLingamError
from .measures import KRule, MeasureConfig, MeasureKind
from .model import Dataset, expand_prior
from .pathdist import (
    ENUMERATION_CAP,
    LOG_EPSILON,
    PathDistribution,
    PathMode,
    enumerate_paths,
    moment_features,
    sample_paths,
)
from .predict import (
    BINARY_TARGETS,
    PredictTarget,
    build_training_set,
    fit_knn,
    knn_classify,
    knn_regress,
    roc_summary,
)
from .simgen import GenParams, generate
from .util import (
    read_json,
    read_jsonl,
    read_matrix_csv,
    whole_number,
    write_csv,
    write_json_atomic,
    write_jsonl,
)

_MEASURES = {"plr": MeasureKind.PLR, "knn": MeasureKind.KNN_MI}
_MODES = {"exhaustive": PathMode.EXHAUSTIVE, "sample": PathMode.SAMPLED}


def _comma_list(value):
    """A list option's value as the comma-separated text its flag takes."""
    if isinstance(value, list):
        return ",".join(str(part) for part in value)
    return str(value)


class Option(NamedTuple):
    """One option: ``--name-with-dashes`` on the command line, ``name`` in
    a --config file. ``type`` converts a flag's text or a config value."""

    name: str
    type: object = str
    default: object = None
    required: bool = False
    choices: tuple = None
    help: str = None


_K_RULE = Option("k_rule", default="sqrt", choices=tuple(sorted(r.value for r in KRule)))
_MEASURE = Option("measure", default="plr", choices=tuple(sorted(_MEASURES)))

OPTIONS = {
    "gen": (
        Option("p", whole_number, required=True, help="number of observed features"),
        Option("n", whole_number, required=True, help="number of samples"),
        Option("sparsity", float, 0.0),
        Option("confounders", whole_number, 0, help="number of latent confounders"),
        Option("confoundedness", float, 0.0),
        Option("strength_exp", float, 1.0, help="confounder scale exponent s in 10^s"),
        Option("noise_family", default="standard12"),
        Option("seed", whole_number, 0),
        Option("out", default=".", help="output directory"),
    ),
    "discover": (
        Option("data", required=True, help="input CSV with a header row"),
        Option("method", default="spp-plr", choices=tuple(sorted(_SEARCHERS))),
        _K_RULE,
        Option("prior", help="JSON file: list of known index orderings"),
        Option("adjacency", bool, False, help="also estimate the coefficient matrix"),
        Option("out", default="result.json"),
    ),
    "pathdist": (
        Option("data", required=True),
        Option("mode", default="exhaustive", choices=tuple(_MODES)),
        Option("samples", whole_number, 1000),
        Option("seed", whole_number, 0),
        Option("max_features", whole_number, ENUMERATION_CAP),
        _MEASURE,
        _K_RULE,
        Option("out", default="pathdist.json"),
    ),
    "features": (
        Option("dist", required=True, help="pathdist JSON file"),
        Option("log_epsilon", float, LOG_EPSILON),
        Option("out", default="features.json"),
    ),
    "train": (
        Option("target", required=True,
               choices=tuple(sorted(t.value for t in PredictTarget))),
        Option("p", _comma_list, "4,5,6", help="comma-separated feature counts"),
        Option("trials_per_p", whole_number, 100),
        Option("seed", whole_number, 0),
        Option("n_samples", whole_number, 1000),
        Option("path_mode", default="exhaustive", choices=tuple(_MODES)),
        Option("path_samples", whole_number, 1000),
        Option("max_features", whole_number),
        _MEASURE,
        _K_RULE,
        Option("k", whole_number, help="neighbor count stored in the model"),
        Option("jobs", whole_number),
        Option("out", default="training.jsonl", help="training JSONL path"),
        Option("model", help="also write a model JSON here"),
    ),
    "predict": (
        Option("model", required=True),
        Option("features", required=True, help="features JSON or JSONL of rows"),
        Option("k", whole_number),
        Option("out", default="prediction.json"),
    ),
    "eval": (
        Option("model", required=True),
        Option("test", required=True, help="labeled JSONL of held-out rows"),
        Option("k", whole_number),
        Option("out", default="roc.json"),
    ),
    "bench": (
        Option("p", _comma_list, required=True, help="comma-separated feature counts"),
        Option("n", _comma_list, "1000", help="comma-separated sample sizes"),
        Option("trials", whole_number, 10),
        Option("methods", _comma_list, "spp-plr,direct-plr",
               help="comma-separated method names"),
        Option("with_confounders", default="false", choices=("both", "true", "false")),
        Option("prior_fracs", _comma_list, "0", help="comma-separated fractions"),
        Option("seed", whole_number, 0),
        Option("jobs", whole_number),
        Option("out", default=".", help="output directory"),
    ),
}


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it as is."""
    parser = argparse.ArgumentParser(
        prog="pathlingam",
        description=(
            "Causal ordering of linear non-Gaussian data by shortest-path "
            "search over residual dependence."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in OPTIONS.items():
        cmd = sub.add_parser(command, help=COMMANDS[command].__doc__)
        cmd.add_argument("--config", help="JSON file with option values")
        for option in options:
            flag = "--" + option.name.replace("_", "-")
            if option.type is bool:
                cmd.add_argument(flag, action=argparse.BooleanOptionalAction,
                                 help=option.help)
            else:
                cmd.add_argument(flag, type=option.type, choices=option.choices,
                                 help=option.help)
    return parser


def _resolve(args):
    """Merge built-in defaults, the --config file and explicit flags."""
    options = {option.name: option for option in OPTIONS[args.command]}
    values = {name: option.default for name, option in options.items()}
    if args.config is not None:
        loaded = read_json(args.config, dict)
        unknown = sorted(set(loaded) - set(options))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        for name, value in loaded.items():
            values[name] = _convert(options[name], value)
    for name, option in options.items():
        passed = getattr(args, name)
        if passed is not None:
            values[name] = passed
        if option.required and values[name] is None:
            raise ValueError(f"missing required option --{name.replace('_', '-')}")
    return values


def _convert(option, value):
    """A config value as its flag would give it. Null is taken only by an
    option whose default is unset, and true or false only by a bool option."""
    if value is None and option.default is None:
        return None
    try:
        if value is None or isinstance(value, bool) != (option.type is bool):
            raise TypeError
        converted = option.type(value)
        if option.choices is not None and converted not in option.choices:
            raise ValueError
    except (TypeError, ValueError):
        raise ValueError(f"config key {option.name}: invalid value {value!r}") from None
    return converted


def _split(text, kind=str):
    """The entries of a comma-separated list option, converted by ``kind``."""
    return [kind(part.strip()) for part in text.split(",") if part.strip()]


def _jobs(values):
    return 1 if values["jobs"] is None else values["jobs"]


def _measure_config(values):
    return MeasureConfig(_MEASURES[values["measure"]], KRule(values["k_rule"]))


def _load_model(path, k):
    """The model stored at ``path``, fitted to the file's rows and labels,
    with neighbour count ``k`` or, if that is None, the stored one."""
    payload = read_json(path, dict, ("target", "k", "features", "labels"))
    return fit_knn(
        payload["features"], payload["labels"], payload["target"],
        whole_number(payload["k"]) if k is None else k,
    )


def _load_queries(path):
    if path.endswith(".jsonl"):
        return [record["features"] for record in read_jsonl(path, ("features",))]
    payload = read_json(path, object)
    if isinstance(payload, dict):
        if "moments" in payload:
            return [payload["moments"]]
        if "features" in payload:
            return list(payload["features"])
        raise ValueError(f"{path}: needs a moments or features key")
    if isinstance(payload, list) and payload:
        if isinstance(payload[0], list):
            return payload
        return [payload]
    raise ValueError(f"{path}: unrecognized feature payload")


def cmd_gen(values):
    """simulate a dataset and write it with its ground truth"""
    params = GenParams(
        p=values["p"],
        n_samples=values["n"],
        sparsity=values["sparsity"],
        n_confounders=values["confounders"],
        confoundedness=values["confoundedness"],
        confounding_strength_exp=values["strength_exp"],
        noise_family=values["noise_family"],
        seed=values["seed"],
    )
    data, truth = generate(params)
    out = values["out"]
    os.makedirs(out, exist_ok=True)
    data_path = os.path.join(out, "data.csv")
    truth_path = os.path.join(out, "truth.json")
    write_csv(data_path, data.names, data.values)
    write_json_atomic(truth_path, {
        "B": truth.b,
        "Lambda": truth.lam,
        "true_order": truth.true_order,
        "params": dataclasses.asdict(params),
    })
    return [data_path, truth_path]


def cmd_discover(values):
    """estimate a causal ordering from a CSV"""
    data = Dataset(*read_matrix_csv(values["data"]))
    search, kind = _SEARCHERS[values["method"]]
    config = MeasureConfig(kind, KRule(values["k_rule"]))
    prior = None
    if values["prior"] is not None:
        prior = expand_prior(read_json(values["prior"], list), data.n_features) or None
    result = search(data, config, prior)
    payload = {
        "order": list(result.order),
        "total_cost": result.total_cost,
        "step_costs": list(result.step_costs),
        "edges_evaluated": result.edges_evaluated,
    }
    if values["adjacency"]:
        payload["b_hat"] = estimate_adjacency(data, result.order)
    payload["runtime_ms"] = result.wall_time * 1000.0
    write_json_atomic(values["out"], payload)
    return [values["out"]]


def cmd_pathdist(values):
    """enumerate or sample causal-path total costs"""
    data = Dataset(*read_matrix_csv(values["data"]))
    config = _measure_config(values)
    if _MODES[values["mode"]] is PathMode.EXHAUSTIVE:
        dist = enumerate_paths(data, config, max_features=values["max_features"])
    else:
        dist = sample_paths(data, config, values["samples"], values["seed"])
    write_json_atomic(values["out"], {"mode": dist.mode.value, "lengths": dist.lengths})
    return [values["out"]]


def cmd_features(values):
    """reduce a path distribution to moment features"""
    payload = read_json(values["dist"], dict, ("mode", "lengths"))
    dist = PathDistribution(payload["lengths"], PathMode(payload["mode"]))
    feats = moment_features(dist, values["log_epsilon"])
    write_json_atomic(
        values["out"], {"log_epsilon": feats.log_epsilon, "moments": feats.moments}
    )
    return [values["out"]]


def cmd_train(values):
    """build a labeled moment-feature training set"""
    rows = build_training_set(
        values["target"], _split(values["p"], int), values["trials_per_p"],
        values["seed"], config=_measure_config(values),
        path_mode=_MODES[values["path_mode"]], n_samples=values["n_samples"],
        path_samples=values["path_samples"], jobs=_jobs(values),
        max_features=(
            ENUMERATION_CAP if values["max_features"] is None
            else values["max_features"]
        ),
    )
    if not rows:
        raise EmptyTrainingSet("no trial produced a usable row")
    outputs = [values["out"]]
    model = None if values["model"] is None else fit_knn(
        [row["features"] for row in rows], [row["label"] for row in rows],
        values["target"], values["k"],
    )
    write_jsonl(outputs[0], rows)
    if model is not None:
        write_json_atomic(values["model"], {
            "target": model.target.value,
            "k": model.k,
            "feature_mean": model.mean,
            "feature_std": model.std,
            "features": model.features,
            "labels": model.labels,
        })
        outputs.append(values["model"])
    return outputs


def cmd_predict(values):
    """score feature vectors with a stored model"""
    model = _load_model(values["model"], values["k"])
    score = knn_classify if model.target in BINARY_TARGETS else knn_regress
    queries = _load_queries(values["features"])
    if not queries:
        raise ValueError(f"{values['features']}: holds no query rows")
    scores = score(model, queries)
    write_json_atomic(
        values["out"],
        {"target": model.target.value, "k": model.k, "scores": scores},
    )
    return [values["out"]]


def cmd_eval(values):
    """ROC metrics of a stored model on a labeled JSONL"""
    model = _load_model(values["model"], values["k"])
    if model.target not in BINARY_TARGETS:
        raise ValueError(f"target {model.target.value} is not binary; no ROC")
    test = read_jsonl(values["test"], ("features", "label"))
    if not test:
        raise ValueError("test file holds no rows")
    scores = knn_classify(model, [row["features"] for row in test])
    summary = roc_summary(zip(scores, [row["label"] for row in test]))
    write_json_atomic(values["out"], dataclasses.asdict(summary))
    return [values["out"]]


def _cell_record(cell):
    # A cell's fields in declaration order, NaN as null, then ``valid``.
    record = {
        name: None if isinstance(value, float) and math.isnan(value) else value
        for name, value in dataclasses.asdict(cell).items()
    }
    record["valid"] = cell.valid
    return record


def _cells_table(cells):
    header = (
        f"{'method':<12}{'p':>3}{'n':>7}{'conf':>6}{'prior':>7}"
        f"{'ok':>5}{'fail':>6}{'mean_eo':>10}{'seconds':>10}{'edges':>10}"
    )
    lines = [header, "-" * len(header)]
    for cell in cells:
        lines.append(
            f"{cell.method:<12}{cell.p:>3}{cell.n:>7}"
            f"{('yes' if cell.confounded else 'no'):>6}"
            f"{cell.prior_frac:>7.2f}{cell.trials:>5}{cell.failed_trials:>6}"
            f"{cell.mean_eo:>10.4f}{cell.mean_runtime:>10.3f}"
            f"{cell.mean_edges:>10.1f}"
        )
    return "\n".join(lines)


def cmd_bench(values):
    """run the benchmark grid"""
    config = BenchConfig(
        p_values=_split(values["p"], int),
        n_values=_split(values["n"], int),
        trials=values["trials"],
        methods=_split(values["methods"]),
        with_confounders=values["with_confounders"],
        prior_fracs=_split(values["prior_fracs"], float),
        seed=values["seed"],
    )
    cells = run_benchmark(config, _jobs(values))
    out = values["out"]
    os.makedirs(out, exist_ok=True)
    cells_json = os.path.join(out, "cells.json")
    cells_csv = os.path.join(out, "cells.csv")
    records = [_cell_record(cell) for cell in cells]
    write_json_atomic(cells_json, records)
    write_csv(cells_csv, records[0], [record.values() for record in records])
    print(_cells_table(cells))
    return [cells_json, cells_csv]


COMMANDS = {
    "gen": cmd_gen,
    "discover": cmd_discover,
    "pathdist": cmd_pathdist,
    "features": cmd_features,
    "train": cmd_train,
    "predict": cmd_predict,
    "eval": cmd_eval,
    "bench": cmd_bench,
}


def _now():
    return datetime.now(timezone.utc).isoformat()


def _write_manifest(command, values, outputs, started):
    digest = hashlib.sha256(
        json.dumps(
            {"command": command, "config": values}, sort_keys=True
        ).encode("utf-8")
    ).hexdigest()
    first = outputs[0]
    path = os.path.join(os.path.dirname(first) or ".", "manifest.json")
    write_json_atomic(path, {
        "command": command,
        "config_digest": digest,
        "tool_version": __version__,
        "started": started,
        "finished": _now(),
        "outputs": list(outputs),
    })


def _fail(error, code):
    message = str(error) or type(error).__name__
    print(f"error: {message}", file=sys.stderr)
    return code


def main(argv=None):
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    started = _now()
    try:
        values = _resolve(args)
        outputs = COMMANDS[args.command](values)
        _write_manifest(args.command, values, outputs, started)
    except PathLingamError as error:
        return _fail(error, error.exit_code)
    except np.linalg.LinAlgError as error:
        return _fail(error, 5)
    except (ValueError, OSError, KeyError, TypeError) as error:
        return _fail(error, 2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
