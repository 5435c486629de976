"""Command line front end.

Every subcommand accepts ``--config file.json`` holding values for its
options; options passed on the command line win over the file, and the file
wins over built-in defaults. Each successful run ends by atomically writing
a ``manifest.json`` next to its first output, recording the command, a
digest of the fully resolved configuration, the tool version, timestamps
and the files written.

Exit codes: 0 success, 2 invalid input, 3 infeasible prior knowledge,
4 feature-count cap exceeded, 5 numeric failure.
"""

import argparse
import functools
import hashlib
import json
import logging
import math
import os
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .adjacency import estimate_adjacency
from .bench import BenchConfig, run_benchmark
from .errors import (
    CyclicPrior,
    DegenerateCorrelation,
    DegenerateDistribution,
    EmptyTrainingSet,
    GenerationFailed,
    InvalidK,
    LengthMismatch,
    PriorUnsatisfiable,
    SingleClass,
    SingularDesign,
    TooManyFeatures,
    ZeroVariance,
    ZeroVarianceColumn,
)
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
    LabeledFeatures,
    PredictTarget,
    build_training_set,
    check_enumeration_cap,
    default_k,
    knn_classify,
    knn_regress,
    roc_summary,
)
from .search import direct_lingam_order, shortest_path_order
from .simgen import GenParams, generate
from .util import json_ready, read_matrix_csv, write_json_atomic, write_matrix_csv

JOBS_ENV = "PATHLINGAM_JOBS"

_SEARCHERS = {
    "spp-plr": (shortest_path_order, MeasureKind.PLR),
    "direct-plr": (direct_lingam_order, MeasureKind.PLR),
    "spp-knn": (shortest_path_order, MeasureKind.KNN_MI),
}
_MEASURES = {"plr": MeasureKind.PLR, "knn": MeasureKind.KNN_MI}
_MODES = {
    "exhaustive": PathMode.EXHAUSTIVE,
    "sample": PathMode.SAMPLED,
    "sampled": PathMode.SAMPLED,
}

# Values every option falls back to; None marks required options.
DEFAULTS = {
    "gen": {
        "p": None, "n": None, "sparsity": 0.0, "confounders": 0,
        "confoundedness": 0.0, "strength_exp": 1.0,
        "noise_family": "standard12", "seed": 0, "out": ".",
    },
    "discover": {
        "data": None, "method": "spp-plr", "k_rule": "sqrt", "prior": None,
        "adjacency": False, "out": "result.json",
    },
    "pathdist": {
        "data": None, "mode": "exhaustive", "samples": 1000, "seed": 0,
        "max_features": ENUMERATION_CAP, "measure": "plr", "k_rule": "sqrt",
        "out": "pathdist.json",
    },
    "features": {
        "dist": None, "log_epsilon": LOG_EPSILON, "out": "features.json",
    },
    "train": {
        "target": None, "p": "4,5,6", "trials_per_p": 100, "seed": 0,
        "n_samples": 1000, "path_mode": "exhaustive", "path_samples": 1000,
        "max_features": None, "measure": "plr", "k_rule": "sqrt", "k": None,
        "jobs": None, "out": "training.jsonl", "model": None,
    },
    "predict": {
        "model": None, "features": None, "k": None, "out": "prediction.json",
    },
    "eval": {"model": None, "test": None, "k": None, "out": "roc.json"},
    "bench": {
        "p": None, "n": "1000", "trials": 10,
        "methods": "spp-plr,direct-plr", "with_confounders": "false",
        "prior_fracs": "0", "seed": 0, "jobs": None, "out": ".",
    },
}

REQUIRED = {
    "gen": ("p", "n"),
    "discover": ("data",),
    "pathdist": ("data",),
    "features": ("dist",),
    "train": ("target",),
    "predict": ("model", "features"),
    "eval": ("model", "test"),
    "bench": ("p",),
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

    def command(name, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="JSON file with option values")
        return cmd

    gen = command("gen", "simulate a dataset and write it with its ground truth")
    gen.add_argument("--p", type=int, help="number of observed features")
    gen.add_argument("--n", type=int, help="number of samples")
    gen.add_argument("--sparsity", type=float)
    gen.add_argument("--confounders", type=int, help="number of latent confounders")
    gen.add_argument("--confoundedness", type=float)
    gen.add_argument("--strength-exp", type=float, help="confounder scale exponent s in 10^s")
    gen.add_argument("--noise-family")
    gen.add_argument("--seed", type=int)
    gen.add_argument("--out", help="output directory")

    disc = command("discover", "estimate a causal ordering from a CSV")
    disc.add_argument("--data", help="input CSV with a header row")
    disc.add_argument("--method", choices=sorted(_SEARCHERS))
    disc.add_argument("--k-rule", choices=sorted(r.value for r in KRule))
    disc.add_argument("--prior", help="JSON file: list of known index orderings")
    disc.add_argument("--adjacency", action=argparse.BooleanOptionalAction,
                      help="also estimate the coefficient matrix")
    disc.add_argument("--out")

    dist = command("pathdist", "enumerate or sample causal-path total costs")
    dist.add_argument("--data")
    dist.add_argument("--mode", choices=("exhaustive", "sample"))
    dist.add_argument("--samples", type=int)
    dist.add_argument("--seed", type=int)
    dist.add_argument("--max-features", type=int)
    dist.add_argument("--measure", choices=sorted(_MEASURES))
    dist.add_argument("--k-rule", choices=sorted(r.value for r in KRule))
    dist.add_argument("--out")

    feat = command("features", "reduce a path distribution to moment features")
    feat.add_argument("--dist", help="pathdist JSON file")
    feat.add_argument("--log-epsilon", type=float)
    feat.add_argument("--out")

    train = command("train", "build a labeled moment-feature training set")
    train.add_argument("--target", choices=sorted(t.value for t in PredictTarget))
    train.add_argument("--p", help="comma-separated feature counts")
    train.add_argument("--trials-per-p", type=int)
    train.add_argument("--seed", type=int)
    train.add_argument("--n-samples", type=int)
    train.add_argument("--path-mode", choices=("exhaustive", "sample"))
    train.add_argument("--path-samples", type=int)
    train.add_argument("--max-features", type=int)
    train.add_argument("--measure", choices=sorted(_MEASURES))
    train.add_argument("--k-rule", choices=sorted(r.value for r in KRule))
    train.add_argument("--k", type=int, help="neighbor count stored in the model")
    train.add_argument("--jobs", type=int)
    train.add_argument("--out", help="training JSONL path")
    train.add_argument("--model", help="also write a model JSON here")

    pred = command("predict", "score feature vectors with a stored model")
    pred.add_argument("--model")
    pred.add_argument("--features", help="features JSON or JSONL of rows")
    pred.add_argument("--k", type=int)
    pred.add_argument("--out")

    ev = command("eval", "ROC metrics of a stored model on a labeled JSONL")
    ev.add_argument("--model")
    ev.add_argument("--test", help="labeled JSONL of held-out rows")
    ev.add_argument("--k", type=int)
    ev.add_argument("--out")

    bench = command("bench", "run the benchmark grid")
    bench.add_argument("--p", help="comma-separated feature counts")
    bench.add_argument("--n", help="comma-separated sample sizes")
    bench.add_argument("--trials", type=int)
    bench.add_argument("--methods", help="comma-separated method names")
    bench.add_argument("--with-confounders", choices=("both", "true", "false"))
    bench.add_argument("--prior-fracs", help="comma-separated fractions")
    bench.add_argument("--seed", type=int)
    bench.add_argument("--jobs", type=int)
    bench.add_argument("--out", help="output directory")

    return parser


def _resolve(args):
    """Merge built-in defaults, the --config file and explicit flags."""
    command = args.command
    values = dict(DEFAULTS[command])
    if args.config is not None:
        with open(args.config, encoding="utf-8") as handle:
            loaded = json.load(handle)
        if not isinstance(loaded, dict):
            raise ValueError("--config must hold a JSON object")
        unknown = sorted(set(loaded) - set(values))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        values.update(loaded)
    for key in values:
        passed = getattr(args, key, None)
        if passed is not None:
            values[key] = passed
    for key in REQUIRED[command]:
        if values[key] is None:
            raise ValueError(f"missing required option --{key.replace('_', '-')}")
    return values


def _str_list(value):
    if isinstance(value, str):
        parts = [part.strip() for part in value.split(",")]
        return [part for part in parts if part]
    if isinstance(value, (int, float)):
        return [value]
    return list(value)


def _int_list(value):
    return [int(part) for part in _str_list(value)]


def _float_list(value):
    return [float(part) for part in _str_list(value)]


def _jobs(values):
    jobs = values.get("jobs")
    if jobs is None:
        jobs = os.environ.get(JOBS_ENV, 1)
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    return jobs


def _path_mode(name):
    try:
        return _MODES[str(name)]
    except KeyError:
        raise ValueError(f"unknown mode {name!r}") from None


def _measure_config(values):
    measure = str(values["measure"])
    if measure not in _MEASURES:
        raise ValueError(f"unknown measure {measure!r}")
    return MeasureConfig(_MEASURES[measure], KRule(str(values["k_rule"])))


def _load_dataset(path):
    matrix, names = read_matrix_csv(path)
    return Dataset(matrix, tuple(names))


def _write_jsonl(path, rows):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            for row in rows:
                record = {
                    "features": list(row.features),
                    "label": row.label,
                    "meta": json_ready(row.meta),
                }
                handle.write(json.dumps(record) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_jsonl(path):
    rows = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if "features" not in record or "label" not in record:
                raise ValueError(f"{path}:{lineno}: needs features and label")
            rows.append(LabeledFeatures(
                features=record["features"],
                label=record["label"],
                meta=record.get("meta", {}),
            ))
    return rows


def _load_model(path):
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    for key in ("target", "k", "features", "labels"):
        if key not in payload:
            raise ValueError(f"{path}: model file missing {key!r}")
    if len(payload["features"]) != len(payload["labels"]):
        raise ValueError(f"{path}: features and labels differ in length")
    rows = [
        LabeledFeatures(features=f, label=label)
        for f, label in zip(payload["features"], payload["labels"])
    ]
    if not rows:
        raise EmptyTrainingSet(f"{path}: model file holds no training rows")
    return rows, PredictTarget(payload["target"]), int(payload["k"])


def _load_queries(path):
    if path.endswith(".jsonl"):
        return [list(row.features) for row in _read_jsonl(path)]
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
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
    params = GenParams(
        p=int(values["p"]),
        n_samples=int(values["n"]),
        sparsity=float(values["sparsity"]),
        n_confounders=int(values["confounders"]),
        confoundedness=float(values["confoundedness"]),
        confounding_strength_exp=float(values["strength_exp"]),
        noise_family=str(values["noise_family"]),
        seed=int(values["seed"]),
    )
    data, truth = generate(params)
    out = str(values["out"])
    os.makedirs(out, exist_ok=True)
    data_path = os.path.join(out, "data.csv")
    truth_path = os.path.join(out, "truth.json")
    write_matrix_csv(data_path, data.values, data.names)
    write_json_atomic(truth_path, {
        "B": truth.b,
        "Lambda": truth.lam,
        "true_order": truth.true_order,
        "params": params.to_json(),
    })
    return [data_path, truth_path]


def cmd_discover(values):
    data = _load_dataset(str(values["data"]))
    method = str(values["method"])
    if method not in _SEARCHERS:
        raise ValueError(f"unknown method {method!r}")
    search, kind = _SEARCHERS[method]
    config = MeasureConfig(kind, KRule(str(values["k_rule"])))
    prior = None
    if values["prior"] is not None:
        with open(str(values["prior"]), encoding="utf-8") as handle:
            sequences = json.load(handle)
        if not isinstance(sequences, list):
            raise ValueError("prior file must hold a list of index sequences")
        prior = expand_prior(sequences) or None
    result = search(data, config, prior)
    payload = {
        "order": list(result.order.order),
        "total_cost": result.order.total_cost,
        "step_costs": list(result.order.step_costs),
        "edges_evaluated": result.edges_evaluated,
    }
    if values["adjacency"]:
        payload["b_hat"] = estimate_adjacency(data, result.order.order).b_hat
    payload["runtime_ms"] = result.wall_time * 1000.0
    write_json_atomic(str(values["out"]), payload)
    return [str(values["out"])]


def cmd_pathdist(values):
    data = _load_dataset(str(values["data"]))
    config = _measure_config(values)
    mode = _path_mode(values["mode"])
    if mode is PathMode.EXHAUSTIVE:
        dist = enumerate_paths(
            data, config, max_features=int(values["max_features"])
        )
    else:
        dist = sample_paths(
            data, config, int(values["samples"]), int(values["seed"])
        )
    write_json_atomic(
        str(values["out"]),
        {"mode": dist.mode.value, "lengths": list(dist.lengths)},
    )
    return [str(values["out"])]


def cmd_features(values):
    with open(str(values["dist"]), encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or "lengths" not in payload or "mode" not in payload:
        raise ValueError("distribution file needs mode and lengths keys")
    lengths = tuple(payload["lengths"])
    dist = PathDistribution(lengths, PathMode(payload["mode"]), len(lengths))
    feats = moment_features(dist, float(values["log_epsilon"]))
    write_json_atomic(
        str(values["out"]),
        {"log_epsilon": feats.log_epsilon, "moments": list(feats.moments)},
    )
    return [str(values["out"])]


def _train_chunk(call):
    target, p_values, trials, seed, kwargs = call
    return build_training_set(target, p_values, trials, seed, **kwargs)


def cmd_train(values):
    target = PredictTarget(str(values["target"]))
    p_values = _int_list(values["p"])
    kwargs = {
        "config": _measure_config(values),
        "path_mode": _path_mode(values["path_mode"]),
        "n_samples": int(values["n_samples"]),
        "path_samples": int(values["path_samples"]),
        "max_features": (
            ENUMERATION_CAP if values["max_features"] is None
            else int(values["max_features"])
        ),
    }
    trials = int(values["trials_per_p"])
    seed = int(values["seed"])
    jobs = _jobs(values)
    check_enumeration_cap(p_values, kwargs["path_mode"], kwargs["max_features"])
    if jobs > 1 and len(p_values) > 1:
        # Trial seeds depend only on (seed, target, p, index), so a per-p
        # split reproduces the sequential rows exactly.
        calls = [(target, (p,), trials, seed, kwargs) for p in p_values]
        with ProcessPoolExecutor(max_workers=min(jobs, len(calls))) as pool:
            chunks = list(pool.map(_train_chunk, calls))
        rows = [row for chunk in chunks for row in chunk]
    else:
        rows = build_training_set(target, p_values, trials, seed, **kwargs)
    if not rows:
        raise EmptyTrainingSet("no trial produced a usable row")
    outputs = [str(values["out"])]
    _write_jsonl(outputs[0], rows)
    if values["model"] is not None:
        features = np.array([row.features for row in rows], dtype=float)
        mean = features.mean(axis=0)
        std = features.std(axis=0)
        std[std == 0.0] = 1.0
        k = int(values["k"]) if values["k"] is not None else default_k(len(rows))
        model_path = str(values["model"])
        write_json_atomic(model_path, {
            "target": target.value,
            "k": k,
            "feature_mean": mean,
            "feature_std": std,
            "features": features,
            "labels": [row.label for row in rows],
        })
        outputs.append(model_path)
    return outputs


def cmd_predict(values):
    rows, target, model_k = _load_model(str(values["model"]))
    queries = _load_queries(str(values["features"]))
    k = int(values["k"]) if values["k"] is not None else model_k
    score = knn_classify if target in BINARY_TARGETS else knn_regress
    scores = [score(rows, query, k) for query in queries]
    write_json_atomic(
        str(values["out"]),
        {"target": target.value, "k": k, "scores": scores},
    )
    return [str(values["out"])]


def cmd_eval(values):
    rows, target, model_k = _load_model(str(values["model"]))
    if target not in BINARY_TARGETS:
        raise ValueError(f"target {target.value} is not binary; no ROC")
    test = _read_jsonl(str(values["test"]))
    if not test:
        raise ValueError("test file holds no rows")
    k = int(values["k"]) if values["k"] is not None else model_k
    scored = [(knn_classify(rows, row.features, k), row.label) for row in test]
    summary = roc_summary(scored)
    write_json_atomic(str(values["out"]), {
        "auc": summary.auc,
        "optimal_threshold": summary.optimal_threshold,
        "precision": summary.precision,
        "recall": summary.recall,
        "accuracy": summary.accuracy,
    })
    return [str(values["out"])]


def _cell_record(cell):
    return {
        "method": cell.method.value,
        "p": cell.p,
        "n": cell.n,
        "confounded": cell.confounded,
        "prior_frac": cell.prior_frac,
        "trials": cell.trials,
        "failed_trials": cell.failed_trials,
        "mean_eo": None if math.isnan(cell.mean_eo) else cell.mean_eo,
        "mean_runtime": None if math.isnan(cell.mean_runtime) else cell.mean_runtime,
        "mean_edges": None if math.isnan(cell.mean_edges) else cell.mean_edges,
        "valid": cell.valid,
    }


_CELL_COLUMNS = (
    "method", "p", "n", "confounded", "prior_frac", "trials",
    "failed_trials", "mean_eo", "mean_runtime", "mean_edges", "valid",
)


def _write_cells_csv(path, cells):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(_CELL_COLUMNS) + "\n")
        for cell in cells:
            record = _cell_record(cell)
            fields = []
            for column in _CELL_COLUMNS:
                value = record[column]
                if value is None:
                    fields.append("nan")
                elif isinstance(value, bool):
                    fields.append("true" if value else "false")
                elif isinstance(value, float):
                    fields.append(repr(value))
                else:
                    fields.append(str(value))
            handle.write(",".join(fields) + "\n")


def _cells_table(cells):
    header = (
        f"{'method':<12}{'p':>3}{'n':>7}{'conf':>6}{'prior':>7}"
        f"{'ok':>5}{'fail':>6}{'mean_eo':>10}{'seconds':>10}{'edges':>10}"
    )
    lines = [header, "-" * len(header)]
    for cell in cells:
        lines.append(
            f"{cell.method.value:<12}{cell.p:>3}{cell.n:>7}"
            f"{('yes' if cell.confounded else 'no'):>6}"
            f"{cell.prior_frac:>7.2f}{cell.trials:>5}{cell.failed_trials:>6}"
            f"{cell.mean_eo:>10.4f}{cell.mean_runtime:>10.3f}"
            f"{cell.mean_edges:>10.1f}"
        )
    return "\n".join(lines)


def cmd_bench(values):
    config = BenchConfig(
        p_values=_int_list(values["p"]),
        n_values=_int_list(values["n"]),
        trials=int(values["trials"]),
        methods=tuple(_str_list(values["methods"])),
        with_confounders=str(values["with_confounders"]),
        prior_fracs=_float_list(values["prior_fracs"]),
        seed=int(values["seed"]),
        parallelism=_jobs(values),
    )
    cells = run_benchmark(config)
    out = str(values["out"])
    os.makedirs(out, exist_ok=True)
    cells_json = os.path.join(out, "cells.json")
    cells_csv = os.path.join(out, "cells.csv")
    write_json_atomic(cells_json, [_cell_record(cell) for cell in cells])
    _write_cells_csv(cells_csv, cells)
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
    except (PriorUnsatisfiable, CyclicPrior) as error:
        return _fail(error, 3)
    except TooManyFeatures as error:
        return _fail(error, 4)
    except ZeroVarianceColumn as error:
        return _fail(error, 2)
    except (
        ZeroVariance,
        DegenerateCorrelation,
        DegenerateDistribution,
        GenerationFailed,
        SingleClass,
        SingularDesign,
        np.linalg.LinAlgError,
    ) as error:
        return _fail(error, 5)
    except (
        ValueError,
        OSError,
        KeyError,
        LengthMismatch,
        InvalidK,
        EmptyTrainingSet,
    ) as error:
        return _fail(error, 2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
