"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload order --seed 1 --seconds 10 --trace 0

The program is driven the way its users drive it: through
``pathlingam.cli.main(argv)``, in this process, one command at a time
(a closed loop with one caller). ``src/`` is put on the import path here, so
nothing needs to be installed. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` prints the per-layer metrics of one traced pass.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
OUT = os.path.join(REPO, ".perfbench_out")
SETUP_REPEATS = 3
COLD_STARTS = {"full": 5, "toy": 1}

# A fresh interpreter running one CLI command, as the console script would.
COLD_START_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from pathlingam.cli import main; sys.exit(main(sys.argv[2:]))"
)

# Times are CPU seconds of the process doing the work. The program runs on
# one thread (CPU time is 0.97-0.99 of wall time here, with or without BLAS
# threads), so this is the wall time of an unshared core; on a shared host,
# wall time also counts the time the hypervisor gives to other guests, which
# reached 14% of a pass in bursts.
END_TO_END = {
    "round_cpu_ms": "ms",
    "cold_start_cpu_s": "s",
    "setup_s": "s",
    "accuracy": "fraction",
}

# Per-layer metric "<traced name>.<statistic>" -> unit.
PER_LAYER = {
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "util.read_matrix_csv.s": "s",
    "util.write_json_atomic.calls": "count",
    "util.write_json_atomic.s": "s",
    "util.write_json_atomic.bytes": "B",
    "simgen.generate.calls": "count",
    "simgen.generate.s": "s",
    "measures.plr_matrix.calls": "count",
    "measures.plr_matrix.s": "s",
    "measures.plr_matrix.cols": "count",
    "measures.knn_mi.calls": "count",
    "measures.knn_mi.s": "s",
    "search.residualize.calls": "count",
    "search.residualize.s": "s",
    "search.costs_at.calls": "count",
    "search.costs_at.hits": "count",
    "search.costs_at.self_s": "s",
    "search.shortest_path_order.calls": "count",
    "search.shortest_path_order.self_s": "s",
    "search.direct_lingam_order.calls": "count",
    "search.direct_lingam_order.self_s": "s",
    "pathdist.enumerate_paths.calls": "count",
    "pathdist.enumerate_paths.self_s": "s",
    "pathdist.sample_paths.calls": "count",
    "pathdist.sample_paths.self_s": "s",
    "pathdist.moment_features.calls": "count",
    "pathdist.moment_features.s": "s",
    "predict.build_training_set.calls": "count",
    "predict.build_training_set.self_s": "s",
    "predict.knn_classify.calls": "count",
    "predict.knn_classify.s": "s",
    "adjacency.estimate_adjacency.calls": "count",
    "adjacency.estimate_adjacency.s": "s",
    "adjacency.lasso_coordinate_descent.calls": "count",
    "adjacency.lasso_coordinate_descent.s": "s",
}
# Search work, summed over the searches of the traced pass.
SEARCH_COUNTS = ("states_expanded", "edges_evaluated")
SEARCHES = ("search.shortest_path_order", "search.direct_lingam_order")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("order", "paths", "baseline"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="wall time to cycle through the pool for, after "
                             "one full pass; a traced run makes one pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy: tiny inputs for a smoke run")
    return parser.parse_args(argv)


class Runner:
    """Runs rounds of CLI commands and counts attempted and failed ones."""

    def __init__(self, cli, workload):
        self.cli = cli
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def round(self, item):
        """One item's commands; returns the round's CPU time in seconds."""
        start = time.process_time()
        for argv in self.workload.commands(item):
            self.attempted += 1
            if self.cli.main(argv) != 0:
                self.failed += 1
                item.failed = True
        elapsed = time.process_time() - start
        requested, written = self.workload.trials(item)
        self.attempted += requested
        self.failed += requested - written
        return elapsed

    def rounds(self, items, seconds):
        """Cycle through the pool until one full pass is done and ``seconds``
        of wall time have passed; returns each item's round times."""
        times = [[] for _ in items]
        start = time.perf_counter()
        index = 0
        while index < len(items) or time.perf_counter() - start < seconds:
            times[index % len(items)].append(self.round(items[index % len(items)]))
            index += 1
        return times

    def cold_start(self, argv):
        """CPU time of one command in a fresh interpreter."""
        self.attempted += 1
        before = children_cpu_s()
        code = subprocess.run(
            [sys.executable, "-c", COLD_START_CODE, SRC, *argv],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False,
        ).returncode
        if code != 0:
            self.failed += 1
        return children_cpu_s() - before


def interquartile_mean(values):
    """Mean of the middle half of the values: a round's cost depends on its
    dataset and has a long upper tail, which this discounts without resting
    on one order statistic as a median does."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    middle = ordered[cut:len(ordered) - cut]
    return sum(middle) / len(middle)


def children_cpu_s():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(workload, simgen, seed, work):
    """Build the inputs several times; returns the last pool and the times."""
    times = []
    for repeat in range(SETUP_REPEATS):
        root = os.path.join(work, f"setup{repeat}")
        start = time.process_time()
        items = workload.setup(simgen, seed, root)
        times.append(time.process_time() - start)
    return items, times


def end_to_end(workload, runner, simgen, args, work, import_s):
    items, setup_times = setup(workload, simgen, args.seed, work)
    times = runner.rounds(items, args.seconds)
    cold = [
        runner.cold_start(workload.cold_command(items, os.path.join(work, f"cold{i}")))
        for i in range(COLD_STARTS[args.size])
    ]
    round_s = interquartile_mean([statistics.median(t) for t in times])
    metrics = {
        "round_cpu_ms": 1000.0 * round_s,
        "cold_start_cpu_s": statistics.median(cold),
        "setup_s": import_s + statistics.median(setup_times),
        "accuracy": workload.accuracy([item for item in items if not item.failed]),
    }
    return items, {name: (metrics[name], unit) for name, unit in END_TO_END.items()}


def per_layer(workload, runner, simgen, args, work, import_s, tracing):
    tracer = tracing.Tracer()
    with tracer:  # one traced set-up, for the generator's share
        items = workload.setup(simgen, args.seed, os.path.join(work, "setup"))
    # Each traced round sits between two untraced rounds of the same item,
    # so warm-up and drift in the host's speed fall on both sides alike.
    traced_s = untraced_s = 0.0
    for item in items:
        before = runner.round(item)
        with tracer:
            traced_s += runner.round(item)
        untraced_s += 0.5 * (before + runner.round(item))
    os.makedirs(OUT, exist_ok=True)
    tracer.write(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl"))
    stats = tracer.summary()
    metrics = {"import.s": (import_s, "s")}
    for name, unit in PER_LAYER.items():
        traced, statistic = name.rsplit(".", 1)
        metrics[name] = (stats[traced].get(statistic, 0), unit)
    for count in SEARCH_COUNTS:
        total = sum(stats[search].get(count, 0) for search in SEARCHES)
        metrics[f"search.{count}"] = (total, "count")
    metrics["process.peak_rss_mb"] = (peak_rss_mb(), "MB")
    metrics["trace.pass_s"] = (traced_s, "s")
    metrics["trace.overhead"] = (traced_s / untraced_s - 1.0, "fraction")
    return items, metrics


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "pathlingam")):
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    for path in (SRC, REPO):
        if path not in sys.path:
            sys.path.insert(0, path)
    start = time.process_time()
    import pathlingam.cli as cli  # the import is part of set-up
    import pathlingam.simgen as simgen
    import_s = time.process_time() - start
    from perfbench import tracing, workloads

    workload = workloads.WORKLOADS[args.workload](args.size)
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    runner = Runner(cli, workload)
    try:
        if args.trace:
            items, metrics = per_layer(
                workload, runner, simgen, args, work, import_s, tracing
            )
        else:
            items, metrics = end_to_end(workload, runner, simgen, args, work, import_s)
        # Outputs of rounds whose commands all succeeded; failures are counted.
        problems = [
            p for item in items if not item.failed for p in workload.check(item)
        ]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
