"""Reproducible benchmark grid over the simulated data generating process.

Cells are the cross product of feature counts, sample sizes, methods,
confounding regimes and prior-knowledge fractions. Every trial's seed is a
stable hash of the cell coordinates plus the trial index, so any cell can be
reproduced in isolation and results are independent of execution order.
"""

import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .measures import MeasureConfig, MeasureKind
from .metrics import ordering_error
from .model import expand_prior
from .search import check_data_size, direct_lingam_order, shortest_path_order
from .simgen import generate_trial
from .util import map_tasks, stable_seed

log = logging.getLogger(__name__)


# Method name -> (searcher, measure kind) of its trials.
SEARCHERS = {
    "spp-plr": (shortest_path_order, MeasureKind.PLR),
    "direct-plr": (direct_lingam_order, MeasureKind.PLR),
    "spp-knn": (shortest_path_order, MeasureKind.KNN_MI),
}


@dataclass(frozen=True)
class BenchConfig:
    """The experimental grid; ``with_confounders`` is both/true/false, and
    ``methods`` are names in ``SEARCHERS``. Every (p, n) of the grid must
    pass ``check_data_size``, or no trial of its cells could run."""

    p_values: tuple
    n_values: tuple
    trials: int
    methods: tuple = ("spp-plr", "direct-plr")
    with_confounders: str = "false"
    prior_fracs: tuple = (0.0,)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "p_values", tuple(int(p) for p in self.p_values))
        object.__setattr__(self, "n_values", tuple(int(n) for n in self.n_values))
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(
            self, "prior_fracs", tuple(float(f) for f in self.prior_fracs)
        )
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if not (self.p_values and self.n_values and self.methods and self.prior_fracs):
            raise ValueError("the grid needs at least one cell")
        for method in self.methods:
            if method not in SEARCHERS:
                raise ValueError(f"unknown method {method!r}")
        if self.with_confounders not in ("both", "true", "false"):
            raise ValueError("with_confounders must be both, true or false")
        if any(not 0.0 <= f <= 1.0 for f in self.prior_fracs):
            raise ValueError("prior fractions must lie in [0, 1]")
        for p, n in itertools.product(self.p_values, self.n_values):
            check_data_size(p, n)

    def confounded_values(self):
        if self.with_confounders == "both":
            return (False, True)
        return (self.with_confounders == "true",)


@dataclass(frozen=True)
class BenchCell:
    """Aggregates over the successful trials of one grid cell.

    ``trials`` counts the successes that were aggregated; a cell is valid
    when at most 10% of its configured trials failed.
    """

    method: str
    p: int
    n: int
    confounded: bool
    prior_frac: float
    trials: int
    failed_trials: int
    mean_eo: float
    mean_runtime: float
    mean_edges: float

    @property
    def valid(self):
        configured = self.trials + self.failed_trials
        return configured > 0 and self.failed_trials <= 0.1 * configured


def trial_prior(truth, prior_frac, seed):
    """Prior knowledge for one trial: the true relative order of a random
    subset of round(prior_frac * p) variables, supplied as one sequence.

    Rounding is half-up. Fractions pinning fewer than 2 variables carry no
    information and yield an empty prior.
    """
    p = len(truth.true_order)
    pinned = int(math.floor(prior_frac * p + 0.5))
    if pinned < 2:
        return None
    rng = np.random.default_rng(stable_seed(int(seed), "prior"))
    chosen = set(int(v) for v in rng.choice(p, pinned, replace=False))
    sequence = [v for v in truth.true_order if v in chosen]
    return expand_prior([sequence])


def run_trial(method, p, n, confounded, prior_frac, seed):
    """One benchmark trial, its data drawn by ``generate_trial`` with seed
    parts ``(seed,)``; returns (ordering error, runtime, edge count)."""
    search, kind = SEARCHERS[method]
    _, data, truth = generate_trial(p, n, confounded, seed, (seed,))
    prior = trial_prior(truth, prior_frac, seed)
    result = search(data, MeasureConfig(kind), prior)
    e_o = ordering_error(result.order, truth.true_order)
    return e_o, result.wall_time, result.edges_evaluated


def _run_trial_task(task):
    method, p, n, confounded, prior_frac, seed = task
    try:
        return run_trial(method, p, n, confounded, prior_frac, seed)
    except Exception as error:  # noqa: BLE001 - per-trial isolation
        log.warning(
            "trial failed (method=%s p=%s n=%s confounded=%s frac=%s): %s",
            method, p, n, confounded, prior_frac, error,
        )
        return None


def trial_seed(config_seed, p, n, method, confounded, prior_frac, index):
    """The documented stable per-trial seed derivation."""
    return stable_seed(
        int(config_seed), int(p), int(n), method,
        bool(confounded), float(prior_frac), int(index),
    )


def run_benchmark(config, jobs=1):
    """Run every cell of the grid over ``jobs`` worker processes; identical
    config gives identical cells, whatever ``jobs`` is.

    Per-trial failures are logged and excluded from the aggregates; cells
    where more than 10% of trials failed report ``valid`` False.
    """
    cells = list(itertools.product(
        config.p_values, config.n_values, config.methods,
        config.confounded_values(), config.prior_fracs,
    ))
    tasks = [
        (method, p, n, confounded, frac,
         trial_seed(config.seed, p, n, method, confounded, frac, index))
        for p, n, method, confounded, frac in cells
        for index in range(config.trials)
    ]
    outcomes = map_tasks(_run_trial_task, tasks, jobs)
    results = []
    for index, cell in enumerate(cells):
        chunk = outcomes[index * config.trials:(index + 1) * config.trials]
        good = [r for r in chunk if r is not None]
        results.append(_aggregate(good, len(chunk) - len(good), *cell))
    return results


def _aggregate(good, failed, p, n, method, confounded, frac):
    if good:
        eo = float(np.mean([g[0] for g in good]))
        runtime = float(np.mean([g[1] for g in good]))
        edges = float(np.mean([g[2] for g in good]))
    else:
        eo = runtime = edges = float("nan")
    cell = BenchCell(
        mean_eo=eo,
        mean_runtime=runtime,
        mean_edges=edges,
        trials=len(good),
        method=method,
        p=p,
        n=n,
        confounded=confounded,
        prior_frac=frac,
        failed_trials=failed,
    )
    if not cell.valid:
        log.warning(
            "cell invalid (method=%s p=%s n=%s confounded=%s frac=%s): "
            "%d of %d trials failed",
            method, p, n, confounded, frac, failed, failed + len(good),
        )
    return cell

