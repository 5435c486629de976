"""Tests for the benchmark grid driver."""

import numpy as np
import pytest

from pathlingam.bench import (
    BenchCell,
    BenchConfig,
    run_benchmark,
    run_trial,
    trial_prior,
    trial_seed,
)
from pathlingam.errors import GenerationFailed
from pathlingam.measures import MeasureConfig
from pathlingam.metrics import ordering_error
from pathlingam.search import shortest_path_order
from pathlingam.simgen import GenParams, generate, sample_benchmark_params
from pathlingam.util import stable_seed

from reference import prior_pairs


class TestBenchConfig:
    def test_coercion(self):
        config = BenchConfig(
            p_values=[3.0], n_values=["200"], trials=2, methods=["spp-plr"]
        )
        assert config.p_values == (3,)
        assert config.n_values == (200,)
        assert config.methods == ("spp-plr",)

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            BenchConfig(p_values=(3,), n_values=(100,), trials=0)

    def test_with_confounders_values(self):
        for value, expected in (
            ("false", (False,)),
            ("true", (True,)),
            ("both", (False, True)),
        ):
            config = BenchConfig(
                p_values=(3,), n_values=(100,), trials=1, with_confounders=value
            )
            assert config.confounded_values() == expected
        with pytest.raises(ValueError):
            BenchConfig(
                p_values=(3,), n_values=(100,), trials=1, with_confounders="maybe"
            )

    def test_prior_fraction_range(self):
        with pytest.raises(ValueError):
            BenchConfig(p_values=(3,), n_values=(100,), trials=1, prior_fracs=(1.5,))

    def test_parallelism_positive(self):
        config = BenchConfig(p_values=(3,), n_values=(100,), trials=1)
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            run_benchmark(config, jobs=0)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="at least one cell"):
            BenchConfig(p_values=(), n_values=(100,), trials=1)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            BenchConfig(
                p_values=(3,), n_values=(100,), trials=1, methods=("magic",)
            )


class TestBenchCell:
    def _cell(self, trials, failed):
        return BenchCell(
            mean_eo=0.1,
            mean_runtime=0.01,
            mean_edges=9.0,
            trials=trials,
            method="spp-plr",
            p=3,
            n=100,
            confounded=False,
            prior_frac=0.0,
            failed_trials=failed,
        )

    def test_validity_threshold(self):
        assert self._cell(10, 0).valid
        assert self._cell(9, 1).valid
        assert not self._cell(8, 2).valid
        assert not self._cell(0, 0).valid
        assert not self._cell(0, 5).valid


class TestTrialSeed:
    def test_deterministic_and_distinct(self):
        base = trial_seed(0, 3, 100, "spp-plr", False, 0.0, 0)
        assert base == trial_seed(0, 3, 100, "spp-plr", False, 0.0, 0)
        variants = {
            trial_seed(0, 3, 100, "spp-plr", False, 0.0, 1),
            trial_seed(0, 4, 100, "spp-plr", False, 0.0, 0),
            trial_seed(0, 3, 200, "spp-plr", False, 0.0, 0),
            trial_seed(0, 3, 100, "direct-plr", False, 0.0, 0),
            trial_seed(0, 3, 100, "spp-plr", True, 0.0, 0),
            trial_seed(0, 3, 100, "spp-plr", False, 0.5, 0),
            trial_seed(1, 3, 100, "spp-plr", False, 0.0, 0),
        }
        assert base not in variants
        assert len(variants) == 7


class TestTrialPrior:
    def _truth(self, p, seed=0):
        _, truth = generate(GenParams(p=p, n_samples=50, sparsity=0.5, seed=seed))
        return truth

    def test_rounding_half_up(self):
        truth = self._truth(4)
        # 0.5 * 4 = 2 pinned; 0.374 * 4 = 1.496 rounds to 1, so no prior.
        assert trial_prior(truth, 0.5, seed=1) is not None
        assert trial_prior(truth, 0.374, seed=1) is None
        # 0.375 * 4 = 1.5 rounds up to 2.
        assert trial_prior(truth, 0.375, seed=1) is not None

    def test_zero_fraction_is_empty(self):
        assert trial_prior(self._truth(5), 0.0, seed=0) is None

    def test_pins_true_relative_order(self):
        truth = self._truth(6, seed=3)
        prior = trial_prior(truth, 1.0, seed=2)
        position = {v: i for i, v in enumerate(truth.true_order)}
        for early, late in prior_pairs(prior):
            assert position[early] < position[late]

    def test_partial_prior_subset_size(self):
        truth = self._truth(6, seed=4)
        prior = trial_prior(truth, 0.5, seed=5)
        pinned = {v for pair in prior_pairs(prior) for v in pair}
        assert len(pinned) == 3

    def test_deterministic_in_seed(self):
        truth = self._truth(6, seed=5)
        assert prior_pairs(trial_prior(truth, 0.5, 7)) == prior_pairs(
            trial_prior(truth, 0.5, 7)
        )
        seeds = {
            tuple(sorted(prior_pairs(trial_prior(truth, 0.5, s)))) for s in range(12)
        }
        assert len(seeds) > 1


class TestRunTrial:
    def test_returns_error_time_edges(self):
        e_o, wall, edges = run_trial("spp-plr", 3, 300, False, 0.0, seed=0)
        assert 0.0 <= e_o <= 1.0
        assert wall > 0.0
        assert edges >= 3

    def test_full_prior_forces_truth(self):
        for index in range(4):
            seed = trial_seed(9, 4, 200, "spp-plr", False, 1.0, index)
            e_o, _, _ = run_trial("spp-plr", 4, 200, False, 1.0, seed)
            assert e_o == 0.0

    def test_failed_generation_redraws_the_parameters(self):
        # The first parameter draw of this seed cannot generate data, so the
        # trial runs on the redraw seeded by stable_seed(seed, 1).
        seed = 7283288419625295858
        with pytest.raises(GenerationFailed):
            generate(sample_benchmark_params(4, 1000, True, seed))
        redraw = sample_benchmark_params(4, 1000, True, stable_seed(seed, 1))
        data, truth = generate(redraw)
        result = shortest_path_order(data, MeasureConfig())
        e_o, _, edges = run_trial("spp-plr", 4, 1000, True, 0.0, seed)
        assert e_o == ordering_error(result.order, truth.true_order)
        assert edges == result.edges_evaluated


class TestRunBenchmark:
    def _config(self, **overrides):
        base = dict(
            p_values=(3,),
            n_values=(150,),
            trials=3,
            methods=("spp-plr", "direct-plr"),
            with_confounders="both",
            seed=11,
        )
        base.update(overrides)
        return BenchConfig(**base)

    def test_grid_shape_and_determinism(self):
        config = self._config()
        cells = run_benchmark(config)
        assert len(cells) == 2 * 2  # methods x confounded
        again = run_benchmark(config)
        assert [(c.mean_eo, c.trials, c.mean_edges) for c in cells] == [
            (c.mean_eo, c.trials, c.mean_edges) for c in again
        ]
        for cell in cells:
            assert cell.valid
            assert cell.trials == 3

    def test_parallel_matches_sequential(self):
        sequential = run_benchmark(self._config(), jobs=1)
        parallel = run_benchmark(self._config(), jobs=2)
        assert [(c.mean_eo, c.mean_edges, c.trials) for c in sequential] == [
            (c.mean_eo, c.mean_edges, c.trials) for c in parallel
        ]

    def test_full_prior_cell_is_perfect(self):
        config = self._config(
            methods=("spp-plr",), with_confounders="false", prior_fracs=(1.0,)
        )
        (cell,) = run_benchmark(config)
        assert cell.mean_eo == 0.0
        assert cell.prior_frac == 1.0

