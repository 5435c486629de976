"""Tests for sparse edge estimation on top of a fixed ordering."""

import logging

import numpy as np
import pytest

from pathlingam.adjacency import (
    CD_MAX_SWEEPS, estimate_adjacency, lasso_coordinate_descent,
)
from pathlingam.errors import NumericOverflow, SingularDesign
from pathlingam.model import Dataset
from pathlingam.search import SearchResult
from pathlingam.simgen import generate, sample_benchmark_params
from reference import residual_adjacency


def _stats(design, target):
    """The Gram statistics X'X/N and X'y/N that the descent reads."""
    n = design.shape[0]
    return design.T @ design / n, design.T @ target / n


class TestCoordinateDescent:
    def test_zero_penalty_matches_least_squares(self):
        rng = np.random.default_rng(0)
        design = rng.normal(size=(200, 4))
        target = design @ np.array([1.5, -0.7, 0.0, 0.3]) + 0.1 * rng.normal(size=200)
        w = lasso_coordinate_descent(*_stats(design, target), 0.0)
        expected, *_ = np.linalg.lstsq(design, target, rcond=None)
        assert np.allclose(w, expected, atol=1e-6)

    def test_orthogonal_design_soft_thresholds(self):
        # Columns orthogonal with mean square one make each update exact:
        # w_j = sign(rho_j) * max(|rho_j| - lam, 0) with rho_j = mean(x_j y).
        n = 8
        design = np.zeros((n, 2))
        design[:, 0] = [1, -1, 1, -1, 1, -1, 1, -1]
        design[:, 1] = [1, 1, -1, -1, 1, 1, -1, -1]
        target = 2.0 * design[:, 0] + 0.05 * design[:, 1]
        lam = 0.5
        gram, corr = _stats(design, target)
        assert np.array_equal(gram, np.eye(2))
        w = lasso_coordinate_descent(gram, corr, lam)
        expected = np.sign(corr) * np.maximum(np.abs(corr) - lam, 0.0)
        assert np.allclose(w, expected, atol=1e-10)
        assert w[1] == 0.0

    def test_zero_norm_column_stays_zero(self):
        rng = np.random.default_rng(1)
        design = rng.normal(size=(100, 3))
        design[:, 2] = 0.0
        target = design[:, 0] - design[:, 1]
        w = lasso_coordinate_descent(*_stats(design, target), 0.01)
        assert w[2] == 0.0

    def test_large_penalty_kills_everything(self):
        rng = np.random.default_rng(2)
        design = rng.normal(size=(100, 3))
        target = design @ np.array([1.0, 2.0, 3.0])
        gram, corr = _stats(design, target)
        w = lasso_coordinate_descent(gram, corr, 10.0 * np.max(np.abs(corr)))
        assert np.array_equal(w, np.zeros(3))

    @pytest.mark.parametrize("seed", range(5))
    def test_penalty_at_max_correlation_gives_exact_zeros(self, seed):
        # The first BIC grid point is lam = max|c|; its fit is the empty
        # model, which is why that model needs no separate score.
        rng = np.random.default_rng(seed)
        design = rng.normal(size=(300, 4)) @ rng.normal(size=(4, 4))
        target = design @ rng.normal(size=4) + rng.normal(size=300)
        gram, corr = _stats(design, target)
        w = lasso_coordinate_descent(gram, corr, np.max(np.abs(corr)))
        assert np.array_equal(w, np.zeros(4))

    def test_warm_start_unmodified(self):
        rng = np.random.default_rng(3)
        design = rng.normal(size=(50, 2))
        target = design[:, 0]
        start = np.array([5.0, -5.0])
        lasso_coordinate_descent(*_stats(design, target), 0.1, start=start)
        assert np.array_equal(start, [5.0, -5.0])

    def test_solve_stopped_by_sweep_cap_is_logged(self, caplog):
        rho = 1.0 - 1e-6
        gram = np.array([[1.0, rho], [rho, 1.0]])
        with caplog.at_level(logging.WARNING, logger="pathlingam.adjacency"):
            lasso_coordinate_descent(gram, np.array([1.0, 0.5]), 1e-3)
        (record,) = caplog.records
        assert record.levelno == logging.WARNING
        assert f"{CD_MAX_SWEEPS} sweeps" in record.getMessage()
        assert "lam=0.001" in record.getMessage()


def _chain_dataset(seed, n=5000, coef=0.9):
    rng = np.random.default_rng(seed)
    noise = rng.uniform(-1.0, 1.0, size=(n, 4))
    values = np.empty((n, 4))
    values[:, 0] = noise[:, 0]
    for j in range(1, 4):
        values[:, j] = coef * values[:, j - 1] + noise[:, j]
    return Dataset(values=values)


def _edges(b_hat):
    """The (cause, effect) pairs of b_hat's nonzero entries."""
    return {(int(cause), int(effect)) for effect, cause in zip(*np.nonzero(b_hat))}


class TestEstimateAdjacency:
    def test_chain_recovered_exactly(self):
        data = _chain_dataset(0)
        b_hat = estimate_adjacency(data, (0, 1, 2, 3))
        assert _edges(b_hat) == {(0, 1), (1, 2), (2, 3)}
        for cause, effect in _edges(b_hat):
            assert abs(b_hat[effect, cause] - 0.9) < 0.05

    def test_independent_columns_give_empty_graph(self):
        rng = np.random.default_rng(4)
        data = Dataset(values=rng.uniform(-1, 1, size=(4000, 4)))
        b_hat = estimate_adjacency(data, (0, 1, 2, 3))
        assert _edges(b_hat) == set()
        assert np.array_equal(b_hat, np.zeros((4, 4)))

    def test_permuted_matrix_strictly_lower_triangular(self):
        data = _chain_dataset(5)
        order = (0, 1, 2, 3)
        b_hat = estimate_adjacency(data, order)
        permuted = b_hat[np.ix_(order, order)]
        assert np.array_equal(np.triu(permuted), np.zeros((4, 4)))

    def test_accepts_a_search_results_order(self):
        data = _chain_dataset(6)
        result = SearchResult((0, 1, 2, 3), (0.0, 0.0, 0.0, 0.0), 0.0, 0, 0, 0.0)
        b_hat = estimate_adjacency(data, result.order)
        assert (0, 1) in _edges(b_hat)

    def test_ordering_controls_edge_direction(self):
        # Regressing against the reversed order still yields a DAG whose
        # permuted matrix is lower triangular for that order.
        data = _chain_dataset(7)
        order = (3, 2, 1, 0)
        b_hat = estimate_adjacency(data, order)
        permuted = b_hat[np.ix_(order, order)]
        assert np.array_equal(np.triu(permuted), np.zeros((4, 4)))

    @pytest.mark.parametrize("seed", range(5))
    def test_noise_free_effect_recovered_exactly(self, seed):
        # x3 = 2 x0 - 1.5 x1 with no noise: x2's least-squares weight is
        # rounding error, and its adaptive penalty must keep it out.
        rng = np.random.default_rng(seed)
        values = rng.uniform(-1.0, 1.0, size=(2000, 4))
        values[:, 3] = 2.0 * values[:, 0] - 1.5 * values[:, 1]
        b_hat = estimate_adjacency(Dataset(values=values), (0, 1, 2, 3))
        assert _edges(b_hat) == {(0, 3), (1, 3)}

    def test_collinear_predecessors_raise(self):
        rng = np.random.default_rng(8)
        values = rng.normal(size=(500, 3))
        values[:, 1] = values[:, 0]
        data = Dataset(values=values)
        with pytest.raises(SingularDesign):
            estimate_adjacency(data, (0, 1, 2))

    def test_gram_overflow_raises_a_numeric_error(self):
        # At this scale X'X/N overflows and every BIC was NaN, which left no
        # best model (an UnboundLocalError).
        data = _chain_dataset(11, n=500)
        big = Dataset(values=data.values * 1e160)
        with pytest.raises(NumericOverflow, match="overflow") as info:
            estimate_adjacency(big, (0, 1, 2, 3))
        assert info.value.exit_code == 5

    @pytest.mark.parametrize("scale", [1e-152, 1e-160, 1e-170])
    def test_underflowing_mean_squares_raise_a_numeric_error(self, scale):
        # With y'y/N and x'x/N at or below 1e-300, 1e-152 gave an empty
        # support, 1e-160 raised ValueError from the penalty grid, and
        # 1e-170 gave an all-zero b_hat.
        data = _chain_dataset(11, n=500)
        tiny = Dataset(values=data.values * scale)
        with pytest.raises(NumericOverflow, match="underflow") as info:
            estimate_adjacency(tiny, (0, 1, 2, 3))
        assert info.value.exit_code == 5

    def test_small_scale_above_the_floor_keeps_the_support(self):
        data = _chain_dataset(11, n=500)
        small = Dataset(values=data.values * 1e-140)
        assert _edges(estimate_adjacency(small, (0, 1, 2, 3))) == _edges(
            estimate_adjacency(data, (0, 1, 2, 3))
        )

    def test_non_permutation_order_rejected(self):
        data = _chain_dataset(9, n=100)
        with pytest.raises(ValueError):
            estimate_adjacency(data, (0, 1, 1, 2))

    def test_needs_more_samples_than_features(self):
        rng = np.random.default_rng(10)
        data = Dataset(values=rng.normal(size=(4, 4)))
        with pytest.raises(ValueError):
            estimate_adjacency(data, (0, 1, 2, 3))


def _simulated(p, confounded, seed):
    data, truth = generate(sample_benchmark_params(p, 1000, confounded, seed))
    return data, truth.true_order


@pytest.mark.parametrize("data, order", [
    (_chain_dataset(11), (0, 1, 2, 3)),
    (_chain_dataset(12), (3, 1, 0, 2)),
    *(_simulated(5, False, seed) for seed in range(3)),
    _simulated(6, True, 0),
], ids=["chain", "chain-shuffled", "p5-0", "p5-1", "p5-2", "p6-confounded"])
def test_matches_residual_form(data, order):
    """The Gram-statistics solves give the residual form's support, with
    coefficients equal to rounding."""
    b_hat = estimate_adjacency(data, order)
    expected = residual_adjacency(data.values, order)
    assert _edges(b_hat) == _edges(expected)
    assert np.max(np.abs(b_hat - expected)) < 1e-9
