"""Search correctness.

The load-bearing oracle: an independent brute force that scores every
permutation by standardizing fresh, walking the permutation left to right,
and residualizing in path order (not the lattice's canonical order). Its
minimum must match the Dijkstra total, which simultaneously checks the
search, the lazy edge evaluation, and the order-independence of the shared
residual cache.
"""

import itertools

import numpy as np
import pytest

from pathlingam.errors import ZeroVariance
from pathlingam.measures import MeasureConfig, MeasureKind, plr, plr_costs
from pathlingam.model import PriorKnowledge, expand_prior
from pathlingam.search import (
    Lattice,
    direct_lingam_order,
    residualize,
    shortest_path_order,
)
from pathlingam.simgen import GenParams, generate


def _standardize(values):
    return (values - values.mean(axis=0)) / values.std(axis=0)


def _regress_out(column, regressor):
    cov = np.mean(column * regressor) - column.mean() * regressor.mean()
    var = np.mean(regressor * regressor) - regressor.mean() ** 2
    return column - (cov / var) * regressor


def _step_cost(columns, candidate):
    """Mean over the others of min(0, plr(candidate, other))^2."""
    others = [f for f in columns if f != candidate]
    total = 0.0
    for other in others:
        r = plr(columns[candidate], columns[other])
        total += min(0.0, r) ** 2
    return total / len(others)


def _path_cost(values, permutation):
    """Fresh total cost of one permutation, residualizing in path order."""
    z = _standardize(values)
    columns = {f: z[:, f] for f in range(values.shape[1])}
    total = 0.0
    for candidate in permutation[:-1]:
        if len(columns) >= 2:
            total += _step_cost(columns, candidate)
        chosen = columns.pop(candidate)
        for f in columns:
            columns[f] = _regress_out(columns[f], chosen)
    return total


def _dataset(seed, p=4, n=300, sparsity=0.3, confounders=0):
    params = GenParams(
        p=p, n_samples=n, sparsity=sparsity, n_confounders=confounders,
        confoundedness=0.4 if confounders else 0.0, seed=seed,
    )
    return generate(params)


class TestBruteForceOracle:
    @pytest.mark.parametrize("seed,p", [(0, 3), (1, 3), (2, 4), (3, 4), (4, 4)])
    def test_spp_total_is_the_minimum_path_cost(self, seed, p):
        data, _ = _dataset(seed, p=p)
        result = shortest_path_order(data)
        best = min(
            _path_cost(data.values, perm)
            for perm in itertools.permutations(range(p))
        )
        assert result.order.total_cost == pytest.approx(best, abs=1e-9)

    def test_reported_path_cost_matches_fresh_recomputation(self):
        data, _ = _dataset(7, p=4)
        result = shortest_path_order(data)
        fresh = _path_cost(data.values, result.order.order)
        assert result.order.total_cost == pytest.approx(fresh, abs=1e-9)

    def test_confounded_data_too(self):
        data, _ = _dataset(11, p=4, confounders=1)
        result = shortest_path_order(data)
        best = min(
            _path_cost(data.values, perm)
            for perm in itertools.permutations(range(4))
        )
        assert result.order.total_cost == pytest.approx(best, abs=1e-9)


class TestGreedyAgainstSpp:
    def test_greedy_total_never_beats_spp(self):
        for seed in range(12):
            data, _ = _dataset(100 + seed, p=5, n=250)
            spp = shortest_path_order(data)
            greedy = direct_lingam_order(data)
            assert greedy.order.total_cost >= spp.order.total_cost - 1e-12

    def test_identical_at_p2(self):
        for seed in range(8):
            data, _ = _dataset(200 + seed, p=2)
            spp = shortest_path_order(data)
            greedy = direct_lingam_order(data)
            assert spp.order.order == greedy.order.order
            assert spp.order.total_cost == pytest.approx(
                greedy.order.total_cost, abs=1e-12
            )

    def test_greedy_step_costs_are_the_running_minima(self):
        data, _ = _dataset(9, p=4)
        greedy = direct_lingam_order(data)
        lattice = Lattice(data)
        mask = lattice.full
        for feature, cost in zip(greedy.order.order[:-1], greedy.order.step_costs):
            costs = lattice.costs_at(mask)
            assert cost == min(costs.values())
            assert feature == min(
                f for f in costs if costs[f] == cost
            )  # tie goes to the lower index
            mask &= ~(1 << feature)


class TestAccounting:
    def test_p2_counts_exactly(self):
        data, _ = _dataset(20, p=2)
        result = shortest_path_order(data)
        assert result.edges_evaluated == 2
        assert result.states_expanded == 2  # the root and one 1-bit state

    def test_greedy_edge_count_is_fixed(self):
        for p in (3, 4, 5):
            data, _ = _dataset(21, p=p)
            greedy = direct_lingam_order(data)
            assert greedy.edges_evaluated == sum(range(2, p + 1))
            assert greedy.states_expanded == p

    def test_spp_edge_count_bounds(self):
        data, _ = _dataset(22, p=4)
        result = shortest_path_order(data)
        lower = sum(range(2, 5))  # straight shot
        upper = 4 + 3 * 4 + 2 * 6  # every state of each size, lazily
        assert lower <= result.edges_evaluated <= upper

    def test_wall_time_positive(self):
        data, _ = _dataset(23, p=3)
        assert shortest_path_order(data).wall_time > 0.0


class TestDeterminism:
    def test_spp_repeatable(self):
        data, _ = _dataset(30, p=4)
        a = shortest_path_order(data)
        b = shortest_path_order(data)
        assert a.order == b.order
        assert a.edges_evaluated == b.edges_evaluated
        assert a.states_expanded == b.states_expanded


class TestPrior:
    def test_full_order_prior_returned_verbatim(self):
        data, truth = _dataset(40, p=4)
        worst = tuple(reversed(truth.true_order))
        prior = expand_prior([worst])
        result = shortest_path_order(data, prior=prior)
        assert result.order.order == worst
        # one allowed candidate per state: exactly p - 1 evaluated edges
        assert result.edges_evaluated == 3
        greedy = direct_lingam_order(data, prior=prior)
        assert greedy.order.order == worst

    def test_result_respects_partial_prior(self):
        data, _ = _dataset(41, p=5)
        free = shortest_path_order(data).order.order
        a, b = free[-1], free[0]  # force a reversal of the free result
        prior = PriorKnowledge(frozenset({(a, b)}))
        constrained = shortest_path_order(data, prior=prior)
        assert constrained.order.order.index(a) < constrained.order.order.index(b)

    def test_prior_can_only_raise_the_total(self):
        data, _ = _dataset(42, p=4)
        free = shortest_path_order(data)
        a, b = free.order.order[-1], free.order.order[0]
        constrained = shortest_path_order(
            data, prior=PriorKnowledge(frozenset({(a, b)}))
        )
        assert constrained.order.total_cost >= free.order.total_cost - 1e-12

    def test_prior_index_out_of_range(self):
        data, _ = _dataset(43, p=3)
        with pytest.raises(ValueError, match="outside"):
            shortest_path_order(data, prior=PriorKnowledge(frozenset({(0, 9)})))


class TestAllowedCandidates:
    def test_blocks_effect_chosen_before_cause(self):
        data, _ = _dataset(44, p=3)
        lattice = Lattice(data, prior=PriorKnowledge(frozenset({(0, 1)})))
        # feature 1 becomes choosable only once feature 0 is gone
        assert lattice.allowed_candidates(0b111) == [0, 2]
        assert lattice.allowed_candidates(0b110) == [1, 2]

    def test_none_prior_allows_everything(self):
        data, _ = _dataset(45, p=3)
        lattice = Lattice(data)
        assert lattice.allowed_candidates(0b111) == [0, 1, 2]
        assert lattice.allowed_candidates(0b101) == [0, 2]


class TestResidualize:
    def test_removes_feature_and_decorrelates(self):
        rng = np.random.default_rng(50)
        columns = rng.standard_normal((200, 3))
        child = residualize(columns, 1)
        assert child.shape == (200, 2)
        chosen = columns[:, 1]
        for i, kept in enumerate((0, 2)):
            r = child[:, i]
            cov = np.mean(r * chosen) - r.mean() * chosen.mean()
            assert cov == pytest.approx(0.0, abs=1e-12)
            assert np.allclose(r, _regress_out(columns[:, kept], chosen), atol=1e-12)

    def test_constant_chosen_column_raises(self):
        columns = np.column_stack([np.ones(50), np.arange(50.0)])
        with pytest.raises(ZeroVariance):
            residualize(columns, 0)


class TestLattice:
    def test_columns_independent_of_removal_order(self):
        data, _ = _dataset(60, p=4)
        lattice = Lattice(data)
        cached = lattice.columns(0b0101)  # features 1 and 3 removed
        z = _standardize(data.values)
        for removal in ((1, 3), (3, 1)):
            cols = {f: z[:, f] for f in range(4)}
            for feature in removal:
                chosen = cols.pop(feature)
                for f in cols:
                    cols[f] = _regress_out(cols[f], chosen)
            fresh = np.column_stack([cols[0], cols[2]])
            assert np.allclose(cached, fresh, atol=1e-9)

    def test_columns_has_one_column_per_remaining_feature(self):
        data, _ = _dataset(63, p=4)
        lattice = Lattice(data)
        for mask in range(1, lattice.full + 1):
            assert lattice.columns(mask).shape == (data.n_samples, mask.bit_count())

    def test_costs_at_keys_by_feature_across_removed_bits(self):
        data, _ = _dataset(64, p=4)
        lattice = Lattice(data)
        mask = 0b1101  # feature 1 removed: columns hold features 0, 2, 3
        z = _standardize(data.values)
        cols = {f: _regress_out(z[:, f], z[:, 1]) for f in (0, 2, 3)}
        costs = lattice.costs_at(mask)
        assert sorted(costs) == [0, 2, 3]
        by_position = plr_costs(lattice.columns(mask))
        for pos, feature in enumerate((0, 2, 3)):
            assert costs[feature] == by_position[pos]
            assert costs[feature] == pytest.approx(_step_cost(cols, feature), abs=1e-9)

    def test_costs_memoized_without_recounting(self):
        data, _ = _dataset(61, p=3)
        lattice = Lattice(data)
        first = lattice.costs_at(lattice.full)
        count = lattice.edges_evaluated
        again = lattice.costs_at(lattice.full)
        assert again == first
        assert lattice.edges_evaluated == count

    def test_rejects_tiny_inputs(self):
        from pathlingam.model import Dataset

        with pytest.raises(ValueError, match="at least 2 features"):
            Lattice(Dataset(np.random.default_rng(0).standard_normal((30, 1))))
        with pytest.raises(ValueError, match="p \\+ 2 samples"):
            Lattice(Dataset(np.random.default_rng(0).standard_normal((4, 3))))

    def test_knn_measure_runs_end_to_end(self):
        data, truth = _dataset(62, p=3, n=200, sparsity=0.0)
        config = MeasureConfig(MeasureKind.KNN_MI)
        result = shortest_path_order(data, config)
        assert sorted(result.order.order) == [0, 1, 2]
        assert all(c >= 0.0 for c in result.order.step_costs)
