"""Search correctness.

The load-bearing oracle: an independent brute force that scores every
permutation by standardizing fresh, walking the permutation left to right,
and residualizing in path order (not the lattice's canonical order). Its
minimum must match the Dijkstra total, which simultaneously checks the
search, the lazy edge evaluation, and the order-independence of the shared
residual cache.
"""

import functools
import itertools
import math
import operator
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathlingam import search
from pathlingam.errors import CyclicPrior, ZeroVariance
from pathlingam.measures import MeasureConfig, MeasureKind, plr_costs
from pathlingam.model import Dataset, expand_prior
from pathlingam.pathdist import enumerate_paths
from pathlingam.search import (
    Lattice,
    SearchResult,
    direct_lingam_order,
    lattices_per_fill,
    residualize,
    shortest_path_order,
)
from pathlingam.simgen import GenParams, generate, generate_trial

from reference import plr, prior_pairs, residual


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
        assert result.total_cost == pytest.approx(best, abs=1e-9)

    def test_reported_path_cost_matches_fresh_recomputation(self):
        data, _ = _dataset(7, p=4)
        result = shortest_path_order(data)
        fresh = _path_cost(data.values, result.order)
        assert result.total_cost == pytest.approx(fresh, abs=1e-9)

    def test_confounded_data_too(self):
        data, _ = _dataset(11, p=4, confounders=1)
        result = shortest_path_order(data)
        best = min(
            _path_cost(data.values, perm)
            for perm in itertools.permutations(range(4))
        )
        assert result.total_cost == pytest.approx(best, abs=1e-9)


class TestGreedyAgainstSpp:
    def test_greedy_total_never_beats_spp(self):
        for seed in range(12):
            data, _ = _dataset(100 + seed, p=5, n=250)
            spp = shortest_path_order(data)
            greedy = direct_lingam_order(data)
            assert greedy.total_cost >= spp.total_cost - 1e-12

    def test_identical_at_p2(self):
        for seed in range(8):
            data, _ = _dataset(200 + seed, p=2)
            spp = shortest_path_order(data)
            greedy = direct_lingam_order(data)
            assert spp.order == greedy.order
            assert spp.total_cost == pytest.approx(
                greedy.total_cost, abs=1e-12
            )

    def test_greedy_step_costs_are_the_running_minima(self):
        data, _ = _dataset(9, p=4)
        greedy = direct_lingam_order(data)
        lattice = Lattice(data)
        mask = lattice.full
        for feature, cost in zip(greedy.order[:-1], greedy.step_costs):
            costs = lattice.costs_at(mask)
            assert cost == min(costs.values())
            assert feature == min(
                f for f in costs if costs[f] == cost
            )  # tie goes to the lower index
            mask &= ~(1 << feature)

    def test_totals_are_path_order_sums_under_a_compensated_sum(self):
        # math.fsum stands in for the compensated float sum() of Python
        # >= 3.12; a total is the steps added in path order on any
        # interpreter, so the global minimum never exceeds the greedy walk.
        with mock.patch.object(search, "sum", math.fsum, create=True):
            for k in range(40):
                seed = 3100 + k
                _, data, _ = generate_trial(6 + k % 7, 1000, k % 2 == 1, seed, (seed,))
                spp = shortest_path_order(data)
                greedy = direct_lingam_order(data)
                for result in (spp, greedy):
                    path_sum = functools.reduce(operator.add, result.step_costs, 0.0)
                    assert result.total_cost == path_sum
                assert spp.total_cost <= greedy.total_cost


class TestDataScale:
    """Data of any finite scale gives the orders of the unscaled data."""

    @pytest.fixture(scope="class")
    def trial(self):
        _, data, _ = generate_trial(8, 1000, False, 4, (4,))
        return data

    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    @pytest.mark.parametrize("search", [shortest_path_order, direct_lingam_order])
    def test_scaled_copy_keeps_the_order(self, trial, scale, search):
        found = search(trial)
        scaled = search(Dataset(values=trial.values * scale))
        assert scaled.order == found.order
        assert scaled.total_cost == pytest.approx(found.total_cost, rel=1e-9)

    @pytest.mark.parametrize("scale", [1e160, 1e-170])
    def test_scaled_copy_keeps_the_knn_order(self, scale):
        data, _ = _dataset(65, p=3, n=200)
        knn = MeasureConfig(MeasureKind.KNN_MI)
        found = shortest_path_order(data, knn)
        scaled = shortest_path_order(Dataset(values=data.values * scale), knn)
        assert scaled.order == found.order
        assert scaled.step_costs == pytest.approx(found.step_costs, rel=1e-9)


_PLR = MeasureConfig()
_KNN = MeasureConfig(MeasureKind.KNN_MI)


@st.composite
def _search_cases(draw):
    """A small seeded dataset with its measure, and a satisfiable prior."""
    config = draw(st.sampled_from([_PLR, _KNN]))
    p = draw(st.integers(2, 5 if config is _PLR else 4))
    data, _ = _dataset(
        draw(st.integers(0, 2**32 - 1)),
        p=p,
        n=300 if config is _PLR else 200,
        sparsity=draw(st.sampled_from([0.0, 0.4, 0.8])),
        confounders=draw(st.integers(0, 1)),
    )
    # Pairs that agree with one permutation can always be satisfied.
    permutation = draw(st.permutations(range(p)))
    pairs = [
        (permutation[i], permutation[j])
        for i in range(p) for j in range(i + 1, p)
    ]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
    return data, config, expand_prior(chosen)


class TestSearchProperties:
    @settings(max_examples=40, deadline=None)
    @given(_search_cases())
    def test_spp_is_the_enumerated_minimum_and_beats_greedy(self, case):
        data, config, _ = case
        spp = shortest_path_order(data, config).total_cost
        assert spp <= direct_lingam_order(data, config).total_cost
        best = min(enumerate_paths(data, config).lengths)
        assert spp == pytest.approx(best, rel=1e-9, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(_search_cases())
    def test_prior_is_respected_and_only_raises_the_total(self, case):
        data, config, prior = case
        free = shortest_path_order(data, config)
        constrained = shortest_path_order(data, config, prior)
        for a, b in prior_pairs(prior):
            assert constrained.order.index(a) < constrained.order.index(b)
        assert constrained.total_cost >= free.total_cost

    @settings(max_examples=40, deadline=None)
    @given(
        search=st.sampled_from([shortest_path_order, direct_lingam_order]),
        p=st.integers(2, 6),
        seed=st.integers(0, 2**32 - 1),
        confounders=st.integers(0, 1),
        data=st.data(),
    )
    def test_permuting_columns_keeps_the_total(
        self, search, p, seed, confounders, data
    ):
        # Totals only: under a tie the two runs may pick different orders.
        original, _ = _dataset(seed, p=p, n=300, confounders=confounders)
        columns = data.draw(st.permutations(range(p)))
        permuted = Dataset(values=original.values[:, columns])
        found = search(original).total_cost
        moved = search(permuted)
        assert moved.total_cost == pytest.approx(found, rel=1e-9, abs=1e-12)
        # The permuted run's order, in original column indices, costs as
        # much on the original data.
        lattice = Lattice(original)
        mask, total = lattice.full, 0.0
        for f in moved.order[:-1]:
            total += lattice.costs_at(mask)[columns[f]]
            mask &= ~(1 << columns[f])
        assert total == pytest.approx(found, rel=1e-9, abs=1e-12)


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


def _result(order, step_costs, total_cost):
    return SearchResult(order, step_costs, total_cost, 0, 0, 0.0)


class TestSearchResult:
    def test_valid(self):
        result = _result((1, 0, 2), (0.5, 0.25, 0.0), 0.75)
        assert result.order == (1, 0, 2)
        assert result.total_cost == 0.75

    def test_total_within_tolerance_accepted(self):
        _result((0, 1), (0.5, 0.0), 0.5 + 5e-10)

    @pytest.mark.parametrize(
        "order, step_costs, total_cost, message",
        [
            ((0, 0, 1), (0.0, 0.0, 0.0), 0.0, "permutation"),
            ((0, 1), (0.0,), 0.0, "one step cost"),
            ((0, 1), (-0.1, 0.0), -0.1, "nonnegative"),
            ((0, 1), (0.0, 0.1), 0.1, "final"),
            ((0, 1), (0.5, 0.0), 0.75, "total_cost"),
        ],
        ids=["non_permutation", "cost_count", "negative_cost", "nonzero_final", "total"],
    )
    def test_rejects_malformed(self, order, step_costs, total_cost, message):
        with pytest.raises(ValueError, match=message):
            _result(order, step_costs, total_cost)


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
        assert result.order == worst
        # one allowed candidate per state: exactly p - 1 evaluated edges
        assert result.edges_evaluated == 3
        greedy = direct_lingam_order(data, prior=prior)
        assert greedy.order == worst

    def test_result_respects_partial_prior(self):
        data, _ = _dataset(41, p=5)
        free = shortest_path_order(data).order
        a, b = free[-1], free[0]  # force a reversal of the free result
        prior = expand_prior([(a, b)])
        constrained = shortest_path_order(data, prior=prior)
        assert constrained.order.index(a) < constrained.order.index(b)

    def test_prior_can_only_raise_the_total(self):
        data, _ = _dataset(42, p=4)
        free = shortest_path_order(data)
        a, b = free.order[-1], free.order[0]
        constrained = shortest_path_order(
            data, prior=expand_prior([(a, b)])
        )
        assert constrained.total_cost >= free.total_cost - 1e-12

    def test_prior_index_out_of_range(self):
        data, _ = _dataset(43, p=3)
        with pytest.raises(ValueError, match="outside"):
            shortest_path_order(data, prior=expand_prior([(0, 9)]))


class TestAllowedCandidates:
    def test_blocks_effect_chosen_before_cause(self):
        data, _ = _dataset(44, p=3)
        lattice = Lattice(data, prior=expand_prior([(0, 1)]))
        # feature 1 becomes choosable only once feature 0 is gone
        assert lattice.allowed_candidates(0b111) == [0, 2]
        assert lattice.allowed_candidates(0b110) == [1, 2]

    def test_none_prior_allows_everything(self):
        data, _ = _dataset(45, p=3)
        lattice = Lattice(data)
        assert lattice.allowed_candidates(0b111) == [0, 1, 2]
        assert lattice.allowed_candidates(0b101) == [0, 2]


class TestSteps:
    @pytest.mark.parametrize("kind", [MeasureKind.PLR, MeasureKind.KNN_MI])
    def test_goal_edge_is_free_and_unevaluated(self, kind):
        data, _ = _dataset(47, p=3, n=200)
        lattice = Lattice(data, MeasureConfig(kind))
        for feature in range(3):
            assert list(lattice.steps(1 << feature)) == [(feature, 0.0)]
        assert lattice.edges_evaluated == 0
        assert lattice._costs == {}

    def test_prior_keeps_allowed_features_in_ascending_order(self):
        data, _ = _dataset(48, p=5)
        lattice = Lattice(data, prior=expand_prior([(3, 1), (4, 0)]))
        for mask in _states_with_edges(5):
            steps = list(lattice.steps(mask))
            features = [feature for feature, _ in steps]
            assert features == lattice.allowed_candidates(mask)
            assert features == sorted(features)
            assert dict(steps) == lattice.costs_at(mask)

    @pytest.mark.parametrize("search", [shortest_path_order, direct_lingam_order])
    def test_searches_never_weigh_a_one_feature_state(self, search):
        data, _ = _dataset(49, p=5, confounders=1)
        with mock.patch.object(
            Lattice, "costs_at", autospec=True, side_effect=Lattice.costs_at
        ) as costs_at:
            result = search(data)
        masks = [call.args[1] for call in costs_at.call_args_list]
        assert masks and min(mask.bit_count() for mask in masks) >= 2
        assert result.step_costs[-1] == 0.0


_PRIOR_DATA = np.random.default_rng(46).normal(size=(12, 6))


@st.composite
def _prior_cases(draw):
    """A feature count and index sequences over it, repeats allowed."""
    p = draw(st.integers(2, 6))
    index = st.integers(0, p - 1)
    sequences = draw(st.lists(st.lists(index, max_size=4), max_size=4))
    return p, sequences


class TestPriorLattice:
    @settings(max_examples=300, deadline=None)
    @given(_prior_cases())
    def test_lattice_paths_are_the_orders_that_keep_every_sequence(self, case):
        """expand_prior raises CyclicPrior exactly when no permutation keeps
        every sequence's order; otherwise the permutations the lattice
        allows step by step are exactly those that keep it."""
        p, sequences = case

        def keeps(permutation):
            position = {f: i for i, f in enumerate(permutation)}
            return all(
                position[a] < position[b]
                for sequence in sequences
                for a, b in zip(sequence, sequence[1:])
            )

        keeping = {
            perm for perm in itertools.permutations(range(p)) if keeps(perm)
        }
        if not keeping:
            with pytest.raises(CyclicPrior):
                expand_prior(sequences)
            return
        data = Dataset(_PRIOR_DATA[:, :p])
        lattice = Lattice(data, prior=expand_prior(sequences))

        def allowed(permutation):
            mask = lattice.full
            for feature in permutation:
                if feature not in lattice.allowed_candidates(mask):
                    return False
                mask &= ~(1 << feature)
            return True

        assert {
            perm for perm in itertools.permutations(range(p)) if allowed(perm)
        } == keeping


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

    @settings(max_examples=50, deadline=None)
    @given(
        m_pos=st.integers(1, 16).flatmap(
            lambda m: st.tuples(st.just(m), st.integers(0, m - 1))
        ),
        n=st.integers(3, 400),
        seed=st.integers(0, 2**32 - 1),
    )
    # A chosen column of tiny variance, where a one-pass reference is off
    # by up to 5e-10.
    @example(m_pos=(12, 3), n=3, seed=10022)
    @example(m_pos=(13, 0), n=3, seed=2399158)
    def test_matches_per_column_residual(self, m_pos, n, seed):
        m, pos = m_pos
        rng = np.random.default_rng(seed)
        mixing = np.eye(m) + rng.uniform(-0.8, 0.8, (m, m))
        columns = rng.standard_exponential((n, m)) @ mixing
        kept = [i for i in range(m) if i != pos]
        expected = [residual(columns[:, i], columns[:, pos]) for i in kept]
        child = residualize(columns, pos)
        assert child.shape == (n, m - 1)
        for k, column in enumerate(expected):
            assert np.allclose(child[:, k], column, rtol=0.0, atol=1e-12)


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
        with pytest.raises(ValueError, match="at least 2 features"):
            Lattice(Dataset(np.random.default_rng(0).standard_normal((30, 1))))
        with pytest.raises(ValueError, match="p \\+ 2 samples"):
            Lattice(Dataset(np.random.default_rng(0).standard_normal((4, 3))))

    def test_knn_measure_runs_end_to_end(self):
        data, truth = _dataset(62, p=3, n=200, sparsity=0.0)
        config = MeasureConfig(MeasureKind.KNN_MI)
        result = shortest_path_order(data, config)
        assert sorted(result.order) == [0, 1, 2]
        assert all(c >= 0.0 for c in result.step_costs)


def _states_with_edges(p):
    return [mask for mask in range(1, 1 << p) if mask.bit_count() >= 2]


class TestFill:
    def test_costs_match_pairwise_lattice_on_every_state(self):
        for seed in (70, 71):
            data, _ = _dataset(seed, p=5, sparsity=0.5)
            pairwise, filled = Lattice(data), Lattice(data)
            filled.fill_costs(_states_with_edges(5))
            for mask in _states_with_edges(5):
                expected = pairwise.costs_at(mask)
                costs = filled.costs_at(mask)
                assert sorted(costs) == sorted(expected)
                for feature, cost in costs.items():
                    assert cost == pytest.approx(
                        expected[feature], rel=1e-9, abs=1e-12
                    )
            assert filled.edges_evaluated == pairwise.edges_evaluated

    def test_costs_do_not_depend_on_visit_order(self):
        data, _ = _dataset(72, p=5, sparsity=0.3)
        states = _states_with_edges(5)
        whole, one_by_one = Lattice(data), Lattice(data)
        whole.fill_costs(states)
        expected = {mask: whole.costs_at(mask) for mask in states}
        order = np.random.default_rng(3).permutation(len(states))
        for index in order:
            mask = states[index]
            one_by_one.fill_costs([mask])
            assert one_by_one.costs_at(mask) == expected[mask]

    def test_knn_costs_come_from_the_pairwise_path(self):
        data, _ = _dataset(73, p=3, n=200)
        config = MeasureConfig(MeasureKind.KNN_MI)
        mask = 0b111
        filled = Lattice(data, config)
        filled.fill_costs([mask])
        assert filled.costs_at(mask) == Lattice(data, config).costs_at(mask)

    @settings(max_examples=30, deadline=None)
    @given(p=st.integers(2, 6), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_subset_fill_and_enumeration_match_the_full_fill(self, p, seed, data):
        """Costs of states filled as a random subset are == to those of the
        full fill, and every enumerated total is == to a walk that adds
        those costs in path order."""
        dataset, _ = _dataset(seed, p=p, n=200)
        states = _states_with_edges(p)
        subset = data.draw(st.lists(st.sampled_from(states), unique=True))
        whole, part, single = Lattice(dataset), Lattice(dataset), Lattice(dataset)
        whole.fill_costs(states)
        part.fill_costs(subset)
        assert part.edges_evaluated == sum(mask.bit_count() for mask in subset)
        for mask in subset:
            assert part.costs_at(mask) == whole.costs_at(mask)
        # One child per transition: every block boundary of the walk.
        with mock.patch.object(search, "_FILL_BLOCK_ELEMENTS", 1):
            single.fill_costs(states)
            single_lengths = enumerate_paths(dataset).lengths
        for mask in states:
            assert single.costs_at(mask) == whole.costs_at(mask)
        totals = []

        def walk(mask, acc):
            if mask.bit_count() == 1:
                totals.append(acc)
                return
            costs = whole.costs_at(mask)
            for feature in sorted(costs):
                walk(mask & ~(1 << feature), acc + costs[feature])

        walk(whole.full, 0.0)
        assert np.array_equal(enumerate_paths(dataset).lengths, totals)
        assert np.array_equal(single_lengths, totals)

    def test_a_stack_of_whole_lattices_fits_one_block(self):
        assert [lattices_per_fill(p, 1000) for p in range(3, 9)] == [
            43, 16, 6, 2, 1, 1,
        ]
        for p in range(3, 9):
            count = lattices_per_fill(p, 1000)
            assert count * (p << (p - 1)) * 1000 <= search._FILL_BLOCK_ELEMENTS or count == 1
        assert lattices_per_fill(14, 100_000) == 1

    def test_full_fill_memory_is_bounded_by_the_block(self):
        """A fill holds one block of child rows per level of its walk, so
        filling every state stays under p blocks of 8-byte elements."""
        p = 13
        data, _ = _dataset(74, p=p, n=1000, sparsity=0.3)
        lattice = Lattice(data)
        tracemalloc.start()
        try:
            lattice.fill_costs(_states_with_edges(p))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < p * search._FILL_BLOCK_ELEMENTS * 8
