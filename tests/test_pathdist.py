"""Tests for path-length distributions and their moment features."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from pathlingam import search

from pathlingam.errors import DegenerateDistribution, TooManyFeatures, ZeroVariance
from pathlingam.measures import MeasureConfig, MeasureKind
from pathlingam.model import Dataset
from pathlingam.pathdist import (
    LOG_EPSILON,
    MOMENT_RANGE,
    MomentFeatures,
    PathDistribution,
    PathMode,
    enumerate_lengths,
    enumerate_paths,
    moment_features,
    moment_rows,
    sample_paths,
)
from pathlingam.search import shortest_path_order
from pathlingam.simgen import GenParams, generate

from reference import plr


def _dataset(seed, p=3, n=400):
    params = GenParams(p=p, n_samples=n, sparsity=0.3, n_confounders=0, seed=seed)
    data, _ = generate(params)
    return data


# Straight-line reimplementation of a single path's cost: standardize once,
# then peel features in path order, regressing each out of the survivors.
def _naive_path_cost(values, permutation):
    z = values - values.mean(axis=0)
    z = z / z.std(axis=0)
    columns = {f: z[:, f] for f in range(values.shape[1])}
    total = 0.0
    for candidate in permutation[:-1]:
        others = [f for f in columns if f != candidate]
        if others:
            ratios = [plr(columns[candidate], columns[f]) for f in others]
            total += float(np.mean([min(0.0, r) ** 2 for r in ratios]))
        chosen = columns.pop(candidate)
        for f in list(columns):
            y = columns[f]
            slope = np.mean(y * chosen) / np.mean(chosen * chosen)
            columns[f] = y - slope * chosen
    return total


class TestEnumerate:
    def test_counts_and_mode(self):
        dist = enumerate_paths(_dataset(0))
        assert len(dist.lengths) == 6
        assert dist.mode is PathMode.EXHAUSTIVE

    def test_matches_naive_per_permutation(self):
        data = _dataset(1, p=4)
        dist = enumerate_paths(data)
        expected = [
            _naive_path_cost(data.values, perm)
            for perm in itertools.permutations(range(4))
        ]
        assert len(dist.lengths) == 24
        assert np.allclose(dist.lengths, expected, atol=1e-9)

    def test_lexicographic_order(self):
        data = _dataset(2, p=3)
        dist = enumerate_paths(data)
        perms = list(itertools.permutations(range(3)))
        assert perms[0] == (0, 1, 2) and perms[-1] == (2, 1, 0)
        assert abs(dist.lengths[0] - _naive_path_cost(data.values, perms[0])) < 1e-9
        assert abs(dist.lengths[-1] - _naive_path_cost(data.values, perms[-1])) < 1e-9

    def test_minimum_equals_search_total(self):
        for seed in range(5):
            data = _dataset(seed, p=4)
            dist = enumerate_paths(data)
            result = shortest_path_order(data)
            assert abs(min(dist.lengths) - result.total_cost) < 1e-9

    def test_feature_cap(self):
        rng = np.random.default_rng(3)
        data = Dataset(values=rng.uniform(-1, 1, size=(12, 9)))
        with pytest.raises(TooManyFeatures):
            enumerate_paths(data)
        small = _dataset(4, p=4)
        with pytest.raises(TooManyFeatures):
            enumerate_paths(small, max_features=3)


class TestStack:
    @settings(max_examples=25, deadline=None)
    @given(
        count=st.integers(1, 5),
        p=st.integers(2, 6),
        n=st.integers(10, 120),
        seed=st.integers(0, 2**32 - 1),
        one_child_blocks=st.booleans(),
    )
    def test_each_row_is_its_dataset_enumerated_alone(
        self, count, p, n, seed, one_child_blocks
    ):
        """Stacked lengths and moments are == to those of each dataset
        alone, also when every transition block holds one child."""
        datasets = [_dataset(seed + b, p=p, n=max(n, p + 2)) for b in range(count)]
        block = 1 if one_child_blocks else search._FILL_BLOCK_ELEMENTS
        with mock.patch.object(search, "_FILL_BLOCK_ELEMENTS", block):
            lengths = enumerate_lengths(datasets)
        moments = moment_rows(lengths)
        assert lengths.shape == (count, np.prod(range(1, p + 1)))
        for b, data in enumerate(datasets):
            alone = enumerate_paths(data)
            assert np.array_equal(lengths[b], alone.lengths)
            assert np.array_equal(moments[b], moment_features(alone).moments)

    def test_knn_rows_are_their_datasets_alone(self):
        config = MeasureConfig(MeasureKind.KNN_MI)
        datasets = [_dataset(seed, p=3, n=120) for seed in (20, 21)]
        lengths = enumerate_lengths(datasets, config)
        for row, data in zip(lengths, datasets):
            assert np.array_equal(row, enumerate_paths(data, config).lengths)

    def test_stack_needs_one_p_and_one_n(self):
        with pytest.raises(ValueError, match="one p and one N"):
            enumerate_lengths([_dataset(0, p=3), _dataset(1, p=4)])
        with pytest.raises(ValueError, match="one p and one N"):
            enumerate_lengths([_dataset(0, n=100), _dataset(1, n=101)])

    def test_one_degenerate_row_raises(self):
        rows = np.array([[1.0, 2.0, 3.0], [2.0, 2.0, 2.0]])
        with pytest.raises(DegenerateDistribution):
            moment_rows(rows)
        assert moment_rows(rows[:1]).shape == (1, len(MOMENT_RANGE))


class TestSample:
    def test_deterministic(self):
        data = _dataset(5, p=4)
        a = sample_paths(data, None, 20, seed=7)
        b = sample_paths(data, None, 20, seed=7)
        assert np.array_equal(a.lengths, b.lengths)
        assert a.mode is PathMode.SAMPLED

    def test_longer_run_extends_shorter(self):
        data = _dataset(6, p=7)
        short = sample_paths(data, None, 1, seed=11)
        long = sample_paths(data, None, 200, seed=11)
        assert long.lengths[0] == short.lengths[0]

    def test_seed_matters(self):
        data = _dataset(7, p=4)
        assert not np.array_equal(
            sample_paths(data, None, 10, seed=0).lengths,
            sample_paths(data, None, 10, seed=1).lengths,
        )

    def test_draws_come_from_enumerated_multiset(self):
        # Each draw's length is the enumerated length of its permutation,
        # found at the permutation's lexicographic rank, bit for bit.
        for p in range(3, 8):
            data = _dataset(8 + p, p=p)
            universe = enumerate_paths(data).lengths
            perms = itertools.permutations(range(p))
            rank = {perm: k for k, perm in enumerate(perms)}
            for n in (1, 2, 5, 50):
                rng = np.random.default_rng(3)
                drawn = [tuple(rng.permutation(p).tolist()) for _ in range(n)]
                sampled = sample_paths(data, None, n, seed=3).lengths.tolist()
                assert sampled == [universe[rank[perm]] for perm in drawn], (p, n)

    def test_sample_mean_tracks_exhaustive_mean(self):
        data = _dataset(9, p=4)
        exact = np.mean(enumerate_paths(data).lengths)
        approx = np.mean(sample_paths(data, None, 3000, seed=5).lengths)
        spread = np.std(enumerate_paths(data).lengths)
        assert abs(approx - exact) < 4 * spread / np.sqrt(3000) + 1e-12

    def test_needs_positive_count(self):
        data = _dataset(10, p=3)
        with pytest.raises(ValueError):
            sample_paths(data, None, 0, seed=0)


class TestPathDistribution:
    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            PathDistribution(lengths=(1.0, -0.5), mode=PathMode.SAMPLED)


class TestMomentFeatures:
    def test_two_point_distribution_exact(self):
        # Any two-point sample standardizes to z = (-1, +1): the pair sum is
        # exact by Sterbenz, centering then yields exact negatives, and the
        # square-root identity sqrt(fl(c*c)) == |c| finishes it. Even moments
        # are therefore exactly one and odd moments exactly zero.
        dist = PathDistribution(
            lengths=(float(np.exp(-1.0)), float(np.exp(1.0))),
            mode=PathMode.EXHAUSTIVE,
        )
        feats = moment_features(dist)
        assert all(v == 1.0 for v in feats.moments[1::2])
        assert all(v == 0.0 for v in feats.moments[0::2])

    def test_lognormal_lengths_look_gaussian(self):
        rng = np.random.default_rng(12)
        lengths = tuple(np.exp(rng.normal(size=200_000)))
        dist = PathDistribution(lengths=lengths, mode=PathMode.SAMPLED)
        feats = moment_features(dist)
        assert abs(feats.moments[0]) < 0.05
        assert abs(feats.moments[1] - 3.0) < 0.1

    def test_matches_scipy_low_orders(self):
        rng = np.random.default_rng(13)
        lengths = tuple(rng.uniform(0.5, 4.0, size=500))
        dist = PathDistribution(lengths=lengths, mode=PathMode.SAMPLED)
        feats = moment_features(dist)
        x = np.log(np.array(lengths) + LOG_EPSILON)
        assert abs(feats.moments[0] - stats.skew(x, bias=True)) < 1e-10
        assert abs(feats.moments[1] - stats.kurtosis(x, fisher=False, bias=True)) < 1e-10
        sigma = x.std()
        for position, order in enumerate(MOMENT_RANGE):
            direct = stats.moment(x, order) / sigma**order
            assert np.isclose(feats.moments[position], direct, rtol=1e-10, atol=1e-10)

    def test_scale_invariance_away_from_epsilon(self):
        rng = np.random.default_rng(14)
        base = rng.uniform(1.0, 5.0, size=300)
        one = moment_features(
            PathDistribution(tuple(base), PathMode.SAMPLED)
        )
        scaled = moment_features(
            PathDistribution(tuple(1000.0 * base), PathMode.SAMPLED)
        )
        assert np.allclose(one.moments, scaled.moments, atol=1e-6)

    def test_moment_count(self):
        assert len(MOMENT_RANGE) == 28
        assert MOMENT_RANGE[0] == 3 and MOMENT_RANGE[-1] == 30

    def test_degenerate_distributions_raise(self):
        single = PathDistribution((2.0,), PathMode.SAMPLED)
        flat = PathDistribution((2.0, 2.0, 2.0), PathMode.SAMPLED)
        with pytest.raises(DegenerateDistribution):
            moment_features(single)
        with pytest.raises(DegenerateDistribution):
            moment_features(flat)

    def test_container_validation(self):
        with pytest.raises(ValueError):
            MomentFeatures(moments=(0.0,) * 27)
        with pytest.raises(ValueError):
            MomentFeatures(moments=(0.0,) * 27 + (float("nan"),))
