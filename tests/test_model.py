"""Domain-type invariants: immutability, validation, prior closure."""

import numpy as np
import pytest

from pathlingam.errors import CyclicPrior, ZeroVarianceColumn
from pathlingam.model import (
    Dataset,
    GroundTruth,
    expand_prior,
    standardize_values,
)

from reference import prior_pairs


class TestDataset:
    def test_default_names(self):
        data = Dataset(np.zeros((3, 2)) + [[1, 2], [3, 4], [5, 6]])
        assert data.names == ("x0", "x1")
        assert data.n_samples == 3
        assert data.n_features == 2

    def test_values_read_only(self):
        data = Dataset(np.ones((2, 2)))
        with pytest.raises(ValueError):
            data.values[0, 0] = 5.0

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            Dataset(np.ones(4))

    def test_rejects_nan(self):
        values = np.ones((3, 2))
        values[1, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            Dataset(values)

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="unique"):
            Dataset(np.ones((2, 2)), names=("a", "a"))

    def test_rejects_name_count_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            Dataset(np.ones((2, 2)), names=("a",))


class TestGroundTruth:
    def test_rejects_upper_triangle(self):
        b = np.zeros((3, 3))
        b[0, 2] = 1.0
        with pytest.raises(ValueError, match="lower triangular"):
            GroundTruth(b, np.zeros((3, 0)), (0, 1, 2))

    def test_rejects_single_target_confounder(self):
        lam = np.zeros((3, 1))
        lam[0, 0] = 1.0
        with pytest.raises(ValueError, match="at least 2"):
            GroundTruth(np.zeros((3, 3)), lam, (0, 1, 2))

    def test_rejects_rank_deficient_lam(self):
        lam = np.ones((3, 2))  # identical columns
        with pytest.raises(ValueError, match="rank"):
            GroundTruth(np.zeros((3, 3)), lam, (0, 1, 2))


class TestPriorKnowledge:
    def test_transitive_closure(self):
        prior = expand_prior([(0, 1), (1, 2)])
        assert (0, 2) in prior_pairs(prior)

    def test_cycle_raises(self):
        with pytest.raises(CyclicPrior):
            expand_prior([(0, 1), (1, 0)])

    def test_long_cycle_raises(self):
        with pytest.raises(CyclicPrior):
            expand_prior([(0, 1), (1, 2), (2, 0)])

    def test_self_pair_raises(self):
        with pytest.raises(CyclicPrior):
            expand_prior([(3, 3)])

    def test_bool_and_max_index(self):
        # The table has one entry per index up to the largest one.
        assert not expand_prior([])
        prior = expand_prior([(0, 4)])
        assert prior
        assert len(prior) - 1 == 4
        assert len(expand_prior([])) - 1 == -1


class TestExpandPrior:
    def test_sequence_pairs(self):
        prior = expand_prior([(3, 1, 0)])
        assert prior_pairs(prior) == frozenset({(3, 1), (1, 0), (3, 0)})

    def test_union_of_sequences_closes(self):
        prior = expand_prior([(0, 1), (1, 2)])
        assert (0, 2) in prior_pairs(prior)

    def test_repeat_within_sequence_raises(self):
        with pytest.raises(CyclicPrior, match="repeats"):
            expand_prior([(0, 1, 0)])

    def test_conflicting_sequences_raise(self):
        with pytest.raises(CyclicPrior):
            expand_prior([(0, 1), (1, 0)])

    def test_negative_index_raises(self):
        with pytest.raises(ValueError, match="nonnegative"):
            expand_prior([(-1, 2)])

    def test_empty(self):
        assert not expand_prior([])
        assert not expand_prior([(), (5,)])

    def test_table_is_sized_by_sequences_of_two_or_more(self):
        assert expand_prior([(2, 0), (9,)], p=4) == expand_prior([(2, 0)])
        assert len(expand_prior([(2, 0), (9,)])) == 3
        with pytest.raises(ValueError, match="outside"):
            expand_prior([(0, 10**12)], p=4)

    @pytest.mark.parametrize("sequence", [(0, 2.9), (True, 0), (0, None)])
    def test_indices_must_be_whole_numbers(self, sequence):
        with pytest.raises((ValueError, TypeError)):
            expand_prior([sequence])

    def test_whole_float_index_is_its_int(self):
        assert expand_prior([(2.0, 0)]) == expand_prior([(2, 0)])


class TestStandardize:
    def test_population_moments(self):
        rng = np.random.default_rng(1)
        values = rng.standard_normal((100, 3)) * [1.0, 5.0, 0.2] + [0, 3, -2]
        z = standardize_values(values)
        assert np.allclose(z.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(np.mean(z * z, axis=0), 1.0, atol=1e-12)

    def test_power_of_two_scale_gives_the_same_bits(self):
        values = np.random.default_rng(3).standard_normal((200, 4)) * [1, 7, 0.01, 300]
        z = standardize_values(values)
        assert np.array_equal(z, (values - values.mean(axis=0)) / values.std(axis=0))
        for exponent in (-900, -600, -3, 5, 600, 1000):
            assert np.array_equal(standardize_values(np.ldexp(values, exponent)), z)

    @pytest.mark.parametrize("scale", [1e160, 1e300, 1e-170, 1e-300])
    def test_any_finite_scale_standardizes(self, scale):
        # The variance of 1e160 overflowed and that of 1e-170 underflowed.
        values = np.random.default_rng(4).standard_normal((200, 3))
        assert np.allclose(
            standardize_values(values * scale), standardize_values(values),
            rtol=1e-12, atol=1e-12,
        )

    def test_zero_variance_column_carries_index(self):
        values = np.random.default_rng(2).standard_normal((50, 3))
        values[:, 1] = 7.0
        with pytest.raises(ZeroVarianceColumn) as info:
            standardize_values(values)
        assert info.value.index == 1

