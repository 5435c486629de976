"""Measure correctness against independent oracles.

Oracles used here:
    - quadrature (scipy.integrate) for the population value of the maximum
      entropy approximation on a known density
    - the analytic Gaussian mutual information -0.5*log(1 - rho^2) for the
      kNN estimator
    - the scalar pairwise ratio of plr_reference for the blocked kernel, fed
      pairwise residuals by plr_matrix and lattice states by the entropy
      table
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from pathlingam import measures
from pathlingam.errors import DegenerateCorrelation, InvalidK, ZeroVariance
from pathlingam.measures import (
    GAMMA,
    H_GAUSS,
    K1,
    KRule,
    MeasureConfig,
    MeasureKind,
    k_from_rule,
    knn_mi,
    knn_step_cost,
    plr_costs,
    plr_matrix,
    residual,
    state_entropies,
    table_ratios,
)
from pathlingam.search import residualize

from plr_reference import approx_entropy, plr


class TestKFromRule:
    def test_five_percent_exact_integer_ceil(self):
        # float ceil(0.05 * 1000) would give 51
        assert k_from_rule(KRule.FRACTION_5, 1000) == 50
        assert k_from_rule(KRule.FRACTION_5, 1001) == 51
        assert k_from_rule(KRule.FRACTION_5, 101) == 6
        assert k_from_rule(KRule.FRACTION_5, 20) == 1

    def test_ten_percent(self):
        assert k_from_rule(KRule.FRACTION_10, 1000) == 100
        assert k_from_rule(KRule.FRACTION_10, 99) == 10
        assert k_from_rule(KRule.FRACTION_10, 10) == 1

    def test_sqrt(self):
        assert k_from_rule(KRule.SQRT_N, 1000) == 32
        assert k_from_rule(KRule.SQRT_N, 1024) == 32
        assert k_from_rule(KRule.SQRT_N, 1025) == 33
        assert k_from_rule(KRule.SQRT_N, 2) == 2

    def test_rule_values_round_trip(self):
        assert KRule("frac5") is KRule.FRACTION_5
        assert KRule("frac10") is KRule.FRACTION_10
        assert KRule("sqrt") is KRule.SQRT_N


class TestApproxEntropy:
    def test_never_exceeds_gaussian_entropy(self):
        rng = np.random.default_rng(10)
        samplers = (
            rng.standard_normal,
            rng.standard_exponential,
            lambda n: rng.uniform(-1, 1, n),
            lambda n: rng.standard_t(3, n),
        )
        for sampler in samplers:
            for _ in range(25):
                assert approx_entropy(sampler(400)) <= H_GAUSS + 1e-12

    def test_gaussian_is_near_the_bound(self):
        rng = np.random.default_rng(11)
        value = approx_entropy(rng.standard_normal(200_000))
        assert value == pytest.approx(H_GAUSS, abs=1e-3)
        assert H_GAUSS == pytest.approx(1.4189385332046727, abs=1e-15)

    def test_affine_invariance(self):
        rng = np.random.default_rng(12)
        u = rng.standard_exponential(500)
        assert approx_entropy(3.0 * u - 7.0) == pytest.approx(
            approx_entropy(u), abs=1e-12
        )

    def test_uniform_population_value_by_quadrature(self):
        # u ~ U(-sqrt(3), sqrt(3)) has unit variance; t2 vanishes by symmetry.
        half = math.sqrt(3.0)
        t1, _ = integrate.quad(
            lambda u: np.logaddexp(u, -u) - math.log(2.0), -half, half
        )
        t1 = t1 / (2.0 * half) - GAMMA
        expected = H_GAUSS - K1 * t1 * t1
        rng = np.random.default_rng(13)
        sample = approx_entropy(rng.uniform(-half, half, 2_000_000))
        assert sample == pytest.approx(expected, abs=5e-3)

    def test_constant_raises(self):
        with pytest.raises(ZeroVariance):
            approx_entropy(np.full(100, 2.5))


class TestResidual:
    def test_uncorrelated_with_regressor(self):
        rng = np.random.default_rng(20)
        xj = rng.standard_normal(300)
        xi = 0.7 * xj + rng.standard_normal(300)
        r = residual(xi, xj)
        assert np.mean(r * xj) - r.mean() * xj.mean() == pytest.approx(0, abs=1e-12)

    def test_slope_matches_affine_least_squares(self):
        rng = np.random.default_rng(21)
        xj = rng.uniform(1, 2, 150)
        xi = rng.standard_normal(150)
        design = np.column_stack([np.ones(150), xj])
        coef, *_ = np.linalg.lstsq(design, xi, rcond=None)
        # r = xi - slope * xj, so the subtracted slope is recoverable exactly
        removed = xi - residual(xi, xj)
        slope = removed[0] / xj[0]
        assert np.allclose(removed, slope * xj, atol=1e-12)
        assert slope == pytest.approx(coef[1], abs=1e-9)

    def test_zero_variance_regressor_raises(self):
        with pytest.raises(ZeroVariance):
            residual(np.arange(5.0), np.ones(5))

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            residual(np.ones(3), np.ones(4))


def _pair(seed, n=10_000, coef=0.8):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, n)
    y = coef * x + 0.5 * rng.uniform(-1.0, 1.0, n)
    return x, y


class TestPlr:
    def test_positive_for_true_direction(self):
        x, y = _pair(30)
        assert plr(x, y) > 0.0

    def test_antisymmetry(self):
        x, y = _pair(31)
        assert plr(x, y) == pytest.approx(-plr(y, x), abs=1e-12)

    def test_affine_invariance(self):
        x, y = _pair(32)
        assert plr(5.0 * x - 1.0, -2.0 * y + 3.0) == pytest.approx(
            plr(x, y), abs=1e-12
        )

    def test_near_zero_for_independent(self):
        rng = np.random.default_rng(33)
        x = rng.uniform(-1, 1, 20_000)
        y = rng.uniform(-1, 1, 20_000)
        assert abs(plr(x, y)) < 0.01

    def test_perfect_correlation_raises(self):
        # Alternating +/-1 standardizes exactly, so rho comes out exactly 1.
        x = np.tile([-1.0, 1.0], 50)
        with pytest.raises(DegenerateCorrelation):
            plr(x, x.copy())
        with pytest.raises(DegenerateCorrelation):
            plr(x, -3.0 * x)

    def test_constant_input_raises(self):
        with pytest.raises(ZeroVariance):
            plr(np.ones(50), np.arange(50.0))


class TestPlrMatrix:
    def test_exactly_antisymmetric(self):
        rng = np.random.default_rng(40)
        columns = rng.uniform(-1, 1, (500, 4))
        entries = plr_matrix(columns)
        assert np.array_equal(entries, -entries.T)
        assert np.all(np.diag(entries) == 0.0)

    def test_matches_pairwise_plr(self):
        rng = np.random.default_rng(41)
        columns = rng.standard_exponential((400, 3))
        columns[:, 1] = 0.5 * columns[:, 0] + columns[:, 1]
        entries = plr_matrix(columns)
        for i in range(3):
            for j in range(3):
                if i != j:
                    expected = plr(columns[:, i], columns[:, j])
                    assert entries[i, j] == pytest.approx(expected, abs=1e-10)

    def test_rejects_single_column(self):
        with pytest.raises(ValueError):
            plr_matrix(np.ones((50, 1)))


def _mixed_columns(seed, n, m):
    # Uniform and exponential sources through a random lower-triangular
    # mixing, each column on its own scale: correlated, but not near |rho| = 1.
    rng = np.random.default_rng(seed)
    uniform = rng.uniform(-1.0, 1.0, (n, m))
    skewed = rng.standard_exponential((n, m))
    sources = np.where(rng.integers(0, 2, m) == 1, uniform, skewed)
    mixing = np.tril(rng.uniform(-0.8, 0.8, (m, m)), -1) + np.eye(m)
    return sources @ mixing.T * rng.uniform(0.5, 2.0, m)


def _sample_sizes(width):
    # Both sides of the kernel's first row-block boundary for states of
    # ``width`` samples, and N = 1000.
    one_block = measures._BLOCK_ELEMENTS // width
    return (one_block, one_block + 1, 1000)


_SHAPES = st.integers(2, 16).flatmap(
    lambda m: st.tuples(st.just(m), st.sampled_from(_sample_sizes(m * m)))
)
_SEEDS = st.integers(0, 2**32 - 1)


class TestPlrMatrixProperties:
    @settings(max_examples=30, deadline=None)
    @given(shape=_SHAPES, seed=_SEEDS)
    def test_matches_scalar_reference(self, shape, seed):
        m, n = shape
        columns = _mixed_columns(seed, n, m)
        entries = plr_matrix(columns)
        for i in range(m):
            for j in range(m):
                if i != j:
                    expected = plr(columns[:, i], columns[:, j])
                    assert abs(entries[i, j] - expected) <= 1e-10

    @settings(max_examples=30, deadline=None)
    @given(shape=_SHAPES, seed=_SEEDS)
    def test_antisymmetric_with_zero_diagonal(self, shape, seed):
        m, n = shape
        entries = plr_matrix(_mixed_columns(seed, n, m))
        assert np.array_equal(entries, -entries.T)
        assert np.all(np.diag(entries) == 0.0)

    @settings(max_examples=30, deadline=None)
    @given(shape=_SHAPES, seed=_SEEDS, data=st.data())
    def test_permuting_columns_permutes_the_matrix(self, shape, seed, data):
        m, n = shape
        columns = _mixed_columns(seed, n, m)
        perm = np.array(data.draw(st.permutations(range(m))))
        permuted = plr_matrix(columns[:, perm])
        assert np.allclose(permuted, plr_matrix(columns)[np.ix_(perm, perm)],
                           rtol=0.0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        shape=_SHAPES,
        seed=_SEEDS,
        data=st.data(),
        factor=st.floats(1e-3, 1e3),
    )
    def test_positive_column_scale_leaves_matrix_unchanged(
        self, shape, seed, data, factor
    ):
        m, n = shape
        columns = _mixed_columns(seed, n, m)
        scaled = columns.copy()
        scaled[:, data.draw(st.integers(0, m - 1))] *= factor
        assert np.allclose(plr_matrix(scaled), plr_matrix(columns),
                           rtol=0.0, atol=1e-10)

    def test_peak_memory_stays_within_a_few_inputs(self):
        # An unblocked N x m x m temporary would take 400 MB here.
        columns = _mixed_columns(46, 200_000, 16)
        tracemalloc.start()
        try:
            plr_matrix(columns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * columns.nbytes


def _table_entry(columns):
    return state_entropies(columns.T, columns.shape[1])


def _children(columns):
    return [_table_entry(residualize(columns, j)) for j in range(columns.shape[1])]


class TestEntropyTable:
    @settings(max_examples=30, deadline=None)
    @given(shape=_SHAPES, seed=_SEEDS)
    def test_ratios_match_plr_matrix_of_the_same_state(self, shape, seed):
        m, n = shape
        columns = _mixed_columns(seed, n, m)
        ratios = table_ratios(_table_entry(columns), _children(columns))
        assert np.allclose(ratios, plr_matrix(columns), rtol=0.0, atol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(
        width=st.integers(1, 16).flatmap(
            lambda w: st.tuples(st.just(w), st.sampled_from(_sample_sizes(w)))
        ),
        batch=st.integers(2, 6),
        seed=_SEEDS,
        data=st.data(),
    )
    def test_state_entropies_identical_alone_and_in_a_batch(
        self, width, batch, seed, data
    ):
        width, n = width
        states = [_mixed_columns(seed + k, n, width).T for k in range(batch)]
        where = data.draw(st.integers(0, batch - 1))
        entropies, scales = state_entropies(np.concatenate(states), width)
        alone = state_entropies(states[where], width)
        part = slice(where * width, (where + 1) * width)
        assert np.array_equal(entropies[part], alone[0])
        assert np.array_equal(scales[part], alone[1])

    def test_entropies_match_scalar_reference(self):
        columns = _mixed_columns(48, 700, 5)
        entropies, scales = _table_entry(columns)
        for i in range(5):
            assert entropies[i] == pytest.approx(
                approx_entropy(columns[:, i]), abs=1e-12
            )
        assert np.allclose(scales, columns.std(axis=0), rtol=1e-12, atol=0.0)

    def test_constant_residual_raises(self):
        columns = _mixed_columns(49, 300, 3)
        with pytest.raises(DegenerateCorrelation):
            state_entropies(np.vstack([columns.T, np.full(300, 2.0)]), 4)

    def test_duplicate_candidates_raise_like_plr_matrix(self):
        x = _mixed_columns(50, 300, 2)
        columns = np.column_stack([x, x[:, 0]])
        with pytest.raises(DegenerateCorrelation):
            plr_matrix(columns)
        with pytest.raises(DegenerateCorrelation):
            table_ratios(_table_entry(columns), _children(columns))

    @pytest.mark.parametrize("noise, collinear", [(1e-8, True), (1e-4, False)])
    def test_both_feeders_take_one_collinearity_decision(self, noise, collinear):
        # Column 2 keeps about noise^2 of its variance after regressing out
        # column 0: far below the bound at 1e-8, far above it at 1e-4.
        x = _mixed_columns(51, 300, 3)
        columns = x.copy()
        columns[:, 2] = 2.0 * x[:, 0] - 3.0 + noise * x[:, 2]
        entry, children = _table_entry(columns), _children(columns)
        if collinear:
            with pytest.raises(DegenerateCorrelation):
                plr_matrix(columns)
            with pytest.raises(DegenerateCorrelation):
                table_ratios(entry, children)
        else:
            assert np.allclose(
                table_ratios(entry, children), plr_matrix(columns),
                rtol=0.0, atol=1e-6,
            )


class TestPlrCosts:
    def test_two_candidate_hand_computation(self):
        x, y = _pair(50, n=2000)
        columns = np.column_stack([x, y])
        r = plr_matrix(columns)[0, 1]
        costs = plr_costs(columns)
        assert r > 0.0
        assert costs[0] == 0.0  # all of x's ratios are favorable
        assert costs[1] == pytest.approx(r * r, abs=1e-12)

    def test_normalization_by_candidate_count(self):
        rng = np.random.default_rng(51)
        columns = rng.uniform(-1, 1, (800, 4))
        entries = plr_matrix(columns)
        neg = np.minimum(entries, 0.0)
        expected = (neg * neg).sum(axis=1) / 3.0
        assert np.allclose(plr_costs(columns), expected, atol=1e-14)

    def test_nonnegative(self):
        rng = np.random.default_rng(52)
        for _ in range(10):
            columns = rng.standard_t(4, (300, 3))
            assert np.all(plr_costs(columns) >= 0.0)

    def test_single_candidate_rejected(self):
        with pytest.raises(ValueError):
            plr_costs(np.arange(10.0)[:, None])


class TestKnnMi:
    def test_independent_near_zero(self):
        rng = np.random.default_rng(60)
        x = rng.uniform(0, 1, 2000)
        y = rng.uniform(0, 1, 2000)
        assert abs(knn_mi(x, y, 5)) < 0.05

    def test_gaussian_analytic_value(self):
        rng = np.random.default_rng(61)
        rho = 0.8
        cov = [[1.0, rho], [rho, 1.0]]
        sample = rng.multivariate_normal([0, 0], cov, size=4000)
        expected = -0.5 * math.log(1.0 - rho * rho)
        assert knn_mi(sample[:, 0], sample[:, 1], 8) == pytest.approx(
            expected, abs=0.1
        )

    def test_strong_dependence_is_large(self):
        rng = np.random.default_rng(62)
        x = rng.uniform(0, 1, 1500)
        y = x + 1e-4 * rng.uniform(0, 1, 1500)
        assert knn_mi(x, y, 4) > 1.0

    def test_block_extension_accepts_2d(self):
        rng = np.random.default_rng(63)
        block = rng.uniform(0, 1, (1000, 3))
        y = rng.uniform(0, 1, 1000)
        assert abs(knn_mi(block, y, 10)) < 0.2

    def test_invalid_k(self):
        x = np.arange(50.0)
        y = np.arange(50.0) % 7
        with pytest.raises(InvalidK):
            knn_mi(x, y, 0)
        with pytest.raises(InvalidK):
            knn_mi(x, y, 50)


class TestKnnStepCost:
    def test_last_feature_is_free(self):
        config = MeasureConfig(MeasureKind.KNN_MI)
        assert knn_step_cost(np.arange(30.0)[:, None], 0, config) == 0.0

    def test_nonnegative_clamp(self):
        rng = np.random.default_rng(70)
        columns = rng.uniform(-1, 1, (400, 3))
        config = MeasureConfig(MeasureKind.KNN_MI, KRule.SQRT_N)
        for pos in range(3):
            assert knn_step_cost(columns, pos, config) >= 0.0
