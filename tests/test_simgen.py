"""Generator contract: determinism, documented draw order, structure knobs.

The replica test re-implements the documented randomness order with the
single-member "uniform" noise family and must reproduce the generator's
output bit for bit; it pins the draw order as an interface, not an accident.
"""

import math

import numpy as np
import pytest

from pathlingam.errors import GenerationFailed
from pathlingam.search import direct_lingam_order
from pathlingam.simgen import (
    FAMILIES,
    STANDARD12,
    GenParams,
    generate,
    sample_benchmark_params,
)


class TestGenParams:
    def test_validation(self):
        with pytest.raises(ValueError, match="p must"):
            GenParams(p=1, n_samples=10)
        with pytest.raises(ValueError, match="sparsity"):
            GenParams(p=3, n_samples=10, sparsity=1.5)
        with pytest.raises(ValueError, match="confoundedness"):
            GenParams(p=3, n_samples=10, confoundedness=-0.1)
        with pytest.raises(ValueError, match="noise family"):
            GenParams(p=3, n_samples=10, noise_family="cauchy")

    def test_families_menu(self):
        assert len(STANDARD12) == 12
        assert FAMILIES["standard12"] == STANDARD12
        for name in STANDARD12:
            assert FAMILIES[name] == (name,)


class TestDeterminism:
    def test_bit_identical_regeneration(self):
        params = GenParams(p=5, n_samples=200, sparsity=0.4,
                           n_confounders=1, confoundedness=0.3, seed=77)
        data_a, truth_a = generate(params)
        data_b, truth_b = generate(params)
        assert np.array_equal(data_a.values, data_b.values)
        assert np.array_equal(truth_a.b, truth_b.b)
        assert np.array_equal(truth_a.lam, truth_b.lam)
        assert truth_a.true_order == truth_b.true_order

    def test_seed_changes_output(self):
        base = GenParams(p=3, n_samples=50, seed=0)
        other = GenParams(p=3, n_samples=50, seed=1)
        assert not np.array_equal(generate(base)[0].values,
                                  generate(other)[0].values)


def _replica(params):
    """Independent re-implementation of the documented draw order for the
    single-member "uniform" family."""
    rng = np.random.default_rng(params.seed)
    p, n, q = params.p, params.n_samples, params.n_confounders
    half = math.sqrt(3.0)

    magnitude = rng.uniform(0.5, 1.5, (p, p))
    sign = rng.integers(0, 2, (p, p)) * 2 - 1
    mask = rng.random((p, p)) < (1.0 - params.sparsity)
    b = np.tril(magnitude * sign * mask, k=-1)

    rng.integers(0, 1, p)  # shape choices (single-member family)
    noise_vars = rng.uniform(1.0, 3.0, p)
    noise = np.empty((n, p))
    for i in range(p):
        noise[:, i] = rng.uniform(-half, half, n) * math.sqrt(noise_vars[i])

    lam = np.zeros((p, q))
    confounded = np.zeros((n, p))
    if q:
        rng.integers(0, 1, q)
        f_vars = rng.uniform(1.0, 3.0, q)
        strength = 10.0 ** params.confounding_strength_exp
        f = np.empty((n, q))
        for j in range(q):
            f[:, j] = rng.uniform(-half, half, n) * math.sqrt(f_vars[j]) * strength
        for j in range(q):
            while True:
                targets = rng.choice(p, 2, replace=False)
                column = (rng.random(p) < params.confoundedness).astype(float)
                column[targets] = 1.0
                lam[:, j] = column
                if np.linalg.matrix_rank(lam[:, : j + 1]) == j + 1:
                    break
        confounded = f @ lam.T

    x = np.empty((n, p))
    for i in range(p):
        x[:, i] = x[:, :i] @ b[i, :i] + confounded[:, i] + noise[:, i]
    permutation = rng.permutation(p)
    return x[:, permutation], b, lam, tuple(np.argsort(permutation))


class TestDrawOrderContract:
    @pytest.mark.parametrize("q", [0, 1, 2])
    def test_replica_reproduces_generate(self, q):
        params = GenParams(p=4, n_samples=60, sparsity=0.3, n_confounders=q,
                           confoundedness=0.5, confounding_strength_exp=1.2,
                           noise_family="uniform", seed=123 + q)
        data, truth = generate(params)
        values, b, lam, order = _replica(params)
        assert np.array_equal(data.values, values)
        assert np.array_equal(truth.b, b)
        assert np.array_equal(truth.lam, lam)
        assert truth.true_order == order


class TestStructure:
    def test_sparsity_one_empties_b(self):
        _, truth = generate(GenParams(p=6, n_samples=20, sparsity=1.0, seed=2))
        assert np.count_nonzero(truth.b) == 0

    def test_sparsity_zero_fills_lower_triangle(self):
        _, truth = generate(GenParams(p=6, n_samples=20, sparsity=0.0, seed=3))
        lower = truth.b[np.tril_indices(6, k=-1)]
        assert np.all(lower != 0.0)
        assert np.all((np.abs(lower) >= 0.5) & (np.abs(lower) <= 1.5))

    def test_b_strictly_lower_triangular(self):
        for seed in range(5):
            _, truth = generate(
                GenParams(p=5, n_samples=20, sparsity=0.5, seed=seed)
            )
            assert np.all(np.triu(truth.b) == 0.0)

    def test_true_order_is_permutation(self):
        data, truth = generate(GenParams(p=7, n_samples=30, seed=4))
        assert sorted(truth.true_order) == list(range(7))
        assert data.values.shape == (30, 7)
        assert data.names == tuple(f"x{i}" for i in range(7))


class TestConfounders:
    def test_zero_confoundedness_loads_exactly_two(self):
        _, truth = generate(GenParams(
            p=6, n_samples=20, n_confounders=2, confoundedness=0.0, seed=5
        ))
        assert truth.lam.shape == (6, 2)
        assert list((truth.lam != 0).sum(axis=0)) == [2, 2]
        assert set(np.unique(truth.lam)) <= {0.0, 1.0}

    def test_no_confounders_empty_lam(self):
        _, truth = generate(GenParams(p=4, n_samples=20, seed=6))
        assert truth.lam.shape == (4, 0)

    def test_strength_exponent_scales_variance(self):
        data, truth = generate(GenParams(
            p=4, n_samples=2000, sparsity=1.0, n_confounders=1,
            confoundedness=0.0, confounding_strength_exp=2.0, seed=7
        ))
        loaded = np.flatnonzero(truth.lam[:, 0])
        observed = [truth.true_order[i] for i in loaded]
        # 10^2-scaled factor with variance >= 1 dominates unit-scale noise
        assert data.values[:, observed].var(axis=0).min() > 1000.0

    def test_saturated_loadings_cannot_gain_rank(self):
        with pytest.raises(GenerationFailed):
            generate(GenParams(p=4, n_samples=20, n_confounders=2,
                               confoundedness=1.0, seed=8))

    def test_more_confounders_than_features_fails(self):
        with pytest.raises(GenerationFailed):
            generate(GenParams(p=3, n_samples=20, n_confounders=4,
                               confoundedness=0.3, seed=9))


class TestNoise:
    def test_variance_envelope(self):
        # Loose envelope around the [1, 3] population target. Heavy-tailed
        # members make this a typicality property, hence the fixed seeds.
        for seed in range(40):
            data, _ = generate(
                GenParams(p=6, n_samples=1000, sparsity=1.0, seed=seed)
            )
            v = data.values.var(axis=0)
            assert v.min() >= 0.5 and v.max() <= 6.0

    def test_uniform_family_is_bounded(self):
        data, _ = generate(GenParams(p=4, n_samples=5000, sparsity=1.0,
                                     noise_family="uniform", seed=10))
        # |x| <= sqrt(3) * sqrt(3) at the maximum variance
        assert np.abs(data.values).max() <= 3.0 + 1e-12

    def test_skewed_family_is_skewed(self):
        data, _ = generate(GenParams(p=3, n_samples=8000, sparsity=1.0,
                                     noise_family="chi_square_one", seed=11))
        z = (data.values - data.values.mean(axis=0)) / data.values.std(axis=0)
        assert np.all(np.mean(z**3, axis=0) > 0.5)

    def test_every_member_close_to_unit_variance(self):
        rng_params = dict(p=2, n_samples=200_000, sparsity=1.0)
        for name in STANDARD12:
            data, _ = generate(GenParams(noise_family=name, seed=12,
                                         **rng_params))
            # per-column variance = noise variance draw in [1, 3]
            assert np.all(data.values.var(axis=0) > 0.8)
            assert np.all(data.values.var(axis=0) < 3.6)


def test_dense_chain_is_recoverable_at_large_n():
    params = GenParams(p=4, n_samples=30_000, sparsity=0.0, seed=13)
    data, truth = generate(params)
    result = direct_lingam_order(data)
    assert result.order == truth.true_order


class TestSampleBenchmarkParams:
    def test_deterministic(self):
        a = sample_benchmark_params(5, 1000, True, 42)
        b = sample_benchmark_params(5, 1000, True, 42)
        assert a == b

    def test_regimes_share_the_stream(self):
        with_c = sample_benchmark_params(5, 1000, True, 43)
        without = sample_benchmark_params(5, 1000, False, 43)
        assert with_c.n_confounders in (1, 2, 3)
        assert without.n_confounders == 0
        assert with_c.sparsity == without.sparsity
        assert with_c.confoundedness == without.confoundedness
        assert with_c.confounding_strength_exp == without.confounding_strength_exp
        assert with_c.seed == without.seed

    def test_marginals(self):
        draws = [sample_benchmark_params(4, 100, True, s) for s in range(2000)]
        sparsities = [d.sparsity for d in draws]
        assert 0.45 < np.mean(sparsities) < 0.55
        assert all(1.0 <= d.confounding_strength_exp <= 2.0 for d in draws)
        assert {d.n_confounders for d in draws} == {1, 2, 3}

    def test_two_features_draw_one_confounder_that_generates(self):
        # At p = 2 every loading column is [1, 1], so only one confounder
        # can have full-rank loadings; the count is clamped after its draw,
        # leaving the rest of the stream as at any other p.
        for seed in range(200):
            params = sample_benchmark_params(2, 20, True, seed)
            wider = sample_benchmark_params(3, 20, True, seed)
            assert params.n_confounders == 1
            assert params.seed == wider.seed
            assert params.confoundedness == wider.confoundedness
            _, truth = generate(params)
            assert truth.lam.tolist() == [[1.0], [1.0]]
