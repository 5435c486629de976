"""Synthetic linear non-Gaussian data with optional unmeasured confounders.

The generator builds a strictly lower-triangular coefficient matrix with
random sign-symmetric weights, drives it with non-Gaussian noise whose
variances land in [1, 3], optionally adds strongly scaled confounders through
a binary loading matrix, solves the triangular system exactly by forward
substitution, and returns the columns under a uniform random permutation
with the inverse recorded as the true order.

All randomness comes from one seeded generator per call, drawn in the fixed
order documented in :func:`generate`, so identical params give bit-identical
data on any platform.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GenerationFailed
from .model import Dataset, GroundTruth
from .util import stable_seed

# Parameter draws per trial before GenerationFailed is raised. A draw fails
# when its confounders cannot get full-rank loadings, which takes several
# confounders and a confoundedness near 1 (nearly every loading column all
# ones). At p = 2 the draw has one confounder, which never fails.
GENERATION_ATTEMPTS = 100


@dataclass(frozen=True)
class GenParams:
    """Generation parameters; ``dataclasses.asdict`` gives their flat JSON."""

    p: int
    n_samples: int
    sparsity: float = 0.0
    n_confounders: int = 0
    confoundedness: float = 0.0
    confounding_strength_exp: float = 1.0
    noise_family: str = "standard12"
    seed: int = 0

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("p must be at least 2")
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")
        if not 0.0 <= self.sparsity <= 1.0:
            raise ValueError("sparsity must lie in [0, 1]")
        if not 0.0 <= self.confoundedness <= 1.0:
            raise ValueError("confoundedness must lie in [0, 1]")
        try:
            finite = math.isfinite(10.0 ** self.confounding_strength_exp)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError("10 ** confounding_strength_exp must be finite, got "
                             f"exponent {self.confounding_strength_exp!r}")
        if self.n_confounders < 0:
            raise ValueError("n_confounders must be nonnegative")
        if self.noise_family not in FAMILIES:
            raise ValueError(f"unknown noise family {self.noise_family!r}")


# Each sampler returns n draws with population mean 0 and variance 1,
# standardized analytically (not from the sample).

def _uniform(rng, n):
    half = math.sqrt(3.0)
    return rng.uniform(-half, half, n)


def _exponential(rng, n):
    return rng.exponential(1.0, n) - 1.0


def _laplace(rng, n):
    return rng.laplace(0.0, 1.0 / math.sqrt(2.0), n)


def _student_t3(rng, n):
    return rng.standard_t(3, n) / math.sqrt(3.0)


def _student_t5(rng, n):
    return rng.standard_t(5, n) / math.sqrt(5.0 / 3.0)


def _mixture(rng, n, w, m1, s1, m2, s2):
    mean = w * m1 + (1.0 - w) * m2
    var = w * (s1 * s1 + m1 * m1) + (1.0 - w) * (s2 * s2 + m2 * m2) - mean * mean
    first = rng.random(n) < w
    draws = np.where(first, rng.normal(m1, s1, n), rng.normal(m2, s2, n))
    return (draws - mean) / math.sqrt(var)


def _mix_sym_bimodal(rng, n):
    return _mixture(rng, n, 0.5, -1.0, 0.45, 1.0, 0.45)


def _mix_sym_heavy(rng, n):
    return _mixture(rng, n, 0.8, 0.0, 0.5, 0.0, 2.0)


def _mix_asym_light(rng, n):
    return _mixture(rng, n, 0.75, -0.4, 0.7, 1.2, 0.7)


def _mix_asym_heavy(rng, n):
    return _mixture(rng, n, 0.9, -0.25, 0.55, 2.25, 0.8)


def _chi_square_one(rng, n):
    return (rng.chisquare(1, n) - 1.0) / math.sqrt(2.0)


def _log_normal(rng, n):
    sigma = 0.5
    mean = math.exp(0.5 * sigma * sigma)
    var = (math.exp(sigma * sigma) - 1.0) * math.exp(sigma * sigma)
    return (rng.lognormal(0.0, sigma, n) - mean) / math.sqrt(var)


def _arcsine(rng, n):
    # sin of a uniform angle: bounded, bimodal, strongly sub-Gaussian.
    return np.sin(rng.uniform(0.0, 2.0 * math.pi, n)) * math.sqrt(2.0)


_SAMPLERS = {
    "uniform": _uniform,
    "exponential": _exponential,
    "laplace": _laplace,
    "student_t3": _student_t3,
    "student_t5": _student_t5,
    "mix_sym_bimodal": _mix_sym_bimodal,
    "mix_sym_heavy": _mix_sym_heavy,
    "mix_asym_light": _mix_asym_light,
    "mix_asym_heavy": _mix_asym_heavy,
    "chi_square_one": _chi_square_one,
    "log_normal": _log_normal,
    "arcsine": _arcsine,
}

# The documented default set of 12 non-Gaussian shapes: sub- and
# super-Gaussian, symmetric and skewed, bounded and heavy-tailed. Individual
# names are also accepted as single-member families for focused tests.
STANDARD12 = tuple(_SAMPLERS)

FAMILIES = {"standard12": STANDARD12}
FAMILIES.update({name: (name,) for name in _SAMPLERS})


def generate(params):
    """Draw one dataset and its ground truth from the generating process.

    Randomness is consumed in this fixed order: coefficient magnitudes,
    signs, edge mask, noise shape choices, noise variances, noise samples
    (column by column), confounder shape choices, variances and samples,
    loading-matrix columns (with rejection retries), and finally the column
    permutation.

    Returns (Dataset, GroundTruth); the GroundTruth matrices live in the
    causal basis and ``true_order`` maps causal positions to data columns.
    """
    rng = np.random.default_rng(params.seed)
    p, n, q = params.p, params.n_samples, params.n_confounders
    members = FAMILIES[params.noise_family]

    magnitude = rng.uniform(0.5, 1.5, (p, p))
    sign = rng.integers(0, 2, (p, p)) * 2 - 1
    mask = rng.random((p, p)) < (1.0 - params.sparsity)
    b = np.tril(magnitude * sign * mask, k=-1)

    shapes = rng.integers(0, len(members), p)
    noise_vars = rng.uniform(1.0, 3.0, p)
    noise = np.empty((n, p))
    for i in range(p):
        sampler = _SAMPLERS[members[shapes[i]]]
        noise[:, i] = sampler(rng, n) * math.sqrt(noise_vars[i])

    lam = np.zeros((p, q))
    confounded_part = np.zeros((n, p))
    if q > 0:
        f_shapes = rng.integers(0, len(members), q)
        f_vars = rng.uniform(1.0, 3.0, q)
        strength = 10.0 ** params.confounding_strength_exp
        f = np.empty((n, q))
        for j in range(q):
            sampler = _SAMPLERS[members[f_shapes[j]]]
            f[:, j] = sampler(rng, n) * math.sqrt(f_vars[j]) * strength
        for j in range(q):
            for attempt in range(1001):
                targets = rng.choice(p, 2, replace=False)
                column = (rng.random(p) < params.confoundedness).astype(float)
                column[targets] = 1.0
                lam[:, j] = column
                # Accept only columns keeping the loadings full column rank,
                # which rejects duplicates as a special case.
                if np.linalg.matrix_rank(lam[:, : j + 1]) == j + 1:
                    break
            else:
                raise GenerationFailed(
                    f"could not draw a rank-increasing loading column (q={q}, p={p})"
                )
        confounded_part = f @ lam.T

    # Forward substitution in causal order: x_i depends only on x_{<i}.
    x = np.empty((n, p))
    for i in range(p):
        x[:, i] = x[:, :i] @ b[i, :i] + confounded_part[:, i] + noise[:, i]

    permutation = rng.permutation(p)
    data = Dataset(x[:, permutation])
    true_order = tuple(int(i) for i in np.argsort(permutation))
    truth = GroundTruth(b=b, lam=lam, true_order=true_order)
    return data, truth


def sample_benchmark_params(p, n, with_confounders, seed):
    """Draw one benchmark trial's parameters.

    sparsity ~ U(0,1), strength exponent ~ U(1,2), confounder count uniform
    on {1,2,3} (forced to 0 without confounders), confoundedness ~ U(0,1).
    The confounder-count draw always happens so the two regimes consume the
    same random stream; a fresh generation seed is drawn last. At p = 2 the
    count is clamped to 1 after the draw: every loading column there is
    [1, 1], so a second confounder could never have full-rank loadings.
    """
    rng = np.random.default_rng(seed)
    sparsity = float(rng.uniform())
    strength_exp = float(rng.uniform(1.0, 2.0))
    q = int(rng.integers(1, 4))
    if p == 2:
        q = 1
    confoundedness = float(rng.uniform())
    gen_seed = int(rng.integers(0, 2**63))
    return GenParams(
        p=int(p),
        n_samples=int(n),
        sparsity=sparsity,
        n_confounders=q if with_confounders else 0,
        confoundedness=confoundedness,
        confounding_strength_exp=strength_exp,
        noise_family="standard12",
        seed=gen_seed,
    )


def generate_trial(p, n_samples, with_confounders, first_seed, seed_parts):
    """(params, data, truth) of one trial, redrawing parameters that fail.

    The first draw uses ``first_seed``; after a GenerationFailed, draw
    ``attempt`` uses ``stable_seed(*seed_parts, attempt)`` and keeps the
    trial's confounder coin.
    """
    param_seed = first_seed
    for attempt in range(1, GENERATION_ATTEMPTS + 1):
        params = sample_benchmark_params(p, n_samples, with_confounders, param_seed)
        try:
            return (params,) + generate(params)
        except GenerationFailed:
            param_seed = stable_seed(*seed_parts, attempt)
    raise GenerationFailed(
        f"no parameter draw of trial {seed_parts} generated data "
        f"in {GENERATION_ATTEMPTS} attempts"
    )
