"""Path-length distributions over causal orderings, and their moment features.

Every root-to-goal path of the ordering lattice is a permutation; the
distribution of total path costs over all p! of them (or a uniform sample)
characterizes the dataset. High-order standardized moments of the
log-transformed distribution are the feature vector consumed by the
graph-property predictors.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateDistribution, TooManyFeatures
from .model import _freeze
from .search import Lattice

LOG_EPSILON = 1e-12
ENUMERATION_CAP = 8
MOMENT_RANGE = range(3, 31)


class PathMode(Enum):
    EXHAUSTIVE = "exhaustive"
    SAMPLED = "sampled"


@dataclass(frozen=True)
class PathDistribution:
    """Total path costs, one per enumerated or sampled permutation, as a
    read-only 1-D array of finite nonnegative floats."""

    lengths: np.ndarray
    mode: PathMode

    def __post_init__(self):
        lengths = _freeze(self.lengths)
        # A null read from JSON becomes NaN, which fails the comparison too.
        if not (lengths.ndim == 1 and np.all((lengths >= 0) & (lengths < np.inf))):
            raise ValueError("path lengths must be a list of finite numbers >= 0")
        object.__setattr__(self, "lengths", lengths)


@dataclass(frozen=True)
class MomentFeatures:
    """Standardized moments 3..30 of the log-transformed path lengths, as a
    read-only float array."""

    moments: np.ndarray
    log_epsilon: float = LOG_EPSILON

    def __post_init__(self):
        moments = _freeze(self.moments)
        if moments.shape != (len(MOMENT_RANGE),):
            raise ValueError(f"expected {len(MOMENT_RANGE)} moments")
        if not np.isfinite(moments).all():
            raise ValueError("moments must be finite")
        object.__setattr__(self, "moments", moments)


def check_enumeration_cap(p_values, path_mode, max_features):
    """Raise TooManyFeatures if exhaustive mode would enumerate any p > cap."""
    largest = max((int(p) for p in p_values), default=0)
    if path_mode is PathMode.EXHAUSTIVE and largest > max_features:
        raise TooManyFeatures(
            f"p={largest} exceeds the enumeration cap {max_features}"
        )


def enumerate_paths(data, config=None, max_features=ENUMERATION_CAP):
    """Total cost of every one of the p! orderings.

    Each of the lattice's 2^(p-1) * p edges is weighed once (PLR weights by
    the entropy-table fill of ``Lattice.fill_costs``). The totals are then
    extended forward one lattice layer per numpy step, each partial path by
    every candidate of its state in ascending order, so lengths come out in
    lexicographic permutation order, and each adds its steps in path order,
    as a walk of that permutation would.
    """
    p = data.n_features
    check_enumeration_cap([p], PathMode.EXHAUSTIVE, max_features)
    lattice = Lattice(data, config)
    states = [mask for mask in range(lattice.full + 1) if mask.bit_count() >= 2]
    lattice.fill_costs(states)
    # cost[mask, j] and bit[mask, j]: the step cost and the bit of the j-th
    # lowest feature of mask.
    cost = np.zeros((lattice.full + 1, p))
    bit = np.zeros((lattice.full + 1, p), dtype=np.int64)
    for mask in states:
        costs = lattice.costs_at(mask)
        features = sorted(costs)
        cost[mask, :len(features)] = [costs[f] for f in features]
        bit[mask, :len(features)] = [1 << f for f in features]
    totals = np.zeros(1)
    at = np.array([lattice.full])
    for width in range(p, 1, -1):  # the goal edge adds exactly 0
        totals = (totals[:, None] + cost[at, :width]).ravel()
        at = (at[:, None] & ~bit[at, :width]).ravel()
    return PathDistribution(lengths=totals, mode=PathMode.EXHAUSTIVE)


def _steps(permutation, full):
    """The (state, chosen feature) pairs of a path's weighed edges."""
    mask = full
    for feature in permutation[:-1]:
        yield mask, feature
        mask &= ~(1 << feature)


def sample_paths(data, config, n, seed):
    """Total costs of n orderings drawn uniformly with replacement.

    The n permutations are drawn one at a time, then the states they pass
    through are weighed by the entropy-table fill of ``Lattice.fill_costs``,
    and each draw adds its steps in path order. Each length therefore equals
    the enumerated length of its permutation bit for bit, and a longer run
    with the same seed extends a shorter one exactly: the first min(n, n')
    draws coincide.
    """
    n = int(n)
    if n < 1:
        raise ValueError("need at least one sampled path")
    lattice = Lattice(data, config)
    rng = np.random.default_rng(seed)
    permutations = [rng.permutation(lattice.p).tolist() for _ in range(n)]
    lattice.fill_costs({
        mask
        for permutation in permutations
        for mask, _ in _steps(permutation, lattice.full)
    })
    lengths = []
    for permutation in permutations:
        acc = 0.0
        for mask, feature in _steps(permutation, lattice.full):
            acc += lattice.costs_at(mask)[feature]
        lengths.append(acc)
    return PathDistribution(lengths=lengths, mode=PathMode.SAMPLED)


def moment_features(dist, log_epsilon=LOG_EPSILON):
    """Standardized moments of X = log(length + epsilon), orders 3 to 30;
    epsilon must keep X finite (finite, >= 0, and > 0 if a length is 0).

    Two-pass computation: center, standardize, then take powers of the
    standardized values, which stays stable up to order 30.
    """
    lengths = dist.lengths
    if lengths.size < 2:
        raise DegenerateDistribution("need at least 2 path lengths")
    if not (0.0 <= log_epsilon < np.inf and lengths.min() + log_epsilon > 0.0):
        raise ValueError("log_epsilon must be finite, >= 0, and > 0 if a length is 0")
    x = np.log(lengths + log_epsilon)
    centered = x - x.mean()
    variance = np.mean(centered * centered)
    if variance == 0.0:
        raise DegenerateDistribution("all path lengths are equal")
    z = centered / np.sqrt(variance)
    moments = []
    power = z * z
    for _ in MOMENT_RANGE:
        power = power * z
        moments.append(power.mean())
    return MomentFeatures(moments=moments, log_epsilon=log_epsilon)
