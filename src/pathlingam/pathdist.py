"""Path-length distributions over causal orderings, and their moment features.

Every root-to-goal path of the ordering lattice is a permutation; the
distribution of total path costs over all p! of them (or a uniform sample)
characterizes the dataset. High-order standardized moments of the
log-transformed distribution are the feature vector consumed by the
graph-property predictors.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateDistribution, TooManyFeatures
from .search import Lattice, TableLattice

LOG_EPSILON = 1e-12
ENUMERATION_CAP = 8
MOMENT_RANGE = range(3, 31)


class PathMode(Enum):
    EXHAUSTIVE = "exhaustive"
    SAMPLED = "sampled"


@dataclass(frozen=True)
class PathDistribution:
    """Total path costs, one per enumerated or sampled permutation."""

    lengths: tuple
    mode: PathMode
    sample_size: int

    def __post_init__(self):
        lengths = tuple(float(v) for v in self.lengths)
        if any(v < 0 for v in lengths):
            raise ValueError("path lengths must be nonnegative")
        if len(lengths) != self.sample_size:
            raise ValueError("sample_size must match the number of lengths")
        object.__setattr__(self, "lengths", lengths)


@dataclass(frozen=True)
class MomentFeatures:
    """Standardized moments 3..30 of the log-transformed path lengths."""

    moments: tuple
    log_epsilon: float = LOG_EPSILON

    def __post_init__(self):
        moments = tuple(float(v) for v in self.moments)
        if len(moments) != len(MOMENT_RANGE):
            raise ValueError(f"expected {len(MOMENT_RANGE)} moments")
        if not all(math.isfinite(v) for v in moments):
            raise ValueError("moments must be finite")
        object.__setattr__(self, "moments", moments)


def enumerate_paths(data, config=None, max_features=ENUMERATION_CAP):
    """Total cost of every one of the p! orderings.

    A depth-first walk of the subset lattice reuses each edge weight across
    all the permutations sharing it, so the lattice's 2^(p-1) * p edges are
    each evaluated once (PLR weights from the lattice's entropy table).
    Lengths come out in lexicographic permutation order.
    """
    p = data.n_features
    if p > max_features:
        raise TooManyFeatures(f"p={p} exceeds the enumeration cap {max_features}")
    lattice = TableLattice(data, config)
    lengths = []

    def walk(mask, acc):
        if mask.bit_count() == 1:
            lengths.append(acc)  # goal edge adds exactly 0
            return
        costs = lattice.costs_at(mask)
        for feature in sorted(costs):
            walk(mask & ~(1 << feature), acc + costs[feature])

    walk(lattice.full, 0.0)
    return PathDistribution(
        lengths=tuple(lengths), mode=PathMode.EXHAUSTIVE, sample_size=len(lengths)
    )


def sample_paths(data, config, n, seed):
    """Total costs of n orderings drawn uniformly with replacement.

    Edge weights are memoized on the shared lattice, and permutations are
    drawn one at a time, so a longer run with the same seed extends a
    shorter one: the first min(n, n') draws coincide, exactly when both
    runs weigh PLR edges the same way and up to rounding otherwise.

    The draws make n (p - 1) state visits among the lattice's 2^p states.
    The entropy table pays off when states are reached from several
    parents. With fewer visits than a third of the states, most states are
    reached once and the table's work on their children is wasted, so
    costs come from the pairwise kernel.
    """
    n = int(n)
    if n < 1:
        raise ValueError("need at least one sampled path")
    p = data.n_features
    dense = 3 * n * (p - 1) >= 1 << p
    lattice = (TableLattice if dense else Lattice)(data, config)
    rng = np.random.default_rng(seed)
    lengths = []
    for _ in range(n):
        permutation = rng.permutation(lattice.p)
        mask = lattice.full
        acc = 0.0
        for feature in permutation[:-1]:
            acc += lattice.costs_at(mask)[int(feature)]
            mask &= ~(1 << int(feature))
        lengths.append(acc)
    return PathDistribution(
        lengths=tuple(lengths), mode=PathMode.SAMPLED, sample_size=n
    )


def moment_features(dist, log_epsilon=LOG_EPSILON):
    """Standardized moments of X = log(length + epsilon), orders 3 to 30.

    Two-pass computation: center, standardize, then take powers of the
    standardized values, which stays stable up to order 30.
    """
    lengths = np.asarray(dist.lengths, dtype=float)
    if lengths.size < 2:
        raise DegenerateDistribution("need at least 2 path lengths")
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
        moments.append(float(power.mean()))
    return MomentFeatures(moments=tuple(moments), log_epsilon=log_epsilon)
