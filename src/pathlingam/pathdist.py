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
from .measures import MeasureKind
from .model import _freeze
from .search import Lattice, fill_layer_costs

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
    """Total cost of every one of the p! orderings: ``enumerate_lengths``
    of the one dataset."""
    lengths = enumerate_lengths([data], config, max_features)[0]
    return PathDistribution(lengths=lengths, mode=PathMode.EXHAUSTIVE)


def enumerate_lengths(datasets, config=None, max_features=ENUMERATION_CAP):
    """Total cost of every ordering of each of B datasets of one p and N, as
    a B x p! array; row b is what ``enumerate_paths`` gives dataset b alone,
    bit for bit.

    Each of a lattice's 2^(p-1) * p edges is weighed once: PLR weights by
    one entropy-table fill of all B lattices (``search.fill_layer_costs``),
    kNN weights through each lattice's ``costs_at``. The totals are then
    extended forward one lattice layer per numpy step, each partial path by
    every candidate of its state in ascending order, so lengths come out in
    lexicographic permutation order, and each adds its steps in path order,
    as a walk of that permutation would.
    """
    if len({(data.n_features, data.n_samples) for data in datasets}) != 1:
        raise ValueError("a stack of datasets needs one p and one N")
    p = datasets[0].n_features
    check_enumeration_cap([p], PathMode.EXHAUSTIVE, max_features)
    lattices = [Lattice(data, config) for data in datasets]
    full = (1 << p) - 1
    states = [mask for mask in range(full + 1) if mask.bit_count() >= 2]
    if lattices[0].config.kind is MeasureKind.PLR:
        layers = fill_layer_costs(lattices, states)
    else:  # one state at a time, each memo in ascending feature order
        layers = [
            ([mask], np.array([[list(lattice.costs_at(mask).values())]
                               for lattice in lattices]))
            for mask in states
        ]
    # cost[b, mask, j] and bit[mask, j]: lattice b's step cost and the bit
    # of the j-th lowest feature of mask.
    cost = np.zeros((len(lattices), full + 1, p))
    for layer, costs in layers:
        cost[:, layer, :costs.shape[2]] = costs
    member = np.arange(full + 1)[:, None] >> np.arange(p) & 1
    bit = 1 << np.argsort(1 - member, axis=1, kind="stable")
    totals = np.zeros((len(lattices), 1))
    at = np.array([full])
    for width in range(p, 1, -1):  # the goal edge adds exactly 0
        totals = (totals[:, :, None] + cost[:, at, :width]).reshape(len(lattices), -1)
        at = (at[:, None] & ~bit[at, :width]).ravel()
    return totals


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
    """Standardized moments of X = log(length + epsilon), orders 3 to 30:
    ``moment_rows`` of the one distribution."""
    moments = moment_rows(dist.lengths[None], log_epsilon)[0]
    return MomentFeatures(moments=moments, log_epsilon=log_epsilon)


def moment_rows(lengths, log_epsilon=LOG_EPSILON):
    """Standardized moments of X = log(length + epsilon), orders 3 to 30, of
    each row of a B x n array of path lengths, as a B x 28 array; row b is
    the moments of row b alone, bit for bit. epsilon must keep every X
    finite (finite, >= 0, and > 0 if a length is 0), and every row needs
    two lengths that differ.

    Two-pass computation along each row: center, standardize, then take
    powers of the standardized values, which stays stable up to order 30.
    """
    lengths = np.asarray(lengths, dtype=float)
    if lengths.shape[-1] < 2:
        raise DegenerateDistribution("need at least 2 path lengths")
    if not (0.0 <= log_epsilon < np.inf
            and np.all(lengths.min(axis=-1) + log_epsilon > 0.0)):
        raise ValueError("log_epsilon must be finite, >= 0, and > 0 if a length is 0")
    x = np.log(lengths + log_epsilon)
    centered = x - x.mean(axis=-1, keepdims=True)
    variance = np.mean(centered * centered, axis=-1, keepdims=True)
    if np.any(variance == 0.0):
        raise DegenerateDistribution("all path lengths are equal")
    z = centered / np.sqrt(variance)
    moments = np.empty(lengths.shape[:-1] + (len(MOMENT_RANGE),))
    power = z * z
    for k in range(len(MOMENT_RANGE)):
        power *= z
        moments[..., k] = power.mean(axis=-1)
    return moments
