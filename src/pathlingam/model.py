"""Core domain types shared by every module.

All types are immutable after construction (arrays are marked read-only) and
operations here are pure, so everything is safe to share across threads.

A single convention applies to the whole codebase: variances, covariances and
correlations use the population (1/N) normalization. ``numpy`` defaults
(``ddof=0``, ``bias=True``) already follow it.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import CyclicPrior, ZeroVarianceColumn

# Tolerance used when a stored aggregate must match a recomputed sum.
SUM_TOLERANCE = 1e-9


def _freeze(array):
    array = np.array(array, dtype=float)
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class Dataset:
    """An N x p observation matrix with column names.

    Feature identity is the column index; names are metadata only.
    """

    values: np.ndarray
    names: tuple = ()

    def __post_init__(self):
        values = _freeze(self.values)
        if values.ndim != 2:
            raise ValueError("values must be a 2-D matrix")
        if values.shape[0] < 1 or values.shape[1] < 1:
            raise ValueError("values must be non-empty")
        if not np.isfinite(values).all():
            raise ValueError("values contain NaN or Inf")
        names = tuple(self.names) if self.names else tuple(
            f"x{i}" for i in range(values.shape[1])
        )
        if len(names) != values.shape[1]:
            raise ValueError("names length must equal the column count")
        if len(set(names)) != len(names):
            raise ValueError("names must be unique")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "names", names)

    @property
    def n_samples(self):
        return self.values.shape[0]

    @property
    def n_features(self):
        return self.values.shape[1]


@dataclass(frozen=True)
class CausalOrder:
    """A permutation of feature indices with its per-step and total costs.

    ``order[0]`` is the first cause. The final step cost is the edge into the
    empty node and is exactly 0.
    """

    order: tuple
    step_costs: tuple
    total_cost: float

    def __post_init__(self):
        order = tuple(int(i) for i in self.order)
        costs = tuple(float(c) for c in self.step_costs)
        if sorted(order) != list(range(len(order))):
            raise ValueError("order is not a permutation of 0..p-1")
        if len(costs) != len(order):
            raise ValueError("one step cost per ordered feature required")
        if any(c < 0 for c in costs):
            raise ValueError("step costs must be nonnegative")
        if costs and costs[-1] != 0.0:
            raise ValueError("final step cost must be exactly 0")
        if abs(float(self.total_cost) - sum(costs)) > SUM_TOLERANCE:
            raise ValueError("total_cost does not match the step-cost sum")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "step_costs", costs)
        object.__setattr__(self, "total_cost", float(self.total_cost))


@dataclass(frozen=True)
class GroundTruth:
    """Generating structure behind a simulated dataset.

    ``b`` and ``lam`` are expressed in the causal (generation) basis, where
    position k is the k-th cause, making ``b`` strictly lower triangular.
    ``true_order[k]`` is the returned-column index holding that variable, so
    ``true_order`` lists column indices from first cause to last effect.
    """

    b: np.ndarray
    lam: np.ndarray
    true_order: tuple

    def __post_init__(self):
        b = _freeze(self.b)
        lam = _freeze(self.lam)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError("b must be square")
        p = b.shape[0]
        if np.any(np.triu(b) != 0.0):
            raise ValueError("b must be strictly lower triangular")
        if lam.size == 0:
            lam = _freeze(np.zeros((p, 0)))
        if lam.shape[0] != p:
            raise ValueError("lam must have one row per feature")
        q = lam.shape[1]
        if q > 0:
            if np.any((lam != 0).sum(axis=0) < 2):
                raise ValueError("every confounder must load on at least 2 features")
            if np.linalg.matrix_rank(lam) != q:
                raise ValueError("lam must have full column rank")
        order = tuple(int(i) for i in self.true_order)
        if sorted(order) != list(range(p)):
            raise ValueError("true_order is not a permutation of 0..p-1")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "true_order", order)


def _transitive_closure(pairs):
    pairs = set(pairs)
    nodes = {a for a, _ in pairs} | {b for _, b in pairs}
    succ = {n: {b for a, b in pairs if a == n} for n in nodes}
    changed = True
    while changed:
        changed = False
        for n in nodes:
            reach = set(succ[n])
            for m in list(reach):
                extra = succ.get(m, ()) - reach
                if extra:
                    reach |= extra
                    changed = True
            succ[n] = reach
    return {(a, b) for a in nodes for b in succ[a]}


@dataclass(frozen=True)
class PriorKnowledge:
    """Known relative orderings, stored as their transitive closure.

    ``(a, b)`` means feature a precedes feature b. The closure is taken
    eagerly at construction so state skipping is a pure subset test.
    """

    pairs: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        pairs = set()
        for pair in self.pairs:
            a, b = pair
            a, b = int(a), int(b)
            if a < 0 or b < 0:
                raise ValueError("prior indices must be nonnegative")
            pairs.add((a, b))
        closed = _transitive_closure(pairs)
        for a, b in closed:
            if a == b or (b, a) in closed:
                raise CyclicPrior(f"prior implies a cycle through {a} and {b}")
        object.__setattr__(self, "pairs", frozenset(closed))

    def __bool__(self):
        return bool(self.pairs)

    def max_index(self):
        return max((max(a, b) for a, b in self.pairs), default=-1)


def standardize_values(values):
    """Center and scale columns to population mean 0, variance 1."""
    values = np.asarray(values, dtype=float)
    mean = values.mean(axis=0)
    std = values.std(axis=0)
    for index, s in enumerate(std):
        if s == 0.0:
            raise ZeroVarianceColumn(index)
    return (values - mean) / std


def expand_prior(orderings):
    """Convert relative-ordering sequences into the implied pair set.

    A sequence (a, b, c) contributes (a,b), (b,c) and (a,c); the union over
    sequences is then transitively closed. Contradictions raise CyclicPrior.
    """
    pairs = set()
    for sequence in orderings:
        sequence = [int(i) for i in sequence]
        if any(i < 0 for i in sequence):
            raise ValueError("prior indices must be nonnegative")
        for i in range(len(sequence)):
            for j in range(i + 1, len(sequence)):
                if sequence[i] == sequence[j]:
                    raise CyclicPrior(
                        f"index {sequence[i]} repeats within one ordering"
                    )
                pairs.add((sequence[i], sequence[j]))
    return PriorKnowledge(frozenset(pairs))
