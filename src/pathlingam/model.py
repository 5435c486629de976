"""Datasets, ground truth and prior knowledge: the domain types shared by
every module. A search's ordering is ``search.SearchResult``.

All types are immutable after construction (arrays are marked read-only) and
operations here are pure, so everything is safe to share across threads.

A single convention applies to the whole codebase: variances, covariances and
correlations use the population (1/N) normalization. ``numpy`` defaults
(``ddof=0``, ``bias=True``) already follow it.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CyclicPrior, ZeroVarianceColumn
from .util import whole_number


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


def standardize_values(values):
    """Center and scale columns to population mean 0, variance 1.

    Each column is first multiplied by the power of two that brings its
    largest magnitude into [0.5, 1). That is exact, so ordinary data gives
    the same bits, and data of any finite scale standardizes without its
    variance overflowing or underflowing.
    """
    values = np.asarray(values, dtype=float)
    _, exponent = np.frexp(np.abs(values).max(axis=0))
    values = np.ldexp(values, -exponent)
    mean = values.mean(axis=0)
    std = values.std(axis=0)
    for index, s in enumerate(std):
        if s == 0.0:
            raise ZeroVarianceColumn(index)
    return (values - mean) / std


def expand_prior(orderings, p=None):
    """The prior knowledge implied by relative-ordering sequences.

    A sequence (a, b, c) says that a precedes b and c and that b precedes c.
    The prior is a tuple ``before`` of bitsets: bit a of ``before[f]`` is set
    when a must precede f, transitively closed. It has an entry per index up
    to the largest in a sequence of two or more (more than ``p`` entries
    raise ValueError), so a prior with no ordered pair is the empty tuple. A
    sequence that is not a list or tuple raises ValueError: a string's
    characters are not indices. A repeated index or sequences that imply a
    cycle raise CyclicPrior.
    """
    for sequence in orderings:
        if not isinstance(sequence, (list, tuple)):
            raise ValueError(f"prior sequence {sequence!r} is not a list of indices")
    sequences = [[whole_number(i) for i in sequence] for sequence in orderings]
    size = max((max(seq) + 1 for seq in sequences if len(seq) > 1), default=0)
    if p is not None and size > p:
        raise ValueError("prior references a feature index outside the data")
    before = [0] * size
    for sequence in sequences:
        for k, f in enumerate(sequence):
            if f < 0:
                raise ValueError("prior indices must be nonnegative")
            if f in sequence[:k]:
                raise CyclicPrior(f"index {f} repeats within one ordering")
            for a in sequence[:k]:
                before[f] |= 1 << a
    for k in range(size):
        for f in range(size):
            if before[f] >> k & 1:
                before[f] |= before[k]
    for f in range(size):
        if before[f] >> f & 1:
            raise CyclicPrior(f"prior implies a cycle through {f}")
    return tuple(before)
