"""Causal ordering by shortest-path search over the subset lattice.

A lattice node is the set of features not yet placed in the order; the root
is the full set, the goal is the empty set, and every root-to-goal path is a
permutation. The edge leaving a state by choosing one candidate is weighted
by how dependent that candidate still is on the rest, so the cheapest path is
the most plausible causal ordering. Edges into the goal weigh exactly 0.

Edge weights are evaluated lazily (only when a state is expanded) and
memoized per lattice edge. The search, which expands few states, weighs a
state's edges with the pairwise PLR kernel on that state's columns; path
enumeration and dense path sampling, which reach states from several
parents, read them from a per-state entropy table (``TableLattice``).
"""

import heapq
import time
from dataclasses import dataclass

import numpy as np

from .errors import PriorUnsatisfiable, ZeroVariance
from .measures import (
    MeasureConfig,
    MeasureKind,
    knn_step_cost,
    plr_costs,
    state_entropies,
    table_costs,
)
from .model import CausalOrder, PriorKnowledge, standardize_values


@dataclass(frozen=True)
class SearchResult:
    """An ordering plus how much work the search did to find it."""

    order: CausalOrder
    edges_evaluated: int
    states_expanded: int
    wall_time: float


def residualize(columns, pos):
    """Drop column ``pos``, regressing it out of every other column.

    This is the single lattice transition: each remaining column x is
    replaced by its least-squares residual x - b c on the chosen column c,
    with b = cov(x, c) / var(c), all in one rank-1 update.
    """
    chosen = columns[:, pos]
    centered = chosen - chosen.mean()
    var = centered @ centered
    if var == 0.0:
        raise ZeroVariance(f"residual column {pos} is constant at this state")
    kept = np.delete(columns, pos, axis=1)
    kept -= chosen[:, None] * (centered @ kept / var)
    return kept


def _position(mask, feature):
    # Residual columns are ordered by ascending feature index.
    return (mask & ((1 << feature) - 1)).bit_count()


class Lattice:
    """Shared residual and edge-weight cache over the 2^p subset lattice.

    Residuals are memoized per bitset and computed canonically, by removing
    features in ascending index order; sequential univariate regressions over
    the same removed set agree up to rounding regardless of order, and the
    canonical order makes the cached values deterministic. Edge weights are
    therefore functions of (state, candidate) alone and are computed at most
    once each; ``edges_evaluated`` counts those computations.
    """

    def __init__(self, data, config=None, prior=None):
        self.config = config if config is not None else MeasureConfig()
        self.prior = prior if prior is not None else PriorKnowledge()
        self.p = data.n_features
        if self.p < 2:
            raise ValueError("need at least 2 features")
        if data.n_samples < self.p + 2:
            raise ValueError("need at least p + 2 samples")
        if self.prior and self.prior.max_index() >= self.p:
            raise ValueError("prior references a feature index outside the data")
        self.full = (1 << self.p) - 1
        root = standardize_values(data.values)
        root.setflags(write=False)
        self._columns = {self.full: root}
        self._costs = {}
        # blockers[f]: bitset of features that must precede f.
        self.blockers = [0] * self.p
        for a, b in self.prior.pairs:
            self.blockers[b] |= 1 << a
        self.edges_evaluated = 0

    def columns(self, mask):
        cached = self._columns.get(mask)
        if cached is not None:
            return cached
        removed = self.full & ~mask
        last = removed.bit_length() - 1  # canonical: peel the highest index
        parent = self.columns(mask | (1 << last))
        columns = residualize(parent, _position(mask, last))
        columns.setflags(write=False)
        self._columns[mask] = columns
        return columns

    def allowed_candidates(self, mask):
        """Features choosable at ``mask`` without violating the prior."""
        out = []
        for f in range(self.p):
            bit = 1 << f
            if mask & bit and not mask & self.blockers[f]:
                out.append(f)
        return out

    def costs_at(self, mask):
        """Step cost of each allowed candidate at a state with >= 2 features.

        Returns a dict feature -> cost; memoized, so repeated visits do not
        recount edges.
        """
        cached = self._costs.get(mask)
        if cached is not None:
            return cached
        allowed = self.allowed_candidates(mask)
        if self.config.kind is MeasureKind.PLR:
            by_position = self._plr_costs(mask)
            costs = {f: float(by_position[_position(mask, f)]) for f in allowed}
        else:
            columns = self.columns(mask)
            costs = {
                f: knn_step_cost(columns, _position(mask, f), self.config)
                for f in allowed
            }
        self.edges_evaluated += len(allowed)
        self._costs[mask] = costs
        return costs

    def _plr_costs(self, mask):
        return plr_costs(self.columns(mask))


class TableLattice(Lattice):
    """A lattice for callers that visit most states from each of their parents.

    PLR costs come from a table ``h[mask]`` of per-state entropies: those of
    the standardized canonical columns of each state, kept with the
    columns' scales. A state's costs need its own entropies and its
    children's, so each state's entropies are computed once, not once per
    parent as with the pairwise kernel. The missing children of a state go
    through one kernel call. The costs equal ``Lattice.costs_at`` up to
    rounding, and each is a function of its state alone, whichever states
    shared a kernel call.
    """

    def __init__(self, data, config=None, prior=None):
        super().__init__(data, config, prior)
        self._table = {}

    def _plr_costs(self, mask):
        children = [mask & ~(1 << f) for f in range(self.p) if mask & (1 << f)]
        self._fill_table([mask])
        self._fill_table(children)
        return table_costs(self._table[mask], [self._table[c] for c in children])

    def _fill_table(self, masks):
        # One kernel call for the missing states among ``masks``, which all
        # hold the same number of features.
        missing = [mask for mask in masks if mask not in self._table]
        if not missing:
            return
        width = missing[0].bit_count()
        stack = np.concatenate([self.columns(mask).T for mask in missing])
        entropies, scales = state_entropies(stack, width)
        for k, mask in enumerate(missing):
            part = slice(k * width, (k + 1) * width)
            self._table[mask] = (entropies[part], scales[part])


def _reconstruct(parent, full):
    order, step_costs = [], []
    mask = 0
    while mask != full:
        prev, feature, weight = parent[mask]
        order.append(feature)
        step_costs.append(weight)
        mask = prev
    order.reverse()
    step_costs.reverse()
    return CausalOrder(
        order=tuple(order),
        step_costs=tuple(step_costs),
        total_cost=sum(step_costs),
    )


def shortest_path_order(data, config=None, prior=None):
    """Minimum-total-cost causal ordering via Dijkstra with lazy edges.

    Deterministic tie-breaking: frontier ties pop the numerically smaller
    remaining-bitset first, and the first relaxation of a node wins, with
    candidates processed in ascending index order.
    """
    start = time.perf_counter()
    lattice = Lattice(data, config, prior)
    full = lattice.full
    dist = {full: 0.0}
    parent = {}
    done = set()
    frontier = [(0.0, full)]
    states_expanded = 0
    while frontier:
        cost, mask = heapq.heappop(frontier)
        if mask in done:
            continue
        done.add(mask)
        if mask == 0:
            order = _reconstruct(parent, full)
            return SearchResult(
                order=order,
                edges_evaluated=lattice.edges_evaluated,
                states_expanded=states_expanded,
                wall_time=time.perf_counter() - start,
            )
        states_expanded += 1
        if mask.bit_count() == 1:
            # Goal edge: weight exactly 0, no measure evaluation.
            successors = [(mask.bit_length() - 1, 0.0)]
        else:
            successors = sorted(lattice.costs_at(mask).items())
        for feature, weight in successors:
            child = mask & ~(1 << feature)
            new_cost = cost + weight
            if new_cost < dist.get(child, np.inf):
                dist[child] = new_cost
                parent[child] = (mask, feature, weight)
                heapq.heappush(frontier, (new_cost, child))
    raise PriorUnsatisfiable("no ordering satisfies the prior")


def direct_lingam_order(data, config=None, prior=None):
    """Greedy baseline: repeatedly extract the most independent candidate.

    Uses the same lattice edge weights as the shortest-path search, so its
    total cost is an upper bound on the shortest-path total. Ties go to the
    lower feature index.
    """
    start = time.perf_counter()
    lattice = Lattice(data, config, prior)
    mask = lattice.full
    order, step_costs = [], []
    states_expanded = 0
    while mask:
        states_expanded += 1
        if mask.bit_count() == 1:
            order.append(mask.bit_length() - 1)
            step_costs.append(0.0)
            break
        costs = lattice.costs_at(mask)
        if not costs:
            raise PriorUnsatisfiable("no candidate is allowed by the prior")
        best = min(costs, key=lambda f: (costs[f], f))
        order.append(best)
        step_costs.append(costs[best])
        mask &= ~(1 << best)
    causal = CausalOrder(
        order=tuple(order), step_costs=tuple(step_costs), total_cost=sum(step_costs)
    )
    return SearchResult(
        order=causal,
        edges_evaluated=lattice.edges_evaluated,
        states_expanded=states_expanded,
        wall_time=time.perf_counter() - start,
    )
