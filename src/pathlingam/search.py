"""Causal ordering by shortest-path search over the subset lattice.

A lattice node is the set of features not yet placed in the order; the root
is the full set, the goal is the empty set, and every root-to-goal path is a
permutation. The edge leaving a state by choosing one candidate is weighted
by how dependent that candidate still is on the rest, so the cheapest path is
the most plausible causal ordering. Edges into the goal weigh exactly 0.

Both searches walk the lattice through one read, ``Lattice.steps``: the
allowed steps out of a state with their weights, the goal edge included.
Dijkstra carries each frontier entry's path with it, the greedy baseline
takes the cheapest step of each state it reaches, and both report the
weights they added, in path order, as the total.

Edge weights are evaluated lazily (only when a state is expanded) and
memoized per lattice edge. The searches, which expand one state at a time,
weigh a state's edges with the pairwise PLR kernel on that state's columns.
Path enumeration and path sampling take theirs ahead of time from a
per-state entropy table filled by one depth-first walk of the canonical
tree (``fill_layer_costs``): enumeration reads the dense costs it returns,
for a stack of same-p lattices at once, and sampling reads them through the
memo (``Lattice.fill_costs``). Every path length they report is a
path-order sum of the same per-state costs.
"""

import heapq
import time
from dataclasses import dataclass

import numpy as np

from .measures import (
    MeasureConfig,
    MeasureKind,
    knn_step_cost,
    layer_costs,
    plr_costs,
    residualize,
    residualize_rows,
    state_entropies,
)
from .model import standardize_values

# Tolerance used when a stored total must match its recomputed sum.
SUM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class SearchResult:
    """A causal ordering, its step costs and total, and the search's work.

    ``order`` is a permutation of feature indices, ``order[0]`` the first
    cause; ``step_costs`` weigh its edges in path order, the last (into the
    empty node) exactly 0. A search adds them left to right from 0.0 for
    ``total_cost``; any other total must match their sum to within
    ``SUM_TOLERANCE``.
    """

    order: tuple
    step_costs: tuple
    total_cost: float
    edges_evaluated: int
    states_expanded: int
    wall_time: float

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


def _position(mask, feature):
    # Residual columns are ordered by ascending feature index.
    return (mask & ((1 << feature) - 1)).bit_count()


def _features(mask):
    return [f for f in range(mask.bit_length()) if mask >> f & 1]


def _peeled(mask, full):
    # The feature whose removal makes ``mask`` canonically: the highest one
    # removed, so the features leave the full state in ascending order.
    return (full & ~mask).bit_length() - 1


# Most child-row elements one transition of the fill makes: each level of
# its depth-first walk holds about 4 MB of residual columns, whatever p and N.
_FILL_BLOCK_ELEMENTS = 1 << 19


def check_data_size(p, n_samples):
    """Raise ValueError unless a lattice can be built on ``p`` features and
    ``n_samples`` samples: p >= 2 and n_samples >= p + 2."""
    if p < 2:
        raise ValueError(f"need at least 2 features, got {p}")
    if n_samples < p + 2:
        raise ValueError(f"need at least p + 2 samples, got {n_samples} at p = {p}")


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
        prior = prior if prior is not None else ()
        self.p = data.n_features
        check_data_size(self.p, data.n_samples)
        if len(prior) > self.p:
            raise ValueError("prior references a feature index outside the data")
        self.full = (1 << self.p) - 1
        root = standardize_values(data.values)
        root.setflags(write=False)
        self._columns = {self.full: root}
        self._costs = {}
        # blockers[f]: bitset of features that must precede f (expand_prior).
        self.blockers = tuple(prior) + (0,) * (self.p - len(prior))
        self.edges_evaluated = 0

    def columns(self, mask):
        cached = self._columns.get(mask)
        if cached is not None:
            return cached
        last = _peeled(mask, self.full)
        parent = self.columns(mask | (1 << last))
        columns = residualize(parent, _position(mask, last))
        columns.setflags(write=False)
        self._columns[mask] = columns
        return columns

    def allowed_candidates(self, mask):
        """Features choosable at ``mask`` without violating the prior.

        The prior is closed and acyclic, so a state reached by allowed steps
        always has an allowed feature: one with no predecessor left in it.
        """
        return [f for f in _features(mask) if not mask & self.blockers[f]]

    def steps(self, mask):
        """(feature, weight) of each allowed step out of a nonempty state, in
        ascending feature order. The goal edge, out of a one-feature state,
        weighs exactly 0 and is neither evaluated nor memoized."""
        if mask.bit_count() == 1:
            return [(mask.bit_length() - 1, 0.0)]
        return self.costs_at(mask).items()

    def costs_at(self, mask):
        """Step cost of each allowed candidate at a state with >= 2 features.

        Returns a dict feature -> cost in ascending feature order; memoized,
        so repeated visits do not recount edges.
        """
        cached = self._costs.get(mask)
        if cached is not None:
            return cached
        columns = self.columns(mask)
        if self.config.kind is MeasureKind.PLR:
            return self._memoize(mask, plr_costs(columns).__getitem__)
        return self._memoize(
            mask, lambda pos: knn_step_cost(columns, pos, self.config)
        )

    def _memoize(self, mask, cost_at_position):
        # Costs of every candidate, from a function of residual-column position.
        costs = {
            f: float(cost_at_position(_position(mask, f)))
            for f in self.allowed_candidates(mask)
        }
        self.edges_evaluated += len(costs)
        self._costs[mask] = costs
        return costs

    def fill_costs(self, masks):
        """Memoize the PLR step costs of many states (each of >= 2 features).

        The costs are those of ``fill_layer_costs`` on this one lattice, so
        each cost is a function of its state alone, bit for bit, whichever
        states were filled with it; the pairwise kernel of the searches
        gives the same costs up to rounding. kNN costs are left to
        ``costs_at``.
        """
        if self.config.kind is not MeasureKind.PLR:
            return
        asked = {mask for mask in masks if mask not in self._costs}
        if not asked:
            return
        for states, costs in fill_layer_costs([self], asked):
            for mask, by_position in zip(states, costs[0]):
                self._memoize(mask, by_position.__getitem__)


def lattices_per_fill(p, n_samples):
    """How many lattices of ``p`` features and ``n_samples`` samples one
    ``fill_layer_costs`` call takes whole: as many as keep all their states'
    columns, p 2^(p-1) rows of n_samples each, within one transition block
    (``_FILL_BLOCK_ELEMENTS``), and at least one."""
    return max(1, _FILL_BLOCK_ELEMENTS // ((p << (p - 1)) * n_samples))


def fill_layer_costs(lattices, masks):
    """PLR step costs of B lattices of one p and N at the same states.

    Returns one (states, costs) pair per width of the asked ``masks`` (each
    of >= 2 features): costs[b, k, j] is lattice b's cost of the j-th
    lowest feature of states[k], a B x K x width array as ``layer_costs``
    gives it. The prior is not read.

    The costs come from a table of per-state entropies, those of each
    state's standardized canonical columns. The states filled are the asked
    ones, their children (for entropies) and the canonical ancestors of both
    (for columns). Each state's columns come from its canonical parent, so
    these states form one tree rooted at the full state, shared by the B
    lattices, which is walked depth first: a batch of states of one width,
    held as B x states rows of width x N, puts its entropies into the table
    with one kernel call, then makes its children in blocks of at most
    ``_FILL_BLOCK_ELEMENTS`` child-row elements over all B, one batched
    transition per block, and walks each block in turn. Only the blocks on
    one root-to-leaf path are held. Once the table is full, the asked
    states' costs take one batched evaluation per width. ``residualize_rows``,
    ``state_entropies`` and ``layer_costs`` give each state bits that do not
    depend on the rest of their stack, so each cost is a function of its
    lattice and state alone, whatever else was filled with it.
    """
    roots = np.stack([lattice._columns[lattice.full].T for lattice in lattices])
    count, p, _ = roots.shape
    full = (1 << p) - 1
    masks = set(masks)
    wanted = masks | {mask & ~(1 << f) for mask in masks for f in _features(mask)}
    # tree[mask]: the filled states whose canonical parent is mask.
    filled, tree = {full}, {}
    for mask in wanted:
        while mask not in filled:
            filled.add(mask)
            parent = mask | 1 << _peeled(mask, full)
            tree.setdefault(parent, set()).add(mask)
            mask = parent
    # The entropy table: row index[mask] of h[b] and scale[b] holds the
    # entropies and scales of lattice b's columns of mask, in its first
    # width entries.
    index = {mask: k for k, mask in enumerate(wanted)}
    h = np.empty((count, len(index), p))
    scale = np.empty((count, len(index), p))

    def walk(states, rows):
        # ``rows``: the states' columns, (count x states) x width x N, the
        # states of lattice b at rows b * len(states) on.
        width, n = rows.shape[1:]
        offsets = np.arange(count)[:, None] * len(states)
        keep = [k for k, mask in enumerate(states) if mask in index]
        if keep:
            at = [index[states[k]] for k in keep]
            # Leading integer indices keep the copied rows contiguous, and
            # the copy is freed before the walk goes down a level.
            entropies, std = state_entropies(
                rows[(offsets + keep).ravel()].reshape(-1, n), width
            )
            h[:, at, :width] = entropies.reshape(count, len(keep), width)
            scale[:, at, :width] = std.reshape(count, len(keep), width)
        children, parents = [], []
        for k, mask in enumerate(states):
            for child in sorted(tree.get(mask, ())):
                children.append(child)
                parents.append(k)
        if not children:
            return
        positions = [_position(c, _peeled(c, full)) for c in children]
        block = max(1, _FILL_BLOCK_ELEMENTS // (count * (width - 1) * n))
        for start in range(0, len(children), block):
            part = slice(start, start + block)
            walk(
                children[part],
                residualize_rows(
                    rows,
                    (offsets + parents[part]).ravel(),
                    np.tile(positions[part], count),
                ),
            )

    walk([full], roots)
    by_width = {}
    for mask in masks:
        by_width.setdefault(mask.bit_count(), []).append(mask)
    layers = []
    for width, states in sorted(by_width.items()):
        at = [index[mask] for mask in states]
        children = [
            [index[mask & ~(1 << f)] for f in _features(mask)] for mask in states
        ]
        costs = layer_costs(
            h[:, at, :width].reshape(-1, width),
            scale[:, at, :width].reshape(-1, width),
            h[:, children, :width - 1].reshape(-1, width, width - 1),
            scale[:, children, :width - 1].reshape(-1, width, width - 1),
        )
        layers.append((states, costs.reshape(count, len(states), width)))
    return layers


def _result(lattice, path, total, states_expanded, start):
    # ``path``: the linked (rest, feature, weight) steps, last step first.
    steps = []
    while path is not None:
        path, feature, weight = path
        steps.append((feature, weight))
    order, step_costs = zip(*reversed(steps))
    return SearchResult(
        order=order,
        step_costs=step_costs,
        total_cost=total,
        edges_evaluated=lattice.edges_evaluated,
        states_expanded=states_expanded,
        wall_time=time.perf_counter() - start,
    )


def shortest_path_order(data, config=None, prior=None):
    """Minimum-total-cost causal ordering via Dijkstra with lazy edges.

    Deterministic tie-breaking: frontier ties pop the numerically smaller
    remaining-bitset first, and the first relaxation of a node wins, with
    candidates processed in ascending index order. A state is pushed again
    only at a strictly lower cost, so entries never tie on (cost, state) and
    their paths are never compared.
    """
    start = time.perf_counter()
    lattice = Lattice(data, config, prior)
    dist = {lattice.full: 0.0}
    done = set()
    frontier = [(0.0, lattice.full, None)]
    while True:  # the goal is reachable; see Lattice.allowed_candidates
        cost, mask, path = heapq.heappop(frontier)
        if mask in done:
            continue
        if mask == 0:
            return _result(lattice, path, cost, len(done), start)
        done.add(mask)
        for feature, weight in lattice.steps(mask):
            child = mask & ~(1 << feature)
            new_cost = cost + weight
            if new_cost < dist.get(child, np.inf):
                dist[child] = new_cost
                heapq.heappush(frontier, (new_cost, child, (path, feature, weight)))


def direct_lingam_order(data, config=None, prior=None):
    """Greedy baseline: repeatedly extract the most independent candidate.

    Uses the same lattice edge weights as the shortest-path search, so its
    total cost is an upper bound on the shortest-path total. Ties go to the
    lower feature index.
    """
    start = time.perf_counter()
    lattice = Lattice(data, config, prior)
    mask, path, total = lattice.full, None, 0.0
    while mask:
        feature, weight = min(lattice.steps(mask), key=lambda step: (step[1], step[0]))
        path = (path, feature, weight)
        total += weight
        mask &= ~(1 << feature)
    return _result(lattice, path, total, lattice.p, start)
