"""Per-layer tracing from outside the package.

Each traced function is replaced, in every ``pathlingam`` module namespace
that holds a reference to it, by a wrapper that records a span
(name, start, end, parent) in memory. Wrapping at the lookup site matters:
``search.plr_costs`` and ``measures.plr_costs`` are two names for one
function, and the caller in ``search`` only sees the first. ``cli`` keeps its
searchers in the ``_SEARCHERS`` table, so that table is patched too.
"""

import json
import os
import sys
import time

# Traced name -> (module that defines it, attribute path).
TARGETS = {
    "cli.main": ("pathlingam.cli", "main"),
    "util.read_matrix_csv": ("pathlingam.util", "read_matrix_csv"),
    "util.write_json_atomic": ("pathlingam.util", "write_json_atomic"),
    "simgen.generate": ("pathlingam.simgen", "generate"),
    "measures.plr_costs": ("pathlingam.measures", "plr_costs"),
    "measures.plr_matrix": ("pathlingam.measures", "plr_matrix"),
    "measures.knn_step_cost": ("pathlingam.measures", "knn_step_cost"),
    "measures.knn_mi": ("pathlingam.measures", "knn_mi"),
    "search.residualize": ("pathlingam.search", "residualize"),
    "search.costs_at": ("pathlingam.search", "Lattice.costs_at"),
    "search.shortest_path_order": ("pathlingam.search", "shortest_path_order"),
    "search.direct_lingam_order": ("pathlingam.search", "direct_lingam_order"),
    "pathdist.enumerate_paths": ("pathlingam.pathdist", "enumerate_paths"),
    "pathdist.sample_paths": ("pathlingam.pathdist", "sample_paths"),
    "pathdist.moment_features": ("pathlingam.pathdist", "moment_features"),
    "predict.build_training_set": ("pathlingam.predict", "build_training_set"),
    "predict.knn_classify": ("pathlingam.predict", "knn_classify"),
    "adjacency.estimate_adjacency": ("pathlingam.adjacency", "estimate_adjacency"),
    "adjacency.lasso_coordinate_descent": (
        "pathlingam.adjacency", "lasso_coordinate_descent",
    ),
}

# Spans whose presence under a costs_at span marks a cache miss.
MEASURE_EVALUATIONS = ("measures.plr_costs", "measures.knn_step_cost")


def _columns_of(args, kwargs, result):
    columns = args[0] if args else kwargs["columns"]
    return {"cols": int(columns.shape[1])}


def _file_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _search_work(args, kwargs, result):
    return {
        "states_expanded": int(result.states_expanded),
        "edges_evaluated": int(result.edges_evaluated),
    }


# Traced name -> function of (args, kwargs, result) giving extra counts.
COUNTERS = {
    "measures.plr_matrix": _columns_of,
    "util.write_json_atomic": _file_bytes,
    "search.shortest_path_order": _search_work,
    "search.direct_lingam_order": _search_work,
}


class Tracer:
    """Records spans while installed; ``uninstall`` restores every original."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}
        self._stack = []
        self._patched = []  # callables that each undo one patch

    def _wrap(self, name, original):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.process_time  # CPU seconds, like the end-to-end timings

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counts[(name, key)] = counts.get((name, key), 0) + value
            return result

        return traced

    def install(self):
        modules = [
            module for key, module in sorted(sys.modules.items())
            if key == "pathlingam" or key.startswith("pathlingam.")
        ]
        searchers = sys.modules["pathlingam.cli"]._SEARCHERS
        for name, (module_name, attribute) in TARGETS.items():
            owner = sys.modules[module_name]
            if "." in attribute:  # a method: patch the class once
                class_name, method = attribute.split(".")
                cls = getattr(owner, class_name)
                original = cls.__dict__[method]
                self._set(cls, method, self._wrap(name, original), original)
                continue
            original = getattr(owner, attribute)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapper, original)
            for key, entry in list(searchers.items()):
                if entry[0] is original:
                    self._set_item(searchers, key, (wrapper,) + entry[1:], entry)

    def _set(self, owner, key, value, original):
        setattr(owner, key, value)
        self._patched.append(lambda: setattr(owner, key, original))

    def _set_item(self, table, key, value, original):
        table[key] = value
        self._patched.append(lambda: table.__setitem__(key, original))

    def uninstall(self):
        while self._patched:
            self._patched.pop()()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self):
        """Per traced name: calls, total seconds, self seconds, extra counts.

        Self time is a span's duration minus the durations of its direct
        children; costs_at hits are calls with no measure evaluation below.
        """
        stats = {
            name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in TARGETS
        }
        misses = set()
        for name, start, end, parent in self.spans:
            entry = stats[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start
            if parent >= 0:
                stats[self.spans[parent][0]]["self_s"] -= end - start
                if name in MEASURE_EVALUATIONS:
                    misses.add(parent)
        costs_at = stats["search.costs_at"]
        costs_at["hits"] = costs_at["calls"] - len(misses)
        for (name, key), value in self.counts.items():
            stats[name][key] = value
        return stats

    def write(self, path):
        """Write the spans as JSON lines: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([name, start, end, parent]) + "\n")
