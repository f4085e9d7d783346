"""Per-layer spans and counters, recorded from outside the library.

``Tracer.install`` replaces every public function of the layer modules
(and the public methods of ``Graph``) with a wrapper, in every module
namespace that binds it, including the layer's own module, the package
namespace and the benchmark's modules.  Each call records a span: its
function, start, end and parent span.  Spans are kept in flat arrays
and folded into per-function totals when an op ends; self time is a
span's duration minus the durations of its direct children, which,
single-threaded, is the time its children cover.

A few counters need a call's result (paths listed, circuits listed,
graphs built); they are read off the wrapped function's return value.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

LAYERS = ("graph", "boundary", "ideals", "algebra", "repn", "naimark", "cli")

# Counters read from return values: function -> (counter, result -> amount).
RESULT_COUNTERS = {
    "graph.bundle_circuits": ("graph.circuits_listed", len),
    "graph.paths_into": ("graph.paths_listed", len),
    "ideals.ideal_graph": ("ideals.graphs_built", lambda _: 1),
    "ideals.quotient_with_map": ("ideals.graphs_built", lambda _: 1),
    "ideals.enumerate_admissible_pairs": ("ideals.pairs_found", len),
    "repn.lambda_index_set": ("repn.lambda_paths", lambda r: len(r[2])),
}

# Counters that count calls: counter -> function.
CALL_COUNTERS = {
    "graph.scc_runs": "graph.strongly_connected_components",
    "boundary.census_runs": "boundary.enumerate_classes",
    "algebra.monomial_products": "algebra.multiply_monomials",
}


def _layer_functions(module):
    """Public functions defined in ``module`` itself, not imported into it."""
    name = module.__name__
    found = {}
    for attr, obj in vars(module).items():
        if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != name:
            continue
        found[attr] = obj
    return found


class Tracer:
    """Span recorder and per-function totals for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.fn: array = array("i")
        self.parent: array = array("i")
        self.start: array = array("d")
        self.end: array = array("d")
        self.stack = [-1]
        self.counters: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.edges: dict[tuple[str, str], int] = {}
        self.spans_seen = 0
        self._undo = []

    def _wrap(self, qualname: str, fn):
        fid = len(self.names)
        self.names.append(qualname)
        fns, parents, starts, ends, stack = self.fn, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter
        counter = RESULT_COUNTERS.get(qualname)
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(fns)
            fns.append(fid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if counter is not None:
                key, amount = counter
                counters[key] = counters.get(key, 0) + amount(result)
            return result

        return traced

    def install(self):
        """Wrap every layer's public functions wherever a module binds them."""
        import leavitt.graph

        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"leavitt.{layer}"]
            for attr, fn in _layer_functions(module).items():
                originals[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for modname, module in list(sys.modules.items()):
            if module is None or not (
                modname.startswith("leavitt") or modname in ("workloads", "__main__")
            ):
                continue
            for attr, obj in list(vars(module).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._undo.append((module, attr, obj))
        graph_cls = leavitt.graph.Graph
        for attr, obj in list(vars(graph_cls).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            setattr(graph_cls, attr, self._wrap(f"graph.Graph.{attr}", obj))
            self._undo.append((graph_cls, attr, obj))

    def uninstall(self):
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    def count(self, key: str, amount: float = 1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def reduce(self):
        """Fold the spans recorded so far into per-function totals and drop them."""
        n = len(self.fn)
        fns, parents, starts, ends = self.fn, self.parent, self.start, self.end
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls, self_s, total_s, edges = self.calls, self.self_s, self.total_s, self.edges
        names = self.names
        for i in range(n):
            name = names[fns[i]]
            d = ends[i] - starts[i]
            calls[name] = calls.get(name, 0) + 1
            total_s[name] = total_s.get(name, 0.0) + d
            self_s[name] = self_s.get(name, 0.0) + d - child[i]
            p = parents[i]
            edge = (names[fns[p]] if p >= 0 else "", name)
            edges[edge] = edges.get(edge, 0) + 1
        self.spans_seen += n
        del fns[:], parents[:], starts[:], ends[:]

    @staticmethod
    def unit(metric: str) -> str:
        if metric.endswith(".self_s"):
            return "s/round"
        if metric == "ideals.pairs_per_test":
            return "ratio"
        if metric == "cli.stdout_bytes":
            return "bytes/round"
        return "count/round"

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-round values of every per-layer metric."""
        out = {}
        for layer in LAYERS:
            names = [n for n in self.calls if n.split(".", 1)[0] == layer]
            out[f"{layer}.calls"] = sum(self.calls[n] for n in names) / rounds
            out[f"{layer}.self_s"] = sum(self.self_s[n] for n in names) / rounds
        for key, fn in CALL_COUNTERS.items():
            out[key] = self.calls.get(fn, 0) / rounds
        # A subset tested by the pair enumeration is one hereditary test made
        # directly by enumerate_admissible_pairs.
        tests = self.edges.get(("ideals.enumerate_admissible_pairs", "graph.is_hereditary"), 0)
        out["ideals.hereditary_tests"] = tests / rounds
        for key in (
            "graph.circuits_listed",
            "graph.paths_listed",
            "ideals.graphs_built",
            "repn.lambda_paths",
            "cli.stdout_bytes",
        ):
            out[key] = self.counters.get(key, 0) / rounds
        out["ideals.pairs_per_test"] = (
            self.counters.get("ideals.pairs_found", 0) / tests if tests else 0.0
        )
        return out
