"""Spans and counters recorded around calls into fuzzygraph's layers.

The recorder works from outside the program: it replaces every public
function of each layer module with a wrapper, in the defining module and
in every fuzzygraph module that imported the same function by name (for
example ``indices.strong_subgraph`` and ``structure.classify_edges``).
A few methods of the model classes are wrapped the same way.  Each span
records its name, start, end, parent span and op id; spans stay in
memory until the run ends.  A span's self time is its duration minus
the time its child spans cover.

``oracle`` is not a layer here: no CLI path calls it.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "cli",
    "model",
    "connectivity",
    "indices",
    "structure",
    "falsifier",
    "replication",
)
# Layers that analyse a graph; a call into one of them from anywhere
# else hands it a graph to analyse.
_ANALYSIS = {"connectivity", "indices", "structure"}
# model.pair builds a dict key and runs tens of thousands of times per
# op; a span around it would cost more than the call.
_UNSPANNED = {"model.pair"}
_SPANNED_METHODS = {
    "model": [("FuzzyGraph", "remove_edge"), ("FuzzyGraph", "edge_subgraph")]
}
# Per-object constructors are counted, not spanned.
_COUNTED_METHODS = {
    "model.graphs_built": ("FuzzyGraph", "__init__"),
    "model.memberships_built": ("Membership", "__post_init__"),
}
_KIND = (
    "structure.graph_kind",
    "structure.fuzzy_tree_mst",
    "structure.is_fuzzy_tree",
    "structure.is_fuzzy_cycle",
    "structure.is_saturated_fuzzy_cycle",
)


def _vertex_pairs(graph) -> int:
    n = graph.vertex_count
    return n * (n - 1) // 2


# Counters read from a call's arguments and result, keyed by span name.
_ON_RETURN = {
    "connectivity.classify_edges": lambda a, r: {
        "connectivity.edges_classified": len(r)
    },
    "connectivity.classify_edge": lambda a, r: {
        "connectivity.edges_classified": 1
    },
    "indices.wiener_index": lambda a, r: {
        "indices.pairs_summed": _vertex_pairs(a[0])
    },
    "indices.connectivity_index": lambda a, r: {
        "indices.pairs_summed": _vertex_pairs(a[0])
    },
    "indices.index_report": lambda a, r: {
        "indices.pairs_summed": len(r.pairs)
    },
    "falsifier.check_corollary_star": lambda a, r: {
        "falsifier.instances_checked": 1,
        "falsifier.witnesses": int(not r.holds),
    },
    "falsifier.check_theorem_star": lambda a, r: {
        "falsifier.instances_checked": 1,
        "falsifier.witnesses": int(not r.holds),
    },
}


class Recorder:
    """Installs the wrappers, records spans and counts, and restores."""

    def __init__(self) -> None:
        # each span: [name, layer, start, end, parent index, op id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = -1
        self._graphs: dict[int, object] = {}
        self._graphs_analysed = 0
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "fuzzygraph" or name.startswith("fuzzygraph.")
        }
        model = modules["fuzzygraph.model"]
        graph_type = model.FuzzyGraph
        wrapped = {}
        for layer in LAYERS:
            mod = modules[f"fuzzygraph.{layer}"]
            for attr, fn in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and name not in _UNSPANNED
                ):
                    wrapped[fn] = self._span(fn, name, layer, graph_type)
            for cls_name, method in _SPANNED_METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                fn = vars(cls)[method]
                name = f"{layer}.{cls_name}.{method}"
                traced = self._span(fn, name, layer, graph_type)
                self._patch(cls, method, traced)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patch(mod, attr, wrapped[value])
        for counter, (cls_name, method) in _COUNTED_METHODS.items():
            cls = getattr(model, cls_name)
            if method in vars(cls):
                counted = self._count(vars(cls)[method], counter)
                self._patch(cls, method, counted)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _count(self, fn, counter: str):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, fn, name: str, layer: str, graph_type):
        spans, stack = self.spans, self._stack
        on_return = _ON_RETURN.get(name)
        analysis = layer in _ANALYSIS

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if (
                analysis
                and args
                and isinstance(args[0], graph_type)
                and (parent < 0 or spans[parent][1] not in _ANALYSIS)
            ):
                # hold a reference so the id stays unique within the op
                self._graphs[id(args[0])] = args[0]
            record = [name, layer, 0.0, 0.0, parent, self._op]
            stack.append(len(spans))
            spans.append(record)
            record[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()
            if on_return is not None:
                self.counts.update(on_return(args, result))
            return result

        return traced

    # ---------------------------------------------------------------- ops

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._graphs.clear()

    def end_op(self) -> None:
        self._graphs_analysed += len(self._graphs)
        self._graphs.clear()
        self._op = -1

    # ------------------------------------------------------------ results

    def table(self, ops: int, output_bytes: int) -> dict[str, float]:
        """The per-layer metrics over every span recorded so far."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        layer_self: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        child = [0.0] * len(self.spans)
        for name, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, layer, start, end, _, _) in enumerate(self.spans):
            own_time = end - start - child[i]
            total[name] += end - start
            own[name] += own_time
            layer_self[layer] += own_time
            calls[name] += 1
        counts = self.counts
        conn_calls = calls["connectivity.strength_of_connectedness"]
        instances = counts["falsifier.instances_checked"]
        graphs_built = counts["model.graphs_built"]
        metrics = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
        metrics.update(
            {
                "cli.output_bytes": output_bytes,
                "model.parse_s": total["model.parse_graph"],
                "model.parse_calls": calls["model.parse_graph"],
                "model.graphs_built": graphs_built,
                "model.graphs_built_per_op": graphs_built / ops,
                "model.remove_edge_s": total["model.FuzzyGraph.remove_edge"],
                "model.memberships_built": counts["model.memberships_built"],
                "connectivity.conn_s": total[
                    "connectivity.strength_of_connectedness"
                ],
                "connectivity.conn_calls": conn_calls,
                "connectivity.conn_calls_per_graph": (
                    conn_calls / self._graphs_analysed
                    if self._graphs_analysed
                    else 0.0
                ),
                "connectivity.classify_self_s": (
                    own["connectivity.classify_edges"]
                    + own["connectivity.classify_edge"]
                ),
                "connectivity.edges_classified": counts[
                    "connectivity.edges_classified"
                ],
                "indices.report_self_s": own["indices.index_report"],
                "indices.wiener_self_s": own["indices.wiener_index"],
                "indices.ci_self_s": own["indices.connectivity_index"],
                "indices.pairs_summed": counts["indices.pairs_summed"],
                "structure.mst_s": total["structure.maximum_spanning_tree"],
                "structure.kind_self_s": sum(own[name] for name in _KIND),
                "structure.generate_s": total["structure.random_fuzzy_tree"]
                + total["structure.make_saturated_cycle"],
                "falsifier.search_self_s": own[
                    "falsifier.search_counterexamples"
                ],
                "falsifier.instances_checked": instances,
                "falsifier.witness_ratio": (
                    counts["falsifier.witnesses"] / instances
                    if instances
                    else 0.0
                ),
                "replication.checks_s": total[
                    "replication.replication_checks"
                ],
                "trace.graphs_analysed": self._graphs_analysed,
                "trace.spans": len(self.spans),
            }
        )
        return metrics
