"""Exact analytics for fuzzy graphs.

Connectivity and Wiener indices computed with exact arithmetic, edge
classification, fuzzy tree and saturated fuzzy cycle recognition, plus a
falsification harness for two published claims about these indices.

Importing the package runs none of its modules.  Each library module is
registered in ``sys.modules`` and bound here as a lazy module, which
compiles and runs on its first attribute read; a public name is read
from its module on first access.  A command therefore loads only the
modules it calls: ``kind`` never compiles the falsifier, the generators
or the oracle.  The modules are registered rather than left unimported
so that code that walks ``sys.modules`` finds every one of them.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# the library modules; not cli, verdicts or __main__, which run when
# called
_MODULES = (
    "analysis", "connectivity", "errors", "falsifier", "indices", "model",
    "oracle", "replication", "samples", "structure",
)
# module -> the public names it defines
_NAMES = {
    "analysis": "EdgeClass GraphKind SpanningTree",
    "connectivity": "EdgeClassification classify_edge classify_edges "
    "strength_of_connectedness strong_subgraph",
    "errors": "BadParamsError BadSpecError DisconnectedError "
    "DuplicateEdgeError DuplicateVertexError FuzzyGraphError "
    "GraphConstructionError MuExceedsSigmaError NoSuchEdgeError "
    "NotAFuzzyTreeError ParseError SelfLoopError StrongDisconnectedError "
    "TooLargeError UnknownEndpointError ZeroMuError",
    "falsifier": "ClaimId ClaimVerdict check_corollary_star "
    "check_theorem_star search_counterexamples",
    "indices": "connectivity_index geodesic_distance theorem_star_formula "
    "wiener_index",
    "model": "MICRO FuzzyGraph Membership PairTable VertexId build_graph "
    "format_fraction parse_graph",
    "oracle": "ci_bruteforce classify_edges_reference conn_bruteforce "
    "conn_reference ds_bruteforce strong_edges_bruteforce wi_bruteforce",
    "structure": "SaturatedCycleSpec fuzzy_tree_mst graph_kind "
    "is_fuzzy_cycle is_fuzzy_tree is_saturated_fuzzy_cycle "
    "make_saturated_cycle maximum_spanning_tree random_fuzzy_tree",
}
_HOME = {
    name: module for module, names in _NAMES.items() for name in names.split()
}

__all__ = sorted(_HOME)


def _register(module: str) -> None:
    """Bind the lazy module ``module``, reusing one already imported."""
    fullname = f"{__name__}.{module}"
    lazy = sys.modules.get(fullname)
    if lazy is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        lazy = sys.modules[fullname] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(lazy)
    globals()[module] = lazy


for _module in _MODULES:
    _register(_module)
del _module


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[module], name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
