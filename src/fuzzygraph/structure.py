"""Spanning structure: maximum spanning trees, fuzzy trees, fuzzy cycles.

A fuzzy tree is a connected graph whose maximum spanning tree F beats
every left-out edge strictly: mu(uv) < strength of connectedness between
u and v inside F.  A fuzzy cycle is a crisp cycle whose weakest grade is
attained at least twice.  A saturated fuzzy cycle additionally touches
every vertex with at least one alpha-strong and one beta-strong edge.

The recognisers are views over ``analysis.Analysis``; the generators
build graphs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heappop, heappush

from .analysis import Analysis, GraphKind, SpanningTree
from .errors import BadParamsError, BadSpecError
from .model import ONE, FuzzyGraph, Membership, VertexId, build_graph, pair

_GRID = 10_000  # micro-units per 0.01 step used by the random generator


@dataclass(frozen=True)
class SaturatedCycleSpec:
    """Even cycle with grades alternating kappa, eta (kappa > eta > 0)."""

    n: int
    kappa: Membership
    eta: Membership

    def __post_init__(self) -> None:
        if self.n < 4:
            raise BadSpecError(f"cycle length must be at least 4, got {self.n}")
        if self.n % 2 != 0:
            raise BadSpecError(f"cycle length must be even, got {self.n}")
        if self.eta.is_zero:
            raise BadSpecError("eta must be positive")
        if not self.kappa > self.eta:
            raise BadSpecError(
                f"kappa ({self.kappa}) must exceed eta ({self.eta})"
            )


def maximum_spanning_tree(g: FuzzyGraph) -> SpanningTree:
    """Greedy descending-mu Kruskal with lexicographic tie-breaking."""
    return Analysis(g).spanning_tree()


def fuzzy_tree_mst(g: FuzzyGraph) -> SpanningTree | None:
    """The maximum spanning tree if g is a fuzzy tree, else None.

    Every edge outside the tree must be strictly weaker than the strength
    the tree alone achieves between its endpoints.  When that holds the
    tree is automatically the unique maximum spanning tree.
    """
    return Analysis(g).fuzzy_tree_mst()


def is_fuzzy_tree(g: FuzzyGraph) -> bool:
    return fuzzy_tree_mst(g) is not None


def is_fuzzy_cycle(g: FuzzyGraph) -> bool:
    """Crisp cycle through all vertices whose weakest grade ties >= 2."""
    return Analysis(g).is_fuzzy_cycle()


def is_saturated_fuzzy_cycle(g: FuzzyGraph) -> bool:
    return Analysis(g).is_saturated_fuzzy_cycle()


def graph_kind(g: FuzzyGraph) -> GraphKind:
    return Analysis(g).kind()


def _vertex_names(n: int) -> list[VertexId]:
    width = max(2, len(str(n - 1)))
    return [f"v{i:0{width}d}" for i in range(n)]


def make_saturated_cycle(spec: SaturatedCycleSpec) -> FuzzyGraph:
    """Even cycle v0..v(n-1), sigma 1 everywhere, grades kappa/eta alternating."""
    names = _vertex_names(spec.n)
    edges = []
    for i in range(spec.n):
        grade = spec.kappa if i % 2 == 0 else spec.eta
        edges.append((names[i], names[(i + 1) % spec.n], grade))
    return build_graph([(name, ONE) for name in names], edges)


def _decode_pruefer(seq: list[int], n: int) -> list[tuple[int, int]]:
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves: list[int] = []
    for i in range(n):
        if degree[i] == 1:
            heappush(leaves, i)
    edges = []
    for x in seq:
        leaf = heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heappush(leaves, x)
    edges.append((heappop(leaves), heappop(leaves)))
    return edges


def random_fuzzy_tree(seed: int, n: int, extra_edges: int) -> FuzzyGraph:
    """Deterministic random fuzzy tree on n vertices.

    Draws a uniform random labeled tree (via a random Pruefer sequence),
    grades on the {0.01, ..., 1.00} grid with mu <= sigma wedge sigma,
    then adds up to ``extra_edges`` extra edges, each strictly weaker
    than the in-tree strength between its endpoints.  Such edges can
    never enter the maximum spanning tree, so the result is always a
    fuzzy tree.
    """
    if n < 2:
        raise BadParamsError(f"need at least 2 vertices, got {n}")
    if extra_edges < 0:
        raise BadParamsError(f"extra_edges must be >= 0, got {extra_edges}")
    rng = random.Random(seed)
    names = _vertex_names(n)
    sigma = {
        name: Membership(rng.randrange(1, 101) * _GRID) for name in names
    }
    seq = [rng.randrange(n) for _ in range(n - 2)]
    tree_pairs = sorted(
        pair(names[i], names[j]) for i, j in _decode_pruefer(seq, n)
    )
    edges = []
    for u, v in tree_pairs:
        cap = min(sigma[u], sigma[v]).micro // _GRID
        edges.append((u, v, Membership(rng.randrange(1, cap + 1) * _GRID)))
    if extra_edges == 0:
        # nothing below draws from rng then, so this is the same graph
        return build_graph(sigma.items(), edges)
    tree = Analysis(build_graph(sigma.items(), edges))
    in_tree = set(tree_pairs)
    candidates = [
        (u, v)
        for i, u in enumerate(names)
        for v in names[i + 1 :]
        if (u, v) not in in_tree
    ]
    rng.shuffle(candidates)
    added = 0
    for u, v in candidates:
        if added == extra_edges:
            break
        # strictly below the in-tree strength, still on the 0.01 grid
        limit = tree.conn(tree.index[u], tree.index[v]) // _GRID
        if limit <= 1:
            continue
        edges.append((u, v, Membership(rng.randrange(1, limit) * _GRID)))
        added += 1
    return build_graph(sigma.items(), edges)
