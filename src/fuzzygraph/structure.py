"""Spanning structure: maximum spanning trees, fuzzy trees, fuzzy cycles.

A fuzzy tree is a connected graph whose maximum spanning tree F beats
every left-out edge strictly: mu(uv) < strength of connectedness between
u and v inside F.  A fuzzy cycle is a crisp cycle whose weakest grade is
attained at least twice.  A saturated fuzzy cycle additionally touches
every vertex with at least one alpha-strong and one beta-strong edge.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush

from .connectivity import EdgeClass, _Analysis
from .errors import BadParamsError, BadSpecError, DisconnectedError
from .model import (
    MICRO,
    ONE,
    FuzzyGraph,
    Membership,
    VertexId,
    build_graph,
    pair,
)

_GRID = 10_000  # micro-units per 0.01 step used by the random generator


@dataclass(frozen=True)
class SpanningTree:
    """Edge set of a spanning tree plus its total strength (sum of mu)."""

    edges: tuple[tuple[VertexId, VertexId], ...]
    total_strength: Fraction


@dataclass(frozen=True)
class GraphKind:
    """Structure flags.  The empty graph (no vertices) is connected, has
    no spanning tree, and so is no fuzzy tree."""

    is_connected: bool
    is_fuzzy_tree: bool
    is_fuzzy_cycle: bool
    is_saturated_fuzzy_cycle: bool


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


def _spanning_tree(g: FuzzyGraph, analysis: _Analysis) -> SpanningTree:
    if g.vertex_count == 0:
        raise DisconnectedError("empty graph has no spanning tree")
    if analysis.components > 1:
        raise DisconnectedError("graph is not crisp-connected")
    chosen = [e for e, kept in enumerate(analysis.in_forest) if kept]
    pairs = g.edge_pairs()
    return SpanningTree(
        tuple(pairs[e] for e in chosen),
        Fraction(sum(analysis.mu[e] for e in chosen), MICRO),
    )


def maximum_spanning_tree(g: FuzzyGraph) -> SpanningTree:
    """Greedy descending-mu Kruskal with lexicographic tie-breaking."""
    return _spanning_tree(g, _Analysis(g))


def _is_fuzzy_forest(analysis: _Analysis) -> bool:
    """Every edge outside the forest is delta, i.e. strictly weaker than
    the forest's strength between its endpoints."""
    residual = analysis.residual()
    return all(
        analysis.mu[e] < residual[e]
        for e, kept in enumerate(analysis.in_forest)
        if not kept
    )


def fuzzy_tree_mst(g: FuzzyGraph) -> SpanningTree | None:
    """The maximum spanning tree if g is a fuzzy tree, else None.

    Every edge outside the tree must be strictly weaker than the strength
    the tree alone achieves between its endpoints.  When that holds the
    tree is automatically the unique maximum spanning tree.
    """
    return _fuzzy_tree_mst(g, _Analysis(g))


def _fuzzy_tree_mst(g: FuzzyGraph, analysis: _Analysis) -> SpanningTree | None:
    tree = _spanning_tree(g, analysis)
    return tree if _is_fuzzy_forest(analysis) else None


def is_fuzzy_tree(g: FuzzyGraph) -> bool:
    return fuzzy_tree_mst(g) is not None


def is_fuzzy_cycle(g: FuzzyGraph) -> bool:
    """Crisp cycle through all vertices whose weakest grade ties >= 2."""
    n = g.vertex_count
    if n < 3 or g.edge_count != n:
        return False
    if any(len(g.neighbors(name)) != 2 for name in g.vertices()):
        return False
    if not g.is_crisp_connected():
        return False
    weakest = min(grade for _, _, grade in g.edges())
    ties = sum(1 for _, _, grade in g.edges() if grade == weakest)
    return ties >= 2


def _touches_alpha_and_beta(analysis: _Analysis) -> bool:
    """Every vertex meets at least one alpha and one beta edge."""
    incident: list[set[EdgeClass]] = [set() for _ in analysis.names]
    for (i, j), edge_class in zip(analysis.ends, analysis.edge_classes()):
        incident[i].add(edge_class)
        incident[j].add(edge_class)
    return all(
        EdgeClass.ALPHA_STRONG in classes and EdgeClass.BETA_STRONG in classes
        for classes in incident
    )


def is_saturated_fuzzy_cycle(g: FuzzyGraph) -> bool:
    return is_fuzzy_cycle(g) and _touches_alpha_and_beta(_Analysis(g))


def _graph_kind(g: FuzzyGraph, analysis: _Analysis) -> GraphKind:
    connected = analysis.components <= 1
    fuzzy_tree = (
        connected and g.vertex_count >= 1 and _is_fuzzy_forest(analysis)
    )
    cycle = is_fuzzy_cycle(g)
    saturated = cycle and _touches_alpha_and_beta(analysis)
    return GraphKind(connected, fuzzy_tree, cycle, saturated)


def graph_kind(g: FuzzyGraph) -> GraphKind:
    return _graph_kind(g, _Analysis(g))


def _cycle_names(n: int) -> list[VertexId]:
    width = max(2, len(str(n - 1)))
    return [f"v{i:0{width}d}" for i in range(n)]


def make_saturated_cycle(spec: SaturatedCycleSpec) -> FuzzyGraph:
    """Even cycle v0..v(n-1), sigma 1 everywhere, grades kappa/eta alternating."""
    names = _cycle_names(spec.n)
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
    width = max(2, len(str(n - 1)))
    names = [f"v{i:0{width}d}" for i in range(n)]
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
    tree = _Analysis(build_graph(sigma.items(), edges))
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
