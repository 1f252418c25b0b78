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
from itertools import combinations

from .analysis import Analysis, GraphKind, MergeTree, SpanningTree
from .errors import BadParamsError, BadSpecError
from .model import MICRO, FuzzyGraph, Membership, VertexId, key_bits

_GRID = 10_000  # micro-units per 0.01 step used by the random generator


@dataclass(frozen=True)
class SaturatedCycleSpec:
    """Even cycle with grades alternating kappa, eta (kappa > eta > 0)."""

    n: int
    kappa: Membership
    eta: Membership

    def __post_init__(self) -> None:
        # make_saturated_cycle lays the cycle out on this check alone
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise BadSpecError(f"cycle length must be an int, got {self.n!r}")
        for name in ("kappa", "eta"):
            grade = getattr(self, name)
            if not isinstance(grade, Membership):
                raise BadSpecError(f"{name} must be a Membership, got {grade!r}")
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
    analysis = Analysis(g)
    tree = analysis.spanning_tree()
    return tree if analysis.is_fuzzy_forest() else None


def is_fuzzy_tree(g: FuzzyGraph) -> bool:
    return fuzzy_tree_mst(g) is not None


def is_fuzzy_cycle(g: FuzzyGraph) -> bool:
    """Crisp cycle through all vertices whose weakest grade ties >= 2."""
    return Analysis(g).is_fuzzy_cycle()


def is_saturated_fuzzy_cycle(g: FuzzyGraph) -> bool:
    return Analysis(g).kind().is_saturated_fuzzy_cycle


def graph_kind(g: FuzzyGraph) -> GraphKind:
    return Analysis(g).kind()


# per name width, the names v0.. padded to it, as many as the largest n
# of that width asked for so far: each name is formatted once, and the
# memory stays within the largest n built
_NAMES_BY_WIDTH: dict[int, list[VertexId]] = {}


def _vertex_names(n: int) -> list[VertexId]:
    """v00, v01, ..., each name zero-padded to the width of n - 1 (at
    least 2), so the names sort in index order."""
    width = max(2, len(str(n - 1)))
    names = _NAMES_BY_WIDTH.setdefault(width, [])
    if len(names) < n:
        names += [f"v{i:0{width}d}" for i in range(len(names), n)]
    return names[:n]


def make_saturated_cycle(spec: SaturatedCycleSpec) -> FuzzyGraph:
    """Even cycle v0..v(n-1), sigma 1 everywhere, grades kappa/eta
    alternating.  The checked spec makes the graph valid by
    construction (n >= 4 distinct names, 0 < eta < kappa <= 1 = sigma),
    so it goes straight to ``FuzzyGraph._layout`` with no ``_fill``:
    the names sort in index order and edge i j is keyed ``i << bits |
    j``, with the ``key_bits`` of n."""
    n = spec.n
    bits = key_bits(n)
    grades = [spec.kappa.micro, spec.eta.micro] * (n // 2)
    mu = {i << bits | i + 1: w for i, w in zip(range(n - 1), grades)}
    mu[n - 1] = spec.eta.micro  # the closing edge v0 v(n-1)
    graph = FuzzyGraph.__new__(FuzzyGraph)
    return graph._layout(_vertex_names(n), [MICRO] * n, mu)


def _decode_pruefer(seq: list[int], n: int) -> list[tuple[int, int]]:
    """The edges (leaf, parent) of the labeled tree on n vertices with
    Pruefer sequence ``seq``, each leaf the smallest one left, then the
    last two vertices.  O(n): ``low`` only moves up, since a vertex that
    becomes a leaf below it is taken at once, as the smallest leaf."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    low = leaf = degree.index(1)
    edges = []
    for x in seq:
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1 and x < low:
            leaf = x
        else:
            low += 1
            while degree[low] != 1:
                low += 1
            leaf = low
    # the largest vertex is never the smallest leaf while two are left
    edges.append((leaf, n - 1))
    return edges


def random_fuzzy_tree(seed: int, n: int, extra_edges: int) -> FuzzyGraph:
    """Deterministic random fuzzy tree on n vertices.

    Draws a uniform random labeled tree (via a random Pruefer sequence),
    grades on the {0.01, ..., 1.00} grid with mu <= sigma wedge sigma,
    then adds up to ``extra_edges`` extra edges, each strictly weaker
    than the in-tree strength between its endpoints.  Such edges can
    never enter the maximum spanning tree, so the result is always a
    fuzzy tree.

    Like the parser's records, the graph is valid by construction: the
    names are distinct, every sigma is on the grid in (0, 1], every tree
    edge is graded at most the smaller sigma of its ends, and every
    extra edge is graded below the weakest tree edge on its path.  So it goes
    straight to ``FuzzyGraph._layout``, with no check of ``_fill``.

    Cost: one ``FuzzyGraph`` and O(n log n) for the sorted edges; the
    Pruefer decode is O(n), and the names are sliced from the ones
    ``_vertex_names`` formatted for an earlier tree, formatted anew only
    beyond the largest n of their width built so far.  With
    ``extra_edges > 0`` it also lists and shuffles all (n-1)(n-2)/2
    pairs outside the tree, O(n^2) time and memory: ``shuffle`` draws
    once per candidate, so a shorter list would change every tree drawn
    from a seed.  The in-tree strength of each candidate tried is CONN
    on the tree, read in O(log n) by the climb of one
    ``analysis.MergeTree`` of the tree.

    Raises BadParamsError when n or ``extra_edges`` is no int (a bool
    is none either), n < 2 or ``extra_edges`` < 0.
    """
    for name, count in (("vertex count", n), ("extra_edges", extra_edges)):
        if not isinstance(count, int) or isinstance(count, bool):
            raise BadParamsError(f"{name} must be an int, got {count!r}")
    if n < 2:
        raise BadParamsError(f"need at least 2 vertices, got {n}")
    if extra_edges < 0:
        raise BadParamsError(f"extra_edges must be >= 0, got {extra_edges}")
    rng = random.Random(seed)
    # the names sort in index order, so pair (i, j) with i < j is in
    # name order too and is keyed i << bits | j for the layout
    names = _vertex_names(n)
    bits = key_bits(n)
    sigma = [rng.randrange(1, 101) * _GRID for _ in names]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    tree_pairs = sorted(
        (min(ends), max(ends)) for ends in _decode_pruefer(seq, n)
    )
    mu = [
        rng.randrange(1, min(sigma[i], sigma[j]) // _GRID + 1) * _GRID
        for i, j in tree_pairs
    ]
    edges = {i << bits | j: w for (i, j), w in zip(tree_pairs, mu)}
    graph = FuzzyGraph.__new__(FuzzyGraph)
    if extra_edges == 0:
        # nothing below draws from rng then, so this is the same graph
        return graph._layout(names, sigma, edges)
    in_tree = set(tree_pairs)
    candidates = [ij for ij in combinations(range(n), 2) if ij not in in_tree]
    rng.shuffle(candidates)
    added = 0
    conn = MergeTree(n, tree_pairs, mu).conn(candidates)
    for (i, j), strength in zip(candidates, conn):
        # strictly below the in-tree strength, still on the 0.01 grid
        limit = strength // _GRID
        if limit <= 1:
            continue
        edges[i << bits | j] = rng.randrange(1, limit) * _GRID
        added += 1
        if added == extra_edges:
            break
    return graph._layout(names, sigma, edges)
