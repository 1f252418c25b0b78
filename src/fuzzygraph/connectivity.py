"""All-pairs max-min connection strength and edge classification.

The strength of connectedness between two vertices is the maximum over
all paths of the minimum edge grade along the path (widest-path
semantics).  An edge is compared against the strength the rest of the
graph achieves between its endpoints: strictly above is alpha-strong,
equal is beta-strong, strictly below is delta.  Alpha and beta edges
together are the strong edges.

Everything here is read off one maximum spanning forest F, built by
Kruskal on integer micro-units:

- CONN(u, v) is the weakest grade on the u-v path in F, or 0 when u and
  v lie in different trees (the maximum capacity route property, Hu
  1961).
- The residual of an edge outside F is CONN_F between its endpoints,
  because F is also a maximum spanning forest of the graph without it.
- The residual of an edge of F is the largest grade among the edges
  outside F whose fundamental cycle passes through it, or 0 when there
  is none: the best replacement edge of MST sensitivity analysis
  (Tarjan 1982).

Classifying every edge costs O(m log m) plus one forest path walk per
edge outside F; the all-pairs CONN table costs O(n^2) and is built only
for callers that need it.  The per-edge remove-and-recompute route lives
on in the oracle module as a reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .model import (
    MICRO,
    FuzzyGraph,
    Membership,
    PairTable,
    VertexId,
    pair,
)


class EdgeClass(Enum):
    ALPHA_STRONG = "alpha"
    BETA_STRONG = "beta"
    DELTA = "delta"


@dataclass(frozen=True)
class EdgeClassification:
    """Classification of one edge together with the evidence for it.

    ``residual`` is the strength of connectedness between the endpoints
    in the graph without the edge, 0 when the edge is a bridge.
    """

    grade: Membership
    residual: Membership
    edge_class: EdgeClass


def _edge_class(grade: int, residual: int) -> EdgeClass:
    if grade > residual:
        return EdgeClass.ALPHA_STRONG
    if grade == residual:
        return EdgeClass.BETA_STRONG
    return EdgeClass.DELTA


class _Analysis:
    """One maximum-spanning-forest pass over a graph, in micro-units.

    Vertex i is the i-th name of ``g.vertices()`` and edge e the e-th
    edge of ``g.edges()``, so index order is name order.  The forest is
    built eagerly; the rooted forest, the residuals and the all-pairs
    CONN rows are each built on first use, so a caller that needs only
    the forest pays O(m log m).
    """

    def __init__(self, g: FuzzyGraph):
        names = g.vertices()
        index = {name: i for i, name in enumerate(names)}
        self.names = names
        self.index = index
        self.sigma = [g.sigma(name).micro for name in names]
        self.ends = [(index[u], index[v]) for u, v in g.edge_pairs()]
        self.mu = mu = [grade.micro for _, _, grade in g.edges()]
        # Kruskal by descending grade; the sort is stable, so ties keep
        # the lexicographic (u, v) order of the edges.
        self.order = sorted(range(len(mu)), key=mu.__getitem__, reverse=True)
        boss = list(range(len(names)))
        self.in_forest = in_forest = [False] * len(mu)
        forest_size = 0
        for e in self.order:
            i, j = self.ends[e]
            while boss[i] != i:
                boss[i] = i = boss[boss[i]]
            while boss[j] != j:
                boss[j] = j = boss[boss[j]]
            if i != j:
                boss[j] = i
                in_forest[e] = True
                forest_size += 1
        self.components = len(names) - forest_size
        self._rooted: tuple[list[int], list[int], list[int]] | None = None
        self._residual: list[int] | None = None
        self._conn: list[list[int]] | None = None

    def _forest_adjacency(self) -> list[list[tuple[int, int]]]:
        adj: list[list[tuple[int, int]]] = [[] for _ in self.names]
        for e, (i, j) in enumerate(self.ends):
            if self.in_forest[e]:
                adj[i].append((j, e))
                adj[j].append((i, e))
        return adj

    def rooted(self) -> tuple[list[int], list[int], list[int]]:
        """(parent, parent edge, depth) with each tree rooted at its
        lowest index; a root has parent -1."""
        if self._rooted is None:
            n = len(self.names)
            up, up_edge, depth = [-1] * n, [-1] * n, [0] * n
            seen = [False] * n
            adj = self._forest_adjacency()
            for root in range(n):
                if seen[root]:
                    continue
                seen[root] = True
                stack = [root]
                while stack:
                    x = stack.pop()
                    for y, e in adj[x]:
                        if not seen[y]:
                            seen[y] = True
                            up[y], up_edge[y], depth[y] = x, e, depth[x] + 1
                            stack.append(y)
            self._rooted = (up, up_edge, depth)
        return self._rooted

    def conn(self, i: int, j: int) -> int:
        """CONN between distinct vertices i and j: the weakest grade on
        their forest path, 0 when they lie in different trees."""
        up, up_edge, depth = self.rooted()
        mu = self.mu
        weakest = MICRO
        while i != j:
            if depth[i] < depth[j]:
                i, j = j, i
            if up[i] < 0:
                return 0
            grade = mu[up_edge[i]]
            if grade < weakest:
                weakest = grade
            i = up[i]
        return weakest

    def residual(self) -> list[int]:
        """Per edge, CONN between its endpoints without the edge."""
        if self._residual is None:
            up, up_edge, depth = self.rooted()
            mu, ends = self.mu, self.ends
            residual = [0] * len(mu)
            # jump[x] leads towards the nearest ancestor-or-self of x whose
            # parent edge has no residual yet; the descending sweep gives
            # each forest edge the grade of the first cycle that covers it.
            jump = list(range(len(self.names)))

            def find(x: int) -> int:
                top = x
                while jump[top] != top:
                    top = jump[top]
                while jump[x] != top:
                    jump[x], x = top, jump[x]
                return top

            for e in self.order:
                if self.in_forest[e]:
                    continue
                i, j = ends[e]
                residual[e] = self.conn(i, j)
                a, b = find(i), find(j)
                while a != b:
                    if depth[a] < depth[b]:
                        a, b = b, a
                    residual[up_edge[a]] = mu[e]
                    jump[a] = up[a]
                    a = find(a)
            self._residual = residual
        return self._residual

    def edge_classes(self) -> list[EdgeClass]:
        return [
            _edge_class(grade, res)
            for grade, res in zip(self.mu, self.residual())
        ]

    def strong_adjacency(self) -> list[list[tuple[int, int]]]:
        """Per vertex, (neighbour, grade) over alpha and beta edges."""
        adj: list[list[tuple[int, int]]] = [[] for _ in self.names]
        for (i, j), grade, res in zip(self.ends, self.mu, self.residual()):
            if grade >= res:
                adj[i].append((j, grade))
                adj[j].append((i, grade))
        return adj

    def conn_rows(self) -> list[list[int]]:
        """All-pairs CONN by one forest walk per source; O(n^2)."""
        if self._conn is None:
            adj = self._forest_adjacency()
            mu = self.mu
            rows = []
            for source in range(len(self.names)):
                row = [0] * len(self.names)
                # grades are positive, so 0 marks an unreached vertex;
                # the source holds MICRO, the identity of min, meanwhile
                row[source] = MICRO
                stack = [source]
                while stack:
                    x = stack.pop()
                    reach = row[x]
                    for y, e in adj[x]:
                        if row[y] == 0:
                            grade = mu[e]
                            row[y] = grade if grade < reach else reach
                            stack.append(y)
                row[source] = 0
                rows.append(row)
            self._conn = rows
        return self._conn


def strength_of_connectedness(g: FuzzyGraph) -> PairTable[Membership]:
    """CONN for every unordered pair, read off the maximum spanning forest;
    pairs in different crisp components have strength 0."""
    analysis = _Analysis(g)
    return PairTable(analysis.names, analysis.conn_rows(), Membership)


def classify_edge(g: FuzzyGraph, u: VertexId, v: VertexId) -> EdgeClass:
    """Classify one edge as alpha-strong, beta-strong or delta."""
    g.mu(u, v)  # raises NoSuchEdgeError when uv is not an edge
    return classify_edges(g)[pair(u, v)].edge_class


def classify_edges(
    g: FuzzyGraph,
) -> dict[tuple[VertexId, VertexId], EdgeClassification]:
    """Classify every edge; keys are canonical unordered pairs."""
    residual = _Analysis(g).residual()
    return {
        (u, v): EdgeClassification(
            grade, Membership(res), _edge_class(grade.micro, res)
        )
        for (u, v, grade), res in zip(g.edges(), residual)
    }


def strong_subgraph(g: FuzzyGraph) -> FuzzyGraph:
    """Same vertices, only the alpha-strong and beta-strong edges."""
    residual = _Analysis(g).residual()
    keep = [
        (u, v)
        for (u, v, grade), res in zip(g.edges(), residual)
        if grade.micro >= res
    ]
    return g.edge_subgraph(keep)
