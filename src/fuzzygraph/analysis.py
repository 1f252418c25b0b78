"""All per-graph work: one maximum-spanning-forest pass and what it gives.

The strength of connectedness CONN(u, v) is the maximum over all paths
of the minimum edge grade along the path (widest-path semantics).  An
edge is compared against the strength the rest of the graph achieves
between its endpoints: strictly above is alpha-strong, equal is
beta-strong, strictly below is delta.  Alpha and beta edges together are
the strong edges, and the strong geodesic distance d_s is the minimum
total grade of a path over strong edges only.

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
edge outside F; the all-pairs CONN and d_s rows cost O(n^2) and more and
are built only for callers that need them.  The per-edge
remove-and-recompute route lives on in the oracle module as a reference.
The connectivity, indices and structure modules are views over
``Analysis``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from heapq import heappop, heappush
from operator import mul

from .errors import DisconnectedError, StrongDisconnectedError
from .model import MICRO, FuzzyGraph, VertexId

# sigma(u) sigma(v) value, each factor in micro-units
_SUM_SCALE = MICRO**3


class EdgeClass(Enum):
    ALPHA_STRONG = "alpha"
    BETA_STRONG = "beta"
    DELTA = "delta"


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


def _edge_class(grade: int, residual: int) -> EdgeClass:
    if grade > residual:
        return EdgeClass.ALPHA_STRONG
    if grade == residual:
        return EdgeClass.BETA_STRONG
    return EdgeClass.DELTA


def _dijkstra(
    adj: list[list[tuple[int, int]]], source: int
) -> list[int | None]:
    dist: list[int | None] = [None] * len(adj)
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        d, node = heappop(heap)
        if d > dist[node]:
            continue
        for nbr, weight in adj[node]:
            nd = d + weight
            if dist[nbr] is None or nd < dist[nbr]:
                dist[nbr] = nd
                heappush(heap, (nd, nbr))
    return dist


class Analysis:
    """One maximum-spanning-forest pass over a graph, in micro-units.

    Vertex i is the i-th name of ``g.vertices()`` and edge e the e-th
    pair of ``g.edge_pairs()``, so index order is name order.  The
    forest is built eagerly; the rooted forest, the residuals and the
    all-pairs CONN and d_s rows are each built on first use, so a caller
    that needs only the forest pays O(m log m).
    """

    def __init__(self, g: FuzzyGraph):
        names = g.vertices()
        index = {name: i for i, name in enumerate(names)}
        self.names = names
        self.index = index
        self.sigma = [g.sigma(name).micro for name in names]
        self.pairs = pairs = g.edge_pairs()
        self.ends = [(index[u], index[v]) for u, v in pairs]
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
        self._ds: list[list[int | None]] | None = None

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

    def strong_edges(self) -> list[int]:
        """The alpha and beta edges, in edge order."""
        return [
            e
            for e, (grade, res) in enumerate(zip(self.mu, self.residual()))
            if grade >= res
        ]

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

    def ds_rows(self) -> list[list[int | None]]:
        """All-pairs d_s by one Dijkstra per source over the strong
        edges; None when a pair has no strong path."""
        if self._ds is None:
            adj: list[list[tuple[int, int]]] = [[] for _ in self.names]
            for e in self.strong_edges():
                i, j = self.ends[e]
                adj[i].append((j, self.mu[e]))
                adj[j].append((i, self.mu[e]))
            self._ds = [_dijkstra(adj, source) for source in range(len(adj))]
        return self._ds

    def require_strong_paths(self) -> None:
        """Raise StrongDisconnectedError for the first pair, in
        lexicographic order, with no strong path.  Strong reachability
        is an equivalence, so when some pair has no strong path the
        first vertex has none to some vertex, and the first such pair is
        in row 0."""
        rows = self.ds_rows()
        if rows and None in rows[0]:
            raise StrongDisconnectedError(
                f"no strong path between {self.names[0]!r} and "
                f"{self.names[rows[0].index(None)]!r}"
            )

    def pair_sum(self, rows: list[list[int]]) -> Fraction:
        """Sum of sigma(u) sigma(v) rows[u][v] over pairs u < v."""
        sigma, total = self.sigma, 0
        for i, row in enumerate(rows):
            total += sigma[i] * sum(map(mul, sigma[i + 1 :], row[i + 1 :]))
        return Fraction(total, _SUM_SCALE)

    def wiener(self) -> Fraction:
        """WI; raises StrongDisconnectedError when some pair has no
        strong path."""
        self.require_strong_paths()
        return self.pair_sum(self.ds_rows())

    def connectivity(self) -> Fraction:
        """CI; always defined."""
        return self.pair_sum(self.conn_rows())

    def zero_sigma_vertices(self) -> tuple[VertexId, ...]:
        return tuple(
            name for name, grade in zip(self.names, self.sigma) if grade == 0
        )

    def spanning_tree(self) -> SpanningTree:
        """The maximum spanning forest as a tree; DisconnectedError when
        the graph is empty or not crisp-connected."""
        if not self.names:
            raise DisconnectedError("empty graph has no spanning tree")
        if self.components > 1:
            raise DisconnectedError("graph is not crisp-connected")
        chosen = [e for e, kept in enumerate(self.in_forest) if kept]
        return SpanningTree(
            tuple(self.pairs[e] for e in chosen),
            Fraction(sum(self.mu[e] for e in chosen), MICRO),
        )

    def is_fuzzy_forest(self) -> bool:
        """Every edge outside the forest is delta, i.e. strictly weaker
        than the forest's strength between its endpoints."""
        residual = self.residual()
        return all(
            self.mu[e] < residual[e]
            for e, kept in enumerate(self.in_forest)
            if not kept
        )

    def fuzzy_tree_mst(self) -> SpanningTree | None:
        tree = self.spanning_tree()
        return tree if self.is_fuzzy_forest() else None

    def is_fuzzy_cycle(self) -> bool:
        """Crisp cycle through all vertices whose weakest grade ties >= 2."""
        n, mu = len(self.names), self.mu
        if n < 3 or len(mu) != n or self.components != 1:
            return False
        degree = [0] * n
        for i, j in self.ends:
            degree[i] += 1
            degree[j] += 1
        return all(d == 2 for d in degree) and mu.count(min(mu)) >= 2

    def is_saturated_fuzzy_cycle(self) -> bool:
        """A fuzzy cycle whose every vertex meets at least one alpha and
        one beta edge."""
        if not self.is_fuzzy_cycle():
            return False
        incident: list[set[EdgeClass]] = [set() for _ in self.names]
        for (i, j), edge_class in zip(self.ends, self.edge_classes()):
            incident[i].add(edge_class)
            incident[j].add(edge_class)
        return all(
            EdgeClass.ALPHA_STRONG in classes
            and EdgeClass.BETA_STRONG in classes
            for classes in incident
        )

    def kind(self) -> GraphKind:
        connected = self.components <= 1
        return GraphKind(
            connected,
            connected and bool(self.names) and self.is_fuzzy_forest(),
            self.is_fuzzy_cycle(),
            self.is_saturated_fuzzy_cycle(),
        )
