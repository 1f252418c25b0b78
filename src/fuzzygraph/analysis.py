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
  because F is also a maximum spanning forest of the graph without it:
  the grade of the Kruskal merge that joined them.  The Kruskal pass
  joins parts by union by size, so its own union-find is a merge tree
  of depth at most log2(n) to climb.
- The residual of an edge of F is the largest grade among the edges
  outside F whose fundamental cycle passes through it, or 0 when there
  is none: the best replacement edge of MST sensitivity analysis
  (Tarjan 1982).  By the cycle property it is at most the edge's own
  grade, so every edge of F is strong.
- An edge is strong iff it lies in some maximum spanning forest
  (Mathew and Sunitha 2009).  So an edge outside F graded w is strong
  iff its ends were first joined by a merge of grade w itself, which
  the merge tree tells with no residual: its labels never increase
  along a climb, and the climbs from the two ends while the label
  exceeds w stop at the parts the ends were in when the pass reached
  w.  Different parts mean a tie, beta; one part means delta.

The strong edges, and so ``kind`` and the shape of the strong subgraph,
cost O(m log m) plus O(log n) per edge outside F, on any forest shape,
and read no residual.  Classifying every edge needs the residuals: the
``MergeTree`` climb per edge outside F and one descending sweep over
the rooted forest for those of F; that sweep and the bridges of a fuzzy
forest are all that root the forest.  Each answer is computed when
asked and kept only where two readers in one command share it.  The
connectivity index CI is summed by replaying the recorded merges, one
multiply-add per merge.  The Wiener index WI is one sum over the blocks
of the strong subgraph, walked as one method chooses by shape for WI and
the d_s rows alike: O(n) on a fuzzy tree, whose strong subgraph is F and
whose blocks are the edges of F, read off the rooted forest, and on a
fuzzy cycle, whose edges are all strong and so one block, walked once
around; otherwise one block decomposition of the strong subgraph: O(1)
per bridge, O(k) per cycle block of k edges, and one Dijkstra per vertex
only inside the other blocks.  The walk around a fuzzy cycle is also its
only test: run only on a connected graph of n vertices and n edges
whose weakest grade ties (so n >= 3), it gives a block iff every vertex
meets two edges; it is saturated iff weakest and other grades alternate
around it.  The Kruskal sum is also CI(F) of the forest as a graph on
its own, and on a fuzzy tree the block sum is also WI(F), with no second
graph or pass.  The all-pairs CONN and d_s rows, built only for callers
that print them, come from the same two decompositions: each Kruskal
merge sets CONN and each strong block d_s across the parts it joins, one
store per pair plus the Dijkstra runs inside the blocks that are neither
bridges nor cycles; a cycle block reads its distances off the positions
around it.  The per-edge remove-and-recompute route lives on in the
oracle module as a reference.  The connectivity, indices and structure
modules are views over ``Analysis``.  CONN between two vertices has one
route, the climb of ``MergeTree``: ``Analysis`` builds on it,
``require_strong_paths`` climbs from vertex 0 to name a pair in two
trees, and ``structure.random_fuzzy_tree`` runs it over its own tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from heapq import heappop, heappush
from itertools import accumulate, compress, repeat
from operator import mul, ne, not_
from typing import Iterable, Iterator, Sequence

from .errors import DisconnectedError, StrongDisconnectedError
from .model import MICRO, FuzzyGraph, VertexId

# sigma(u) sigma(v) value, each factor in micro-units
_SUM_SCALE = MICRO**3

# (parent, parent edge, depth, preorder) of the rooted forest
Rooted = tuple[list[int], list[int], list[int], list[int]]
# the edges (from, to, grade) of a strong block, in the order the DFS
# pushed them or around a fuzzy cycle: first an edge from the block's top
Block = list[tuple[int, int, int]]


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


def _cycle_walk(ends: Sequence[tuple[int, int]], mu: Sequence[int]) -> Block | None:
    """The n edges of a connected graph on n vertices as one block,
    walked in order around it from vertex 0: (x0, x1, g), ...,
    (x_{n-1}, x0, g); None unless every vertex meets exactly two."""
    around: list[list[tuple[int, int]]] = [[] for _ in mu]
    for (i, j), grade in zip(ends, mu):
        around[i].append((j, grade))
        around[j].append((i, grade))
    if not all(len(near) == 2 for near in around):
        return None
    block: Block = []
    back, x = -1, 0
    for _ in around:
        (y, grade), ahead = around[x]
        if y == back:
            y, grade = ahead
        block.append((x, y, grade))
        back, x = x, y
    return block


def _dijkstra(adj: list[list[tuple[int, int]]], source: int) -> list[int]:
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


def _block_vertices(block: Block) -> list[int]:
    """The vertices of a block of two or more edges, top first: the tails
    of its tree and back edges, in order around it for a cycle."""
    return [*dict.fromkeys([a for a, _, _ in block])]


def _arcs(block: Block) -> tuple[list[int], int]:
    """Of a cycle block, its vertices in order around it: each one's
    distance from the top along the walk, and the cycle's length."""
    position = list(accumulate((g for _, _, g in block[:-1]), initial=0))
    return position, position[-1] + block[-1][2]


def _block_distances(vertices: list[int], block: Block) -> Iterator[list]:
    """d_B between the ``vertices`` of block B, by position, each row
    built as it is read: the shorter arc around a cycle, else one
    Dijkstra over the edges of B per source."""
    if len(vertices) == len(block):
        position, length = _arcs(block)
        return (
            [min(d, length - d) for d in (abs(p - q) for q in position)]
            for p in position
        )
    index = {x: i for i, x in enumerate(vertices)}
    adj: list[list[tuple[int, int]]] = [[] for _ in vertices]
    for a, b, grade in block:
        adj[index[a]].append((index[b], grade))
        adj[index[b]].append((index[a], grade))
    return map(_dijkstra, repeat(adj), range(len(adj)))


def _block_sum(block: Block, weight: list[int], whole: int) -> int:
    """Sum of d_B(x, y) W_B(x) W_B(y) over the pairs of one block B with
    two or more edges, given W_B(x) as ``weight[x]`` for each vertex x
    of B but its top t; W_B(t) is ``whole`` less their sum.  Merges
    their weights into ``weight[t]``."""
    vertices = _block_vertices(block)
    part = [weight[x] for x in vertices]
    rest = sum(part) - part[0]
    weight[vertices[0]] += rest
    part[0] = whole - rest
    k = len(block)
    if len(vertices) == k:
        # |E_B| = |V_B|: a cycle, its vertices in order around it
        position, length = _arcs(block)
        cw = list(accumulate(part, initial=0))
        cpw = list(accumulate(map(mul, position, part), initial=0))
        # pairs (i, j <= r) take the arc forward, pairs (i, j > r) the
        # arc back through the top; r only grows with i
        total = r = 0
        for i, here in enumerate(position):
            while r + 1 < k and 2 * (position[r + 1] - here) <= length:
                r += 1
            near = cpw[r + 1] - cpw[i + 1] - here * (cw[r + 1] - cw[i + 1])
            far = (length + here) * (cw[k] - cw[r + 1]) - (cpw[k] - cpw[r + 1])
            total += part[i] * (near + far)
        return total
    total = 0
    # the last source adds no pair, so zip never runs its Dijkstra
    for s, row in zip(range(len(part) - 1), _block_distances(vertices, block)):
        total += part[s] * sum(map(mul, part[s + 1 :], row[s + 1 :]))
    return total


class MergeTree:
    """The Kruskal pass over a graph's n vertices and edges ``ends``
    graded ``mu`` in micro-units, and the merge tree it leaves.

    Edges are taken by descending grade; the sort is stable, so ties
    keep the order of ``ends``.  Parts are joined by union by size with
    no path compression.  Each absorbed root x records its parent up[x],
    the grade label[x] of the merge and its size then; a root is its
    own parent, keeps label 0 and its part's size.  A parent is strictly
    larger than each child, so the tree is at most log2(n) deep and a
    find or a climb costs O(log n).
    """

    def __init__(
        self, n: int, ends: Sequence[tuple[int, int]], mu: Sequence[int]
    ):
        self.order = sorted(range(len(mu)), key=mu.__getitem__, reverse=True)
        self._up = up = list(range(n))
        self._label = label = [0] * n
        self._size = size = [1] * n
        # the absorbed roots, in merge order
        self._merged: list[int] = []
        merged = self._merged
        self.in_forest = in_forest = [False] * len(mu)
        for e in self.order:
            i, j = ends[e]
            while up[i] != i:
                i = up[i]
            while up[j] != j:
                j = up[j]
            if i != j:
                if size[i] < size[j]:
                    i, j = j, i
                size[i] += size[j]
                up[j], label[j] = i, mu[e]
                merged.append(j)
                in_forest[e] = True
        self.components = n - len(merged)

    def conn(self, pairs: Iterable[tuple[int, int]]) -> Iterator[int]:
        """CONN between the distinct vertices of each pair, one pair at
        a time: climbing from both ends to their lowest common ancestor,
        the weakest label met is the grade of the merge that joined
        them.  From ends in different trees the climb reaches a root,
        whose label 0 stops it; every merge label is positive.  O(log n)
        per pair."""
        up, label, size = self._up, self._label, self._size
        for i, j in pairs:
            weakest = MICRO
            while i != j and weakest:
                # the smaller end is below their common ancestor
                if size[i] > size[j]:
                    i, j = j, i
                if label[i] < weakest:
                    weakest = label[i]
                i = up[i]
            yield weakest


class Analysis(MergeTree):
    """One maximum-spanning-forest pass over a graph, in micro-units.

    ``names``, ``sigma``, ``ends`` and ``mu`` are the graph's own
    tuples, indexed as ``FuzzyGraph`` describes; ties in the Kruskal
    order keep the lexicographic (u, v) order of the edges.  The forest
    and its merge tree are built eagerly, so a caller that needs only
    the forest pays O(m log m); everything else is computed when asked.
    An answer is kept only where two readers in one command share it:
    the strong edges outside F (``kind`` and ``_strong_blocks``), the
    residuals (``residual`` and ``edge_classes``, both read by
    ``classify``) and a fuzzy cycle's walk, or None (``kind`` and
    ``_strong_blocks``).  CI, the rooted forest and the all-pairs CONN
    and d_s rows are computed on each call; no command asks for one
    twice.  The rooted forest is built only for the residuals and the
    strong blocks of a fuzzy forest.
    """

    def __init__(self, g: FuzzyGraph):
        self.names = names = g.vertices()
        self.sigma = g.sigma_micro
        self.ends = ends = g.ends
        self.mu = mu = g.mu_micro
        super().__init__(len(names), ends, mu)
        self._strong: list[int] | None = None
        self._residual: list[int] | None = None
        # the fuzzy cycle's block, None on any other graph; [] until asked
        self._cycle: Block | None = []

    def rooted(self) -> Rooted:
        """(parent, parent edge, depth, preorder) of the forest, each
        tree rooted at its lowest vertex; a root has parent -1.  The
        preorder lists every vertex after its parent, tree by tree in
        order of their roots.  Built on each call."""
        n = len(self.names)
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for e in compress(range(len(self.mu)), self.in_forest):
            i, j = self.ends[e]
            adj[i].append((j, e))
            adj[j].append((i, e))
        up, up_edge, depth = [-1] * n, [-1] * n, [0] * n
        preorder: list[int] = []
        seen = [False] * n
        for root in range(n):
            if seen[root]:
                continue
            seen[root] = True
            stack = [root]
            while stack:
                x = stack.pop()
                preorder.append(x)
                for y, e in adj[x]:
                    if not seen[y]:
                        seen[y] = True
                        up[y], up_edge[y], depth[y] = x, e, depth[x] + 1
                        stack.append(y)
        return up, up_edge, depth, preorder

    def strong_outside(self) -> list[int]:
        """The strong edges outside F, in edge order, read off the final
        merge tree with no residual.  Along any climb the labels never
        increase, so climbing from a vertex while ``label[x] > w`` stops
        at the root its part had when the pass reached grade w.  An edge
        outside F graded w joins ends already joined when it is taken: if
        the two climbs stop at different roots, its ends were joined at w
        itself, CONN_F = w ties its grade and it is beta; if they stop at
        one root, they were joined above w and it is delta.  Built on
        first use, after the pass, so ``mst`` never pays for it.
        O(log n) per edge outside F."""
        if self._strong is None:
            up, label, mu, ends = self._up, self._label, self.mu, self.ends
            strong = []
            if len(self._merged) < len(mu):
                for e, kept in enumerate(self.in_forest):
                    if kept:
                        continue
                    w = mu[e]
                    i, j = ends[e]
                    while label[i] > w:
                        i = up[i]
                    while label[j] > w:
                        j = up[j]
                    if i != j:
                        strong.append(e)
            self._strong = strong
        return self._strong

    def residual(self) -> list[int]:
        """Per edge, CONN between its endpoints without the edge: for an
        edge outside F, CONN_F between its ends by the ``conn`` climb,
        O(log n) each; for an edge of F, by one descending sweep over the
        rooted forest.  Whether an edge is strong comes from
        ``strong_outside`` alone: only the edge classes and the report
        that prints them read this."""
        if self._residual is None:
            up, up_edge, depth, _ = self.rooted()
            mu, ends, kept = self.mu, self.ends, self.in_forest
            climb = self.conn(compress(ends, map(not_, kept)))
            residual = [0 if k else next(climb) for k in kept]
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
                if kept[e]:
                    continue
                i, j = ends[e]
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
        """The alpha and beta edges, in edge order: the edges of F and
        ``strong_outside``.  Every edge of F is strong: by the cycle
        property of a maximum spanning forest, no edge outside F whose
        cycle covers it is graded above it."""
        strong = self.in_forest[:]
        for e in self.strong_outside():
            strong[e] = True
        return list(compress(range(len(strong)), strong))

    def conn_rows(self) -> list[list[int]]:
        """All-pairs CONN, 0 across trees, by walking the merges of the
        Kruskal pass: merging parts A and B by an edge of grade w sets w
        once for every pair across them, the identity that adds w
        sigma(A) sigma(B) to CI.  Row x holds CONN(x, y) for y > x only."""
        n, up, label = len(self.names), self._up, self._label
        rows = [[0] * n for _ in range(n)]
        # per root, the members of its part
        members = [[x] for x in range(n)]
        for j in self._merged:
            big, small, grade = members[up[j]], members[j], label[j]
            for y in small:
                row = rows[y]
                for x in big:
                    if x > y:
                        row[x] = grade
                    else:
                        rows[x][y] = grade
            big += small
        return rows

    def ds_rows(self) -> list[list[int | None]]:
        """All-pairs d_s, None when a pair has no strong path, merged
        over the blocks of the strong subgraph; row x holds d_s(x, y) for
        y > x only.  Each vertex x keeps a part: (vertex, distance to x)
        for x and the parts merged into it.  A block B, once every block
        below its other vertices is done, sets each pair across two parts
        of its vertices once through d_B and merges them into its top's
        part; a shortest path between two vertices of B stays inside B.
        Plus one Dijkstra per vertex of a block neither bridge nor cycle."""
        n = len(self.names)
        rows: list[list[int | None]] = [[None] * n for _ in range(n)]
        part = [[(x, 0)] for x in range(n)]
        for block in self._strong_blocks():
            if len(block) == 1:
                top, x, grade = block[0]
                near, far = part[top], part[x]
                for q, dq in far:
                    row, dq = rows[q], dq + grade
                    for p, dp in near:
                        if p > q:
                            row[p] = dq + dp
                        else:
                            rows[p][q] = dq + dp
                near += [(q, dq + grade) for q, dq in far]
                far.clear()
                continue
            vertices = _block_vertices(block)
            dist = [*_block_distances(vertices, block)]
            # (member, its block vertex, distance to it), by member: each
            # source's row takes the members above it in other parts
            members = sorted(
                (q, b, dq) for b, x in enumerate(vertices) for q, dq in part[x]
            )
            for s, (p, a, dp) in enumerate(members, 1):
                row, reach = rows[p], dist[a]
                for q, b, dq in members[s:]:
                    if b != a:
                        row[q] = dp + reach[b] + dq
            part[vertices[0]] = [(q, dq + dist[0][b]) for q, b, dq in members]
            for x in vertices[1:]:
                part[x].clear()
        return rows

    def require_strong_paths(self) -> None:
        """Raise StrongDisconnectedError for the first pair, in
        lexicographic order, with no strong path.  Strong reachability
        is an equivalence, so when some pair has no strong path the
        first vertex has none to some vertex, and the first such pair is
        (vertex 0, the lowest vertex it cannot reach).  The strong edges
        contain the forest and lie in the graph, so their components are
        the forest's trees: the lowest x whose ``conn`` climb from vertex
        0 reads 0.  O(log n) per vertex up to x, with no rooting."""
        if self.components <= 1:
            return
        climb = self.conn((0, x) for x in range(1, len(self.names)))
        other = next(x for x, c in enumerate(climb, 1) if not c)
        raise StrongDisconnectedError(
            f"no strong path between {self.names[0]!r} and "
            f"{self.names[other]!r}"
        )

    def pair_sum(self, rows: list[list[int]]) -> Fraction:
        """Sum of sigma(u) sigma(v) rows[u][v] over pairs u < v."""
        sigma, total = self.sigma, 0
        for i, row in enumerate(rows):
            total += sigma[i] * sum(map(mul, sigma[i + 1 :], row[i + 1 :]))
        return Fraction(total, _SUM_SCALE)

    def wiener(self) -> Fraction:
        """WI; raises StrongDisconnectedError when some pair has no
        strong path.  Builds no pair table: one sum over the blocks of
        the strong subgraph, walked as ``_strong_blocks`` chooses by the
        graph's shape alone, never by which rows were built before: O(n)
        on a fuzzy tree and on a fuzzy cycle."""
        self.require_strong_paths()
        return Fraction(self._block_wiener(), _SUM_SCALE)

    def _strong_blocks(self) -> Iterator[Block]:
        """The blocks of the strong subgraph S, each after every block
        below its vertices other than its top.  The one place that picks
        how S is walked, for both ``wiener`` and ``ds_rows``: on a fuzzy
        forest, where S is F, each edge of F as a bridge off the rooted
        forest; on a fuzzy cycle, whose edges are all strong, the one
        ``_cycle_block``; else by one iterative Hopcroft-Tarjan pass
        (1973) with an edge stack over ``strong_edges``, tree by tree
        from the lowest vertex not yet reached."""
        if self.is_fuzzy_forest():
            # the block search would find the same bridges, but the
            # rooting costs less: on a fuzzy tree of 10^5 vertices the
            # analysis plus WI took 0.90 s this way and 1.41 s by blocks.
            # Reverse preorder puts each bridge after those below it.
            up, up_edge, _, preorder = self.rooted()
            mu = self.mu
            for x in reversed(preorder):
                if up[x] >= 0:
                    yield [(up[x], x, mu[up_edge[x]])]
            return
        # a fuzzy cycle's weakest grade ties, so its one edge outside F
        # is beta: it is never a fuzzy forest
        cycle = self._cycle_block()
        if cycle is not None:
            yield cycle
            return
        n = len(self.names)
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        ends, mu = self.ends, self.mu
        for e in self.strong_edges():
            (i, j), grade = ends[e], mu[e]
            adj[i].append((j, grade))
            adj[j].append((i, grade))
        disc, low, up = [0] * n, [0] * n, [-1] * n
        # the edge stack height at which the tree edge into x was pushed
        mark = [0] * n
        edges: Block = []
        count = 0
        for root in range(n):
            if disc[root]:
                continue
            disc[root] = low[root] = count = count + 1
            path = [(root, iter(adj[root]))]
            while path:
                x, scan = path[-1]
                for y, grade in scan:
                    if not disc[y]:
                        disc[y] = low[y] = count = count + 1
                        up[y], mark[y] = x, len(edges)
                        edges.append((x, y, grade))
                        path.append((y, iter(adj[y])))
                        break
                    if disc[y] < disc[x] and y != up[x]:
                        edges.append((x, y, grade))
                        if disc[y] < low[x]:
                            low[x] = disc[y]
                else:
                    path.pop()
                    parent = up[x]
                    if parent < 0:
                        break
                    if low[x] < disc[parent]:
                        if low[x] < low[parent]:
                            low[parent] = low[x]
                    else:
                        # a block; a bridge when low[x] > disc[parent],
                        # the tree edge into x being all above its mark
                        yield edges[mark[x] :]
                        del edges[mark[x] :]

    def _block_wiener(self) -> int:
        """WI of a graph whose strong subgraph S is connected, in
        _SUM_SCALE units.  A shortest strong path splits at cut vertices
        into shortest paths inside blocks, so WI is the sum over blocks B
        of d_B(x, y) W_B(x) W_B(y) over pairs x < y of B.  W_B(x) is the
        sigma weight of the vertices whose paths into B enter at x: for x
        other than the top of B, x and the parts merged into it before.
        A bridge into x adds mu W(x) (whole - W(x)), which over a tree is
        the edge sum of Dobrynin, Entringer and Gutman (2001)."""
        whole, weight, total = sum(self.sigma), list(self.sigma), 0
        for block in self._strong_blocks():
            if len(block) == 1:
                top, x, grade = block[0]
                total += grade * weight[x] * (whole - weight[x])
                weight[top] += weight[x]
            else:
                total += _block_sum(block, weight, whole)
        return total

    def connectivity(self) -> Fraction:
        """CI, always defined, summed on each call by replaying the
        Kruskal merges: joining parts A and B by grade w makes w the CONN
        of every pair across them, so it adds w sigma(A) sigma(B).  Root
        j joined up[j] after every earlier merge into up[j].  F is its
        own maximum spanning forest with CONN_F = CONN, so this is also
        CI(F) of the forest as a graph on its own."""
        # per root, the sigma weight of its part
        up, label, weight, ci = self._up, self._label, [*self.sigma], 0
        for j in self._merged:
            i = up[j]
            ci += label[j] * weight[i] * weight[j]
            weight[i] += weight[j]
        return Fraction(ci, _SUM_SCALE)

    def zero_sigma_vertices(self) -> tuple[VertexId, ...]:
        return tuple(
            name for name, grade in zip(self.names, self.sigma) if grade == 0
        )

    def require_spanning_tree(self) -> None:
        """Raise DisconnectedError when the graph is empty or not
        crisp-connected: then the forest is no spanning tree."""
        if not self.names:
            raise DisconnectedError("empty graph has no spanning tree")
        if self.components > 1:
            raise DisconnectedError("graph is not crisp-connected")

    def spanning_tree(self) -> SpanningTree:
        """The maximum spanning forest as a tree; DisconnectedError when
        the graph is empty or not crisp-connected."""
        self.require_spanning_tree()
        names, kept = self.names, self.in_forest
        return SpanningTree(
            tuple((names[i], names[j]) for i, j in compress(self.ends, kept)),
            Fraction(sum(compress(self.mu, kept)), MICRO),
        )

    def is_fuzzy_forest(self) -> bool:
        """Every edge outside the forest is delta, i.e. strictly weaker
        than the forest's strength between its endpoints: no edge of
        ``strong_outside``.  The edges of F are strong in any graph (see
        ``strong_edges``), so the strong subgraph is F exactly when this
        holds: F is then the one maximum spanning forest.  The forest is
        never rooted and no residual is read to tell."""
        return not self.strong_outside()

    def _cycle_block(self) -> Block | None:
        """A fuzzy cycle, a crisp cycle through all n >= 3 vertices whose
        weakest grade ties, as the block ``_cycle_walk`` lays out, else
        None.  Walked only on one component of n edges, so n >= 3 (0
        vertices make no component, 1 or 2 hold fewer than n edges), with
        a tied weakest grade; kept, since ``_strong_blocks`` and ``kind``
        ask."""
        if self._cycle == []:
            mu, self._cycle = self.mu, None
            if len(mu) == len(self.names) and self.components == 1:
                if mu.count(min(mu)) >= 2:
                    self._cycle = _cycle_walk(self.ends, mu)
        return self._cycle

    def is_fuzzy_cycle(self) -> bool:
        return self._cycle_block() is not None

    def kind(self) -> GraphKind:
        """A fuzzy cycle's weakest grade low ties, so every residual is
        low: edges graded low are beta, the others alpha.  Each vertex
        meets both, as saturation asks, iff the two alternate around it."""
        connected = self.components <= 1
        tree = connected and bool(self.names) and self.is_fuzzy_forest()
        block, saturated = self._cycle_block(), False
        if block is not None:
            low = min(self.mu)
            weak = [grade == low for _, _, grade in block]
            saturated = all(map(ne, weak, weak[1:] + weak[:1]))
        return GraphKind(connected, tree, block is not None, saturated)
