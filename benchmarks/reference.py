"""Reference computations the benchmark checks fuzzygraph's reports against.

Nothing here imports fuzzygraph.  Graphs are vertex names, vertex grades
and edges, with every grade an int count of 1e-6 units, so all results
are exact.  Each routine uses a route independent of the library's:

- CONN of every pair and the connectivity index come from Kruskal
  merges: joining components A and B by an edge of grade w sets CONN to
  w for every pair across them and adds w * sigma(A) * sigma(B) to CI.
- An edge is strong (alpha or beta) iff it lies in some maximum spanning
  forest, i.e. iff its endpoints are not joined by strictly heavier
  edges.
- d_s is Dijkstra over the strong edges; WI of a tree is the edge
  decomposition mu(e) * sigma(A_e) * sigma(B_e).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

MICRO = 10**6


@dataclass
class Graph:
    names: list[str]
    sigma: list[int]
    edges: list[tuple[int, int, int]]  # (u index, v index, mu), u < v

    @property
    def n(self) -> int:
        return len(self.names)


def grade_text(micro: int) -> str:
    """A grade as a .fzg literal."""
    whole, frac = divmod(micro, MICRO)
    return f"{whole}.{frac:06d}".rstrip("0").rstrip(".")


def grade_micro(text: str) -> int:
    whole, _, frac = text.partition(".")
    return int(whole) * MICRO + int(frac.ljust(6, "0") or "0")


def to_fzg(g: Graph) -> str:
    lines = [f"v {name} {grade_text(s)}" for name, s in zip(g.names, g.sigma)]
    lines += [
        f"e {g.names[u]} {g.names[v]} {grade_text(w)}" for u, v, w in g.edges
    ]
    return "\n".join(lines) + "\n"


def parse_fzg(text: str) -> Graph:
    names: list[str] = []
    sigma: list[int] = []
    index: dict[str, int] = {}
    edges = []
    for line in text.splitlines():
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if tokens[0] == "v":
            index[tokens[1]] = len(names)
            names.append(tokens[1])
            sigma.append(grade_micro(tokens[2]))
        elif tokens[0] == "e":
            u, v = sorted((index[tokens[1]], index[tokens[2]]))
            edges.append((u, v, grade_micro(tokens[3])))
        else:
            raise ValueError(f"unknown .fzg line {line!r}")
    return Graph(names, sigma, edges)


class _DisjointSets:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x


def _descending(g: Graph) -> list[tuple[int, int, int]]:
    return sorted(g.edges, key=lambda e: -e[2])


def kruskal_merges(g: Graph):
    """Yield (root_a, root_b, w) per merge, heaviest edge first."""
    sets = _DisjointSets(g.n)
    for u, v, w in _descending(g):
        ra, rb = sets.find(u), sets.find(v)
        if ra != rb:
            yield ra, rb, w
            sets.parent[rb] = ra


def mst_total(g: Graph) -> int:
    return sum(w for _, _, w in kruskal_merges(g))


def connectivity_index(g: Graph) -> Fraction:
    """CI as the sum over Kruskal merges of w * sigma(A) * sigma(B)."""
    weight = list(g.sigma)
    total = 0
    for ra, rb, w in kruskal_merges(g):
        total += w * weight[ra] * weight[rb]
        weight[ra] += weight[rb]
    return Fraction(total, MICRO**3)


def conn_table(g: Graph) -> dict[tuple[int, int], int]:
    """CONN of every pair u < v; pairs never merged have strength 0."""
    members = {x: [x] for x in range(g.n)}
    conn = {(u, v): 0 for u in range(g.n) for v in range(u + 1, g.n)}
    for ra, rb, w in kruskal_merges(g):
        for a in members[ra]:
            for b in members[rb]:
                conn[(a, b) if a < b else (b, a)] = w
        members[ra] += members.pop(rb)
    return conn


def strong_edges(g: Graph) -> set[tuple[int, int]]:
    """Edges lying in some maximum spanning forest."""
    sets = _DisjointSets(g.n)
    ranked = _descending(g)
    strong = set()
    start = 0
    while start < len(ranked):
        stop = start
        while stop < len(ranked) and ranked[stop][2] == ranked[start][2]:
            stop += 1
        group = ranked[start:stop]
        for u, v, _ in group:
            if sets.find(u) != sets.find(v):
                strong.add((u, v))
        for u, v, _ in group:
            ru, rv = sets.find(u), sets.find(v)
            if ru != rv:
                sets.parent[rv] = ru
        start = stop
    return strong


def is_connected(g: Graph) -> bool:
    return sum(1 for _ in kruskal_merges(g)) == g.n - 1


def is_fuzzy_tree(g: Graph) -> bool:
    """Connected, and no edge outside a maximum spanning tree is strong."""
    return g.n >= 1 and is_connected(g) and len(strong_edges(g)) == g.n - 1


def is_fuzzy_cycle(g: Graph) -> bool:
    degree = [0] * g.n
    for u, v, _ in g.edges:
        degree[u] += 1
        degree[v] += 1
    if g.n < 3 or len(g.edges) != g.n or any(d != 2 for d in degree):
        return False
    weakest = min(w for _, _, w in g.edges)
    ties = sum(1 for _, _, w in g.edges if w == weakest)
    return is_connected(g) and ties >= 2


def strong_distances(g: Graph) -> dict[tuple[int, int], int | None]:
    """d_s of every pair u < v in micro-units; None when unreachable."""
    strong = strong_edges(g)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for u, v, w in g.edges:
        if (u, v) in strong:
            adj[u].append((v, w))
            adj[v].append((u, w))
    table = {}
    for source in range(g.n):
        dist = {source: 0}
        heap = [(0, source)]
        while heap:
            d, x = heapq.heappop(heap)
            if d > dist[x]:
                continue
            for y, w in adj[x]:
                if y not in dist or d + w < dist[y]:
                    dist[y] = d + w
                    heapq.heappush(heap, (d + w, y))
        for target in range(source + 1, g.n):
            table[(source, target)] = dist.get(target)
    return table


def wiener_index(g: Graph) -> Fraction | None:
    total = 0
    for (u, v), d in strong_distances(g).items():
        if d is None:
            return None
        total += g.sigma[u] * g.sigma[v] * d
    return Fraction(total, MICRO**3)


def tree_wiener_index(g: Graph) -> Fraction:
    """WI of a tree: each edge adds mu(e) * sigma(A_e) * sigma(B_e)."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for u, v, w in g.edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    parent: list[tuple[int, int] | None] = [None] * g.n
    order, seen = [0], {0}
    for x in order:
        for y, w in adj[x]:
            if y not in seen:
                seen.add(y)
                parent[y] = (x, w)
                order.append(y)
    below = list(g.sigma)
    whole = sum(g.sigma)
    total = 0
    for x in reversed(order[1:]):
        up, w = parent[x]
        total += w * below[x] * (whole - below[x])
        below[up] += below[x]
    return Fraction(total, MICRO**3)
