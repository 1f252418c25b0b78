"""Deterministic generators and tiny oracles shared across test modules."""

from __future__ import annotations

import random
from heapq import heappop, heappush
from itertools import combinations

from fuzzygraph import FuzzyGraph, Membership, build_graph
from fuzzygraph.analysis import Analysis, path_min
from fuzzygraph.model import MICRO, pair
from fuzzygraph.structure import _decode_pruefer, _vertex_names

GRID = 10_000  # micro-units per 0.01 step


def grid_grade(rng: random.Random, max_hundredths: int = 100) -> Membership:
    return Membership(rng.randrange(1, max_hundredths + 1) * GRID)


def random_connected_graph(seed: int, max_vertices: int = 7) -> FuzzyGraph:
    """Random connected graph with grades on the 0.01 grid.

    A random attachment tree guarantees connectivity; every remaining
    pair becomes an edge with probability 1/3.
    """
    rng = random.Random(seed)
    n = rng.randrange(2, max_vertices + 1)
    names = [f"n{i:02d}" for i in range(n)]
    sigma = {name: grid_grade(rng) for name in names}
    edges = []
    used = set()
    for i in range(1, n):
        u, v = sorted((names[rng.randrange(i)], names[i]))
        cap = min(sigma[u], sigma[v]).micro // GRID
        edges.append((u, v, Membership(rng.randrange(1, cap + 1) * GRID)))
        used.add((u, v))
    for u, v in combinations(names, 2):
        if (u, v) in used or rng.randrange(3) != 0:
            continue
        cap = min(sigma[u], sigma[v]).micro // GRID
        edges.append((u, v, Membership(rng.randrange(1, cap + 1) * GRID)))
    return build_graph(sigma.items(), edges)


def random_graph(
    seed: int,
    n: int,
    edge_probability: float,
    step: int = GRID,
    zero_sigma_share: float = 0.0,
) -> FuzzyGraph:
    """Random graph on n vertices, connected or not.

    Grades lie on a grid of ``step`` micro-units, so a coarse grid forces
    heavy ties.  About ``zero_sigma_share`` of the vertices get sigma 0
    and therefore no edges.  Every other pair becomes an edge with
    probability ``edge_probability``.
    """
    rng = random.Random(seed)
    levels = 10**6 // step
    names = [f"n{i:03d}" for i in range(n)]
    sigma = {
        name: Membership(
            0
            if rng.random() < zero_sigma_share
            else rng.randrange(1, levels + 1) * step
        )
        for name in names
    }
    edges = []
    for u, v in combinations(names, 2):
        cap = min(sigma[u], sigma[v]).micro // step
        if cap and rng.random() < edge_probability:
            edges.append((u, v, Membership(rng.randrange(1, cap + 1) * step)))
    return build_graph(sigma.items(), edges)


def spanning_tree_totals(g: FuzzyGraph) -> list[tuple[frozenset, int]]:
    """Every spanning tree of g with its total strength in micro-units."""
    names = g.vertices()
    n = len(names)
    all_edges = list(g.edges())
    results = []
    for combo in combinations(all_edges, n - 1):
        parent = {name: name for name in names}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for u, v, _ in combo:
            ru, rv = find(u), find(v)
            if ru == rv:
                acyclic = False
                break
            parent[rv] = ru
        if not acyclic:
            continue
        if len({find(name) for name in names}) != 1:
            continue
        total = sum(grade.micro for _, _, grade in combo)
        results.append(
            (frozenset((u, v) for u, v, _ in combo), total)
        )
    return results


def random_sparse_graph(seed: int, n: int, extra: int) -> FuzzyGraph:
    """Random connected graph on n vertices with n - 1 + ``extra`` edges.

    A random attachment tree plus ``extra`` random further pairs; grades
    on the 0.01 grid.  Vertices and edges are handed over in shuffled
    order, each edge with its endpoints in random order.
    """
    rng = random.Random(seed)
    width = len(str(n - 1))
    names = [f"n{i:0{width}d}" for i in range(n)]
    sigma = {name: grid_grade(rng) for name in names}
    pairs = {tuple(sorted((names[rng.randrange(i)], names[i])))
             for i in range(1, n)}
    while len(pairs) < n - 1 + extra:
        pairs.add(tuple(sorted(rng.sample(names, 2))))
    edges = []
    for u, v in sorted(pairs):
        cap = min(sigma[u], sigma[v]).micro // GRID
        if rng.randrange(2):
            u, v = v, u
        edges.append((u, v, Membership(rng.randrange(1, cap + 1) * GRID)))
    vertices = list(sigma.items())
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return build_graph(vertices, edges)


def random_fuzzy_tree_reference(
    seed: int, n: int, extra_edges: int
) -> FuzzyGraph:
    """The generator ``structure.random_fuzzy_tree`` replaced, kept as
    its reference: it reads each candidate's in-tree strength with
    ``path_min`` over the rooted forest of an ``Analysis`` of a
    throwaway graph of the bare tree.  The two must draw the same
    numbers in the same order and so give the same graph.
    """
    rng = random.Random(seed)
    names = _vertex_names(n)
    sigma = {
        name: Membership(rng.randrange(1, 101) * GRID) for name in names
    }
    seq = [rng.randrange(n) for _ in range(n - 2)]
    tree_pairs = sorted(
        pair(names[i], names[j]) for i, j in _decode_pruefer(seq, n)
    )
    edges = []
    for u, v in tree_pairs:
        cap = min(sigma[u], sigma[v]).micro // GRID
        edges.append((u, v, Membership(rng.randrange(1, cap + 1) * GRID)))
    if extra_edges == 0:
        return build_graph(sigma.items(), edges)
    bare = build_graph(sigma.items(), edges)
    index = {name: i for i, name in enumerate(bare.vertices())}
    tree = Analysis(bare)
    rooted = tree.rooted()
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
        limit = path_min(rooted, tree.mu, index[u], index[v]) // GRID
        if limit <= 1:
            continue
        edges.append((u, v, Membership(rng.randrange(1, limit) * GRID)))
        added += 1
    return build_graph(sigma.items(), edges)


def conn_rows_reference(analysis: Analysis) -> list[list[int]]:
    """All-pairs CONN in micro-units by one walk of the maximum spanning
    forest per source, keeping the weakest grade met on the way: the
    route ``Analysis.conn_rows`` replaced, kept as its reference.  The
    diagonal and pairs in different trees read 0."""
    n, mu = len(analysis.names), analysis.mu
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e, (i, j) in enumerate(analysis.ends):
        if analysis.in_forest[e]:
            adj[i].append((j, e))
            adj[j].append((i, e))
    rows = []
    for source in range(n):
        row = [0] * n
        # grades are positive, so 0 marks an unreached vertex; the
        # source holds MICRO, the identity of min, meanwhile
        row[source] = MICRO
        stack = [source]
        while stack:
            x = stack.pop()
            for y, e in adj[x]:
                if row[y] == 0:
                    row[y] = min(mu[e], row[x])
                    stack.append(y)
        row[source] = 0
        rows.append(row)
    return rows


def ds_rows_reference(analysis: Analysis) -> list[list[int | None]]:
    """All-pairs d_s in micro-units by one Dijkstra per source over every
    strong edge: the route ``Analysis.ds_rows`` replaced, kept as its
    reference.  None marks a pair with no strong path."""
    n = len(analysis.names)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for e in analysis.strong_edges():
        (i, j), grade = analysis.ends[e], analysis.mu[e]
        adj[i].append((j, grade))
        adj[j].append((i, grade))
    rows = []
    for source in range(n):
        dist: list[int | None] = [None] * n
        dist[source] = 0
        heap = [(0, source)]
        while heap:
            d, x = heappop(heap)
            if d > dist[x]:
                continue
            for y, grade in adj[x]:
                if dist[y] is None or d + grade < dist[y]:
                    dist[y] = d + grade
                    heappush(heap, (d + grade, y))
        rows.append(dist)
    return rows
