"""Deterministic generators and tiny oracles shared across test modules."""

from __future__ import annotations

import random
from heapq import heappop, heappush
from itertools import combinations
from typing import Sequence

from hypothesis import strategies as st

from fuzzygraph import FuzzyGraph, Membership, build_graph
from fuzzygraph.analysis import Analysis, EdgeClass, Rooted
from fuzzygraph.model import MICRO, pair

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


def root_forest(adj: list[list[tuple[int, int]]]) -> Rooted:
    """(parent, parent edge, depth, preorder) of the forest whose
    (neighbour, edge index) lists are ``adj``, with each tree rooted at
    its lowest index; a root has parent -1.  The preorder lists every
    vertex after its parent, tree by tree in order of their roots."""
    n = len(adj)
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


def path_min(rooted: Rooted, mu: Sequence[int], i: int, j: int) -> int:
    """The weakest edge grade ``mu`` on the path between distinct
    vertices i and j of a rooted forest, 0 when they lie in different
    trees.  A forest has one path between two vertices, so the choice of
    roots does not change the answer."""
    up, up_edge, depth, _ = rooted
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


def decode_pruefer_heap(seq: list[int], n: int) -> list[tuple[int, int]]:
    """The edges (leaf, parent) of the labeled tree on n vertices with
    Pruefer sequence ``seq``, then the last two vertices, taking each
    smallest leaf off a heap: the O(n log n) decode that
    ``structure._decode_pruefer`` replaced, kept as its reference."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    # ascending, so already a heap
    leaves = [i for i in range(n) if degree[i] == 1]
    edges = []
    for x in seq:
        leaf = heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heappush(leaves, x)
    edges.append((heappop(leaves), heappop(leaves)))
    return edges


def random_fuzzy_tree_reference(
    seed: int, n: int, extra_edges: int
) -> FuzzyGraph:
    """The generator ``structure.random_fuzzy_tree`` replaced, kept as
    its reference: it formats its own vertex names, decodes the tree with
    ``decode_pruefer_heap`` and reads each candidate's in-tree strength
    with ``path_min`` over ``root_forest`` of a throwaway graph of the
    bare tree, routes that share no code with the library.  The two must
    draw the same numbers in the same order and so give the same graph.
    """
    rng = random.Random(seed)
    width = max(2, len(str(n - 1)))
    names = [f"v{i:0{width}d}" for i in range(n)]
    sigma = {
        name: Membership(rng.randrange(1, 101) * GRID) for name in names
    }
    seq = [rng.randrange(n) for _ in range(n - 2)]
    tree_pairs = sorted(
        pair(names[i], names[j]) for i, j in decode_pruefer_heap(seq, n)
    )
    edges = []
    for u, v in tree_pairs:
        cap = min(sigma[u], sigma[v]).micro // GRID
        edges.append((u, v, Membership(rng.randrange(1, cap + 1) * GRID)))
    if extra_edges == 0:
        return build_graph(sigma.items(), edges)
    bare = build_graph(sigma.items(), edges)
    index = {name: i for i, name in enumerate(bare.vertices())}
    adj: list[list[tuple[int, int]]] = [[] for _ in names]
    for e, (i, j) in enumerate(bare.ends):
        adj[i].append((j, e))
        adj[j].append((i, e))
    rooted = root_forest(adj)
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
        limit = path_min(rooted, bare.mu_micro, index[u], index[v]) // GRID
        if limit <= 1:
            continue
        edges.append((u, v, Membership(rng.randrange(1, limit) * GRID)))
        added += 1
    return build_graph(sigma.items(), edges)


def forest_adjacency(analysis: Analysis) -> list[list[tuple[int, int]]]:
    """(neighbour, edge index) lists of the maximum spanning forest of
    ``analysis``, as ``root_forest`` takes them."""
    adj: list[list[tuple[int, int]]] = [[] for _ in analysis.names]
    for e, (i, j) in enumerate(analysis.ends):
        if analysis.in_forest[e]:
            adj[i].append((j, e))
            adj[j].append((i, e))
    return adj


def above_diagonal(rows: list[list]) -> list[list]:
    """Each row x of a pair table cut to its entries y > x: every
    unordered pair once, the part ``conn_rows`` and ``ds_rows`` of
    ``Analysis`` define."""
    return [row[i + 1 :] for i, row in enumerate(rows)]


def conn_rows_reference(analysis: Analysis) -> list[list[int]]:
    """All-pairs CONN in micro-units by one walk of the maximum spanning
    forest per source, keeping the weakest grade met on the way: the
    route ``Analysis.conn_rows`` replaced, kept as its reference.  The
    diagonal and pairs in different trees read 0."""
    n, mu = len(analysis.names), analysis.mu
    adj = forest_adjacency(analysis)
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


def random_deep_graph(
    seed: int,
    n: int,
    shape: str,
    chords: int,
    step: int = GRID,
    zero_sigma_share: float = 0.0,
    parts: int = 1,
    weak_chords: bool = False,
) -> FuzzyGraph:
    """Random graph on n vertices whose spanning trees are deep.

    The vertices of positive sigma (about ``zero_sigma_share`` get sigma
    0 and no edges) are split into ``parts`` runs, each laid out as a
    ``shape``: "path", "caterpillar" (a path of half the run, each other
    vertex hung on a random one of it) or "broom" (a path of two thirds
    of the run, the rest hung on its end).  Then up to ``chords`` further
    pairs inside a run become edges.  Grades lie on a grid of ``step``
    micro-units; with ``weak_chords`` every sigma is 1, tree edges are
    graded two steps or more and chords one step, so the graph is a
    fuzzy forest.  Names are drawn in random order, so vertex indices
    do not follow the shape.
    """
    rng = random.Random(seed)
    levels = MICRO // step
    names = [f"n{i:03d}" for i in range(n)]
    rng.shuffle(names)
    sigma = {}
    for name in names:
        if rng.random() < zero_sigma_share:
            sigma[name] = 0
        elif weak_chords:
            sigma[name] = MICRO
        else:
            sigma[name] = rng.randrange(1, levels + 1) * step
    live = [name for name in names if sigma[name]]
    parts = max(1, min(parts, len(live)))
    cuts = sorted(rng.sample(range(1, len(live)), parts - 1))
    runs = [live[a:b] for a, b in zip([0, *cuts], [*cuts, len(live)])]
    tree = []
    for run in runs:
        k = len(run)
        # the first ``spine`` vertices of the run form its path
        spine = {
            "path": k, "caterpillar": (k + 1) // 2, "broom": (2 * k + 2) // 3
        }[shape]
        for i in range(1, k):
            if i < spine:
                other = i - 1
            elif shape == "broom":
                other = spine - 1
            else:
                other = rng.randrange(spine)
            tree.append(pair(run[i], run[other]))
    mu = {}
    for u, v in tree:
        cap = min(sigma[u], sigma[v]) // step
        mu[(u, v)] = rng.randrange(2 if weak_chords else 1, cap + 1) * step
    runs = [run for run in runs if len(run) > 2]
    for _ in range(chords if runs else 0):
        key = pair(*rng.sample(rng.choice(runs), 2))
        if key not in mu:
            cap = min(sigma[key[0]], sigma[key[1]]) // step
            mu[key] = step if weak_chords else rng.randrange(1, cap + 1) * step
    return FuzzyGraph.from_micro(sigma, mu)


def residual_reference(analysis: Analysis) -> list[int]:
    """Per edge, CONN between its endpoints without the edge, by the
    route ``Analysis.residual`` took before the Kruskal merge tree, kept
    as its reference: root the forest, read each edge outside it with
    ``path_min``, and sweep the edges outside it in descending order,
    each giving its grade to the forest edges of its path that have no
    residual yet, found by jump pointers."""
    n, mu, ends = len(analysis.names), analysis.mu, analysis.ends
    rooted = root_forest(forest_adjacency(analysis))
    up, up_edge, depth, _ = rooted
    residual = [0] * len(mu)
    jump = list(range(n))

    def find(x: int) -> int:
        top = x
        while jump[top] != top:
            top = jump[top]
        while jump[x] != top:
            jump[x], x = top, jump[x]
        return top

    for e in analysis.order:
        if analysis.in_forest[e]:
            continue
        i, j = ends[e]
        residual[e] = path_min(rooted, mu, i, j)
        a, b = find(i), find(j)
        while a != b:
            if depth[a] < depth[b]:
                a, b = b, a
            residual[up_edge[a]] = mu[e]
            jump[a] = up[a]
            a = find(a)
    return residual


def saturated_reference(analysis: Analysis) -> bool:
    """Every vertex meets at least one alpha and one beta edge, read off
    the classes of all edges: the saturation test ``Analysis`` made
    before it read the weakest grades around the cycle walk, kept as
    its reference for fuzzy cycles."""
    incident: list[set[EdgeClass]] = [set() for _ in analysis.names]
    for (i, j), edge_class in zip(analysis.ends, analysis.edge_classes()):
        incident[i].add(edge_class)
        incident[j].add(edge_class)
    return all(
        EdgeClass.ALPHA_STRONG in classes
        and EdgeClass.BETA_STRONG in classes
        for classes in incident
    )


def sigma_above(draw, mu: dict, step: int) -> dict:
    """Per vertex of the edges ``mu``, a sigma on the grid of ``step``
    micro-units at or above its strongest edge, so the graph is valid."""
    floor: dict = {}
    for key, grade in mu.items():
        for x in key:
            floor[x] = max(floor.get(x, 0), grade)
    levels = MICRO // step
    return {
        x: step * draw(st.integers(least // step, levels))
        for x, least in floor.items()
    }


@st.composite
def crisp_cycles(draw, max_vertices: int = 40) -> FuzzyGraph:
    """A crisp cycle on 3 to ``max_vertices`` vertices, laid out in
    random name order so vertex 0 falls anywhere on it, its grades and
    sigma on a grid of 2, 3, 5 or 100 steps, so the weakest grade often
    ties.  Half the cycles put every other edge on the lowest step and
    the rest above it, which saturates them when the length is even."""
    levels = draw(st.sampled_from([2, 3, 5, 100]))
    n = draw(st.integers(3, max_vertices))
    alternate = draw(st.booleans())
    names = [f"v{i:02d}" for i in draw(st.permutations(range(n)))]
    step = MICRO // levels
    lowest = [alternate and k % 2 == 0 for k in range(n)]
    mu = {
        pair(names[k], names[(k + 1) % n]): step * (
            1 if low else draw(st.integers(1 + alternate, levels))
        )
        for k, low in enumerate(lowest)
    }
    return FuzzyGraph.from_micro(sigma_above(draw, mu, step), mu)


@st.composite
def cacti(draw, max_vertices: int = 40) -> FuzzyGraph:
    """A cactus on up to about ``max_vertices`` vertices: grown from one
    vertex by cycles of 3 to 6 vertices glued at a vertex built before,
    cycles hung from one by a bridge, and pendant paths of 1 to 3
    edges.  Grades and sigma lie on a grid of 2, 3, 5 or 100 steps, and
    half the cycles tie their weakest grade, so some cycles are strong
    blocks and the others split into bridges.  Names are laid out in
    random order."""
    levels = draw(st.sampled_from([2, 3, 5, 100]))
    step = MICRO // levels
    size = draw(st.integers(1, max_vertices))
    edges: dict[tuple[int, int], int] = {}
    n = 1
    while n < size:
        at = draw(st.integers(0, n - 1))
        shape = draw(st.sampled_from(["glued", "bridged", "path"]))
        if shape == "bridged":
            edges[at, n] = step * draw(st.integers(1, levels))
            at, n = n, n + 1
        if shape == "path":
            chain = [at, *range(n, n + draw(st.integers(1, 3)))]
            links = list(zip(chain, chain[1:]))
        else:
            chain = [at, *range(n, n + draw(st.integers(2, 5)))]
            links = list(zip(chain, chain[1:] + chain[:1]))
        grades = [step * draw(st.integers(1, levels)) for _ in links]
        if shape != "path" and draw(st.booleans()):
            # the weakest grade ties: every edge of the cycle is strong
            grades[-1] = min(grades[:-1])
        edges.update(zip(links, grades))
        n += len(chain) - 1
    names = [f"c{i:02d}" for i in draw(st.permutations(range(n)))]
    mu = {pair(names[i], names[j]): grade for (i, j), grade in edges.items()}
    sigma = dict.fromkeys(names, MICRO) | sigma_above(draw, mu, step)
    return FuzzyGraph.from_micro(sigma, mu)
