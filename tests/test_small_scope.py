"""Every small graph, checked against the oracle.

The scope is every graph with sigma = 1 whose vertex pairs are each
absent or graded at one of ``levels`` grades: n <= 4 at 3 levels (4,096
graphs at n = 4) and n = 5 at 1 level (1,024 graphs).  Ties decide
alpha against beta against delta and the shape tests, and random grades
rarely tie; inside this scope every tie occurs.  Each graph is checked
again with one seeded sigma grid, zero sigma on isolated vertices
included, for the weighted sums.

The larger scope n = 5 at 2 levels (59,049 graphs) is checked in
``scale_checks.py``, which tier-1 does not collect.
"""

from __future__ import annotations

import random
from itertools import combinations, product

import pytest

from fuzzygraph import (
    FuzzyGraph,
    StrongDisconnectedError,
    check_corollary_star,
    ci_bruteforce,
    classify_edges_reference,
    conn_bruteforce,
    ds_bruteforce,
    strong_edges_bruteforce,
    wi_bruteforce,
)
from fuzzygraph.analysis import Analysis, EdgeClass
from fuzzygraph.model import MICRO

# sigma grades of the weighted copies: 0 and the 0.1 grid
_SIGMAS = range(0, MICRO + 1, MICRO // 10)


def _graphs(n: int, levels: int):
    """Every graph on vertices a, b, ... with sigma = 1 and each pair
    absent or graded k / (levels + 1), k = 1..levels."""
    names = "abcdefgh"[:n]
    pairs = [*combinations(names, 2)]
    grades = [MICRO * k // (levels + 1) for k in range(1, levels + 1)]
    sigma = dict.fromkeys(names, MICRO)
    for choice in product([0, *grades], repeat=len(pairs)):
        mu = {key: w for key, w in zip(pairs, choice) if w}
        yield FuzzyGraph.from_micro(sigma, mu)


def _weighted(g: FuzzyGraph, seed: int) -> FuzzyGraph:
    """g with each vertex graded at random on the grid, at least as high
    as its edges: zero only on an isolated vertex."""
    rng = random.Random(seed)
    cap = dict.fromkeys(g.vertices(), 0)
    for (u, v), w in zip(g.edge_pairs(), g.mu_micro):
        cap[u], cap[v] = max(cap[u], w), max(cap[v], w)
    sigma = {
        name: rng.choice([s for s in _SIGMAS if s >= low])
        for name, low in cap.items()
    }
    return FuzzyGraph.from_micro(sigma, dict(zip(g.edge_pairs(), g.mu_micro)))


def _components(names, pairs) -> int:
    part = {name: name for name in names}

    def find(x):
        while part[x] != x:
            x = part[x]
        return x

    for u, v in pairs:
        part[find(u)] = find(v)
    return sum(1 for name in part if part[name] == name)


def _path_min(tree, u, v):
    """The weakest grade on the u-v path of a spanning tree given as
    {pair: grade}."""
    stack, seen = [(u, MICRO)], {u}
    while stack:
        x, low = stack.pop()
        if x == v:
            return low
        for (a, b), w in tree.items():
            y = b if a == x else a if b == x else None
            if y is not None and y not in seen:
                seen.add(y)
                stack.append((y, min(low, w)))
    raise AssertionError("not a spanning tree")


def _is_fuzzy_tree(g: FuzzyGraph, connected: bool) -> bool:
    """The definition: some spanning tree F has mu(uv) < CONN_F(u, v)
    for every edge uv outside F."""
    n = g.vertex_count
    if not connected or n == 0:
        return False
    edges = dict(zip(g.edge_pairs(), g.mu_micro))
    for chosen in combinations(edges, n - 1):
        if _components(g.vertices(), chosen) != 1:
            continue
        tree = {key: edges[key] for key in chosen}
        if all(
            w < _path_min(tree, u, v)
            for (u, v), w in edges.items()
            if (u, v) not in tree
        ):
            return True
    return False


def _check_kind(g: FuzzyGraph, a: Analysis, classes) -> None:
    n = g.vertex_count
    connected = _components(g.vertices(), g.edge_pairs()) <= 1
    degree = dict.fromkeys(g.vertices(), 0)
    for u, v in g.edge_pairs():
        degree[u] += 1
        degree[v] += 1
    mu = g.mu_micro
    cycle = (
        n >= 3
        and connected
        and all(d == 2 for d in degree.values())
        and mu.count(min(mu)) >= 2
    )
    # saturated: every vertex meets an alpha and a beta edge
    meets = {name: set() for name in g.vertices()}
    for (u, v), edge_class in classes.items():
        meets[u].add(edge_class)
        meets[v].add(edge_class)
    both = {EdgeClass.ALPHA_STRONG, EdgeClass.BETA_STRONG}
    saturated = cycle and all(both <= found for found in meets.values())
    kind = a.kind()
    assert (
        kind.is_connected,
        kind.is_fuzzy_tree,
        kind.is_fuzzy_cycle,
        kind.is_saturated_fuzzy_cycle,
    ) == (connected, _is_fuzzy_tree(g, connected), cycle, saturated)


def _check_sums(g: FuzzyGraph) -> None:
    """WI and CI against the oracle's brute-force sums, and
    corollary-star on a fuzzy tree."""
    a = Analysis(g)
    assert a.connectivity() == ci_bruteforce(g)
    try:
        wi = wi_bruteforce(g)
    except StrongDisconnectedError:
        with pytest.raises(StrongDisconnectedError):
            a.wiener()
    else:
        assert a.wiener() == wi
    if a.kind().is_fuzzy_tree:
        assert check_corollary_star(g).holds == (g.vertex_count <= 2)


def check_graph(g: FuzzyGraph, seed: int) -> None:
    """Every answer of g's analysis against the oracle and the
    definitions, then WI and CI of g and of a weighted copy."""
    a = Analysis(g)
    names, pairs = g.vertices(), g.edge_pairs()
    strong = strong_edges_bruteforce(g)
    assert {pairs[e] for e in a.strong_edges()} == strong
    reference = classify_edges_reference(g)
    assert [reference[key].edge_class for key in pairs] == a.edge_classes()
    assert [reference[key].residual.micro for key in pairs] == a.residual()
    # the oracle's CONN and d_s, in micro-units, None for no strong path
    conn, ds = {}, {}
    for (i, u), (j, v) in combinations(enumerate(names), 2):
        conn[i, j] = conn_bruteforce(g, u, v).micro
        try:
            ds[i, j] = ds_bruteforce(g, u, v, strong) * MICRO
        except StrongDisconnectedError:
            ds[i, j] = None
    rows = a.conn_rows()
    assert {(i, j): rows[i][j] for i, j in conn} == conn
    rows = a.ds_rows()
    assert {(i, j): rows[i][j] for i, j in ds} == ds
    _check_kind(g, a, {key: c.edge_class for key, c in reference.items()})
    _check_sums(g)
    _check_sums(_weighted(g, seed))


def check_scope(n: int, levels: int) -> int:
    """Check every graph of the scope; the number checked."""
    count = 0
    for count, g in enumerate(_graphs(n, levels), start=1):
        check_graph(g, seed=count)
    return count


@pytest.mark.parametrize(
    "n, levels, count",
    [(0, 3, 1), (1, 3, 1), (2, 3, 4), (3, 3, 64), (4, 3, 4096), (5, 1, 1024)],
)
def test_every_small_graph_matches_the_oracle(n, levels, count):
    assert check_scope(n, levels) == count
