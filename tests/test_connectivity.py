from __future__ import annotations

import random
from collections import defaultdict
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fuzzygraph import (
    MICRO,
    EdgeClass,
    FuzzyGraph,
    Membership,
    NoSuchEdgeError,
    StrongDisconnectedError,
    build_graph,
    classify_edge,
    classify_edges,
    classify_edges_reference,
    conn_bruteforce,
    conn_reference,
    geodesic_distance,
    graph_kind,
    maximum_spanning_tree,
    strength_of_connectedness,
    strong_subgraph,
    random_fuzzy_tree,
    wi_bruteforce,
    wiener_index,
)
from fuzzygraph.analysis import Analysis, MergeTree
from fuzzygraph.samples import alternating_cycle, five_vertex_tree
from fuzzygraph.structure import SaturatedCycleSpec, make_saturated_cycle

from conftest import fuzzy_graphs
from support import (
    GRID,
    forest_adjacency,
    path_min,
    random_deep_graph,
    random_graph,
    random_sparse_graph,
    residual_reference,
    root_forest,
)

QUARTER = MICRO // 4  # a coarse grade grid that forces heavy ties
HALF = MICRO // 2


def M(text: str) -> Membership:
    return Membership.parse(text)


# Strength of connectedness for every pair of the five-vertex tree,
# frozen from an independent hand computation.
TREE5_CONN = {
    ("a", "b"): "0.3",
    ("a", "c"): "0.3",
    ("a", "d"): "0.3",
    ("a", "e"): "0.6",
    ("b", "c"): "0.3",
    ("b", "d"): "0.3",
    ("b", "e"): "0.3",
    ("c", "d"): "0.5",
    ("c", "e"): "0.3",
    ("d", "e"): "0.3",
}


def test_tree5_strength_matrix():
    conn = strength_of_connectedness(five_vertex_tree())
    assert len(conn) == 10
    for (u, v), text in TREE5_CONN.items():
        assert conn.value(u, v) == M(text), (u, v)


def test_single_edge_strength_is_mu():
    g = build_graph(
        [("a", M("1")), ("b", M("1"))], [("a", "b", M("0.4"))]
    )
    assert strength_of_connectedness(g).value("a", "b") == M("0.4")


def test_disconnected_pair_has_zero_strength():
    g = build_graph(
        [("a", M("1")), ("b", M("1")), ("c", M("1"))],
        [("a", "b", M("0.5"))],
    )
    conn = strength_of_connectedness(g)
    assert conn.value("a", "c") == M("0")
    assert conn.value("b", "c") == M("0")


def test_strength_matches_bruteforce(small_graphs):
    for g in small_graphs:
        conn = strength_of_connectedness(g)
        for u, v in combinations(g.vertices(), 2):
            assert conn.value(u, v) == conn_bruteforce(g, u, v), (u, v)


@given(fuzzy_graphs(min_vertices=3, max_vertices=6))
@settings(max_examples=100, deadline=None)
def test_strength_is_max_min_transitive(g):
    conn = strength_of_connectedness(g)
    names = g.vertices()
    for u, w, v in combinations(names, 3):
        assert conn.value(u, v) >= min(conn.value(u, w), conn.value(w, v))
        assert conn.value(u, w) >= min(conn.value(u, v), conn.value(v, w))
        assert conn.value(w, v) >= min(conn.value(w, u), conn.value(u, v))


@given(fuzzy_graphs(min_vertices=2, max_vertices=6, connected=True))
@settings(max_examples=100, deadline=None)
def test_adding_an_edge_never_weakens_connectivity(g):
    missing = [
        (u, v)
        for u, v in combinations(g.vertices(), 2)
        if not g.has_edge(u, v)
    ]
    if not missing:
        return
    u, v = missing[0]
    cap = min(g.sigma(u), g.sigma(v))
    if cap.is_zero:
        return
    before = strength_of_connectedness(g)
    grown = build_graph(
        [(name, g.sigma(name)) for name in g.vertices()],
        list(g.edges()) + [(u, v, cap)],
    )
    after = strength_of_connectedness(grown)
    for x, y in combinations(g.vertices(), 2):
        assert after.value(x, y) >= before.value(x, y)


def test_tree5_classification():
    records = classify_edges(five_vertex_tree())
    assert records[("a", "b")].edge_class is EdgeClass.DELTA
    assert records[("a", "b")].residual == M("0.3")
    for key in (("a", "e"), ("b", "c"), ("c", "d"), ("c", "e")):
        assert records[key].edge_class is EdgeClass.ALPHA_STRONG, key
    classes = [record.edge_class for record in records.values()]
    assert classes.count(EdgeClass.DELTA) == 1
    assert classes.count(EdgeClass.ALPHA_STRONG) == 4
    assert classes.count(EdgeClass.BETA_STRONG) == 0


def test_alternating_cycle_classification():
    g = alternating_cycle(4, "0.5", "0.3")
    records = classify_edges(g)
    for (u, v), record in records.items():
        if record.grade == M("0.5"):
            assert record.edge_class is EdgeClass.ALPHA_STRONG
        else:
            assert record.edge_class is EdgeClass.BETA_STRONG
            assert record.residual == M("0.3")


def test_bridge_is_alpha_strong_with_zero_residual():
    g = build_graph(
        [("a", M("1")), ("b", M("1"))], [("a", "b", M("0.2"))]
    )
    assert classify_edge(g, "a", "b") is EdgeClass.ALPHA_STRONG
    assert classify_edges(g)[("a", "b")].residual == M("0")


def test_classify_edge_requires_an_edge():
    with pytest.raises(NoSuchEdgeError):
        classify_edge(five_vertex_tree(), "a", "c")


@given(fuzzy_graphs(min_vertices=2, max_vertices=6))
@settings(max_examples=60, deadline=None)
def test_every_edge_gets_exactly_one_class(g):
    records = classify_edges(g)
    assert set(records) == set(g.edge_pairs())
    for record in records.values():
        assert record.edge_class in (
            EdgeClass.ALPHA_STRONG,
            EdgeClass.BETA_STRONG,
            EdgeClass.DELTA,
        )


def test_strong_subgraph_of_tree5_drops_only_the_delta_edge():
    strong = strong_subgraph(five_vertex_tree())
    assert strong.edge_count == 4
    assert not strong.has_edge("a", "b")


def test_strong_subgraph_keeps_saturated_cycle_whole():
    g = alternating_cycle(6, "0.5", "0.3")
    assert strong_subgraph(g) == g


def test_strong_subgraph_idempotent_on_fuzzy_trees():
    for seed in range(25):
        g = random_fuzzy_tree(seed, 8, 3)
        once = strong_subgraph(g)
        assert strong_subgraph(once) == once


# ------------------------------------- forest route vs the kept reference


# (vertex count, edge probability, grade grid step, zero-sigma share,
# seeds); the reference costs O(m n^3), so the largest graphs get the
# fewest seeds.
REFERENCE_FAMILIES = [
    (6, 0.5, GRID, 0.0, 30),
    (10, 0.4, QUARTER, 0.2, 30),
    (16, 0.3, QUARTER, 0.0, 6),
    (24, 0.06, GRID, 0.1, 6),
    (32, 0.15, QUARTER, 0.1, 3),
    (40, 0.04, QUARTER, 0.0, 6),
    (40, 0.12, GRID, 0.0, 1),
    (40, 0.2, QUARTER, 0.1, 1),
]


def test_forest_route_matches_the_reference():
    seen = defaultdict(int)
    for n, p, step, zero_share, seeds in REFERENCE_FAMILIES:
        for seed in range(seeds):
            g = random_graph(seed, n, p, step, zero_share)
            records = classify_edges(g)
            assert records == classify_edges_reference(g), (n, p, seed)
            assert strength_of_connectedness(g) == conn_reference(g), (
                n,
                p,
                seed,
            )
            seen["disconnected"] += not graph_kind(g).is_connected
            seen["zero sigma"] += any(
                g.sigma(name).is_zero for name in g.vertices()
            )
            for record in records.values():
                seen[record.edge_class] += 1
    # the families reach every case they are meant to cover
    for case in ("disconnected", "zero sigma", *EdgeClass):
        assert seen[case] > 0, case


# ------------------------------------ oracle-free checks on larger graphs


large_graphs = st.builds(
    random_graph,
    seed=st.integers(0, 2**32),
    n=st.integers(20, 60),
    edge_probability=st.sampled_from([0.03, 0.08, 0.2]),
    step=st.sampled_from([GRID, QUARTER]),
    zero_sigma_share=st.sampled_from([0.0, 0.1]),
)


@given(large_graphs)
@settings(max_examples=25, deadline=None)
def test_strength_is_ultrametric_on_larger_graphs(g):
    conn = {
        key: grade.micro for key, grade in strength_of_connectedness(g).pairs()
    }
    for u, v, w in combinations(g.vertices(), 3):
        uv, uw, vw = conn[(u, v)], conn[(u, w)], conn[(v, w)]
        assert uw >= min(uv, vw)
        assert uv >= min(uw, vw)
        assert vw >= min(uv, uw)


def _joined(g: FuzzyGraph, u, v, usable) -> bool:
    """Whether u reaches v over the edges accepted by ``usable``."""
    adj = defaultdict(list)
    for x, y, grade in g.edges():
        adj[x].append((y, grade))
        adj[y].append((x, grade))
    seen, stack = {u}, [u]
    while stack:
        x = stack.pop()
        for y, grade in adj[x]:
            if y not in seen and usable(x, y, grade):
                seen.add(y)
                stack.append(y)
    return v in seen


@given(large_graphs)
@settings(max_examples=25, deadline=None)
def test_strong_edges_are_the_maximum_spanning_forest_edges(g):
    # uv with grade w lies in some maximum spanning forest iff no path of
    # grades > w joins u and v, and in every one iff no other path of
    # grades >= w does (Mathew and Sunitha 2009).
    for (u, v), record in classify_edges(g).items():
        w = record.grade
        in_some = not _joined(g, u, v, lambda x, y, grade: grade > w)
        in_every = not _joined(
            g,
            u,
            v,
            lambda x, y, grade: grade >= w and {x, y} != {u, v},
        )
        assert (record.edge_class is not EdgeClass.DELTA) == in_some
        assert (record.edge_class is EdgeClass.ALPHA_STRONG) == in_every


@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 12),
    st.sampled_from([0.05, 0.15, 0.3]),
    st.sampled_from([GRID, QUARTER]),
)
@settings(max_examples=100, deadline=None)
def test_merge_tree_climb_on_disconnected_graphs(
    seed, n, edge_probability, step
):
    # the residuals climb only between the ends of an edge, so this is
    # the test that reaches pairs in different trees
    g = random_graph(seed, n, edge_probability, step, 0.2)
    analysis = Analysis(g)
    assume(analysis.components > 1)
    rows, names = analysis.conn_rows(), g.vertices()
    pairs = list(combinations(range(n), 2))
    for (i, j), climbed in zip(pairs, analysis.conn(pairs), strict=True):
        u, v = names[i], names[j]
        assert climbed == rows[i][j] == conn_bruteforce(g, u, v).micro
        if not _joined(g, u, v, lambda *_: True):
            assert climbed == 0


@pytest.mark.parametrize("shape", ["path", "broom"])
def test_merge_tree_climb_matches_the_path_walk_on_deep_trees(shape):
    # up to 2000 deep as rooted forests, at most 11 deep as merge trees;
    # with three parts a third of the pairs lie in different trees
    for seed, chords, parts in [(0, 0, 1), (1, 2000, 1), (2, 0, 3)]:
        g = random_deep_graph(seed, 2000, shape, chords, parts=parts)
        analysis = Analysis(g)
        rooted = root_forest(forest_adjacency(analysis))
        assert analysis.rooted() == rooted
        rng = random.Random(seed)
        pairs = [tuple(rng.sample(range(2000), 2)) for _ in range(500)]
        assert list(analysis.conn(pairs)) == [
            path_min(rooted, analysis.mu, i, j) for i, j in pairs
        ]


# ---------------------------------- residual routes vs the kept reference


def deep_graphs(max_vertices: int, steps=(GRID, QUARTER, HALF)):
    return st.builds(
        random_deep_graph,
        seed=st.integers(0, 2**32),
        n=st.integers(2, max_vertices),
        shape=st.sampled_from(["path", "caterpillar", "broom"]),
        chords=st.integers(0, max_vertices),
        step=st.sampled_from(steps),
        zero_sigma_share=st.sampled_from([0.0, 0.2]),
        parts=st.integers(1, 3),
        weak_chords=st.booleans(),
    )


def _check_residual_routes(g: FuzzyGraph) -> None:
    """Every residual route of a fresh ``Analysis`` of g against the
    reference walk: each route is asked first on its own analysis, so
    none reads what another built."""
    reference = residual_reference(Analysis(g))
    a = Analysis(g)
    mu, in_forest = a.mu, a.in_forest
    assert a.residual() == reference
    # the cycle property: every edge of F is strong
    for grade, res, kept in zip(mu, reference, in_forest):
        assert not kept or res <= grade
    strong = [e for e, (w, res) in enumerate(zip(mu, reference)) if w >= res]
    assert Analysis(g).strong_edges() == strong
    delta_outside = all(
        w < res for w, res, kept in zip(mu, reference, in_forest) if not kept
    )
    assert Analysis(g).is_fuzzy_forest() == delta_outside


@given(deep_graphs(max_vertices=60))
@settings(max_examples=300, deadline=None)
def test_residual_routes_match_the_reference_on_deep_shapes(g):
    _check_residual_routes(g)


def test_residual_routes_match_the_reference_on_a_long_path():
    # a 2000-vertex path is 2000 deep, while its merge tree is at most
    # 11 deep
    cases = [(0, GRID, True), (1, GRID, False), (2, HALF, False)]
    for seed, step, weak in cases:
        g = random_deep_graph(seed, 2000, "path", 2000, step, weak_chords=weak)
        assert g.edge_count > 3900
        _check_residual_routes(g)


def test_deep_shapes_reach_every_case():
    seen = defaultdict(int)
    for seed in range(60):
        step = [GRID, QUARTER, HALF][seed % 3]
        g = random_deep_graph(
            seed, 20, ["path", "caterpillar", "broom"][seed // 3 % 3], 15,
            step, 0.2 if seed % 2 else 0.0, 1 + seed % 3, seed % 5 == 0,
        )
        kind = graph_kind(g)
        seen["disconnected"] += not kind.is_connected
        seen["fuzzy forest"] += Analysis(g).is_fuzzy_forest()
        seen["zero sigma"] += any(g.sigma(x).is_zero for x in g.vertices())
        for record in classify_edges(g).values():
            seen[record.edge_class] += 1
    for case in ("disconnected", "fuzzy forest", "zero sigma", *EdgeClass):
        assert seen[case] > 0, case


@given(deep_graphs(max_vertices=12))
@settings(max_examples=150, deadline=None)
def test_residuals_match_the_oracle_on_small_deep_shapes(g):
    a = Analysis(g)
    oracle = classify_edges_reference(g)
    assert [oracle[(u, v)].residual.micro for u, v, _ in g.edges()] == (
        a.residual()
    )
    assert [
        e for e, (u, v, _) in enumerate(g.edges())
        if oracle[(u, v)].edge_class is not EdgeClass.DELTA
    ] == Analysis(g).strong_edges()


# --------------------------------- the strong edges off the merge tree

THIRD = MICRO // 3
# grids of 2, 3 and 100 steps: the coarse ones make most grades tie
TIE_STEPS = (HALF, THIRD, GRID)


def _check_strong_record(g: FuzzyGraph) -> None:
    """``strong_outside``, ``strong_edges`` and ``is_fuzzy_forest``,
    each asked first on a fresh ``Analysis`` of g, against the classes
    that the residuals of the reference walk give."""
    a = Analysis(g)
    mu, in_forest = a.mu, a.in_forest
    reference = residual_reference(a)
    outside = [
        e
        for e, (w, res, kept) in enumerate(zip(mu, reference, in_forest))
        if not kept and w >= res
    ]
    # an edge outside F is never alpha: the forest path ties it or beats it
    assert all(mu[e] == reference[e] for e in outside)
    assert Analysis(g).strong_outside() == outside
    assert Analysis(g).strong_edges() == [
        e for e, (w, res) in enumerate(zip(mu, reference)) if w >= res
    ]
    assert Analysis(g).is_fuzzy_forest() == (not outside)


@given(deep_graphs(max_vertices=60, steps=TIE_STEPS))
@settings(max_examples=300, deadline=None)
def test_the_strong_record_matches_the_reference_on_deep_shapes(g):
    _check_strong_record(g)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(2, 30),
    st.sampled_from([0.1, 0.3, 0.7]),
    st.sampled_from(TIE_STEPS),
)
@settings(max_examples=200, deadline=None)
def test_the_strong_record_matches_the_reference_on_random_graphs(
    seed, n, edge_probability, step
):
    _check_strong_record(random_graph(seed, n, edge_probability, step, 0.1))


def test_the_strong_record_matches_the_reference_on_long_paths():
    # 2000 deep as rooted forests, with as many chords as vertices
    for seed, step in enumerate(TIE_STEPS):
        g = random_deep_graph(seed, 2000, "path", 2000, step)
        _check_strong_record(g)


def test_a_tie_outside_the_forest_is_strong_and_a_weaker_edge_is_not():
    # a triangle of equal grades keeps its last edge out of F, and that
    # edge ties the two others: its ends are joined at its own grade
    triangle = build_graph(
        [(x, M("1")) for x in "abc"],
        [("a", "b", M("0.5")), ("a", "c", M("0.5")), ("b", "c", M("0.5"))],
    )
    a = Analysis(triangle)
    assert a.in_forest == [True, True, False]
    assert a.strong_outside() == [2] and not a.is_fuzzy_forest()
    assert a.strong_edges() == [0, 1, 2]
    # joined above 0.4 before the edge of 0.4 is taken: delta
    weaker = build_graph(
        [(x, M("1")) for x in "abc"],
        [("a", "b", M("0.5")), ("a", "c", M("0.5")), ("b", "c", M("0.4"))],
    )
    a = Analysis(weaker)
    assert a.strong_outside() == [] and a.is_fuzzy_forest()
    assert a.strong_edges() == [0, 1]


def test_only_the_residuals_climb_the_merge_tree(monkeypatch):
    graphs = [
        random_sparse_graph(0, 200, 100),
        random_deep_graph(1, 300, "path", 300, QUARTER),
        random_deep_graph(2, 300, "caterpillar", 300, weak_chords=True),
        random_fuzzy_tree(3, 40, 3),
        make_saturated_cycle(SaturatedCycleSpec(12, M("0.6"), M("0.2"))),
    ]

    def views(g: FuzzyGraph) -> tuple:
        return (
            Analysis(g).kind(),
            Analysis(g).strong_edges(),
            Analysis(g).wiener(),
            Analysis(g).ds_rows(),
            strong_subgraph(g),
        )

    expected = [views(g) for g in graphs]
    assert [Analysis(g).is_fuzzy_forest() for g in graphs] == [
        False, False, True, True, False
    ]

    def refuse(self, pairs):
        raise AssertionError("the merge tree was climbed")

    monkeypatch.setattr(MergeTree, "conn", refuse)
    assert [views(g) for g in graphs] == expected
    with pytest.raises(AssertionError, match="the merge tree was climbed"):
        Analysis(graphs[0]).residual()


def test_connected_graphs_never_root_the_forest(monkeypatch):
    cycle = make_saturated_cycle(SaturatedCycleSpec(12, M("0.6"), M("0.2")))
    sparse = random_sparse_graph(0, 200, 100)
    tree5, path = five_vertex_tree(), random_deep_graph(3, 300, "path", 300)
    apart = random_deep_graph(1, 40, "broom", 10, parts=3)
    sums = [
        (Analysis(g).wiener(), Analysis(g).ds_rows()) for g in (cycle, sparse)
    ]
    kinds = [Analysis(g).kind() for g in (cycle, sparse, tree5, path)]
    assert kinds[0].is_saturated_fuzzy_cycle
    assert not any(kind.is_fuzzy_cycle for kind in kinds[1:])
    with pytest.raises(StrongDisconnectedError) as unpatched:
        Analysis(apart).wiener()

    def refuse(self):
        raise AssertionError("the forest was rooted")

    monkeypatch.setattr(Analysis, "rooted", refuse)
    for g, (wiener, ds) in zip((cycle, sparse), sums):
        assert not Analysis(g).is_fuzzy_forest()
        assert Analysis(g).wiener() == wiener
        assert Analysis(g).ds_rows() == ds
    assert [Analysis(g).kind() for g in (cycle, sparse, tree5, path)] == kinds
    assert len(Analysis(path).strong_edges()) >= 299
    for ask in (Analysis.wiener, Analysis.require_strong_paths):
        with pytest.raises(StrongDisconnectedError) as patched:
            ask(Analysis(apart))
        assert str(patched.value) == str(unpatched.value)


@pytest.mark.parametrize(
    "edges, other",
    [
        # vertex 0 alone
        ([("b", "c", "0.5"), ("c", "d", "0.7")], "b"),
        # vertex 0 in one tree with vertex 1, not with vertex 2
        ([("a", "b", "0.5"), ("c", "d", "0.7")], "c"),
        # ... and with vertex 3 through merges of three grades
        ([("a", "e", "0.6"), ("b", "e", "0.4"), ("c", "d", "0.7")], "c"),
        # ... and vertex 0 one merge below the top of its tree
        ([("a", "b", "0.3"), ("b", "d", "0.9"), ("c", "e", "0.5")], "c"),
    ],
    ids=["0 alone", "0 with 1", "0 with 1 and 3", "0 below the top"],
)
def test_the_first_pair_with_no_strong_path_starts_at_vertex_0(edges, other):
    g = build_graph(
        [(name, M("1")) for name in "abcde"],
        [(u, v, M(grade)) for u, v, grade in edges],
    )
    message = f"no strong path between 'a' and {other!r}"
    for ask in (
        wiener_index,
        wi_bruteforce,
        lambda g: Analysis(g).require_strong_paths(),
    ):
        with pytest.raises(StrongDisconnectedError) as info:
            ask(g)
        assert str(info.value) == message


def test_a_graph_with_no_edge_outside_the_forest_has_no_residual():
    trees = [
        random_fuzzy_tree(0, 50, 0),
        random_deep_graph(1, 40, "broom", 0, zero_sigma_share=0.2, parts=3),
        build_graph([("a", M("1"))], []),
        build_graph([], []),
    ]
    for g in trees:
        a = Analysis(g)
        assert a.residual() == [0] * g.edge_count
        assert a.is_fuzzy_forest()
        assert a.strong_edges() == list(range(g.edge_count))
    assert graph_kind(trees[0]).is_fuzzy_tree


@pytest.mark.parametrize("shape", ["path", "broom"])
@pytest.mark.parametrize("n", [2, 3, 100, 2000])
def test_the_kruskal_merge_tree_is_at_most_log2_n_deep(shape, n):
    # the residuals climb the tree from both ends by size and
    # require_strong_paths climbs it from vertex 0
    for seed, parts in [(0, 1), (1, 3)]:
        a = Analysis(random_deep_graph(seed, n, shape, n, parts=parts))
        up, size, merged = a._up, a._size, a._merged
        assert sorted(merged) == [x for x in range(n) if up[x] != x]
        assert len(merged) == n - a.components == sum(a.in_forest)
        for x in merged:
            assert size[up[x]] > size[x]
        for x in range(n):
            depth = 0
            while up[x] != x:
                x, depth = up[x], depth + 1
            assert 1 << depth <= n


@pytest.mark.parametrize("seed,n", [(0, 200), (1, 350), (2, 500)])
def test_maximum_spanning_tree_weight_matches_networkx(seed, n):
    nx = pytest.importorskip("networkx")
    g = random_graph(seed, n, 12 / n)
    reference = nx.Graph()
    reference.add_nodes_from(g.vertices())
    for u, v, grade in g.edges():
        reference.add_edge(u, v, weight=grade.micro)
    assert nx.is_connected(reference)
    expected = nx.maximum_spanning_tree(reference).size(weight="weight")
    tree = maximum_spanning_tree(g)
    assert tree.total_strength * MICRO == expected
    assert nx.is_tree(reference.edge_subgraph(tree.edges))
    assert len(tree.edges) == n - 1


def test_analysis_never_deletes_edges(monkeypatch):
    # Guards against a return of the per-edge remove-and-recompute route,
    # which made an 80-vertex classification take seconds.
    g = random_graph(6, 80, 0.1)
    assert g.edge_count == 325 and graph_kind(g).is_connected

    def refuse(self, u, v):
        raise AssertionError("edge deletion on the production path")

    monkeypatch.setattr(FuzzyGraph, "remove_edge", refuse)
    assert len(classify_edges(g)) == 325
    assert len(strength_of_connectedness(g)) == 80 * 79 // 2
    assert len(geodesic_distance(g)) == 80 * 79 // 2
    assert graph_kind(g).is_connected


def test_strength_table_builds_no_object_per_pair(monkeypatch):
    g = random_graph(3, 300, 0.03)
    assert g.vertex_count == 300 and g.edge_count >= 1000
    built = []
    original = Membership.__post_init__

    def counting(self):
        built.append(self.micro)
        original(self)

    monkeypatch.setattr(Membership, "__post_init__", counting)
    conn = strength_of_connectedness(g)
    ds_len = len(geodesic_distance(g))
    assert built == []
    assert len(conn) == ds_len == 300 * 299 // 2
    u, v = g.vertices()[:2]
    assert isinstance(conn.value(u, v), Membership)
    assert len(built) == 1
