from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings

from fuzzygraph import (
    BadParamsError,
    BadSpecError,
    MICRO,
    DisconnectedError,
    EdgeClass,
    FuzzyGraph,
    Membership,
    SaturatedCycleSpec,
    build_graph,
    classify_edges,
    fuzzy_tree_mst,
    graph_kind,
    is_fuzzy_cycle,
    is_fuzzy_tree,
    is_saturated_fuzzy_cycle,
    make_saturated_cycle,
    maximum_spanning_tree,
    random_fuzzy_tree,
    strength_of_connectedness,
    wi_bruteforce,
    wiener_index,
)
from fuzzygraph import structure
from fuzzygraph.analysis import Analysis
from fuzzygraph.samples import alternating_cycle, five_vertex_tree
from fuzzygraph.structure import _decode_pruefer, _vertex_names

from conftest import fuzzy_graphs
from support import (
    crisp_cycles,
    decode_pruefer_heap,
    random_fuzzy_tree_reference,
    saturated_reference,
    spanning_tree_totals,
)


def M(text: str) -> Membership:
    return Membership.parse(text)


def test_tree5_mst():
    tree = maximum_spanning_tree(five_vertex_tree())
    assert tree.edges == (("a", "e"), ("b", "c"), ("c", "d"), ("c", "e"))
    assert tree.total_strength == Fraction(17, 10)


def test_tree5_mst_matches_exhaustive_enumeration():
    g = five_vertex_tree()
    totals = spanning_tree_totals(g)
    best = max(total for _, total in totals)
    tree = maximum_spanning_tree(g)
    assert tree.total_strength == Fraction(best, 10**6)
    winners = [edges for edges, total in totals if total == best]
    assert winners == [frozenset(tree.edges)]  # unique maximum


def test_mst_matches_enumeration_on_random_graphs(small_graphs):
    for g in small_graphs:
        best = max(total for _, total in spanning_tree_totals(g))
        tree = maximum_spanning_tree(g)
        assert tree.total_strength == Fraction(best, 10**6)


def test_mst_of_a_tree_is_itself():
    g = five_vertex_tree().remove_edge("a", "b")
    tree = maximum_spanning_tree(g)
    assert set(tree.edges) == set(g.edge_pairs())


def test_cycle4_mst_drops_lexicographically_later_eta_edge():
    g = alternating_cycle(4, "0.5", "0.3")
    tree = maximum_spanning_tree(g)
    assert tree.total_strength == Fraction(13, 10)
    dropped = set(g.edge_pairs()) - set(tree.edges)
    assert dropped == {("v01", "v02")}
    best = max(total for _, total in spanning_tree_totals(g))
    assert best == 1_300_000


def test_mst_requires_connectivity():
    g = build_graph(
        [("a", M("1")), ("b", M("1")), ("c", M("1"))],
        [("a", "b", M("0.5"))],
    )
    with pytest.raises(DisconnectedError):
        maximum_spanning_tree(g)


def test_is_fuzzy_tree_on_samples():
    assert is_fuzzy_tree(five_vertex_tree())
    assert is_fuzzy_tree(five_vertex_tree().remove_edge("a", "b"))
    assert not is_fuzzy_tree(alternating_cycle(4, "0.5", "0.3"))


def test_fuzzy_cycle_with_two_minima_is_not_a_fuzzy_tree():
    g = build_graph(
        [(name, M("1")) for name in "abc"],
        [
            ("a", "b", M("0.2")),
            ("b", "c", M("0.2")),
            ("a", "c", M("0.9")),
        ],
    )
    assert is_fuzzy_cycle(g)
    assert not is_fuzzy_tree(g)


def test_is_fuzzy_tree_requires_connectivity():
    g = build_graph(
        [("a", M("1")), ("b", M("1")), ("c", M("1"))],
        [("a", "b", M("0.5"))],
    )
    with pytest.raises(DisconnectedError):
        is_fuzzy_tree(g)


def test_is_fuzzy_cycle():
    assert is_fuzzy_cycle(alternating_cycle(4, "0.5", "0.3"))
    assert is_fuzzy_cycle(alternating_cycle(6, "0.9", "0.2"))
    triangle = build_graph(
        [(name, M("1")) for name in "abc"],
        [
            ("a", "b", M("0.2")),
            ("b", "c", M("0.4")),
            ("a", "c", M("0.9")),
        ],
    )
    assert not is_fuzzy_cycle(triangle)  # weakest grade attained once
    path = five_vertex_tree().remove_edge("a", "b")
    assert not is_fuzzy_cycle(path)
    assert not is_fuzzy_cycle(five_vertex_tree())
    # n = m = 6 and every degree is 2, but the graph is disconnected
    triangles = build_graph(
        [(name, M("1")) for name in "abcxyz"],
        [
            (u, v, M("0.5"))
            for u, v in ("ab", "bc", "ac", "xy", "yz", "xz")
        ],
    )
    assert not is_fuzzy_cycle(triangles)


@pytest.mark.parametrize(
    "edges",
    [
        ["ab", "ac", "ad", "bc"],  # d hangs from vertex 0, of degree 3
        ["ab", "bc", "bd", "cd"],  # vertex 0 hangs from b, degree 1
        ["ab", "ac", "bc", "cd"],  # d hangs from c, vertex 0 of degree 2
    ],
    ids=["off vertex 0", "vertex 0 hangs", "off vertex 2"],
)
def test_a_triangle_with_a_pendant_vertex_is_no_fuzzy_cycle(edges):
    # n = m = 4, connected and every grade tied, but degrees 3, 2, 2, 1
    g = build_graph(
        [(name, M("1")) for name in "abcd"],
        [(u, v, M("0.5")) for u, v in edges],
    )
    a = Analysis(g)
    assert a.components == 1 and a._cycle_block() is None
    kind = graph_kind(g)
    assert kind.is_connected and not kind.is_fuzzy_tree
    assert not kind.is_fuzzy_cycle and not kind.is_saturated_fuzzy_cycle
    assert wiener_index(g) == wi_bruteforce(g)


def test_two_disjoint_triangles_are_no_fuzzy_cycle():
    # n = m = 6, every degree 2 and every grade tied, but two trees
    g = build_graph(
        [(name, M("1")) for name in "abcxyz"],
        [(u, v, M("0.5")) for u, v in ("ab", "bc", "ac", "xy", "yz", "xz")],
    )
    a = Analysis(g)
    assert a.components == 2 and a._cycle_block() is None
    kind = graph_kind(g)
    assert not kind.is_connected and not kind.is_fuzzy_cycle
    assert not kind.is_saturated_fuzzy_cycle


def test_a_crisp_cycle_with_one_weakest_edge_is_a_fuzzy_tree():
    g = build_graph(
        [(name, M("1")) for name in "abcde"],
        [
            ("a", "b", M("0.5")),
            ("b", "c", M("0.7")),
            ("c", "d", M("0.5")),
            ("d", "e", M("0.6")),
            ("a", "e", M("0.4")),
        ],
    )
    assert Analysis(g)._cycle_block() is None
    kind = graph_kind(g)
    assert kind.is_connected and kind.is_fuzzy_tree
    assert not kind.is_fuzzy_cycle and not kind.is_saturated_fuzzy_cycle
    assert not is_fuzzy_cycle(g) and is_fuzzy_tree(g)


def test_uniform_cycle_is_fuzzy_cycle_but_not_saturated():
    g = build_graph(
        [(name, M("1")) for name in "abcd"],
        [
            ("a", "b", M("0.3")),
            ("b", "c", M("0.3")),
            ("c", "d", M("0.3")),
            ("a", "d", M("0.3")),
        ],
    )
    assert is_fuzzy_cycle(g)
    assert not is_saturated_fuzzy_cycle(g)  # no alpha edge anywhere
    kind = graph_kind(g)
    assert kind.is_fuzzy_cycle and not kind.is_saturated_fuzzy_cycle


def test_saturated_cycles():
    assert is_saturated_fuzzy_cycle(alternating_cycle(4, "0.5", "0.3"))
    assert is_saturated_fuzzy_cycle(alternating_cycle(8, "0.7", "0.1"))
    assert not is_saturated_fuzzy_cycle(five_vertex_tree())


def test_no_five_cycle_is_saturated():
    # exhaustive over a grade grid: odd cycles cannot alternate
    names = [f"v{i}" for i in range(5)]
    vertices = [(name, M("1")) for name in names]
    grid = [M("0.2"), M("0.5"), M("0.8")]
    for grades in product(grid, repeat=5):
        edges = [
            (names[i], names[(i + 1) % 5], grades[i]) for i in range(5)
        ]
        assert not is_saturated_fuzzy_cycle(build_graph(vertices, edges))


def test_make_saturated_cycle_layout():
    spec = SaturatedCycleSpec(4, M("0.5"), M("0.3"))
    g = make_saturated_cycle(spec)
    assert g.vertices() == ("v00", "v01", "v02", "v03")
    assert g.mu("v00", "v01") == M("0.5")
    assert g.mu("v01", "v02") == M("0.3")
    assert g.mu("v02", "v03") == M("0.5")
    assert g.mu("v03", "v00") == M("0.3")
    assert is_saturated_fuzzy_cycle(g)


def test_make_saturated_cycle_alpha_beta_counts():
    for n in (4, 6, 8):
        g = make_saturated_cycle(SaturatedCycleSpec(n, M("0.6"), M("0.2")))
        classes = [
            record.edge_class for record in classify_edges(g).values()
        ]
        assert classes.count(EdgeClass.ALPHA_STRONG) == n // 2
        assert classes.count(EdgeClass.BETA_STRONG) == n // 2


@pytest.mark.parametrize(
    "n,kappa,eta",
    [
        (3, "0.5", "0.3"),
        (5, "0.5", "0.3"),
        (2, "0.5", "0.3"),
        (4, "0.3", "0.3"),
        (4, "0.2", "0.5"),
        (4, "0.5", "0"),
    ],
)
def test_saturated_cycle_spec_validation(n, kappa, eta):
    with pytest.raises(BadSpecError):
        SaturatedCycleSpec(n, M(kappa), M(eta))


@pytest.mark.parametrize(
    "n,kappa,eta",
    [
        (4.0, M("0.5"), M("0.3")),
        (True, M("0.5"), M("0.3")),
        ("4", M("0.5"), M("0.3")),
        (4, 0.5, M("0.3")),
        (4, M("0.5"), 300_000),
        (4, M("0.5"), None),
    ],
)
def test_saturated_cycle_spec_rejects_a_length_or_grade_of_another_type(
    n, kappa, eta
):
    with pytest.raises(BadSpecError):
        SaturatedCycleSpec(n, kappa, eta)


def test_make_saturated_cycle_is_the_checked_graph():
    for n in range(4, 65, 2):
        names = [f"v{i:02d}" for i in range(n)]
        for kappa in range(2, 11):
            for eta in range(1, kappa):
                spec = SaturatedCycleSpec(
                    n, Membership(kappa * 100_000), Membership(eta * 100_000)
                )
                grades = [kappa * 100_000, eta * 100_000] * (n // 2)
                mu = dict(zip(zip(names, names[1:] + names[:1]), grades))
                expected = FuzzyGraph.from_micro(dict.fromkeys(names, MICRO), mu)
                assert make_saturated_cycle(spec) == expected, (n, kappa, eta)


def test_random_fuzzy_tree_on_two_vertices_matches_the_reference():
    for seed in range(25):
        for extra in range(4):
            assert random_fuzzy_tree(seed, 2, extra) == (
                random_fuzzy_tree_reference(seed, 2, extra)
            ), (seed, extra)


def test_generators_run_no_check_of_fill(monkeypatch):
    def refuse(self, sigma, mu):
        raise AssertionError("_fill called")

    triples = [(0, 2, 0), (1, 2, 3), (2, 40, 0), (3, 40, 4)]
    trees = [random_fuzzy_tree_reference(*triple) for triple in triples]
    names = [f"v{i:02d}" for i in range(4)]
    cycle = FuzzyGraph.from_micro(
        dict.fromkeys(names, MICRO),
        dict(zip(zip(names, names[1:] + names[:1]), [600_000, 200_000] * 2)),
    )
    monkeypatch.setattr(FuzzyGraph, "_fill", refuse)
    assert [random_fuzzy_tree(*triple) for triple in triples] == trees
    spec = SaturatedCycleSpec(4, M("0.6"), M("0.2"))
    assert make_saturated_cycle(spec) == cycle


def test_the_pruefer_decode_matches_the_heap_decode_on_every_sequence():
    decoded = 0
    for n in range(2, 8):
        for seq in product(range(n), repeat=n - 2):
            edges = _decode_pruefer([*seq], n)
            assert edges == decode_pruefer_heap([*seq], n), (n, seq)
            decoded += 1
    assert decoded == 1 + 3 + 4**2 + 5**3 + 6**4 + 7**5 == 18_248


def test_the_pruefer_decode_matches_the_heap_decode_on_long_sequences():
    rng = random.Random(3)
    for n in [*range(8, 40), 500, 2000]:
        seq = [rng.randrange(n) for _ in range(n - 2)]
        assert _decode_pruefer(seq, n) == decode_pruefer_heap(seq, n), n
    # a path and a star, the deepest and the shallowest trees
    assert _decode_pruefer([*range(1, 999)], 1000) == [
        *zip(range(999), range(1, 1000))
    ]
    assert _decode_pruefer([0] * 998, 1000) == [
        *zip(range(1, 999), [0] * 998), (0, 999)
    ]


def test_the_vertex_name_memo_holds_the_largest_n_of_each_width(monkeypatch):
    memo: dict = {}
    monkeypatch.setattr(structure, "_NAMES_BY_WIDTH", memo)
    for n in [2, 7, 3, 100, 11, 5, 101, 1000, 250]:
        width = max(2, len(str(n - 1)))
        names = _vertex_names(n)
        assert names == [f"v{i:0{width}d}" for i in range(n)]
        names.append("x")  # the caller's own list
    # each width holds the names of the largest n built at that width
    assert {w: len(names) for w, names in memo.items()} == {2: 100, 3: 1000}
    assert _vertex_names(3) == ["v00", "v01", "v02"]


def test_random_fuzzy_tree_is_deterministic():
    a = random_fuzzy_tree(123, 9, 3)
    b = random_fuzzy_tree(123, 9, 3)
    assert a == b
    assert a != random_fuzzy_tree(124, 9, 3)


def test_random_fuzzy_tree_two_vertices():
    g = random_fuzzy_tree(5, 2, 0)
    assert g.vertex_count == 2
    assert g.edge_count == 1
    assert is_fuzzy_tree(g)


def test_random_fuzzy_tree_always_fuzzy_tree():
    # 1000 seeds at the size used in the acceptance run
    for seed in range(1000):
        assert is_fuzzy_tree(random_fuzzy_tree(seed, 10, 3))


def test_random_fuzzy_tree_matches_the_reference_generator():
    rng = random.Random(8)
    triples = [(0, 2, 0), (1, 2, 3), (2, 3, 3), (3, 3, 1), (4, 200, 3)]
    while len(triples) < 520:
        large = len(triples) % 20 == 0
        n = rng.randint(101, 200) if large else rng.randint(2, 40)
        triples.append((rng.randrange(1 << 63), n, rng.randint(0, 4)))
    for seed, n, extra in triples:
        assert (
            random_fuzzy_tree(seed, n, extra).serialize()
            == random_fuzzy_tree_reference(seed, n, extra).serialize()
        ), (seed, n, extra)


@pytest.mark.parametrize("n", [200, 1000])
def test_random_fuzzy_tree_matches_the_reference_at_middle_sizes(n):
    # larger trees than the test above draws: the generator's merge-tree
    # climb against the reference's walk over the rooted tree
    for seed in range(2):
        assert (
            random_fuzzy_tree(seed, n, 3).serialize()
            == random_fuzzy_tree_reference(seed, n, 3).serialize()
        ), seed


def test_generators_build_no_membership(monkeypatch):
    spec = SaturatedCycleSpec(12, M("0.6"), M("0.2"))
    built = []
    original = Membership.__post_init__

    def counting(self):
        built.append(self.micro)
        original(self)

    monkeypatch.setattr(Membership, "__post_init__", counting)
    assert random_fuzzy_tree(0, 200, 20).edge_count == 219
    assert make_saturated_cycle(spec).edge_count == 12
    assert built == []


def test_random_fuzzy_tree_param_validation():
    with pytest.raises(BadParamsError):
        random_fuzzy_tree(1, 1, 0)
    with pytest.raises(BadParamsError):
        random_fuzzy_tree(1, 5, -1)


@pytest.mark.parametrize(
    "n, extra_edges",
    [
        (4.0, 0),
        (True, 0),
        ("4", 0),
        (None, 0),
        (4, 1.0),
        (4, True),
        (4, False),
        (4, "1"),
        (4, None),
    ],
)
def test_random_fuzzy_tree_rejects_a_count_of_another_type(n, extra_edges):
    with pytest.raises(BadParamsError, match="must be an int"):
        random_fuzzy_tree(0, n, extra_edges)


def test_fuzzy_tree_strong_edges_are_exactly_the_mst():
    for seed in range(40):
        g = random_fuzzy_tree(seed, 8, 3)
        tree = fuzzy_tree_mst(g)
        assert tree is not None
        records = classify_edges(g)
        strong = {
            key
            for key, record in records.items()
            if record.edge_class is not EdgeClass.DELTA
        }
        assert strong == set(tree.edges)
        assert all(
            records[key].edge_class is EdgeClass.ALPHA_STRONG
            for key in tree.edges
        )
        assert not any(
            record.edge_class is EdgeClass.BETA_STRONG
            for record in records.values()
        )


def test_fuzzy_tree_connectivity_equals_tree_connectivity():
    for seed in range(25):
        g = random_fuzzy_tree(seed, 8, 3)
        tree = fuzzy_tree_mst(g)
        skeleton = g.edge_subgraph(tree.edges)
        assert strength_of_connectedness(g) == strength_of_connectedness(
            skeleton
        )


def test_fuzzy_tree_mst_unique_by_enumeration():
    for seed in range(20):
        g = random_fuzzy_tree(seed, 7, 2)
        totals = spanning_tree_totals(g)
        best = max(total for _, total in totals)
        winners = [edges for edges, total in totals if total == best]
        assert len(winners) == 1
        assert winners[0] == frozenset(fuzzy_tree_mst(g).edges)


def test_graph_kind_flags():
    kind = graph_kind(five_vertex_tree())
    assert kind.is_connected and kind.is_fuzzy_tree
    assert not kind.is_fuzzy_cycle and not kind.is_saturated_fuzzy_cycle
    kind = graph_kind(alternating_cycle(6, "0.5", "0.3"))
    assert kind.is_connected and kind.is_fuzzy_cycle
    assert kind.is_saturated_fuzzy_cycle and not kind.is_fuzzy_tree
    disconnected = build_graph(
        [("a", M("1")), ("b", M("1")), ("c", M("1"))],
        [("a", "b", M("0.5"))],
    )
    kind = graph_kind(disconnected)
    assert not kind.is_connected and not kind.is_fuzzy_tree


@given(fuzzy_graphs(min_vertices=1, max_vertices=6))
@settings(max_examples=80, deadline=None)
def test_graph_kind_invariants(g):
    kind = graph_kind(g)
    assert kind.is_fuzzy_cycle == is_fuzzy_cycle(g)
    assert kind.is_saturated_fuzzy_cycle == is_saturated_fuzzy_cycle(g)
    if kind.is_saturated_fuzzy_cycle:
        assert kind.is_fuzzy_cycle
    if kind.is_fuzzy_cycle:
        assert not kind.is_fuzzy_tree
    if kind.is_fuzzy_tree or kind.is_fuzzy_cycle:
        assert kind.is_connected


@given(crisp_cycles())
@settings(max_examples=300, deadline=None)
def test_saturation_by_the_weakest_grade_matches_the_edge_classes(g):
    a = Analysis(g)
    assert a.kind().is_saturated_fuzzy_cycle == (
        a.is_fuzzy_cycle() and saturated_reference(a)
    )
