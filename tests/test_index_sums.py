"""The index sums and the pair rows of ``analysis.Analysis``.

``wiener()`` and ``connectivity()`` never build the all-pairs rows: CI
is summed by the Kruskal pass, WI over the blocks of the strong
subgraph.  ``conn_rows()`` and ``ds_rows()`` are merged over the same
two decompositions.  Every test here pins them to an independent route:
the per-source rows of ``support`` (one forest walk or one Dijkstra per
source, summed by ``pair_sum``), brute force on at most twelve
vertices, networkx, the corrected theorem-star closed form, or an
edge-decomposition sum written out below.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzygraph import (
    Membership,
    SaturatedCycleSpec,
    StrongDisconnectedError,
    build_graph,
    check_corollary_star,
    check_theorem_star,
    ci_bruteforce,
    conn_bruteforce,
    connectivity_index,
    ds_bruteforce,
    format_fraction,
    geodesic_distance,
    make_saturated_cycle,
    random_fuzzy_tree,
    strong_edges_bruteforce,
    strong_subgraph,
    strength_of_connectedness,
    wi_bruteforce,
    wiener_index,
)
from fuzzygraph.analysis import Analysis
from fuzzygraph.cli import main
from fuzzygraph.model import MICRO

from support import (
    GRID,
    above_diagonal,
    conn_rows_reference,
    ds_rows_reference,
    random_deep_graph,
    random_graph,
)

QUARTER = MICRO // 4


def pair_route(g) -> tuple[Fraction | str, Fraction]:
    """(WI or the StrongDisconnectedError message, CI) from the per-source
    reference rows."""
    analysis = Analysis(g)
    ds, names = ds_rows_reference(analysis), analysis.names
    missing = next(
        (
            (u, names[j])
            for i, (u, row) in enumerate(zip(names, ds))
            for j in range(i + 1, len(names))
            if row[j] is None
        ),
        None,
    )
    if missing is None:
        wiener = analysis.pair_sum(ds)
    else:
        wiener = f"no strong path between {missing[0]!r} and {missing[1]!r}"
    return wiener, analysis.pair_sum(conn_rows_reference(analysis))


def fast_route(
    g, rows_first: bool = False
) -> tuple[Fraction | str, Fraction]:
    analysis = Analysis(g)
    if rows_first:
        # as the full CLI report does; wiener() must answer the same
        analysis.ds_rows()
    try:
        wiener = analysis.wiener()
    except StrongDisconnectedError as exc:
        wiener = str(exc)
    return wiener, analysis.connectivity()


def tree_with_chords(
    rng: random.Random, n: int, chords: int, step: int, gaps: float = 0.05
):
    """A random attachment tree plus ``chords`` further edges, grades on
    a grid of ``step`` micro-units, so a coarse grid ties many grades and
    the chords turn into beta edges that close cycles and larger blocks.
    About a ``gaps`` share of the vertices get sigma 0, and as many skip
    the attachment, which leaves the graph disconnected."""
    levels = MICRO // step
    names = [f"w{i:03d}" for i in range(n)]
    sigma = [
        0 if rng.random() < gaps else rng.randint(1, levels) * step
        for _ in range(n)
    ]
    pairs = set()
    for i in range(1, n):
        j = rng.randrange(i)
        if sigma[i] and sigma[j] and rng.random() >= gaps:
            pairs.add((j, i))
    candidates = [
        (i, j)
        for i, j in combinations(range(n), 2)
        if sigma[i] and sigma[j] and (i, j) not in pairs
    ]
    pairs.update(rng.sample(candidates, min(chords, len(candidates))))
    edges = [
        (
            names[i],
            names[j],
            Membership(rng.randint(1, min(sigma[i], sigma[j]) // step) * step),
        )
        for i, j in sorted(pairs)
    ]
    return build_graph(
        [(name, Membership(grade)) for name, grade in zip(names, sigma)], edges
    )


@st.composite
def blocky_graphs(draw, max_vertices: int = 12):
    n = draw(st.integers(0, max_vertices))
    step = draw(st.sampled_from([QUARTER, QUARTER, MICRO // 100]))
    chords = draw(st.integers(0, 2 * n))
    seed = draw(st.integers(0, 2**32 - 1))
    return tree_with_chords(random.Random(seed), n, chords, step)


@settings(max_examples=400, deadline=None)
@given(blocky_graphs())
def test_index_sums_match_the_pair_rows(g):
    wiener, connectivity = pair_route(g)
    assert fast_route(g) == (wiener, connectivity)
    assert fast_route(g, rows_first=True) == (wiener, connectivity)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 12))
def test_index_sums_match_the_pair_rows_on_random_graphs(seed, n):
    rng = random.Random(seed)
    g = random_graph(
        seed,
        n,
        rng.random(),
        rng.choice([MICRO // 100, QUARTER]),
        rng.choice([0.0, 0.2]),
    )
    assert fast_route(g) == pair_route(g)


def test_index_sums_on_the_smallest_graphs():
    empty = build_graph([], [])
    assert fast_route(empty) == (0, 0)
    single = build_graph([("a", Membership.parse("0.7"))], [])
    assert fast_route(single) == (0, 0)
    zero = build_graph([("a", Membership(0))], [])
    assert fast_route(zero) == (0, 0)
    apart = build_graph(
        [("a", Membership.parse("0.5")), ("b", Membership(0))], []
    )
    assert fast_route(apart) == pair_route(apart)
    assert fast_route(apart)[0] == "no strong path between 'a' and 'b'"


def test_the_first_missing_pair_is_the_lowest_unreached_vertex():
    # vertex a reaches c but not b; b and d are joined
    one = Membership.parse("1")
    g = build_graph(
        [(name, one) for name in "abcd"],
        [("a", "c", Membership.parse("0.4")), ("b", "d", one)],
    )
    assert fast_route(g) == pair_route(g)
    with pytest.raises(StrongDisconnectedError, match="'a' and 'b'"):
        Analysis(g).wiener()


def test_cycle_arcs_one_micro_unit_apart():
    # a - b - c is 0.6, the edge a c is 0.600001: the shorter arc wins
    # by one micro-unit, so a cycle of odd length must not round it away
    one = Membership.parse("1")
    g = build_graph(
        [(name, one) for name in "abc"],
        [
            ("a", "b", Membership.parse("0.3")),
            ("b", "c", Membership.parse("0.3")),
            ("a", "c", Membership.parse("0.600001")),
        ],
    )
    assert fast_route(g) == pair_route(g)
    assert fast_route(g)[0] == Fraction(3, 10) * 2 + Fraction(6, 10)


@pytest.mark.parametrize("seed", range(40))
def test_index_sums_match_bruteforce(seed):
    rng = random.Random(seed)
    n, chords = rng.randint(1, 10), rng.randint(0, 5)
    g = tree_with_chords(rng, n, chords, rng.choice([QUARTER, MICRO // 100]))
    try:
        expected = wi_bruteforce(g)
    except StrongDisconnectedError as exc:
        expected = str(exc)
    assert fast_route(g) == (expected, ci_bruteforce(g))


def corrected_theorem_star(spec: SaturatedCycleSpec) -> Fraction:
    """WI of ``make_saturated_cycle(spec)``: n^3 (kappa + eta) / 16 when
    4 divides n, ((n^3 - 4n) kappa + (n^3 + 4n) eta) / 16 otherwise."""
    n = spec.n
    kappa, eta = spec.kappa.as_fraction(), spec.eta.as_fraction()
    if n % 4 == 0:
        return Fraction(n**3, 16) * (kappa + eta)
    return ((n**3 - 4 * n) * kappa + (n**3 + 4 * n) * eta) / 16


GRADINGS = [("0.5", "0.3"), ("1", "0.1"), ("0.999999", "0.000001")]


@pytest.mark.parametrize("kappa,eta", GRADINGS)
def test_saturated_cycles_match_the_corrected_closed_form(kappa, eta):
    for n in list(range(4, 130, 2)) + [250, 252, 498, 500, 502]:
        spec = SaturatedCycleSpec(
            n, Membership.parse(kappa), Membership.parse(eta)
        )
        assert wiener_index(make_saturated_cycle(spec)) == (
            corrected_theorem_star(spec)
        ), n


@pytest.mark.parametrize("n", [4, 6, 10, 12, 30, 500])
def test_saturated_cycles_match_the_pair_rows(n):
    spec = SaturatedCycleSpec(
        n, Membership.parse("0.7"), Membership.parse("0.2")
    )
    g = make_saturated_cycle(spec)
    assert fast_route(g) == pair_route(g)


@pytest.mark.parametrize("seed,n", [(0, 200), (1, 350), (2, 500)])
def test_wiener_matches_networkx_on_the_strong_subgraph(seed, n):
    nx = pytest.importorskip("networkx")
    g = tree_with_chords(random.Random(seed), n, n // 3, QUARTER, gaps=0)
    whole, strong = nx.Graph(), nx.Graph()
    whole.add_nodes_from(g.vertices())
    strong.add_nodes_from(g.vertices())
    for u, v, grade in g.edges():
        whole.add_edge(u, v, weight=grade.micro)
    for u, v, grade in strong_subgraph(g).edges():
        strong.add_edge(u, v, weight=grade.micro)
    assert nx.is_connected(strong)
    assert not nx.is_tree(strong)
    distance = dict(nx.all_pairs_dijkstra_path_length(strong))
    sigma = {name: g.sigma(name).micro for name in g.vertices()}
    expected = sum(
        sigma[u] * sigma[v] * d
        for u, row in distance.items()
        for v, d in row.items()
        if u < v
    )
    assert wiener_index(g) == Fraction(expected, MICRO**3)
    # CONN(u, v) is the weakest edge on the u-v path of a maximum
    # spanning tree
    tree = nx.maximum_spanning_tree(whole)
    analysis, names = Analysis(g), g.vertices()
    conn, ds = analysis.conn_rows(), analysis.ds_rows()
    for i, u in enumerate(names):
        weakest = {u: MICRO}
        for a, b in nx.bfs_edges(tree, u):
            weakest[b] = min(weakest[a], tree[a][b]["weight"])
        for j in range(i + 1, n):
            assert conn[i][j] == weakest[names[j]]
            assert ds[i][j] == distance[u][names[j]]


def test_wiener_matches_the_pair_rows_on_mid_sized_blocky_graphs():
    for seed in range(6):
        g = tree_with_chords(random.Random(seed), 120, 60, QUARTER)
        assert fast_route(g) == pair_route(g)


def cactus_with_k4():
    """A cactus, triangles and squares glued at cut vertices with a
    pendant path and a bridge, plus one K4, every grade on the 0.25
    grid."""
    one = Membership.parse("1")
    q = [Membership(k * QUARTER) for k in range(5)]
    names = [f"c{i:02d}" for i in range(16)]
    edges = [
        # triangle c00 c01 c02 with a tied weakest pair: all strong
        ("c00", "c01", q[2]), ("c01", "c02", q[2]), ("c00", "c02", q[3]),
        # square c02 c03 c04 c05
        ("c02", "c03", q[1]), ("c03", "c04", q[4]),
        ("c04", "c05", q[1]), ("c02", "c05", q[4]),
        # pendant path c05 c06 c07
        ("c05", "c06", q[3]), ("c06", "c07", q[1]),
        # K4 on c07 c08 c09 c10, all tied
        ("c07", "c08", q[2]), ("c07", "c09", q[2]), ("c07", "c10", q[2]),
        ("c08", "c09", q[2]), ("c08", "c10", q[2]), ("c09", "c10", q[2]),
        # triangle c10 c11 c12, a bridge, and triangle c13 c14 c15
        ("c10", "c11", q[1]), ("c11", "c12", q[1]), ("c10", "c12", q[1]),
        ("c12", "c13", q[4]),
        ("c13", "c14", q[3]), ("c14", "c15", q[3]),
        ("c13", "c15", q[3]),
    ]
    return build_graph([(name, one) for name in names], edges)


CYCLE10 = SaturatedCycleSpec(
    10, Membership.parse("0.6"), Membership.parse("0.3")
)
GUARDED = [
    ("tree", lambda: random_fuzzy_tree(5, 40, 6)),
    ("bare tree", lambda: random_fuzzy_tree(6, 40, 0)),
    ("cycle", lambda: make_saturated_cycle(CYCLE10)),
    ("cactus", cactus_with_k4),
]


@pytest.mark.parametrize("label,build", GUARDED, ids=[g[0] for g in GUARDED])
def test_index_sums_build_no_pair_rows(label, build, monkeypatch, tmp_path):
    g = build()
    expected = pair_route(g)

    def refuse(self):
        raise AssertionError("pair rows built")

    monkeypatch.setattr(Analysis, "conn_rows", refuse)
    monkeypatch.setattr(Analysis, "ds_rows", refuse)
    assert (wiener_index(g), connectivity_index(g)) == expected
    if label == "cycle":
        assert check_theorem_star(CYCLE10).lhs == expected[0]
    elif label.endswith("tree"):
        verdict = check_corollary_star(g)
        assert verdict.lhs == expected[0]
    path = tmp_path / "g.fzg"
    path.write_text(g.serialize())
    out = tmp_path / "out.txt"
    assert main(["indices", "--summary", str(path), "--output", str(out)]) == 0
    text = out.read_text()
    assert f"WI = {format_fraction(expected[0])}\n" in text


@pytest.mark.parametrize("label,build", GUARDED, ids=[g[0] for g in GUARDED])
def test_wiener_reads_no_rows_built_before_it(label, build, monkeypatch):
    g = build()
    expected = pair_route(g)[0]
    analysis = Analysis(g)
    analysis.ds_rows()

    def refuse(self, rows):
        raise AssertionError("wiener() summed pair rows")

    monkeypatch.setattr(Analysis, "pair_sum", refuse)
    assert analysis.wiener() == expected


def test_strongly_disconnected_wiener_builds_no_pair_rows(monkeypatch):
    g = build_graph(
        [("a", Membership.parse("1")), ("b", Membership.parse("1"))], []
    )

    def refuse(self):
        raise AssertionError("pair rows built")

    monkeypatch.setattr(Analysis, "ds_rows", refuse)
    with pytest.raises(StrongDisconnectedError, match="'a' and 'b'"):
        wiener_index(g)


def assert_rows_match_the_references(g) -> None:
    analysis = Analysis(g)
    assert above_diagonal(analysis.conn_rows()) == above_diagonal(
        conn_rows_reference(analysis)
    )
    assert above_diagonal(analysis.ds_rows()) == above_diagonal(
        ds_rows_reference(analysis)
    )


def assert_rows_match_bruteforce(g) -> None:
    analysis = Analysis(g)
    conn, ds, names = analysis.conn_rows(), analysis.ds_rows(), g.vertices()
    strong = strong_edges_bruteforce(g)
    for i, j in combinations(range(len(names)), 2):
        u, v = names[i], names[j]
        assert conn[i][j] == conn_bruteforce(g, u, v).micro
        try:
            expected = ds_bruteforce(g, u, v, strong) * MICRO
        except StrongDisconnectedError:
            expected = None
        assert ds[i][j] == expected


@settings(max_examples=300, deadline=None)
@given(blocky_graphs(max_vertices=30))
def test_pair_rows_match_the_per_source_references(g):
    assert_rows_match_the_references(g)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 13))
def test_pair_rows_match_the_references_on_random_graphs(seed, n):
    rng = random.Random(seed)
    g = random_graph(
        seed,
        n,
        rng.random(),
        rng.choice([MICRO // 100, QUARTER]),
        rng.choice([0.0, 0.2]),
    )
    assert_rows_match_the_references(g)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 10),
    st.integers(0, 5),
    st.sampled_from([QUARTER, MICRO // 100]),
)
def test_pair_rows_match_bruteforce(seed, n, chords, step):
    assert_rows_match_bruteforce(
        tree_with_chords(random.Random(seed), n, chords, step)
    )


def two_blocks_apart():
    """A triangle and a square with no edge between them, one of its
    vertices graded 0, so some pairs have no strong path."""
    one, half = Membership.parse("1"), Membership.parse("0.5")
    return build_graph(
        [(name, one) for name in "abcdefg"] + [("h", Membership(0))],
        [
            ("a", "b", half), ("b", "c", half), ("a", "c", one),
            ("d", "e", half), ("e", "f", one),
            ("f", "g", half), ("d", "g", half),
        ],
    )


SHAPES = GUARDED + [
    ("empty", lambda: build_graph([], [])),
    ("one vertex", lambda: build_graph([("a", Membership.parse("0.7"))], [])),
    (
        "edgeless",
        lambda: build_graph(
            [(name, Membership.parse("0.5")) for name in "abc"], []
        ),
    ),
    ("apart", two_blocks_apart),
    (
        "cycle of 12",
        lambda: make_saturated_cycle(
            SaturatedCycleSpec(12, Membership(2 * QUARTER), Membership(QUARTER))
        ),
    ),
]
# fuzzy forests with weak chords, whose strong blocks are the forest's
# edges read off the rooted forest
FORESTS = [
    (
        f"deep {shape} with chords",
        lambda seed=seed, shape=shape: random_deep_graph(
            seed, 300, shape, 300, weak_chords=True
        ),
    )
    for seed, shape in enumerate(["path", "broom", "caterpillar"])
] + [
    (
        "split forest",
        lambda: random_deep_graph(
            1, 300, "broom", 300, parts=3, weak_chords=True,
            zero_sigma_share=0.1,
        ),
    ),
]
SHAPES += FORESTS


@pytest.mark.parametrize("label,build", SHAPES, ids=[s[0] for s in SHAPES])
def test_pair_rows_on_every_shape(label, build):
    g = build()
    assert_rows_match_the_references(g)
    if g.vertex_count <= 12:
        assert_rows_match_bruteforce(g)
    analysis = Analysis(g)
    ds = analysis.ds_rows()
    apart = label in ("edgeless", "apart", "split forest")
    assert apart == any(None in row for row in above_diagonal(ds))
    if label in dict(FORESTS):
        # chords lie outside F, yet S is F
        assert analysis.is_fuzzy_forest() and not all(analysis.in_forest)


# Values no pair of the graphs below holds, each rendered unlike any
# real entry: CONN 0.000001 and d_s 1000.000007.
POISON = {"conn_rows": 1, "ds_rows": 10**9 + 7}


def poison_on_and_below_the_diagonal(monkeypatch) -> None:
    """Wrap both pair tables of ``Analysis`` so that every entry on and
    below the diagonal is a poison value."""
    for name, poison in POISON.items():

        def poisoned(self, build=getattr(Analysis, name), poison=poison):
            rows = build(self)
            for i, row in enumerate(rows):
                row[: i + 1] = [poison] * (i + 1)
            return rows

        monkeypatch.setattr(Analysis, name, poisoned)


def test_no_reader_looks_below_the_diagonal(monkeypatch, tmp_path):
    """Every reader of the pair tables gives the same answers when each
    entry on and below the diagonal is poison: the full ``indices``
    table, an exit-3 graph and a zero-sigma graph in text and JSON, and
    both ``PairTable`` views, in either argument order."""
    full = [cactus_with_k4(), make_saturated_cycle(CYCLE10)]
    graphs = full + [dict(SHAPES)["edgeless"](), two_blocks_apart()]
    path, out = tmp_path / "g.fzg", tmp_path / "out.txt"

    def answers(g):
        path.write_text(g.serialize())
        reports = []
        for fmt in ("text", "json"):
            argv = ["--format", fmt, "indices", str(path)]
            code = main([*argv, "--output", str(out)])
            reports.append((code, out.read_text()))
        tables = [strength_of_connectedness(g)]
        if g in full:
            tables.append(geodesic_distance(g))
        names = g.vertices()
        values = [
            [table.value(u, v) for u in names for v in names if u != v]
            for table in tables
        ]
        return reports, tables, values, [[*t.pairs()] for t in tables]

    expected = [answers(g) for g in graphs]
    assert [[code for code, _ in e[0]] for e in expected] == [
        [0, 0], [0, 0], [3, 3], [3, 3]
    ]
    with monkeypatch.context() as patch:
        poison_on_and_below_the_diagonal(patch)
        for g, (reports, tables, values, pairs) in zip(graphs, expected):
            poisoned = answers(g)
            assert poisoned[0] == reports
            assert poisoned[1] == tables
            assert poisoned[2:] == (values, pairs)
        # the wrapper does poison what a reader below the diagonal sees
        rows = Analysis(graphs[0]).conn_rows()
        assert rows[1][0] == rows[0][0] == POISON["conn_rows"]


@pytest.mark.parametrize(
    "text",
    [
        "",
        "v a 0.5\n",
        "v a 1\nv b 1\nv c 0.9\ne a b 0.5\n",
        "v a 1\nv b 0\n",
        "v a 1\nv b 1\nv c 1\ne a b 0.5\ne b c 0.5\ne a c 0.5\n",
    ],
)
def test_summary_is_the_default_report_without_the_table(
    text, tmp_path, capsys
):
    path = tmp_path / "g.fzg"
    path.write_text(text)
    for fmt in ("text", "json"):
        code = main(["--format", fmt, "indices", str(path)])
        full = capsys.readouterr().out
        assert main(["--format", fmt, "indices", "--summary", str(path)]) == (
            code
        )
        summary = capsys.readouterr().out
        if fmt == "json":
            expected = {**json.loads(full), "pairs": []}
            assert json.loads(summary) == expected
        else:
            assert summary == full.split("pair conn d_s\n")[0]


def edge_decomposition(g) -> tuple[Fraction, Fraction]:
    """(WI, CI) of a fuzzy tree from its edge list alone.  Removing a tree
    edge e splits the vertices in two; d_s crosses e once for every pair
    across the split, and CONN of a pair is the weakest edge on its path,
    which is the edge whose removal, in ascending grade order, first
    separates the pair."""
    sigma = {name: g.sigma(name).as_fraction() for name in g.vertices()}
    adjacent = {name: [] for name in sigma}
    for u, v, grade in g.edges():
        adjacent[u].append((v, grade.as_fraction()))
        adjacent[v].append((u, grade.as_fraction()))
    root = next(iter(sigma))
    order, parent = [root], {root: (None, None)}
    for x in order:
        for y, grade in adjacent[x]:
            if y not in parent:
                parent[y] = (x, grade)
                order.append(y)
    whole = sum(sigma.values())
    weight = dict(sigma)
    wiener = Fraction(0)
    for x in reversed(order):
        up, grade = parent[x]
        if up is not None:
            wiener += grade * weight[x] * (whole - weight[x])
            weight[up] += weight[x]
    # CI: add the edges strongest first; a pair first joined by an edge
    # of grade w has CONN w
    group = {name: name for name in sigma}
    members = {name: sigma[name] for name in sigma}

    def find(x):
        while group[x] != x:
            group[x] = group[group[x]]
            x = group[x]
        return x

    connectivity = Fraction(0)
    for u, v, grade in sorted(g.edges(), key=lambda e: e[2], reverse=True):
        a, b = find(u), find(v)
        connectivity += grade.as_fraction() * members[a] * members[b]
        group[b] = a
        members[a] += members[b]
    return wiener, connectivity


@pytest.mark.parametrize(
    "build,chord",
    [
        (lambda: random_fuzzy_tree(11, 20_000, 0), 0),
        (
            lambda: random_deep_graph(
                0, 20_000, "path", 20_000, weak_chords=True
            ),
            GRID,
        ),
    ],
    ids=["pruefer tree", "deep path with chords"],
)
def test_summary_of_a_large_fuzzy_tree_is_its_edge_decomposition(
    build, chord, tmp_path, capsys
):
    """WI(G) = WI(F) and CI(G) = CI(F) on a fuzzy tree, summed over the
    edges of F: those graded above ``chord``, the grade of every chord."""
    g = build()
    forest = [(u, v) for u, v, grade in g.edges() if grade.micro > chord]
    assert len(forest) == g.vertex_count - 1
    wiener, connectivity = edge_decomposition(g.edge_subgraph(forest))
    path = tmp_path / "tree.fzg"
    path.write_text(g.serialize())
    assert main(["indices", "--summary", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.endswith(
        f"WI = {format_fraction(wiener)}\n"
        f"CI = {format_fraction(connectivity)}\n"
    )
    assert "fuzzy tree: yes\n" in out and "pair conn d_s" not in out


@pytest.mark.parametrize("seed", range(5))
def test_edge_decomposition_matches_the_pair_rows(seed):
    g = random_fuzzy_tree(seed, 30, 0)
    assert edge_decomposition(g) == pair_route(g)


@pytest.mark.parametrize("seed", range(20))
def test_random_fuzzy_tree_without_extras_is_the_tree_of_one_with(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 30)
    bare = random_fuzzy_tree(seed, n, 0)
    full = random_fuzzy_tree(seed, n, 4)
    tree = Analysis(full).spanning_tree()
    assert bare == build_graph(
        [(name, full.sigma(name)) for name in full.vertices()],
        [(u, v, full.mu(u, v)) for u, v in tree.edges],
    )
