"""Fuzzy cycles and the cycle blocks of other graphs.

Every edge of a fuzzy cycle is strong, so its strong subgraph is one
block: ``wiener()`` and ``ds_rows()`` walk it once from vertex 0 and run
no block search.  A cycle block of any graph gets its d_s rows from the
positions around it, with no Dijkstra.  Every test here pins that route
to an independent one: the per-source Dijkstra rows of ``support``
summed by ``pair_sum``, the general block search (Hopcroft-Tarjan and
``_block_sum``), and brute force on at most twelve vertices.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings

from fuzzygraph import (
    FuzzyGraph,
    Membership,
    SaturatedCycleSpec,
    build_graph,
    ds_bruteforce,
    geodesic_distance,
    make_saturated_cycle,
    strong_edges_bruteforce,
    wi_bruteforce,
)
from fuzzygraph import analysis
from fuzzygraph.analysis import Analysis, EdgeClass, MergeTree
from fuzzygraph.model import MICRO, pair

from support import (
    above_diagonal,
    cacti,
    crisp_cycles,
    ds_rows_reference,
    residual_reference,
    saturated_reference,
)

TENTH = MICRO // 10


class BlockSearch(Analysis):
    """The general route, blind to fuzzy cycles: the strong blocks by
    Hopcroft-Tarjan, and WI summed over them by ``_block_sum``."""

    def _cycle_block(self) -> None:
        return None


def assert_matches_the_references(g: FuzzyGraph) -> None:
    """wiener(), ds_rows() and geodesic_distance of a graph whose strong
    subgraph is connected, against the per-source rows, the block
    search and, on at most twelve vertices, brute force."""
    a = Analysis(g)
    reference = ds_rows_reference(a)
    assert above_diagonal(a.ds_rows()) == above_diagonal(reference)
    wiener = a.wiener()
    assert wiener == a.pair_sum(reference)
    assert wiener == BlockSearch(g).wiener()
    names = a.names
    table = dict(geodesic_distance(g).pairs())
    assert table == {
        (names[i], names[j]): Fraction(reference[i][j], MICRO)
        for i, j in combinations(range(len(names)), 2)
    }
    if len(names) <= 12:
        assert wiener == wi_bruteforce(g)
        strong = strong_edges_bruteforce(g)
        for (u, v), distance in table.items():
            assert distance == ds_bruteforce(g, u, v, strong)


@settings(max_examples=400, deadline=None)
@given(crisp_cycles())
def test_crisp_cycles_match_the_references(g):
    a = Analysis(g)
    # a crisp cycle is a fuzzy cycle when its weakest grade ties, every
    # edge strong, and else a fuzzy tree with that one edge delta
    strong = [
        grade >= res for grade, res in zip(a.mu, residual_reference(a))
    ]
    kind = a.kind()
    assert kind.is_connected
    assert kind.is_fuzzy_cycle == all(strong)
    assert kind.is_fuzzy_tree == (strong.count(False) == 1)
    assert kind.is_saturated_fuzzy_cycle == (
        kind.is_fuzzy_cycle and saturated_reference(a)
    )
    if len(a.names) <= 12:
        assert kind.is_fuzzy_cycle == (
            len(strong_edges_bruteforce(g)) == len(a.names)
        )
    assert_matches_the_references(g)


@settings(max_examples=200, deadline=None)
@given(crisp_cycles())
def test_the_cycle_block_walks_every_edge_once_from_vertex_0(g):
    a = Analysis(g)
    block = analysis._cycle_walk(a.ends, a.mu)
    assert block[0][0] == 0
    assert [x for x, _, _ in block[1:]] == [y for _, y, _ in block[:-1]]
    assert block[-1][1] == 0
    assert sorted((pair(x, y), grade) for x, y, grade in block) == sorted(
        zip(a.ends, a.mu)
    )
    # a crisp cycle whose weakest grade is unique is no fuzzy cycle
    if a.mu.count(min(a.mu)) == 1:
        assert a._cycle_block() is None and not a.is_fuzzy_cycle()
    else:
        assert a._cycle_block() == block
        assert list(a._strong_blocks()) == [block]


@settings(max_examples=300, deadline=None)
@given(cacti())
def test_cacti_match_the_references(g):
    assert_matches_the_references(g)


@settings(max_examples=200, deadline=None)
@given(cacti(max_vertices=12))
def test_small_cacti_match_bruteforce(g):
    assert_matches_the_references(g)


def cycle(grades: list[int], seed: int) -> FuzzyGraph:
    """A crisp cycle with these edge grades in tenths, in order around
    it, its names laid out in a seeded random order and every sigma 1."""
    n = len(grades)
    order = random.Random(seed).sample(range(n), n)
    names = [f"x{i:02d}" for i in order]
    mu = {
        pair(names[k], names[(k + 1) % n]): grade * TENTH
        for k, grade in enumerate(grades)
    }
    return FuzzyGraph.from_micro(dict.fromkeys(names, MICRO), mu)


def cactus_of_cycles() -> FuzzyGraph:
    """Fuzzy cycles glued at cut vertices and joined by a bridge, a
    pendant path, and one cycle whose weakest grade does not tie, so its
    edges are strong bridges: every strong block is a cycle or a
    bridge."""
    q = [Membership(k * TENTH) for k in range(11)]
    one = Membership.parse("1")
    edges = [
        # triangle a b c, all tied
        ("a", "b", q[5]), ("b", "c", q[5]), ("a", "c", q[5]),
        # square c d e f glued at c, its weakest grade tied
        ("c", "d", q[2]), ("d", "e", q[7]), ("e", "f", q[2]),
        ("c", "f", q[9]),
        # a bridge f g, then the pentagon g h i j k, tied at 0.3
        ("f", "g", q[4]),
        ("g", "h", q[3]), ("h", "i", q[8]), ("i", "j", q[3]),
        ("j", "k", q[6]), ("g", "k", q[10]),
        # a pendant path k l m
        ("k", "l", q[6]), ("l", "m", q[1]),
        # triangle a n o with one weakest edge: a fuzzy tree's worth
        ("a", "n", q[4]), ("n", "o", q[6]), ("a", "o", q[2]),
    ]
    names = sorted({x for edge in edges for x in edge[:2]})
    return build_graph([(name, one) for name in names], edges)


NO_SEARCH = [
    (
        "saturated 12-cycle",
        lambda: make_saturated_cycle(
            SaturatedCycleSpec(
                12, Membership(7 * TENTH), Membership(3 * TENTH)
            )
        ),
    ),
    ("all-equal triangle", lambda: cycle([5, 5, 5], 0)),
    (
        "40-cycle",
        lambda: cycle([(k * 7) % 9 + 2 for k in range(38)] + [2, 2], 1),
    ),
]


@pytest.mark.parametrize(
    "label,build", NO_SEARCH, ids=[c[0] for c in NO_SEARCH]
)
def test_a_fuzzy_cycle_runs_no_block_search(label, build, monkeypatch):
    g = build()
    expected = Analysis(g).wiener(), Analysis(g).ds_rows()
    assert Analysis(g).is_fuzzy_cycle()

    def refuse(*args):
        raise AssertionError("block search ran")

    monkeypatch.setattr(analysis, "_dijkstra", refuse)
    monkeypatch.setattr(MergeTree, "conn", refuse)
    assert Analysis(g).wiener() == expected[0]
    assert Analysis(g).ds_rows() == expected[1]
    a = Analysis(g)
    assert (a.ds_rows(), a.wiener()) == (expected[1], expected[0])


def test_cycle_blocks_of_a_cactus_run_no_dijkstra(monkeypatch):
    g = cactus_of_cycles()
    a = Analysis(g)
    assert not a.is_fuzzy_cycle()
    assert EdgeClass.DELTA in a.edge_classes()
    sizes = sorted(len(block) for block in a._strong_blocks())
    assert sizes == [1] * 5 + [3, 4, 5]
    expected = ds_rows_reference(a)

    def refuse(*args):
        raise AssertionError("Dijkstra ran")

    monkeypatch.setattr(analysis, "_dijkstra", refuse)
    assert above_diagonal(Analysis(g).ds_rows()) == above_diagonal(expected)
    assert Analysis(g).wiener() == a.pair_sum(expected)
