from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest

from fuzzygraph import (
    EdgeClass,
    Membership,
    StrongDisconnectedError,
    TooLargeError,
    UnknownEndpointError,
    build_graph,
    ci_bruteforce,
    classify_edges_reference,
    conn_bruteforce,
    conn_reference,
    ds_bruteforce,
    strong_edges_bruteforce,
    wi_bruteforce,
)
from fuzzygraph.samples import alternating_cycle, five_vertex_tree


def M(text: str) -> Membership:
    return Membership.parse(text)


def test_conn_bruteforce_on_tree5():
    g = five_vertex_tree()
    assert conn_bruteforce(g, "a", "b") == M("0.3")
    assert conn_bruteforce(g, "a", "e") == M("0.6")
    assert conn_bruteforce(g, "b", "d") == M("0.3")
    assert conn_bruteforce(g, "d", "e") == M("0.3")


def test_conn_bruteforce_takes_the_detour():
    # direct edge 0.1, detour floor 0.3
    g = five_vertex_tree()
    assert conn_bruteforce(g, "a", "b").micro > g.mu("a", "b").micro


def test_strong_edges_bruteforce_on_tree5():
    assert strong_edges_bruteforce(five_vertex_tree()) == {
        ("a", "e"),
        ("b", "c"),
        ("c", "d"),
        ("c", "e"),
    }


def test_strong_edges_bruteforce_keeps_whole_saturated_cycle():
    g = alternating_cycle(6, "0.5", "0.3")
    assert strong_edges_bruteforce(g) == set(g.edge_pairs())


def test_ds_bruteforce_on_tree5():
    g = five_vertex_tree()
    assert ds_bruteforce(g, "a", "b") == Fraction(12, 10)
    assert ds_bruteforce(g, "a", "d") == Fraction(14, 10)
    strong = strong_edges_bruteforce(g)
    assert ds_bruteforce(g, "c", "e", strong_pairs=strong) == Fraction(3, 10)


def test_index_bruteforce_on_samples():
    assert wi_bruteforce(five_vertex_tree()) == Fraction(37, 5)
    assert ci_bruteforce(five_vertex_tree()) == Fraction(7, 2)
    cycle = alternating_cycle(4, "0.5", "0.3")
    assert wi_bruteforce(cycle) == Fraction(16, 5)
    assert ci_bruteforce(cycle) == Fraction(11, 5)


def test_bruteforce_rejects_large_graphs():
    vertices = [(f"x{i:02d}", M("1")) for i in range(13)]
    edges = [
        (f"x{i:02d}", f"x{i + 1:02d}", M("0.5")) for i in range(12)
    ]
    g = build_graph(vertices, edges)
    with pytest.raises(TooLargeError):
        conn_bruteforce(g, "x00", "x12")
    with pytest.raises(TooLargeError):
        wi_bruteforce(g)


def test_bruteforce_argument_validation():
    g = five_vertex_tree()
    with pytest.raises(UnknownEndpointError):
        conn_bruteforce(g, "a", "zz")
    with pytest.raises(ValueError):
        conn_bruteforce(g, "a", "a")
    with pytest.raises(ValueError):
        ds_bruteforce(g, "c", "c")


def test_bruteforce_disconnected_behaviour():
    g = build_graph(
        [("a", M("1")), ("b", M("1")), ("c", M("1"))],
        [("a", "b", M("0.4"))],
    )
    assert conn_bruteforce(g, "a", "c") == M("0")
    with pytest.raises(StrongDisconnectedError):
        ds_bruteforce(g, "a", "c")
    with pytest.raises(StrongDisconnectedError):
        wi_bruteforce(g)
    assert ci_bruteforce(g) == Fraction(4, 10)


def test_mid_size_references_agree_with_bruteforce(small_graphs):
    for g in small_graphs:
        conn = conn_reference(g)
        for u, v in combinations(g.vertices(), 2):
            assert conn.value(u, v) == conn_bruteforce(g, u, v), (u, v)
        strong = {
            key
            for key, record in classify_edges_reference(g).items()
            if record.edge_class is not EdgeClass.DELTA
        }
        assert strong == strong_edges_bruteforce(g)
