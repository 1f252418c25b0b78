from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations

import pytest

from fuzzygraph import (
    Membership,
    SaturatedCycleSpec,
    StrongDisconnectedError,
    build_graph,
    ci_bruteforce,
    connectivity_index,
    ds_bruteforce,
    geodesic_distance,
    maximum_spanning_tree,
    strong_edges_bruteforce,
    theorem_star_formula,
    wi_bruteforce,
    wiener_index,
)
from fuzzygraph.cli import main
from fuzzygraph.falsifier import _sweep_specs
from fuzzygraph.samples import alternating_cycle, five_vertex_tree


def M(text: str) -> Membership:
    return Membership.parse(text)


# Geodesic distances for the five-vertex tree, frozen from an
# independent hand computation over its strong subgraph.
TREE5_DS = {
    ("a", "b"): Fraction(12, 10),
    ("a", "c"): Fraction(9, 10),
    ("a", "d"): Fraction(14, 10),
    ("a", "e"): Fraction(6, 10),
    ("b", "c"): Fraction(3, 10),
    ("b", "d"): Fraction(8, 10),
    ("b", "e"): Fraction(6, 10),
    ("c", "d"): Fraction(5, 10),
    ("c", "e"): Fraction(3, 10),
    ("d", "e"): Fraction(8, 10),
}


def test_tree5_geodesic_distances():
    ds = geodesic_distance(five_vertex_tree())
    assert len(ds) == 10
    for (u, v), expected in TREE5_DS.items():
        assert ds.value(u, v) == expected, (u, v)


def test_tree5_indices_exact():
    g = five_vertex_tree()
    assert wiener_index(g) == Fraction(37, 5)
    assert connectivity_index(g) == Fraction(7, 2)


def test_tree5_mst_indices_exact():
    g = five_vertex_tree()
    skeleton = g.edge_subgraph(maximum_spanning_tree(g).edges)
    assert wiener_index(skeleton) == Fraction(37, 5)
    assert connectivity_index(skeleton) == Fraction(7, 2)


def test_single_edge_graph_has_equal_indices():
    g = build_graph(
        [("a", M("1")), ("b", M("1"))], [("a", "b", M("0.6"))]
    )
    assert wiener_index(g) == Fraction(6, 10)
    assert connectivity_index(g) == Fraction(6, 10)


def test_sigma_weights_scale_the_indices():
    g = build_graph(
        [("a", M("0.5")), ("b", M("0.4"))], [("a", "b", M("0.2"))]
    )
    assert wiener_index(g) == Fraction(1, 2) * Fraction(2, 5) * Fraction(1, 5)


def test_cycle4_indices():
    g = alternating_cycle(4, "0.5", "0.3")
    assert wiener_index(g) == Fraction(16, 5)  # 4(kappa + eta)
    assert connectivity_index(g) == Fraction(11, 5)  # 2 kappa + 4 eta


def test_cycle6_geodesics_follow_the_eta_heavy_arc():
    kappa, eta = Fraction(1, 2), Fraction(3, 10)
    g = alternating_cycle(6, "0.5", "0.3")
    ds = geodesic_distance(g)
    assert ds.value("v00", "v03") == kappa + 2 * eta
    assert ds.value("v00", "v02") == kappa + eta
    assert ds.value("v00", "v05") == eta
    assert ds.value("v01", "v04") == kappa + 2 * eta
    assert wiener_index(g) == 12 * kappa + 15 * eta


def test_theorem_star_formula_values():
    assert theorem_star_formula(
        SaturatedCycleSpec(4, M("0.5"), M("0.3"))
    ) == Fraction(43, 4) * Fraction(8, 10)
    assert theorem_star_formula(
        SaturatedCycleSpec(6, M("0.5"), M("0.3"))
    ) == Fraction(225, 8) * Fraction(8, 10)
    assert theorem_star_formula(
        SaturatedCycleSpec(8, M("0.5"), M("0.3"))
    ) == Fraction(46)


def test_theorem_star_formula_is_the_published_expression():
    specs = list(_sweep_specs((4, 100)))
    specs.append(SaturatedCycleSpec(4, M("1"), M("0.000001")))
    for spec in specs:
        coefficient = Fraction(spec.n * ((spec.n + 3) ** 2 - 6), 16)
        assert theorem_star_formula(spec) == coefficient * (
            spec.kappa.as_fraction() + spec.eta.as_fraction()
        )
    assert len(specs) == 49 * 45 + 1


def test_geodesics_match_bruteforce(small_graphs):
    for g in small_graphs:
        strong = strong_edges_bruteforce(g)
        try:
            ds = geodesic_distance(g)
        except StrongDisconnectedError:
            pytest.fail("seeded connected graphs must be strongly connected")
        for u, v in combinations(g.vertices(), 2):
            assert ds.value(u, v) == ds_bruteforce(
                g, u, v, strong_pairs=strong
            ), (u, v)


def test_indices_match_bruteforce(small_graphs):
    for g in small_graphs:
        assert wiener_index(g) == wi_bruteforce(g)
        assert connectivity_index(g) == ci_bruteforce(g)


def test_geodesic_metric_axioms(small_graphs):
    for g in small_graphs:
        ds = geodesic_distance(g)
        names = g.vertices()
        for u, v in combinations(names, 2):
            assert ds.value(u, v) == ds.value(v, u)
            assert ds.value(u, v) > 0
        for u, w, v in combinations(names, 3):
            assert ds.value(u, v) <= ds.value(u, w) + ds.value(w, v)


def test_geodesic_errors_on_disconnected_input():
    g = build_graph(
        [("a", M("1")), ("b", M("1")), ("c", M("1"))],
        [("a", "b", M("0.5"))],
    )
    with pytest.raises(StrongDisconnectedError):
        geodesic_distance(g)
    with pytest.raises(StrongDisconnectedError):
        wiener_index(g)


def indices_report(tmp_path, capsys, g) -> tuple[int, dict]:
    """Exit code and JSON document of the CLI's ``indices`` report."""
    path = tmp_path / "g.fzg"
    path.write_text(g.serialize())
    code = main(["--format", "json", "indices", str(path)])
    return code, json.loads(capsys.readouterr().out)


def test_index_report_on_tree5(tmp_path, capsys):
    code, doc = indices_report(tmp_path, capsys, five_vertex_tree())
    assert code == 0
    assert Fraction(doc["wiener"]) == Fraction(37, 5)
    assert Fraction(doc["connectivity"]) == Fraction(7, 2)
    assert doc["kind"]["fuzzy_tree"]
    assert len(doc["pairs"]) == 10
    assert doc["warnings"] == []
    # every sigma is 1, so the indices are the plain sums of the rows
    assert sum(Fraction(p["ds"]) for p in doc["pairs"]) == Fraction(37, 5)
    assert sum(Fraction(p["conn"]) for p in doc["pairs"]) == Fraction(7, 2)


def test_index_report_on_saturated_cycle(tmp_path, capsys):
    g = alternating_cycle(6, "0.5", "0.3")
    code, doc = indices_report(tmp_path, capsys, g)
    assert doc["kind"]["saturated_fuzzy_cycle"]
    assert Fraction(doc["wiener"]) == Fraction(21, 2)


def test_index_report_degrades_on_disconnected_input(tmp_path, capsys):
    g = build_graph(
        [("a", M("1")), ("b", M("1")), ("c", M("0.9"))],
        [("a", "b", M("0.5"))],
    )
    code, doc = indices_report(tmp_path, capsys, g)
    assert code == 3
    assert doc["wiener"] is None
    assert Fraction(doc["connectivity"]) == Fraction(1, 2)
    assert connectivity_index(g) == Fraction(1, 2)
    entries = {(p["u"], p["v"]): p for p in doc["pairs"]}
    assert Fraction(entries[("a", "b")]["ds"]) == Fraction(1, 2)
    assert entries[("a", "c")]["ds"] is None
    assert entries[("a", "c")]["conn"] == "0"


def test_index_report_flags_zero_sigma_vertices(tmp_path, capsys):
    g = build_graph([("a", M("1")), ("b", M("0"))], [])
    _, doc = indices_report(tmp_path, capsys, g)
    assert doc["warnings"] == ["zero-grade vertices contribute nothing: b"]


def test_empty_and_single_vertex_reports(tmp_path, capsys):
    g = build_graph([("a", M("0.4"))], [])
    code, doc = indices_report(tmp_path, capsys, g)
    assert code == 0
    assert (doc["wiener"], doc["connectivity"]) == ("0", "0")
    assert doc["pairs"] == []
    assert wiener_index(g) == connectivity_index(g) == 0
