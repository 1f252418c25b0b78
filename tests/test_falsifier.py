from __future__ import annotations

from fractions import Fraction

import pytest

from fuzzygraph import (
    BadParamsError,
    ClaimId,
    Membership,
    NotAFuzzyTreeError,
    SaturatedCycleSpec,
    check_corollary_star,
    check_theorem_star,
    ci_bruteforce,
    fuzzy_tree_mst,
    make_saturated_cycle,
    parse_graph,
    search_counterexamples,
    wi_bruteforce,
)
from fuzzygraph import analysis
from fuzzygraph.replication import replication_checks
from fuzzygraph.samples import alternating_cycle, five_vertex_tree
from fuzzygraph.structure import random_fuzzy_tree


def M(text: str) -> Membership:
    return Membership.parse(text)


def test_corollary_star_fails_on_tree5():
    verdict = check_corollary_star(five_vertex_tree())
    assert verdict.claim_id is ClaimId.COROLLARY_STAR
    assert not verdict.holds
    assert verdict.lhs == Fraction(37, 5)
    assert verdict.rhs == Fraction(7, 2)
    assert verdict.detail == {
        "wi_g": Fraction(37, 5),
        "wi_f": Fraction(37, 5),
        "ci_f": Fraction(7, 2),
    }
    assert verdict.size == 5


def test_corollary_star_holds_on_a_single_edge():
    g = parse_graph("v a 1\nv b 1\ne a b 0.7\n")
    verdict = check_corollary_star(g)
    assert verdict.holds
    assert verdict.lhs == verdict.rhs == Fraction(7, 10)


def test_corollary_star_fails_on_every_path_of_three():
    # WI counts the non-adjacent pair at summed length, CI at capped
    # strength, so any three-vertex tree separates the two indices.
    g = parse_graph("v a 1\nv b 1\nv c 1\ne a b 0.2\ne b c 0.2\n")
    verdict = check_corollary_star(g)
    assert not verdict.holds
    assert verdict.lhs == Fraction(4, 5)
    assert verdict.rhs == Fraction(3, 5)


def test_corollary_star_analyses_each_graph_once(monkeypatch):
    g = random_fuzzy_tree(5, 8, 2)
    analysed = []
    original = analysis.Analysis.__init__

    def counting(self, g):
        analysed.append(g)
        original(self, g)

    monkeypatch.setattr(analysis.Analysis, "__init__", counting)
    verdict = check_corollary_star(g)
    assert len(analysed) == 2
    assert analysed[0] is g
    assert analysed[1] == g.edge_subgraph(fuzzy_tree_mst(g).edges)
    assert verdict.detail["wi_g"] == wi_bruteforce(g)


def test_corollary_star_rejects_non_trees():
    with pytest.raises(NotAFuzzyTreeError):
        check_corollary_star(alternating_cycle(4, "0.5", "0.3"))


@pytest.mark.parametrize("n", [4, 6, 8])
def test_theorem_star_fails_on_small_cycles(n):
    spec = SaturatedCycleSpec(n, M("0.5"), M("0.3"))
    verdict = check_theorem_star(spec)
    assert verdict.claim_id is ClaimId.THEOREM_STAR
    assert not verdict.holds
    assert verdict.size == n
    assert verdict.lhs == wi_bruteforce(make_saturated_cycle(spec))
    assert verdict.rhs == verdict.detail["formula"]
    assert verdict.lhs == verdict.detail["wiener_direct"]


def test_theorem_star_known_values():
    verdict = check_theorem_star(SaturatedCycleSpec(4, M("0.5"), M("0.3")))
    assert verdict.lhs == Fraction(16, 5)
    assert verdict.rhs == Fraction(43, 5)
    verdict = check_theorem_star(SaturatedCycleSpec(8, M("0.5"), M("0.3")))
    assert verdict.lhs == Fraction(128, 5)  # 32 (kappa + eta)
    assert verdict.rhs == Fraction(46)


def test_corollary_search_finds_witnesses_deterministically():
    first = search_counterexamples(ClaimId.COROLLARY_STAR, trials=20, seed=7)
    second = search_counterexamples(ClaimId.COROLLARY_STAR, trials=20, seed=7)
    assert len(first) >= 1
    assert [v.instance.serialize() for v in first] == [
        v.instance.serialize() for v in second
    ]
    sizes = [v.size for v in first]
    assert sizes == sorted(sizes)


def test_corollary_search_respects_size_range():
    hits = search_counterexamples(
        ClaimId.COROLLARY_STAR, trials=30, seed=3, size_range=(4, 6)
    )
    assert hits
    assert all(4 <= v.size <= 6 for v in hits)
    # two-vertex trees satisfy the claim, so that range yields nothing
    assert (
        search_counterexamples(
            ClaimId.COROLLARY_STAR, trials=30, seed=3, size_range=(2, 2)
        )
        == []
    )


def test_corollary_witnesses_replay_from_serialized_form():
    for verdict in search_counterexamples(
        ClaimId.COROLLARY_STAR, trials=10, seed=11
    ):
        replayed = check_corollary_star(
            parse_graph(verdict.instance.serialize())
        )
        assert replayed.lhs == verdict.lhs
        assert replayed.rhs == verdict.rhs
        assert not replayed.holds


def test_corollary_witnesses_agree_with_bruteforce():
    for verdict in search_counterexamples(
        ClaimId.COROLLARY_STAR, trials=10, seed=2, size_range=(3, 6)
    ):
        g = verdict.instance
        assert verdict.lhs == wi_bruteforce(g)
        skeleton = g.edge_subgraph(fuzzy_tree_mst(g).edges)
        assert verdict.rhs == ci_bruteforce(skeleton)


def test_theorem_sweep_refutes_everything():
    hits = search_counterexamples(ClaimId.THEOREM_STAR, size_range=(4, 6))
    # two lengths, 45 grid points each, every one a counterexample
    assert len(hits) == 90
    assert all(not v.holds for v in hits)
    assert [v.size for v in hits] == sorted(v.size for v in hits)


def test_theorem_sweep_trials_cap():
    hits = search_counterexamples(
        ClaimId.THEOREM_STAR, trials=5, size_range=(4, 12)
    )
    assert len(hits) == 5
    assert all(v.size == 4 for v in hits)


def test_search_parameter_validation():
    with pytest.raises(BadParamsError):
        search_counterexamples(ClaimId.COROLLARY_STAR)  # needs trials
    with pytest.raises(BadParamsError):
        search_counterexamples(ClaimId.COROLLARY_STAR, trials=0)
    with pytest.raises(BadParamsError):
        search_counterexamples(
            ClaimId.COROLLARY_STAR, trials=5, size_range=(6, 3)
        )
    with pytest.raises(BadParamsError):
        search_counterexamples(
            ClaimId.COROLLARY_STAR, trials=5, size_range=(1, 2)
        )
    with pytest.raises(BadParamsError):
        search_counterexamples(ClaimId.THEOREM_STAR, size_range=(5, 5))


def test_replication_builds_at_most_ten_analyses(monkeypatch):
    analysed = []
    original = analysis.Analysis.__init__

    def counting(self, g):
        analysed.append(g)
        original(self, g)

    monkeypatch.setattr(analysis.Analysis, "__init__", counting)
    checks, verdicts = replication_checks()
    assert all(check.passed for check in checks)
    assert len(checks) == 13 and len(verdicts) == 5
    assert len(analysed) <= 10
