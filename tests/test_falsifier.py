from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzygraph import (
    BadParamsError,
    ClaimId,
    FuzzyGraph,
    Membership,
    NotAFuzzyTreeError,
    SaturatedCycleSpec,
    build_graph,
    check_corollary_star,
    check_theorem_star,
    ci_bruteforce,
    connectivity_index,
    fuzzy_tree_mst,
    make_saturated_cycle,
    parse_graph,
    search_counterexamples,
    wi_bruteforce,
    wiener_index,
)
from fuzzygraph import analysis, falsifier
from fuzzygraph.falsifier import _canonical_key, _sweep_specs
from fuzzygraph.model import MICRO
from fuzzygraph.replication import replication_checks
from fuzzygraph.samples import alternating_cycle, five_vertex_tree
from fuzzygraph.structure import _vertex_names, random_fuzzy_tree

from support import GRID


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
    assert len(analysed) == 1
    assert analysed[0] is g
    assert verdict.detail["wi_g"] == wi_bruteforce(g)


def test_corollary_star_builds_no_graph(monkeypatch):
    g = random_fuzzy_tree(5, 8, 2)
    built = []
    original = FuzzyGraph._layout

    def counting(self, names, sigma, mu):
        built.append(len(names))
        return original(self, names, sigma, mu)

    def refuse(self, pairs):
        raise AssertionError("edge_subgraph called")

    monkeypatch.setattr(FuzzyGraph, "_layout", counting)
    monkeypatch.setattr(FuzzyGraph, "edge_subgraph", refuse)
    verdict = check_corollary_star(g)
    assert built == []
    assert not verdict.holds


def test_corollary_star_sums_the_forest_once(monkeypatch):
    g = random_fuzzy_tree(5, 8, 2)
    expected = wiener_index(g)
    sums = []
    original = analysis.Analysis.wiener

    def counting(self):
        sums.append(original(self))
        return sums[-1]

    monkeypatch.setattr(analysis.Analysis, "wiener", counting)
    verdict = check_corollary_star(g)
    # on a fuzzy tree WI(G) is WI(F): one sum, reported as both
    assert sums == [expected]
    assert verdict.detail["wi_g"] == verdict.detail["wi_f"] == expected
    assert verdict.lhs == expected


def assert_matches_two_graph_route(g) -> None:
    """The verdict's figures equal those of F built as a graph of its
    own and analysed apart from G, and brute force on small graphs."""
    verdict = check_corollary_star(g)
    skeleton = g.edge_subgraph(fuzzy_tree_mst(g).edges)
    assert verdict.detail == {
        "wi_g": wiener_index(g),
        "wi_f": wiener_index(skeleton),
        "ci_f": connectivity_index(skeleton),
    }
    assert verdict.lhs == verdict.detail["wi_g"]
    assert verdict.rhs == verdict.detail["ci_f"]
    if g.vertex_count <= 12:
        assert verdict.detail["wi_g"] == wi_bruteforce(g)
        assert verdict.detail["wi_f"] == wi_bruteforce(skeleton)
        assert verdict.detail["ci_f"] == ci_bruteforce(skeleton)


def _tree_strength(tree_adj, a: int, b: int) -> int:
    """The weakest grade on the a-b path of a tree, by a search from a."""
    best = {a: MICRO}
    stack = [a]
    while stack:
        x = stack.pop()
        for y, grade in tree_adj[x]:
            if y not in best:
                best[y] = min(best[x], grade)
                stack.append(y)
    return best[b]


@st.composite
def tied_fuzzy_trees(draw):
    """Fuzzy trees on 2..60 vertices with up to 3 extra edges, whose
    grades come from a few 0.01 steps, so many of them tie."""
    n = draw(st.integers(2, 60))
    extra = draw(st.integers(0, 3))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return random_fuzzy_tree(rng.randrange(1 << 63), n, extra)
    steps = [1, 2, 3, 50, 51, 100]
    sigma = [rng.choice(steps[2:]) * GRID for _ in range(n)]
    adj = [[] for _ in range(n)]
    edges = {}
    for i in range(1, n):
        j = rng.randrange(i)
        cap = min(sigma[i], sigma[j])
        grade = rng.choice([s * GRID for s in steps if s * GRID <= cap])
        adj[i].append((j, grade))
        adj[j].append((i, grade))
        edges[(j, i)] = grade
    for _ in range(extra):
        i, j = sorted(rng.sample(range(n), 2))
        limit = _tree_strength(adj, i, j) // GRID
        if (i, j) in edges or limit <= 1:
            continue
        edges[(i, j)] = rng.randrange(1, limit) * GRID
    names = [f"t{i:02d}" for i in range(n)]
    return build_graph(
        [(name, Membership(grade)) for name, grade in zip(names, sigma)],
        [(names[i], names[j], Membership(g)) for (i, j), g in edges.items()],
    )


@settings(max_examples=150, deadline=None)
@given(tied_fuzzy_trees())
def test_corollary_star_matches_the_two_graph_route(g):
    assert_matches_two_graph_route(g)


def test_corollary_star_matches_the_two_graph_route_on_tree5():
    assert_matches_two_graph_route(five_vertex_tree())


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


def test_a_search_takes_a_single_trial():
    hits = search_counterexamples(ClaimId.COROLLARY_STAR, trials=1, seed=0)
    assert [hit.size for hit in hits] == [6]
    hits = search_counterexamples(ClaimId.THEOREM_STAR, trials=1)
    assert [hit.size for hit in hits] == [4]


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


def test_theorem_sweep_builds_only_the_specs_it_checks(monkeypatch):
    built = []
    original = SaturatedCycleSpec.__init__

    def counting(self, *args):
        built.append(args)
        original(self, *args)

    monkeypatch.setattr(SaturatedCycleSpec, "__init__", counting)
    hits = search_counterexamples(
        ClaimId.THEOREM_STAR, trials=3, size_range=(4, 4000)
    )
    assert len(built) == 3
    monkeypatch.undo()
    first = list(_sweep_specs((4, 4000)))[:3]
    assert hits == [check_theorem_star(spec) for spec in first]


@pytest.mark.parametrize(
    "claim, trials, size_range",
    [
        (ClaimId.COROLLARY_STAR, 60, (2, 12)),
        (ClaimId.COROLLARY_STAR, 5, (30, 40)),
        (ClaimId.THEOREM_STAR, None, (4, 12)),
    ],
)
def test_search_never_serializes_a_graph(
    monkeypatch, claim, trials, size_range
):
    def refuse(self, *grades):
        raise AssertionError("the search serialized a graph")

    monkeypatch.setattr(FuzzyGraph, "serialize", refuse)
    hits = search_counterexamples(
        claim, trials=trials, seed=4, size_range=size_range
    )
    assert len(hits) > 1


def _text_key(verdict) -> tuple[int, str]:
    """The order of search verdicts the reports keep: by size, then by
    the .fzg text of a tree, the spec's text of a cycle."""
    spec = verdict.instance
    if isinstance(spec, SaturatedCycleSpec):
        return (spec.n, f"cycle n={spec.n} kappa={spec.kappa} eta={spec.eta}")
    return (verdict.size, verdict.graph.serialize())


def _bare_verdict(g):
    """A corollary-star verdict that only its graph tells apart."""
    return falsifier.ClaimVerdict(
        claim_id=ClaimId.COROLLARY_STAR,
        instance=g,
        graph=g,
        lhs=Fraction(0),
        rhs=Fraction(0),
        holds=False,
        detail={},
    )


# grades whose texts are prefixes of one another (0.05, 0.5, 0.51) or
# run to six decimals, with 1 and the smallest grade
_PREFIX_GRADES = (
    5, 50_000, 50_001, 500_000, 500_001, 510_000, 510_001, 999_999, MICRO
)


@st.composite
def prefix_graded_graphs(draw) -> FuzzyGraph:
    """A graph on ``_vertex_names(n)``, n from a small range so that many
    share their size, graded from ``_PREFIX_GRADES``."""
    n = draw(st.integers(2, 4))
    grade = st.sampled_from(_PREFIX_GRADES)
    grades = draw(st.lists(grade, min_size=n, max_size=n))
    sigma = dict(zip(_vertex_names(n), grades))
    names = [*sigma]
    mu = {}
    for i in range(n):
        for j in range(i + 1, n):
            cap = min(sigma[names[i]], sigma[names[j]])
            w = draw(st.sampled_from((0, *_PREFIX_GRADES)))
            if 0 < w <= cap:
                mu[names[i], names[j]] = w
    return FuzzyGraph.from_micro(sigma, mu)


_TREES = st.builds(
    random_fuzzy_tree,
    st.integers(0, 2**32),
    st.integers(2, 12),
    st.integers(0, 3),
)


@given(
    st.lists(_TREES, max_size=10),
    st.lists(prefix_graded_graphs(), max_size=12),
)
@settings(max_examples=200, deadline=None)
def test_int_keys_sort_trees_as_their_texts_do(trees, graphs):
    verdicts = [*map(_bare_verdict, [*trees, *graphs])]
    by_ints = sorted(verdicts, key=_canonical_key)
    by_texts = sorted(verdicts, key=_text_key)
    assert [*map(id, by_ints)] == [*map(id, by_texts)]


@pytest.mark.parametrize("trials", [None, 50])
def test_theorem_sweeps_come_out_in_text_order(trials):
    # the search sorts no theorem-star verdict: the sweep's order is kept
    hits = search_counterexamples(ClaimId.THEOREM_STAR, trials=trials)
    keys = [*map(_text_key, hits)]
    assert len(hits) > 1 and keys == sorted(keys)


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


def test_replication_builds_seven_analyses(monkeypatch):
    analysed = []
    original = analysis.Analysis.__init__

    def counting(self, g):
        analysed.append(g)
        original(self, g)

    monkeypatch.setattr(analysis.Analysis, "__init__", counting)
    checks, verdicts = replication_checks()
    assert all(check.passed for check in checks)
    assert len(checks) == 13 and len(verdicts) == 5
    assert len(analysed) == 7
