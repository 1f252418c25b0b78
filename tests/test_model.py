from __future__ import annotations

import random
import re
from fractions import Fraction
from itertools import repeat

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuzzygraph import (
    MICRO,
    DuplicateEdgeError,
    DuplicateVertexError,
    FuzzyGraph,
    GraphConstructionError,
    Membership,
    MuExceedsSigmaError,
    NoSuchEdgeError,
    PairTable,
    ParseError,
    SelfLoopError,
    UnknownEndpointError,
    ZeroMuError,
    build_graph,
    format_fraction,
    parse_graph,
    strength_of_connectedness,
)
from fuzzygraph import model
from fuzzygraph.analysis import Analysis
from fuzzygraph.model import (
    ONE,
    _bulk_records,
    _line_records,
    _literal_micro,
    _read_records,
    key_bits,
    micro_text,
    pair,
)
from fuzzygraph.samples import five_vertex_tree
from fuzzygraph.structure import (
    SaturatedCycleSpec,
    make_saturated_cycle,
    random_fuzzy_tree,
)

from conftest import fuzzy_graphs
from support import random_sparse_graph


def M(text: str) -> Membership:
    return Membership.parse(text)


def test_parse_is_exact_fixed_point():
    assert M("0.1").micro == 100_000
    assert M("1").micro == MICRO
    assert M("0").micro == 0
    assert M("0.123456").micro == 123_456
    assert M("1.000000").micro == MICRO
    assert M("0.30").micro == 300_000


def test_summing_grades_is_exact():
    total = sum(M("0.3").micro for _ in range(4))
    assert total == 1_200_000


@pytest.mark.parametrize(
    "bad", ["1.5", "2", "0.1234567", "-0.1", "abc", "", ".5", "0.1e-3", "0x1"]
)
def test_parse_rejects_bad_grades(bad):
    with pytest.raises(ValueError):
        M(bad)


@pytest.mark.parametrize(
    "bad", ["0.5\n", "1\n", "\u0660.\u0665", "\uff10.\uff15", "0.\u0665"]
)
def test_parse_rejects_non_ascii_digits_and_a_trailing_newline(bad):
    with pytest.raises(ValueError):
        M(bad)


@pytest.mark.parametrize(
    "text, line",
    [
        ("v a 1\n\nv b \u0660.\u0665\n", 3),
        ("v a 1\nv b 1\ne a b \uff10.\uff15\n", 3),
        ("v a \u0661\n", 1),
    ],
)
def test_parse_graph_rejects_non_ascii_digit_grades(text, line):
    with pytest.raises(ParseError) as info:
        parse_graph(text)
    assert info.value.line == line


# longer than the 4,300 digits Python converts between int and str
_ZEROS_THEN_ONE = "0" * 5000 + "1"
_FIVE_THOUSAND_ONES = "1" * 5000


def test_a_grade_literal_of_any_length_parses():
    assert M(_ZEROS_THEN_ONE) == ONE
    assert M(_ZEROS_THEN_ONE + ".000") == ONE
    assert parse_graph(f"v a {_ZEROS_THEN_ONE}\n").sigma_micro == (MICRO,)


def test_a_long_grade_above_1_is_reported_as_such():
    with pytest.raises(ValueError, match="^grade above 1: '1111"):
        M(_FIVE_THOUSAND_ONES)
    with pytest.raises(ParseError, match="^line 2: grade above 1: '1111"):
        parse_graph(f"v a 1\nv b {_FIVE_THOUSAND_ONES}\n")


_REFERENCE_GRADE_RE = re.compile(r"([0-9]+)(?:\.([0-9]{1,6}))?")


def _reference_literal_micro(text: str) -> int:
    """The regex route the reader used before, for literals of at most a
    few hundred digits."""
    match = _REFERENCE_GRADE_RE.fullmatch(text)
    if match is None:
        raise ValueError(f"not a grade literal: {ascii(text)}")
    whole, frac = match.group(1), match.group(2) or ""
    micro = int(whole) * MICRO + int(frac.ljust(6, "0") or "0")
    if micro > MICRO:
        raise ValueError(f"grade above 1: {ascii(text)}")
    return micro


_LITERAL_CHARS = st.sampled_from([*"0123456789.+-_ ", "\u0661", "\xb2"])
_LITERALS = st.text(_LITERAL_CHARS, max_size=10) | st.builds(
    "{}{}{}{}".format,
    st.text("0", max_size=8),  # leading zeros
    st.text("0123456789", max_size=2),  # an empty whole part too
    st.sampled_from(["", "."]),
    st.text("0123456789", max_size=7),  # up to 7 fractional digits
)


@given(_LITERALS)
@example("007.5")
@example("0.1234567")
@example(".5")
@example("5.")
@example("+1")
@example("-0")
@example("1_0")
@example("0. 5")
@example("\u0661")
@example("0.\xb2")
@settings(max_examples=1000, deadline=None)
def test_literal_micro_agrees_with_the_regex_route(text):
    try:
        expected = _reference_literal_micro(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            _literal_micro(text)
        assert str(info.value) == str(exc)
    else:
        assert _literal_micro(text) == expected


@given(st.integers(0, 10**12))
@settings(deadline=None)
def test_micro_text_is_the_exact_decimal(micro):
    assert micro_text(micro) == format_fraction(Fraction(micro, MICRO))


def test_membership_range_checked():
    with pytest.raises(ValueError):
        Membership(MICRO + 1)
    with pytest.raises(ValueError):
        Membership(-1)


@pytest.mark.parametrize(
    "build, args",
    [
        (Membership, (0.5,)),
        (Membership, (True,)),
        (FuzzyGraph, ({"a": 1}, {})),
        (FuzzyGraph, ({"a": ONE, "b": ONE}, {("a", "b"): MICRO // 2})),
    ],
    ids=["float micro", "bool micro", "int sigma", "int mu"],
)
def test_a_grade_of_another_type_raises_type_error(build, args):
    with pytest.raises(TypeError):
        build(*args)


def test_graphs_and_pair_tables_are_never_equal_to_an_int():
    g = five_vertex_tree()
    table = strength_of_connectedness(g)
    assert (g == 1) is False and (g != 1) is True
    assert (table == 1) is False and (table != 1) is True


def test_equal_graphs_from_every_route_hash_equal():
    g = random_fuzzy_tree(3, 30, 5)
    names = g.vertices()
    routes = [
        g,
        parse_graph(g.serialize()),
        FuzzyGraph(
            {x: g.sigma(x) for x in names}, {(u, v): w for u, v, w in g.edges()}
        ),
        FuzzyGraph.from_micro(
            dict(zip(names, g.sigma_micro)), dict(zip(g.edge_pairs(), g.mu_micro))
        ),
    ]
    assert all(h == g for h in routes)
    assert {hash(h) for h in routes} == {hash(g)}
    assert len(set(routes)) == 1
    assert len({*routes, g.remove_edge(*g.edge_pairs()[0])}) == 2


@given(st.integers(0, MICRO))
@settings(deadline=None)
def test_membership_render_parse_round_trip(micro):
    grade = Membership(micro)
    assert M(str(grade)) == grade


def test_format_fraction_exact_decimal():
    assert format_fraction(Fraction(37, 5)) == "7.4"
    assert format_fraction(Fraction(7, 2)) == "3.5"
    assert format_fraction(Fraction(0)) == "0"
    assert format_fraction(Fraction(3)) == "3"
    assert format_fraction(Fraction(43, 4)) == "10.75"
    assert format_fraction(Fraction(1, 3)) == "1/3"
    assert format_fraction(Fraction(225, 8)) == "28.125"
    assert format_fraction(Fraction(-37, 5)) == "-7.4"


def _format_fraction_by_factoring(value: Fraction) -> str:
    """format_fraction as it counted the factors 2 and 5 of the
    denominator, kept to pin the bit-length route to it."""
    num, den = value.numerator, value.denominator
    if den == 1:
        return str(num)
    d, twos, fives = den, 0, 0
    while d % 2 == 0:
        d, twos = d // 2, twos + 1
    while d % 5 == 0:
        d, fives = d // 5, fives + 1
    if d != 1:
        return f"{num}/{den}"
    places = max(twos, fives)
    whole, frac = divmod(abs(num) * 10**places // den, 10**places)
    digits = f"{frac:0{places}d}".rstrip("0")
    sign = "-" if num < 0 else ""
    return f"{sign}{whole}.{digits}" if digits else f"{sign}{whole}"


@given(
    st.integers(-(10**30), 10**30),
    st.integers(0, 70),
    st.integers(0, 70),
    st.sampled_from([1, 1, 1, 3, 7, 9, 11, 1023]),
)
@settings(max_examples=500, deadline=None)
def test_format_fraction_matches_factoring_the_denominator(num, a, b, odd):
    value = Fraction(num, 2**a * 5**b * odd)
    assert format_fraction(value) == _format_fraction_by_factoring(value)


def test_build_five_vertex_tree():
    g = five_vertex_tree()
    assert g.vertex_count == 5
    assert g.edge_count == 5
    assert g.mu("a", "b") == M("0.1")
    assert g.mu("e", "c") == M("0.3")  # stored on the canonical pair c, e
    assert g.sigma("a") == M("1")


def test_single_vertex_and_empty_graph():
    lone = build_graph([("x", M("0.7"))], [])
    assert lone.vertex_count == 1
    empty = build_graph([], [])
    assert empty.vertex_count == 0


def test_zero_sigma_vertex_allowed_but_cannot_carry_edges():
    g = build_graph([("a", M("0")), ("b", M("1"))], [])
    assert g.sigma("a").is_zero
    # the zero-sigma vertex sorts first, then second
    for zero, other in (("a", "b"), ("b", "a")):
        with pytest.raises(MuExceedsSigmaError):
            build_graph(
                [(zero, M("0")), (other, M("1"))], [(other, zero, M("0.1"))]
            )
        with pytest.raises(MuExceedsSigmaError):
            FuzzyGraph.from_micro({zero: 0, other: MICRO}, {(zero, other): 1})
        with pytest.raises(MuExceedsSigmaError, match="^line 3: "):
            parse_graph(f"v {zero} 0\nv {other} 1\ne {zero} {other} 0.1\n")


def test_an_edge_from_a_zero_sigma_vertex_names_its_undeclared_end():
    # the undeclared vertex sorts second, then first
    for zero, missing in (("a", "b"), ("b", "a")):
        message = f"^unknown vertex {missing!r}$"
        with pytest.raises(UnknownEndpointError, match=message):
            FuzzyGraph.from_micro({zero: 0}, {(zero, missing): 1})
        with pytest.raises(UnknownEndpointError, match=message):
            build_graph([(zero, M("0"))], [(zero, missing, M("0.1"))])


def test_build_graph_error_cases():
    one = M("1")
    with pytest.raises(DuplicateVertexError):
        build_graph([("a", one), ("a", one)], [])
    with pytest.raises(DuplicateEdgeError):
        build_graph(
            [("a", one), ("b", one)],
            [("a", "b", M("0.1")), ("b", "a", M("0.2"))],
        )
    with pytest.raises(SelfLoopError):
        build_graph([("a", one)], [("a", "a", M("0.1"))])
    with pytest.raises(UnknownEndpointError):
        build_graph([("a", one)], [("a", "b", M("0.1"))])
    with pytest.raises(ZeroMuError):
        build_graph([("a", one), ("b", one)], [("a", "b", M("0"))])
    with pytest.raises(MuExceedsSigmaError):
        build_graph(
            [("a", M("0.4")), ("b", one)], [("a", "b", M("0.5"))]
        )


def test_mu_at_sigma_cap_is_legal():
    g = build_graph(
        [("a", M("0.4")), ("b", M("1"))], [("a", "b", M("0.4"))]
    )
    assert g.mu("a", "b") == M("0.4")


def test_parse_graph_basic():
    text = """
# comment line

v a 1
v b 0.5
e a b 0.3
"""
    g = parse_graph(text)
    assert g.vertices() == ("a", "b")
    assert g.mu("a", "b").micro == 300_000


def test_parse_graph_accepts_bytes():
    g = parse_graph(b"v a 1\nv b 1\ne a b 0.1\n")
    assert g.edge_count == 1


def test_parse_reports_line_numbers():
    with pytest.raises(ParseError) as info:
        parse_graph("v a 1\nv b\n")
    assert info.value.line == 2
    with pytest.raises(ParseError) as info:
        parse_graph("v a 1\nv b 1\ne a b 1.0000001\n")
    assert info.value.line == 3
    with pytest.raises(ParseError) as info:
        parse_graph("vertex a 1\n")
    assert info.value.line == 1
    with pytest.raises(ParseError) as info:
        parse_graph("v a 1\ne a 0.1\n")
    assert info.value.line == 2


@pytest.mark.parametrize(
    "text, error, line",
    [
        ("v a 1\nv b 1\nv a 0.5\n", DuplicateVertexError, 3),
        ("v a 1\nv b 1\ne a b 0.1\n\ne b a 0.2\n", DuplicateEdgeError, 5),
        ("v a 1\n# loop\ne a a 0.1\n", SelfLoopError, 3),
        ("v a 1\nv b 1\ne a b 0\n", ZeroMuError, 3),
        ("v b 1\nv a 0.2\ne b a 0.3\n", MuExceedsSigmaError, 3),
    ],
)
def test_structural_errors_name_their_line(text, error, line):
    with pytest.raises(error) as info:
        parse_graph(text)
    assert str(info.value).startswith(f"line {line}: ")


def test_the_first_error_in_file_order_is_reported():
    # line 4 is the first bad line; line 5 holds the first bad edge in
    # key order and line 6 a duplicate vertex
    text = "v a 0.1\nv b 1\nv c 1\ne b c 0\ne a c 0.5\nv a 1\n"
    with pytest.raises(ZeroMuError, match="^line 4: "):
        parse_graph(text)
    with pytest.raises(MuExceedsSigmaError, match="^line 5: "):
        parse_graph(text.replace("e b c 0\n", "e b c 0.5\n"))
    with pytest.raises(ZeroMuError, match="^line 3: "):
        parse_graph("v a 1\nv b 1\ne a b 0\nbogus\n")
    with pytest.raises(SelfLoopError, match="^line 2: "):
        parse_graph("v a 1\ne a a 0.1\ne a a 0.1\n")
    with pytest.raises(ZeroMuError, match="^line 3: "):
        parse_graph(b"v a 1\nv b 1\ne a b 0\nv \xff 1\n")
    with pytest.raises(ParseError) as info:
        parse_graph(b"v a 1\nv b 1\ne a b 0.5\nv \xff 1\n")
    assert info.value.line == 4


def _counting_fill(monkeypatch) -> list[int]:
    """Wrap FuzzyGraph._layout, the core every route lays a graph out
    with; the list gets each call's edge count."""
    calls: list[int] = []
    original = FuzzyGraph._layout

    def counting(self, names, sigma, mu):
        calls.append(len(mu))
        return original(self, names, sigma, mu)

    monkeypatch.setattr(FuzzyGraph, "_layout", counting)
    return calls


@pytest.mark.parametrize(
    "record, error",
    [
        ("e c c 0.1", SelfLoopError),
        ("e c a 0", ZeroMuError),
        ("e d a 0.6", MuExceedsSigmaError),
        ("e b a 0.2", DuplicateEdgeError),
        ("e a z 0.1", UnknownEndpointError),
    ],
)
def test_a_bad_record_fails_on_its_line_without_the_core(
    monkeypatch, record, error
):
    calls = _counting_fill(monkeypatch)
    text = "v a 0.5\nv b 1\nv c 1\nv d 1\ne a b 0.1\n"
    with pytest.raises(error, match="^line 6: "):
        parse_graph(f"{text}{record}\ne c d 0.3\n")
    assert calls == []
    assert parse_graph(text).edge_count == 1
    assert calls == [1]


def _corrupt(line: str, previous: str, sigma: dict[str, int], how: int) -> str:
    """An edge record made invalid on its own line, given the record
    before it and the vertex grades."""
    _, u, v, grade = line.split()
    if how in (5, 6) and previous.startswith("e "):
        # the record before, again, in reversed or in the same order
        _, a, b, _ = previous.split()
        return f"e {b} {a} {grade}" if how == 5 else f"e {a} {b} {grade}"
    if how == 7 and min(sigma[u], sigma[v]) < MICRO:
        return f"e {u} {v} {micro_text(min(sigma[u], sigma[v]) + 1)}"
    return [
        f"e {u} {u} {grade}",
        f"e {u} {v} 0",
        f"e {u} ghost {grade}",
        f"e {u} {v} 0.1234567",
        f"e {u} {v}",
    ][how % 5]


@given(
    fuzzy_graphs(min_vertices=2, max_vertices=7, connected=True),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_the_earliest_corrupted_edge_line_is_reported(g, data):
    original = g.serialize().splitlines()
    lines = list(original)
    sigma = dict(zip(g.vertices(), g.sigma_micro))
    first = g.vertex_count
    chosen = data.draw(
        st.sets(st.integers(first, len(lines) - 1), min_size=1, max_size=2)
    )
    # the lines before the earliest corrupted one are the original,
    # valid ones, so that line holds the first error
    for k in chosen:
        how = data.draw(st.integers(0, 7))
        lines[k] = _corrupt(original[k], original[k - 1], sigma, how)
    text = "\n".join(lines) + "\n"
    for source in (text, text.encode("ascii")):
        with pytest.raises((ParseError, GraphConstructionError)) as info:
            parse_graph(source)
        assert str(info.value).startswith(f"line {min(chosen) + 1}: ")


@given(fuzzy_graphs(max_vertices=7), st.data())
@settings(max_examples=300, deadline=None)
def test_the_parser_admits_only_graphs_the_checks_admit(g, data):
    # parse_graph lays the records out unchecked, trusting the reader
    lines = g.serialize().splitlines()
    sigma = dict(zip(g.vertices(), g.sigma_micro))
    first = g.vertex_count
    edges = data.draw(st.permutations(lines[first:]))
    for k, line in enumerate(edges):
        if data.draw(st.booleans()):
            _, u, v, grade = line.split()
            edges[k] = f"e {v} {u} {grade}"
    if edges and data.draw(st.booleans()):
        k = data.draw(st.integers(0, len(edges) - 1))
        previous = edges[k - 1] if k else lines[first - 1]
        how = data.draw(st.integers(0, 7))
        edges[k] = _corrupt(edges[k], previous, sigma, how)
    text = "\n".join(lines[:first] + edges) + "\n"
    try:
        parsed = parse_graph(text)
    except (ParseError, GraphConstructionError):
        return
    checked = FuzzyGraph.from_micro(*_name_keyed(*_read_records(text)))
    assert parsed == checked
    assert parsed.serialize() == checked.serialize()


# canonical texts, which the bulk reader must read: serialize's layout,
# with edges in any order and names that hold ";" or "#"
_CANONICAL_CHANGES = [None, "permuted", "name;", "name#"]
_CHANGES = [
    *_CANONICAL_CHANGES,
    *[f"corrupt {how}" for how in range(8)],
    "reversed edge", "# note", "", "crlf", "tab", "late vertex",
    "vertex twice", "name\0", "no final newline",
]


def _changed_text(g: FuzzyGraph, change: str | None, rng) -> str:
    """The canonical text of g with one change of ``_CHANGES``; a change
    to an edge line leaves a graph with no edges unchanged."""
    lines = g.serialize().splitlines()
    first = g.vertex_count
    sigma = dict(zip(g.vertices(), g.sigma_micro))
    edges = len(lines) - first
    # an edge line, after another one where there are two, so that a
    # duplicate of the line before is of an edge
    k = rng.randrange(first + (edges > 1), len(lines)) if edges else None
    if change == "permuted":
        lines[first:] = rng.sample(lines[first:], edges)
    elif change == "reversed edge" and edges:
        _, u, v, grade = lines[k].split()
        lines[k] = f"e {v} {u} {grade}"
    elif change and change.startswith("corrupt") and edges:
        lines[k] = _corrupt(lines[k], lines[k - 1], sigma, int(change[-1]))
    elif change in ("# note", ""):
        lines.insert(rng.randrange(len(lines) + 1), change)
    elif change == "late vertex":
        lines.append(lines.pop(rng.randrange(first)))
    elif change == "vertex twice":
        lines.insert(rng.randrange(first + 1), lines[rng.randrange(first)])
    elif change and change.startswith("name"):
        # a suffix keeps the name order of the fuzzy_graphs names
        name = rng.choice(g.vertices())
        lines = [
            " ".join(t + change[-1] if t == name else t for t in x.split())
            for x in lines
        ]
    text = "\n".join(lines) + "\n"
    if change == "crlf":
        return text.replace("\n", "\r\n")
    if change == "tab":
        i = rng.choice([i for i, c in enumerate(text) if c == " "])
        return f"{text[:i]}\t{text[i + 1:]}"
    return text[:-1] if change == "no final newline" else text


# each change above corrupts "e b c 0.5", whose second end c has the
# lower grade
_BULK_EXAMPLE = parse_graph("v a 1\nv b 1\nv c 0.5\ne a b 0.5\ne b c 0.5\n")


def _outcome(read, text: str):
    """What ``read`` returns for text, or the type and message it raises."""
    try:
        return read(text)
    except (ParseError, GraphConstructionError) as exc:
        return type(exc), str(exc)


@given(
    fuzzy_graphs(min_vertices=2, max_vertices=7),
    st.sampled_from(_CHANGES),
    st.integers(1, 40),
    st.randoms(use_true_random=False),
)
# a zero grade, the same edge twice and a grade above its second end's
@example(_BULK_EXAMPLE, "corrupt 1", 1, random.Random(0))
@example(_BULK_EXAMPLE, "corrupt 6", 1, random.Random(0))
@example(_BULK_EXAMPLE, "corrupt 7", 1, random.Random(0))
@settings(max_examples=500, deadline=None)
def test_the_bulk_reader_reads_as_the_line_reader_does_or_declines(
    g, change, chunk, rng
):
    text = _changed_text(g, change, rng)
    # chunks of a line or a few, so that records and their duplicates
    # land in different chunks
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(model, "_CHUNK", chunk)
        bulk = _bulk_records(text)
        read = _outcome(_read_records, text)
    lines = _outcome(_line_records, text)
    assert bulk is None or bulk == lines
    assert read == lines
    if change in _CANONICAL_CHANGES:
        assert bulk is not None


def _name_keyed(names, sigma, mu):
    """The maps ``from_micro`` takes, from the index-keyed records that
    ``_read_records`` returns, each edge key split by ``key_bits``."""
    width = 1 << key_bits(len(names))
    return (
        dict(zip(names, sigma)),
        {
            tuple(map(names.__getitem__, divmod(k, width))): w
            for k, w in mu.items()
        },
    )


def test_parse_graph_runs_no_check_of_fill(monkeypatch):
    def refuse(self, sigma, mu):
        raise AssertionError("_fill called")

    g = random_sparse_graph(3, 40, 60)
    text = g.serialize()
    monkeypatch.setattr(FuzzyGraph, "_fill", refuse)
    assert parse_graph(text) == g
    assert parse_graph(text.encode("ascii")) == g


# ------------------------------------------------------- edge key width

_NARROW = 1 << 15


def _widening_file(n: int) -> tuple[str, dict, dict]:
    """.fzg text on n vertices, declared in reverse name order, with each
    edge line right after the ``v`` line of its later endpoint, and the
    name-keyed maps that ``from_micro`` takes for the same graph.  Vertex
    k joins k - 1, and every 1000th vertex also joins vertex 0, so there
    are edges on both sides of the 32,769th declaration and one on the
    vertex of index 32,768."""
    names = [f"x{n - 1 - k:05d}" for k in range(n)]
    lines, mu = [], {}
    for k, name in enumerate(names):
        lines.append(f"v {name} 1")
        ends = [k - 1] if k else []
        if k % 1000 == 0 and k > 1:
            ends.append(0)
        for j in ends:
            grade = 100_000 * (1 + (k + j) % 9)
            lines.append(f"e {names[j]} {name} {micro_text(grade)}")
            mu[names[j], name] = grade
    return "\n".join(lines) + "\n", dict.fromkeys(names, MICRO), mu


def test_the_parser_widens_its_edge_keys_past_32768_vertices(tmp_path):
    n = _NARROW + 2
    text, sigma, mu = _widening_file(n)
    path = tmp_path / "wide.fzg"
    path.write_text(text, encoding="ascii")
    lines = text.splitlines()
    switch = lines.index(f"v x{n - 1 - _NARROW:05d} 1")
    # the keys widen on this line, with edges read before and after it,
    # one of them on the vertex it declares
    assert sum(line[0] == "v" for line in lines[:switch]) == _NARROW
    assert lines[switch + 1].startswith(
        f"e x{n - _NARROW:05d} x{n - 1 - _NARROW:05d} "
    )
    parsed = parse_graph(path.read_bytes())
    assert parsed == FuzzyGraph.from_micro(sigma, mu)
    assert dict(zip(parsed.edge_pairs(), parsed.mu_micro)) == {
        pair(u, v): w for (u, v), w in mu.items()
    }
    # the lines before the switch make a graph of 2**15 vertices, keyed
    # and renamed at 15 bits
    head = "\n".join(lines[:switch]) + "\n"
    narrow = parse_graph(head)
    assert narrow.vertex_count == _NARROW
    assert narrow == FuzzyGraph.from_micro(*_name_keyed(*_read_records(head)))
    # errors after the switch still name their own lines
    tail = len(lines) + 1
    first = lines[switch - 1].split()
    assert first[0] == "e"
    duplicate = f"e {first[2]} {first[1]} 0.1"
    with pytest.raises(DuplicateEdgeError, match=f"^line {tail}: "):
        parse_graph(f"{text}{duplicate}\ne a b 0.1\n")
    with pytest.raises(UnknownEndpointError, match=f"^line {tail}: "):
        parse_graph(f"{text}e x00001 ghost 0.1\nbogus\n")


def _key_log(monkeypatch) -> list[tuple[int, set, FuzzyGraph]]:
    """Wrap FuzzyGraph._layout; the list gets each call's vertex count,
    edge keys and graph."""
    calls = []
    original = FuzzyGraph._layout

    def logging(self, names, sigma, mu):
        graph = original(self, names, sigma, mu)
        calls.append((len(names), {*mu}, graph))
        return graph

    monkeypatch.setattr(FuzzyGraph, "_layout", logging)
    return calls


@pytest.mark.parametrize("n, bits", [(_NARROW, 15), (_NARROW + 1, 32)])
def test_every_route_keys_edges_in_one_digit_up_to_32768_vertices(
    monkeypatch, n, bits
):
    assert key_bits(n) == bits
    calls = _key_log(monkeypatch)
    names = [f"p{k:05d}" for k in range(n)]
    text = "".join(f"v {name} 1\n" for name in names) + "".join(
        f"e {u} {v} 0.5\n" for u, v in zip(names, names[1:])
    )
    g = parse_graph(text)
    FuzzyGraph.from_micro(
        dict.fromkeys(names, MICRO),
        {(v, u): MICRO // 2 for u, v in zip(names, names[1:])},
    )
    g.edge_subgraph(g.edge_pairs()[::2])
    g.remove_edge(names[0], names[1])
    random_fuzzy_tree(1, n, 0)
    make_saturated_cycle(SaturatedCycleSpec(n + n % 2, M("0.5"), M("0.3")))
    assert len(calls) == 6
    for count, keys, graph in calls:
        # the cycle has n + 1 vertices when n is odd, at the same width
        assert count == graph.vertex_count and key_bits(count) == bits
        # each key splits at its width into the graph's edges, names
        # being declared in name order
        width = 1 << bits
        assert sorted(map(divmod, keys, repeat(width))) == [*graph.ends]
        if bits == 15:
            assert max(keys) < 1 << 30
        else:
            assert max(keys) >= 1 << 32


@pytest.mark.parametrize("name", ["\u00e9", "a\u00e9", "a\x01", "a\x7f"])
def test_names_outside_printable_ascii_are_rejected(name):
    with pytest.raises(ParseError) as info:
        parse_graph(f"v a 1\nv {name} 1\n".encode("utf-8"))
    assert info.value.line == 2
    assert str(info.value).isascii()
    with pytest.raises(ValueError):
        FuzzyGraph({name: M("1")}, {})


def test_constructor_rejects_a_name_with_a_trailing_newline():
    with pytest.raises(ValueError):
        FuzzyGraph({"a\n": M("1")}, {})


def test_constructor_rejects_a_string_as_an_edge_key():
    with pytest.raises(TypeError, match="'ab'"):
        FuzzyGraph({"a": M("1"), "b": M("1")}, {"ab": M("0.5")})


@pytest.mark.parametrize(
    "key", [("a",), ("a", "b", "c"), ("a", 1), (b"a", "b")]
)
def test_constructor_rejects_an_edge_key_that_is_not_a_pair_of_names(key):
    with pytest.raises(TypeError) as info:
        FuzzyGraph({"a": M("1"), "b": M("1"), "c": M("1")}, {key: M("0.5")})
    assert repr(key) in str(info.value)


@pytest.mark.parametrize(
    "sigma", [{"a": M("1"), 1: M("1")}, {2: M("1"), "a": M("1")}]
)
def test_constructor_rejects_names_of_mixed_types_as_bad_names(sigma):
    with pytest.raises(ValueError, match="bad vertex name"):
        FuzzyGraph(sigma, {})


def test_equal_grade_literals_parse_to_equal_grades(monkeypatch):
    g = parse_graph("v a 0.5\nv b 0.50\nv c 0.5\ne a b 0.500000\n")
    assert g.sigma("a") == g.sigma("b") == g.mu("a", "b") == M("0.5")
    # parsing builds no Membership, however many distinct grades it reads
    built = []
    original = Membership.__post_init__

    def counting(self):
        built.append(self.micro)
        original(self)

    monkeypatch.setattr(Membership, "__post_init__", counting)
    text = "".join(f"v n{i:03d} 0.{500_000 + i:06d}\n" for i in range(500))
    text += "".join(
        f"e n{i:03d} n{i + 1:03d} 0.{i + 1:06d}\n" for i in range(499)
    )
    assert parse_graph(text).edge_count == 499
    assert built == []
    assert g.serialize() == "v a 0.5\nv b 0.5\nv c 0.5\ne a b 0.5\n"


def test_parse_requires_vertices_before_edges():
    with pytest.raises(UnknownEndpointError):
        parse_graph("e a b 0.1\nv a 1\nv b 1\n")


def test_parse_surfaces_build_errors():
    with pytest.raises(DuplicateVertexError):
        parse_graph("v a 1\nv a 1\n")
    with pytest.raises(MuExceedsSigmaError):
        parse_graph("v a 0.2\nv b 1\ne a b 0.3\n")


def test_serialize_round_trip_samples():
    g = five_vertex_tree()
    assert parse_graph(g.serialize()) == g


@given(fuzzy_graphs(max_vertices=6))
@settings(max_examples=120, deadline=None)
def test_serialize_round_trip_random(g):
    assert parse_graph(g.serialize()) == g


def serialize_reference(g: FuzzyGraph) -> str:
    """The .fzg text one line at a time, each grade formatted on its own
    through ``format_fraction``, names read through ``edges()``."""
    lines = [
        f"v {name} {format_fraction(g.sigma(name).as_fraction())}"
        for name in g.vertices()
    ]
    lines += [
        f"e {u} {v} {format_fraction(w.as_fraction())}"
        for u, v, w in g.edges()
    ]
    return "\n".join(lines) + "\n"


@st.composite
def graphs_with_repeated_grades(draw) -> FuzzyGraph:
    """Graphs of printable-ASCII names in any order whose grades come
    from a pool of a few values, so grades repeat, with sigma 0 vertices
    and grades off the 0.01 grid."""
    printable = st.characters(min_codepoint=33, max_codepoint=126)
    names = draw(
        st.lists(st.text(printable, min_size=1, max_size=3), max_size=9, unique=True)
    )
    pool = draw(st.lists(st.integers(0, MICRO), max_size=4)) + [0, MICRO]
    sigma = {name: draw(st.sampled_from(pool)) for name in names}
    mu = {}
    for i, u in enumerate(names):
        for v in names[i + 1 :]:
            cap = min(sigma[u], sigma[v])
            grades = [w for w in pool if 0 < w <= cap]
            if grades and draw(st.booleans()):
                mu[u, v] = draw(st.sampled_from(grades))
    return FuzzyGraph.from_micro(sigma, mu)


@given(graphs_with_repeated_grades())
@settings(max_examples=200, deadline=None)
@example(FuzzyGraph.from_micro({}, {}))
@example(FuzzyGraph.from_micro({"z": 0, "a": 0, "m": 1}, {}))
def test_serialize_matches_the_per_line_reference(g):
    assert g.serialize() == serialize_reference(g)
    assert parse_graph(g.serialize()) == g


def test_serialize_matches_the_reference_on_generated_graphs():
    graphs = [
        random_fuzzy_tree(3, 60, 4),
        random_sparse_graph(5, 120, 80),
        make_saturated_cycle(SaturatedCycleSpec(12, M("0.7"), M("0.3"))),
    ]
    for g in graphs:
        assert g.serialize() == serialize_reference(g)


def test_remove_edge_is_persistent():
    g = five_vertex_tree()
    trimmed = g.remove_edge("a", "b")
    assert trimmed.edge_count == 4
    assert g.edge_count == 5  # original untouched
    assert not trimmed.has_edge("a", "b")
    with pytest.raises(NoSuchEdgeError):
        trimmed.remove_edge("a", "b")


def test_edge_subgraph_keeps_all_vertices():
    g = five_vertex_tree()
    sub = g.edge_subgraph([("e", "a")])
    assert sub.vertex_count == 5
    assert sub.edge_count == 1
    with pytest.raises(NoSuchEdgeError):
        g.edge_subgraph([("a", "d")])


@given(fuzzy_graphs(max_vertices=7), st.data())
@settings(max_examples=100, deadline=None)
def test_edge_subgraph_finds_each_pair_in_either_order(g, data):
    pairs = g.edge_pairs()
    kept = []
    if pairs:
        kept = data.draw(st.lists(st.sampled_from(pairs), unique=True))
    given_pairs = [
        (v, u) if data.draw(st.booleans()) else (u, v) for u, v in kept
    ]
    expected = FuzzyGraph.from_micro(
        dict(zip(g.vertices(), g.sigma_micro)),
        {key: g.mu_micro[pairs.index(key)] for key in kept},
    )
    assert g.edge_subgraph(given_pairs) == expected
    names = g.vertices()
    absent = [
        (u, v) for i, u in enumerate(names) for v in names[i:]
        if (u, v) not in pairs
    ]
    for u, v in absent + [(names[0], "zz"), ("zy", "zz")]:
        for a, b in ((u, v), (v, u)):
            message = re.escape(f"no edge between {a!r} and {b!r}")
            with pytest.raises(NoSuchEdgeError, match=f"^{message}$"):
                g.edge_subgraph(given_pairs + [(a, b)])


_VIOLATIONS = ("none", "dup_vertex", "dup_edge", "self_loop", "unknown",
               "zero_mu", "mu_cap")


@given(fuzzy_graphs(min_vertices=2, max_vertices=5, connected=True),
       st.sampled_from(_VIOLATIONS))
@settings(max_examples=150, deadline=None)
def test_build_graph_rejects_exactly_the_invalid(g, violation):
    vertices = [(name, g.sigma(name)) for name in g.vertices()]
    edges = [(u, v, grade) for u, v, grade in g.edges()]
    expected = None
    if violation == "dup_vertex":
        vertices.append(vertices[0])
        expected = DuplicateVertexError
    elif violation == "dup_edge":
        u, v, grade = edges[0]
        edges.append((v, u, grade))
        expected = DuplicateEdgeError
    elif violation == "self_loop":
        name = vertices[0][0]
        edges.append((name, name, Membership(10_000)))
        expected = SelfLoopError
    elif violation == "unknown":
        edges.append((vertices[0][0], "ghost", Membership(10_000)))
        expected = UnknownEndpointError
    elif violation == "zero_mu":
        u, v, _ = edges[0]
        edges[0] = (u, v, Membership(0))
        expected = ZeroMuError
    elif violation == "mu_cap":
        u, v, _ = edges[0]
        cap = min(g.sigma(u), g.sigma(v))
        if cap.micro == MICRO:
            return  # cannot push a grade above 1
        edges[0] = (u, v, Membership(cap.micro + 1))
        expected = MuExceedsSigmaError
    if expected is None:
        rebuilt = build_graph(vertices, edges)
        assert rebuilt == g
    else:
        with pytest.raises(expected):
            build_graph(vertices, edges)


# ------------------------------------------------- construction invariants


@given(fuzzy_graphs(max_vertices=8), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_key_order_and_orientation_do_not_matter(g, rng):
    edges = list(g.edges())
    rng.shuffle(edges)
    mu = {((v, u) if rng.random() < 0.5 else (u, v)): grade
          for u, v, grade in edges}
    vertices = [(name, g.sigma(name)) for name in g.vertices()]
    rng.shuffle(vertices)
    rebuilt = FuzzyGraph(dict(vertices), mu)
    assert rebuilt == g
    assert rebuilt.serialize() == g.serialize()
    assert rebuilt.edge_pairs() == g.edge_pairs()


_LABELS = st.text(
    st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=3
)


@given(
    fuzzy_graphs(max_vertices=8),
    st.lists(_LABELS, min_size=8, max_size=8, unique=True),
    st.randoms(use_true_random=False),
)
@settings(max_examples=150, deadline=None)
def test_every_route_stores_the_name_ordered_arrays_analysis_reads(
    g, labels, rng
):
    rename = dict(zip(g.vertices(), labels))
    vertices = [(rename[name], g.sigma(name)) for name in g.vertices()]
    edges = [(rename[u], rename[v], grade) for u, v, grade in g.edges()]
    rng.shuffle(vertices)
    rng.shuffle(edges)
    edges = [
        (v, u, grade) if rng.random() < 0.5 else (u, v, grade)
        for u, v, grade in edges
    ]
    built = build_graph(vertices, edges)
    names = built.vertices()
    assert list(names) == sorted(rename.values())
    grades = dict(vertices)
    assert built.sigma_micro == tuple(grades[name].micro for name in names)
    assert all(i < j for i, j in built.ends)
    assert all(e < f for e, f in zip(built.ends, built.ends[1:]))
    by_pair = {pair(u, v): grade.micro for u, v, grade in edges}
    assert built.edge_pairs() == tuple(sorted(by_pair))
    assert built.mu_micro == tuple(by_pair[key] for key in built.edge_pairs())
    text = "".join(f"v {name} {grade}\n" for name, grade in vertices)
    text += "".join(f"e {u} {v} {grade}\n" for u, v, grade in edges)
    routes = [
        built,
        FuzzyGraph(grades, {(u, v): grade for u, v, grade in edges}),
        FuzzyGraph.from_micro(
            {name: grade.micro for name, grade in vertices},
            {(u, v): grade.micro for u, v, grade in edges},
        ),
        parse_graph(built.serialize()),
        parse_graph(text),
        built.edge_subgraph(built.edge_pairs()),
    ]
    arrays = (names, built.sigma_micro, built.ends, built.mu_micro)
    for h in routes:
        assert (h.vertices(), h.sigma_micro, h.ends, h.mu_micro) == arrays
        assert h == built
        analysis = Analysis(h)
        assert analysis.names is h.vertices()
        assert analysis.sigma is h.sigma_micro
        assert analysis.ends is h.ends
        assert analysis.mu is h.mu_micro


def _arrays(g: FuzzyGraph) -> tuple:
    return g.vertices(), g.sigma_micro, g.ends, g.mu_micro


@given(
    fuzzy_graphs(max_vertices=8),
    st.lists(_LABELS, min_size=8, max_size=8, unique=True),
    st.randoms(use_true_random=False),
)
@settings(max_examples=200, deadline=None)
def test_records_in_any_order_parse_to_the_from_micro_graph(g, labels, rng):
    rename = dict(zip(g.vertices(), labels))
    sigma = dict(zip(map(rename.get, g.vertices()), g.sigma_micro))
    order = list(sigma)
    rng.shuffle(order)
    position = {name: k for k, name in enumerate(order)}
    # each edge line goes somewhere after both of its endpoints' lines
    after: list[list[str]] = [[] for _ in order]
    mu = {}
    for (u, v), grade in zip(g.edge_pairs(), g.mu_micro):
        u, v = rename[u], rename[v]
        if rng.random() < 0.5:
            u, v = v, u
        mu[u, v] = grade
        slot = rng.randint(max(position[u], position[v]), len(order) - 1)
        after[slot].append(f"e {u} {v} {micro_text(grade)}")
    lines = []
    for name, edges in zip(order, after):
        rng.shuffle(edges)
        lines += [f"v {name} {micro_text(sigma[name])}", *edges]
    parsed = parse_graph("\n".join(lines) + "\n")
    assert _arrays(parsed) == _arrays(FuzzyGraph.from_micro(sigma, mu))
    assert list(parsed.vertices()) == sorted(sigma)


@pytest.mark.parametrize(
    "g",
    [
        random_fuzzy_tree(3, 40, 0),
        random_fuzzy_tree(4, 30, 25),
        make_saturated_cycle(SaturatedCycleSpec(12, M("0.7"), M("0.3"))),
    ],
    ids=["tree", "tree-with-extra-edges", "saturated-cycle"],
)
def test_every_route_lays_out_a_generated_graph_alike(g):
    sigma = dict(zip(g.vertices(), g.sigma_micro))
    mu = dict(zip(g.edge_pairs(), g.mu_micro))
    lines = g.serialize().splitlines()
    declared = lines[: g.vertex_count]
    reversed_text = "\n".join(declared[::-1] + lines[g.vertex_count :]) + "\n"
    routes = [
        FuzzyGraph(
            {name: Membership(w) for name, w in sigma.items()},
            {key: Membership(w) for key, w in mu.items()},
        ),
        FuzzyGraph.from_micro(sigma, mu),
        FuzzyGraph.from_micro(
            dict(reversed(sigma.items())),
            {(v, u): w for (u, v), w in mu.items()},
        ),
        parse_graph(g.serialize()),
        parse_graph(reversed_text),
        g.edge_subgraph(g.edge_pairs()),
    ]
    for h in routes:
        assert _arrays(h) == _arrays(g)
    u, v = g.edge_pairs()[len(mu) // 2]
    rest = {key: w for key, w in mu.items() if key != (u, v)}
    expected = FuzzyGraph.from_micro(sigma, rest)
    assert _arrays(g.remove_edge(v, u)) == _arrays(expected)
    assert _arrays(g.edge_subgraph(rest)) == _arrays(expected)


@given(fuzzy_graphs(max_vertices=8))
@settings(max_examples=100, deadline=None)
def test_from_micro_builds_the_constructors_graph(g):
    sigma = dict(zip(g.vertices(), g.sigma_micro))
    mu = {(v, u): grade for (u, v), grade in zip(g.edge_pairs(), g.mu_micro)}
    assert FuzzyGraph.from_micro(sigma, mu) == g
    assert FuzzyGraph.from_micro(sigma, mu).serialize() == g.serialize()


@pytest.mark.parametrize(
    "sigma, mu, error",
    [
        ({"a": MICRO + 1}, {}, ValueError),
        ({"a": -1}, {}, ValueError),
        ({"a": 0.5}, {}, ValueError),
        ({"a": True}, {}, ValueError),
        ({"a": MICRO, "b": MICRO}, {("a", "b"): 0.5}, TypeError),
        ({"a": MICRO, "b": MICRO}, {("a", "b"): True}, TypeError),
        ({"a": MICRO, "b": 10}, {("a", "b"): 11}, MuExceedsSigmaError),
        ({"a": MICRO}, {("a", "b"): 1}, UnknownEndpointError),
        ({"a b": MICRO}, {}, ValueError),
        ({"a": MICRO, "b": MICRO}, {("a", "b"): -5}, ValueError),
        ({"a": MICRO, "b": MICRO}, {("a", "b"): MICRO + 1}, ValueError),
    ],
)
def test_from_micro_rejects_bad_names_grades_and_edges(sigma, mu, error):
    with pytest.raises(error):
        FuzzyGraph.from_micro(sigma, mu)


@pytest.mark.parametrize("key", ["ab", ("a",), ("a", "b", "c"), ("a", 1)])
def test_from_micro_rejects_an_edge_key_that_is_not_a_pair_of_names(key):
    with pytest.raises(TypeError, match="is not a pair of names$"):
        FuzzyGraph.from_micro({"a": MICRO, "b": MICRO}, {key: 5})


def test_round_trip_on_a_large_graph():
    g = random_sparse_graph(11, 2000, 4000)
    text = g.serialize()
    again = parse_graph(text)
    assert again == g
    assert again.serialize() == text


def test_constructor_reports_the_first_bad_edge_in_key_order():
    sigma = {"a": M("0.2"), "b": M("1"), "c": M("1"), "d": M("1")}
    # inserted against key order, two of them with the endpoints swapped
    mu = {("d", "c"): M("0"), ("b", "b"): M("0.1"), ("c", "a"): M("0.5")}
    with pytest.raises(MuExceedsSigmaError, match="'a','c'"):
        FuzzyGraph(sigma, mu)
    del mu[("c", "a")]
    with pytest.raises(SelfLoopError):
        FuzzyGraph(sigma, mu)
    del mu[("b", "b")]
    with pytest.raises(ZeroMuError, match="'c' 'd'"):
        FuzzyGraph(sigma, mu)
    # an unknown endpoint is one more fault, ranked by its edge's key
    with pytest.raises(SelfLoopError):
        FuzzyGraph(sigma, {("e", "b"): M("0.1"), ("b", "b"): M("0.1")})
    with pytest.raises(UnknownEndpointError, match="'ghost'"):
        FuzzyGraph(sigma, {("c", "c"): M("0.1"), ("ghost", "a"): M("0.1")})


def test_constructor_rejects_an_edge_keyed_in_both_orders():
    one = M("1")
    with pytest.raises(DuplicateEdgeError, match="'a' 'b'"):
        FuzzyGraph({"a": one, "b": one}, {("b", "a"): one, ("a", "b"): one})


# ------------------------------------------------------- records and tokens


@pytest.mark.parametrize("text", ["# note\u2028v x 1\n", "# note\x0cv y 1\n"])
def test_a_comment_cannot_smuggle_a_record(text):
    assert parse_graph(text).vertex_count == 0
    assert parse_graph(text.encode("utf-8")).vertex_count == 0


def test_str_and_bytes_count_the_same_lines():
    text = "# a\x0cb\n# c\u2028d\n# e\x85f\nv a 1\nbogus\n"
    for source in (text, text.encode("utf-8")):
        with pytest.raises(ParseError) as info:
            parse_graph(source)
        assert info.value.line == 5
    with pytest.raises(ParseError) as info:
        parse_graph(b"# a\x0cb\n# c\xe2\x80\xa8d\n# e\nv a 1\nv \xff 1\n")
    assert info.value.line == 5


@pytest.mark.parametrize(
    "text, line",
    [
        ("v a 1\x0cv b 1\n", 1),
        ("v a 1\nv\u00a0b 1\n", 2),
        ("v a 1\nv b\u20031\n", 2),
        ("v a 1\nv b 1\ne a\x0bb 0.5\n", 3),
        ("v a 1\n\x1c\n", 2),
        ("v a 1\rv b 1\n", 1),
        ("v a 1\r\r\n", 1),
    ],
)
def test_separators_other_than_spaces_and_tabs_are_rejected(text, line):
    for source in (text, text.encode("utf-8")):
        with pytest.raises(ParseError) as info:
            parse_graph(source)
        assert info.value.line == line
        assert str(info.value).isascii()


def test_crlf_and_tabs_still_parse():
    g = parse_graph("# crlf\r\nv a 1\r\nv\tb\t1\r\n\t\r\ne a  b 0.5\r\n")
    assert g == parse_graph("v a 1\nv b 1\ne a b 0.5\n")
    assert parse_graph(b"v a 1\r\nv b 1\r\ne a b 0.5") == g
    assert parse_graph("# caf\u00e9\nv a 1\r\n").vertices() == ("a",)


# ---------------------------------------------------------------- PairTable


def test_pair_table_reads_entries_on_demand():
    rows = [[9, 1, 2], [1, 9, 3], [2, 3, 9]]
    table = PairTable(("a", "b", "c"), rows, Membership)
    assert table.value("a", "c") == table.value("c", "a") == Membership(2)
    assert list(table.pairs()) == [
        (("a", "b"), Membership(1)),
        (("a", "c"), Membership(2)),
        (("b", "c"), Membership(3)),
    ]
    assert len(table) == 3
    assert repr(table) == "PairTable(3 pairs)"
    for u, v in [("a", "a"), ("a", "z"), ("z", "a")]:
        with pytest.raises(KeyError):
            table.value(u, v)


def test_pair_tables_compare_off_diagonal_entries_and_reader():
    names = ("a", "b")
    table = PairTable(names, [[0, 5], [5, 0]], Membership)
    assert table == PairTable(names, [[7, 5], [5, 8]], Membership)
    assert table != PairTable(names, [[0, 6], [6, 0]], Membership)
    assert table != PairTable(("a", "c"), [[0, 5], [5, 0]], Membership)
    assert table != PairTable(names, [[0, 5], [5, 0]], Membership.as_fraction)
    assert len(PairTable((), [], Membership)) == 0
