from __future__ import annotations

import contextlib
import dataclasses
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from importlib import resources
from json.encoder import encode_basestring_ascii

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fuzzygraph import (
    DisconnectedError,
    FuzzyGraph,
    Membership,
    StrongDisconnectedError,
    check_corollary_star,
    classify_edges,
    connectivity_index,
    ds_bruteforce,
    format_fraction,
    geodesic_distance,
    graph_kind,
    maximum_spanning_tree,
    parse_graph,
    random_fuzzy_tree,
    strength_of_connectedness,
    wiener_index,
)
from fuzzygraph import analysis, cli, falsifier, model, verdicts
from fuzzygraph.cli import main
from fuzzygraph.samples import alternating_cycle, five_vertex_tree

from conftest import fuzzy_graphs
from support import random_deep_graph, random_sparse_graph

BASE_KEYS = {"wiener", "connectivity", "pairs", "kind", "verdicts", "warnings"}


def data_path(name: str) -> str:
    return str(resources.files("fuzzygraph").joinpath(f"data/{name}"))


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    assert captured.err == ""
    return code, captured.out


# ---------------------------------------------------------------- data files


def test_data_files_match_the_embedded_samples():
    assert parse_graph(
        resources.files("fuzzygraph").joinpath("data/tree5.fzg").read_bytes()
    ) == five_vertex_tree()
    tree = five_vertex_tree()
    skeleton = tree.edge_subgraph(maximum_spanning_tree(tree).edges)
    assert parse_graph(
        resources.files("fuzzygraph")
        .joinpath("data/tree5_mst.fzg")
        .read_bytes()
    ) == skeleton
    assert parse_graph(
        resources.files("fuzzygraph").joinpath("data/cycle4.fzg").read_bytes()
    ) == alternating_cycle(4, "0.5", "0.3")
    assert parse_graph(
        resources.files("fuzzygraph").joinpath("data/cycle6.fzg").read_bytes()
    ) == alternating_cycle(6, "0.5", "0.3")


# ------------------------------------------------------------------- indices


def test_indices_text_on_tree5(capsys):
    code, out = run_cli(capsys, "indices", data_path("tree5.fzg"))
    assert code == 0
    assert "WI = 7.4" in out
    assert "CI = 3.5" in out
    assert "fuzzy tree: yes" in out
    assert "a b 0.3 1.2" in out
    assert "a e 0.6 0.6" in out


def test_indices_text_on_mst_file(capsys):
    code, out = run_cli(capsys, "indices", data_path("tree5_mst.fzg"))
    assert code == 0
    assert "WI = 7.4" in out
    assert "CI = 3.5" in out


def test_indices_json_matches_text(capsys):
    code, out = run_cli(
        capsys, "indices", data_path("tree5.fzg"), "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert BASE_KEYS <= set(doc)
    assert doc["wiener"] == "7.4"
    assert doc["connectivity"] == "3.5"
    assert len(doc["pairs"]) == 10
    assert doc["pairs"][0] == {"u": "a", "v": "b", "conn": "0.3", "ds": "1.2"}
    assert doc["kind"] == {
        "connected": True,
        "fuzzy_tree": True,
        "fuzzy_cycle": False,
        "saturated_fuzzy_cycle": False,
    }
    assert doc["warnings"] == []


def test_format_flag_works_before_the_subcommand(capsys):
    code, out = run_cli(
        capsys, "--format", "json", "indices", data_path("tree5.fzg")
    )
    assert code == 0
    assert json.loads(out)["wiener"] == "7.4"


def test_indices_partial_exit_on_disconnected_input(tmp_path, capsys):
    path = tmp_path / "two_parts.fzg"
    path.write_text("v a 1\nv b 1\nv c 0.9\ne a b 0.5\n")
    code, out = run_cli(capsys, "indices", str(path))
    assert code == 3
    assert "WI = unavailable (strong subgraph disconnected)" in out
    assert "CI = 0.5" in out
    assert "a c 0 -" in out


def test_indices_warns_about_zero_grade_vertices(tmp_path, capsys):
    # a zero-grade vertex cannot carry edges, so alone it exits cleanly
    path = tmp_path / "zero.fzg"
    path.write_text("v b 0\n")
    code, out = run_cli(capsys, "indices", str(path))
    assert code == 0
    assert "warning: zero-grade vertices contribute nothing: b" in out
    path.write_text("v a 1\nv b 0\n")
    code, out = run_cli(capsys, "indices", str(path))
    assert code == 3
    assert "warning: zero-grade vertices contribute nothing: b" in out


# ------------------------------------------------------------ classify / mst


def test_classify_text_on_tree5(capsys):
    code, out = run_cli(capsys, "classify", data_path("tree5.fzg"))
    assert code == 0
    lines = out.splitlines()
    assert "a b 0.1 delta 0.3" in lines
    assert "a e 0.6 alpha 0.1" in lines
    assert sum(1 for line in lines if " alpha " in line) == 4
    assert not any(" beta " in line for line in lines)


def test_classify_on_saturated_cycle(capsys):
    code, out = run_cli(capsys, "classify", data_path("cycle4.fzg"))
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for line in lines if " alpha " in line) == 2
    assert sum(1 for line in lines if " beta " in line) == 2
    assert "v01 v02 0.3 beta 0.3" in lines


def test_classify_json(capsys):
    code, out = run_cli(
        capsys, "classify", data_path("tree5.fzg"), "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert BASE_KEYS <= set(doc)
    rows = {(row["u"], row["v"]): row for row in doc["edges"]}
    assert rows[("a", "b")]["class"] == "delta"
    assert rows[("a", "b")]["residual"] == "0.3"


def test_mst_text(capsys):
    code, out = run_cli(capsys, "mst", data_path("tree5.fzg"))
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "total = 1.7"
    assert "a e 0.6" in lines
    assert "a b 0.1" not in lines


def test_mst_json(capsys):
    code, out = run_cli(
        capsys, "mst", data_path("tree5.fzg"), "--format", "json"
    )
    doc = json.loads(out)
    assert doc["mst"]["total_strength"] == "1.7"
    assert len(doc["mst"]["edges"]) == 4


def test_mst_errors_on_disconnected_input(tmp_path, capsys):
    path = tmp_path / "two_parts.fzg"
    path.write_text("v a 1\nv b 1\n")
    code = main(["mst", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err


def test_mst_and_corollary_star_build_no_tree_of_names(
    tmp_path, capsys, monkeypatch
):
    g = random_fuzzy_tree(2, 30, 5)
    tree = maximum_spanning_tree(g)
    expected = [f"{u} {v} {g.mu(u, v)}" for u, v in tree.edges]
    expected.append(f"total = {format_fraction(tree.total_strength)}")

    def refuse(self):
        raise AssertionError("spanning_tree called")

    monkeypatch.setattr(analysis.Analysis, "spanning_tree", refuse)
    path = tmp_path / "tree.fzg"
    path.write_text(g.serialize())
    code, out = run_cli(capsys, "mst", str(path))
    assert code == 0
    assert out.splitlines() == expected
    assert check_corollary_star(g).detail["wi_g"] == wiener_index(g)
    for text, error in [
        ("", "empty graph has no spanning tree"),
        ("v a 1\nv b 1\n", "graph is not crisp-connected"),
    ]:
        path.write_text(text)
        assert main(["mst", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        with pytest.raises(DisconnectedError, match=f"^{error}$"):
            check_corollary_star(parse_graph(text))


# ---------------------------------------------------------------------- kind


def test_kind_text(capsys):
    code, out = run_cli(capsys, "kind", data_path("cycle6.fzg"))
    assert code == 0
    assert "connected: yes" in out
    assert "fuzzy tree: no" in out
    assert "fuzzy cycle: yes" in out
    assert "saturated fuzzy cycle: yes" in out


def test_kind_json(capsys):
    code, out = run_cli(
        capsys, "kind", data_path("tree5.fzg"), "--format", "json"
    )
    doc = json.loads(out)
    assert doc["kind"]["fuzzy_tree"] is True
    assert doc["kind"]["saturated_fuzzy_cycle"] is False


ONE_PASS_COMMANDS = [["indices"], ["indices", "--summary"], ["kind"]]
ONE_PASS_COMMANDS += [["classify"], ["mst"]]
ONE_PASS_COMMANDS += [["--format", "json", *a] for a in ONE_PASS_COMMANDS]


@pytest.mark.parametrize("argv", ONE_PASS_COMMANDS)
def test_a_command_on_a_fuzzy_cycle_makes_one_degree_pass(
    tmp_path, capsys, monkeypatch, argv
):
    # indices asks whether the graph is a fuzzy cycle twice, once to
    # pick the walk of its strong blocks and once for its kind flags,
    # and walks the cycle once.  On every shape, each command runs each
    # counted step at most once, and mst and classify walk no cycle.
    graphs = {
        "cycle": alternating_cycle(8, "0.5", "0.3"),
        "tree with extra edges": random_fuzzy_tree(3, 12, 3),
        # one strong block of 9 edges on 8 vertices
        "sparse": random_sparse_graph(2, 12, 6),
        "three parts": random_deep_graph(1, 20, "broom", 10, parts=3),
    }
    calls: list[str] = []
    walks: list[int] = []

    def count(owner, name):
        run = getattr(owner, name)

        def counted(*args):
            calls.append(name)
            return run(*args)

        monkeypatch.setattr(owner, name, counted)

    for name in ("rooted", "conn_rows", "ds_rows", "connectivity"):
        count(analysis.Analysis, name)
    count(analysis.Analysis, "_strong_blocks")
    count(analysis.MergeTree, "conn")
    cycle_walk = analysis._cycle_walk

    def walk(ends, mu):
        calls.append("_cycle_walk")
        walks.append(len(mu))
        return cycle_walk(ends, mu)

    monkeypatch.setattr(analysis, "_cycle_walk", walk)
    reads_kind = "classify" not in argv and "mst" not in argv
    for label, g in graphs.items():
        path = tmp_path / "graph.fzg"
        path.write_text(g.serialize())
        calls.clear()
        walks.clear()
        code = main([*argv, str(path)])
        out = capsys.readouterr().out
        # the parts have no spanning tree and no strong path across them
        expected = 0
        if label == "three parts" and "mst" in argv:
            expected = 2
        elif label == "three parts" and "indices" in argv:
            expected = 3
        assert code == expected, label
        assert len(calls) == len(set(calls)), (label, calls)
        if "mst" in argv:
            assert calls == [], label
        if not reads_kind:
            assert walks == [], label
        if label == "cycle":
            assert walks == ([8] if reads_kind else [])
            if reads_kind and "json" not in argv:
                assert "saturated fuzzy cycle: yes" in out


# --------------------------------------------------------------------- repro


def test_repro_passes_and_is_deterministic(capsys):
    code, first = run_cli(capsys, "repro")
    assert code == 0
    assert "result: 13 of 13 checks passed" in first
    assert "distance table: 15 of 15 entries match at 2 gradings" in first
    assert "FAIL" not in first
    code, second = run_cli(capsys, "repro")
    assert code == 0
    assert first == second


def test_repro_json(capsys):
    code, out = run_cli(capsys, "repro", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert BASE_KEYS <= set(doc)
    assert all(check["passed"] for check in doc["checks"])
    assert len(doc["checks"]) == 13
    claims = {verdict["claim"] for verdict in doc["verdicts"]}
    assert claims == {"corollary-star", "theorem-star"}
    assert all(not verdict["holds"] for verdict in doc["verdicts"])


def test_repro_reports_each_wrong_figure_and_exits_1(capsys, monkeypatch):
    from fuzzygraph import replication

    # one wrong figure of each kind: CI(F) of the tree, read by the CI(F)
    # and CI(G) checks, a WI coefficient and one distance-table entry
    def planted(g):
        verdict = check_corollary_star(g)
        detail = {**verdict.detail, "ci_f": verdict.detail["ci_f"] + 1}
        return dataclasses.replace(verdict, detail=detail)

    monkeypatch.setattr(replication, "check_corollary_star", planted)
    monkeypatch.setitem(replication.CYCLE_WI_COEFFS, 4, (4, 5))
    monkeypatch.setitem(replication.CYCLE6_TABLE, (0, 1), (0, 1))
    code, out = run_cli(capsys, "repro")
    assert code == 1
    assert [line for line in out.splitlines() if line.endswith(" FAIL")] == [
        "tree5: CI(F) = 4.5, expected 3.5 FAIL",
        "tree5: CI(G) = 4.5, expected 3.5 FAIL",
        "cycle4: WI = 4kappa+5eta at 2 gradings FAIL",
        "cycle6: distance table: 14 of 15 entries match at 2 gradings FAIL",
    ]
    assert out.endswith("result: 9 of 13 checks passed\n")


# ------------------------------------------------------------------- falsify


def test_falsify_corollary_finds_witnesses(capsys):
    code, out = run_cli(capsys, "falsify", "corollary-star", "--trials", "20")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "claim: corollary-star"
    assert lines[1].startswith("note: claim tested exactly as published")
    count = int(lines[2].split(": ")[1])
    assert count >= 1
    assert out.count("holds=false") == count


def test_falsify_corollary_takes_a_single_trial(capsys):
    code, out = run_cli(capsys, "falsify", "corollary-star", "--trials", "1")
    assert code == 0
    assert out.splitlines()[2] == "witnesses: 1"


def test_falsify_corollary_empty_range_exits_4(capsys):
    code, out = run_cli(
        capsys,
        "falsify",
        "corollary-star",
        "--trials",
        "10",
        "--sizes",
        "2..2",
    )
    assert code == 4
    assert "witnesses: 0" in out


def test_falsify_rejects_mismatched_flags(capsys):
    code = main(["falsify", "corollary-star", "--n", "4..6"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--n applies to theorem-star only" in captured.err
    code = main(["falsify", "theorem-star", "--sizes", "3..5"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--sizes applies to corollary-star only" in captured.err


@pytest.mark.parametrize(
    "one, span",
    [
        (["corollary-star", "--sizes", "5"], ["corollary-star", "--sizes", "5..5"]),
        (["theorem-star", "--n", "6"], ["theorem-star", "--n", "6..6"]),
    ],
)
def test_a_single_integer_range_reads_as_a_range_of_one(capsys, one, span):
    for fmt in ("text", "json"):
        code, out = run_cli(capsys, "--format", fmt, "falsify", *one)
        assert code == 0 and "witnesses: 0" not in out
        assert (code, out) == run_cli(capsys, "--format", fmt, "falsify", *span)


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--sizes", "3..x", "expected A..B or a single integer, got '3..x'"),
        ("--trials", "x", "not an integer: 'x'"),
    ],
)
def test_a_malformed_range_or_trial_count_is_one_usage_error(
    capsys, flag, value, message
):
    code = main(["falsify", "corollary-star", flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("usage: fuzzygraph falsify ")
    error = f"fuzzygraph falsify: error: argument {flag}: {message}"
    assert [line for line in captured.err.splitlines() if "error" in line] == [
        error
    ]
    assert captured.err.endswith(f"\n{error}\n")


def test_falsify_theorem_sweep(capsys):
    code, out = run_cli(capsys, "falsify", "theorem-star", "--n", "4..6")
    assert code == 0
    assert "witnesses: 90" in out
    assert "note:" not in out


def test_falsify_theorem_json_carries_replayable_instances(capsys):
    code, out = run_cli(
        capsys,
        "falsify",
        "theorem-star",
        "--n",
        "4..4",
        "--trials",
        "3",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["verdicts"]) == 3
    for verdict in doc["verdicts"]:
        assert verdict["holds"] is False
        instance = verdict["instance"]
        assert instance["n"] == 4
        replayed = parse_graph(instance["fzg"])
        assert replayed.vertex_count == 4


def test_falsify_corollary_json_reports_detail(capsys):
    code, out = run_cli(
        capsys,
        "falsify",
        "corollary-star",
        "--trials",
        "5",
        "--seed",
        "1",
        "--format",
        "json",
    )
    doc = json.loads(out)
    assert doc["warnings"] == [
        "claim tested exactly as published; no auxiliary hypotheses assumed"
    ]
    for verdict in doc["verdicts"]:
        assert set(verdict["detail"]) == {"wi_g", "wi_f", "ci_f"}
        parse_graph(verdict["instance"]["fzg"])


# ------------------------------------------------------- errors and plumbing


def test_missing_file_exits_2(capsys):
    code = main(["indices", "no_such_file.fzg"])
    captured = capsys.readouterr()
    assert code == 2
    assert "no such file" in captured.err


def test_parse_error_reports_the_line(tmp_path, capsys):
    path = tmp_path / "broken.fzg"
    path.write_text("v a 1\nx b\n")
    code = main(["indices", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "line 2" in captured.err


@pytest.mark.parametrize(
    "text, line",
    [
        ("v a 1\nv \u00e9 1\n", 2),
        ("v a 1\nv a 1\n", 2),
        ("v a 1\nv b 1\ne a b 0.1\ne b a 0.1\n", 4),
        ("v a 1\ne a a 0.1\n", 2),
        ("v a 1\nv b 1\n\ne a b 0\n", 4),
        ("v a 0.2\nv b 1\ne a b 0.3\n", 3),
    ],
)
def test_every_input_error_is_one_line_naming_its_line(
    tmp_path, capsys, text, line
):
    path = tmp_path / "bad.fzg"
    path.write_bytes(text.encode("utf-8"))
    for command in ("indices", "classify", "mst", "kind"):
        code = main([command, str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: line {line}: ")
        assert captured.err.count("\n") == 1
        assert captured.err.isascii()


def test_unknown_arguments_exit_2(capsys):
    assert main(["indices"]) == 2
    capsys.readouterr()
    assert main(["--bogus"]) == 2
    capsys.readouterr()


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


# each subcommand's own options and its positional argument as the usage
# line shows them; the claim is shown as its choices
SUBCOMMAND_ARGUMENTS = {
    "indices": (["--summary"], ["file"]),
    "classify": ([], ["file"]),
    "mst": ([], ["file"]),
    "kind": ([], ["file"]),
    "repro": ([], []),
    "falsify": (
        ["--trials", "--seed", "--sizes", "--n"],
        ["{corollary-star,theorem-star}"],
    ),
}


@pytest.mark.parametrize("command", SUBCOMMAND_ARGUMENTS)
def test_each_subcommand_usage_names_its_own_arguments(capsys, command):
    options, positionals = SUBCOMMAND_ARGUMENTS[command]
    assert main([command, "--help"]) == 0
    usage = capsys.readouterr().out.split("\n\n", 1)[0].split()
    assert usage[:3] == ["usage:", "fuzzygraph", command]
    shown = [word.strip("[]") for word in usage if word.startswith("[-")]
    assert shown == ["-h", "--format", "--output", *options]
    bare = [w for w in usage[3:] if not w.startswith("[") and w[-1] != "]"]
    assert bare == positionals


def test_output_flag_writes_the_report(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(
        [
            "indices",
            data_path("tree5.fzg"),
            "--format",
            "json",
            "--output",
            str(target),
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    assert json.loads(target.read_text())["wiener"] == "7.4"


def test_unwritable_output_exits_2_with_one_line(tmp_path, capsys):
    target = tmp_path / "missing_dir" / "report.txt"
    code = main(["indices", data_path("tree5.fzg"), "--output", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert not target.exists()


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "argv, code",
    [
        (["indices", "QUOTED"], 0),
        (["indices", "--summary", "QUOTED"], 0),
        (["classify", "QUOTED"], 0),
        (["mst", "QUOTED"], 0),
        (["kind", "QUOTED"], 0),
        (["repro"], 0),
        (["falsify", "corollary-star", "--trials", "5", "--seed", "1"], 0),
        (["falsify", "theorem-star", "--n", "4..6"], 0),
        # the strong subgraph disconnected: no WI
        (["indices", "DISCONNECTED"], 3),
        # no witness
        (["falsify", "corollary-star", "--sizes", "2..2"], 4),
    ],
)
def test_output_writes_exactly_the_bytes_of_stdout(
    tmp_path, capsysbinary, fmt, argv, code
):
    paths = _graph_files(tmp_path)
    argv = ["--format", fmt, *[paths.get(arg, arg) for arg in argv]]
    assert main(argv) == code
    stdout, stderr = capsysbinary.readouterr()
    assert stderr == b""
    assert stdout.endswith(b"\n")
    target = tmp_path / "report"
    assert main([*argv, "--output", str(target)]) == code
    assert capsysbinary.readouterr() == (b"", b"")
    assert target.read_bytes() == stdout


@pytest.mark.parametrize("where", ["FILE", "--output"])
def test_a_directory_as_input_or_output_exits_2_with_one_line(
    tmp_path, capsys, where
):
    if where == "FILE":
        argv = ["kind", str(tmp_path)]
    else:
        argv = ["kind", data_path("tree5.fzg"), "--output", str(tmp_path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert "Errno" not in captured.err
    if where == "FILE":
        assert captured.err.startswith(f"error: cannot read {tmp_path}: ")
    else:
        assert captured.err.startswith(f"error: cannot write {tmp_path}: ")
    # nothing written into or over the directory
    assert tmp_path.is_dir() and not any(tmp_path.iterdir())


def test_falsify_reports_are_byte_identical_across_runs(tmp_path):
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    argv = [
        "falsify",
        "corollary-star",
        "--trials",
        "10",
        "--seed",
        "5",
        "--format",
        "json",
    ]
    assert main(argv + ["--output", str(first)]) == 0
    assert main(argv + ["--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes().isascii()


def test_module_entry_point_runs_repro():
    proc = subprocess.run(
        [sys.executable, "-m", "fuzzygraph", "repro"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "result: 13 of 13 checks passed" in proc.stdout


@pytest.mark.parametrize("literal", ["\u0660.\u0665", "\uff10.\uff15"])
def test_non_ascii_digit_grade_exits_2_with_one_ascii_line(
    tmp_path, capsys, literal
):
    path = tmp_path / "digits.fzg"
    path.write_bytes(f"v a 1\nv b {literal}\n".encode("utf-8"))
    code = main(["indices", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: line 2: not a grade literal: ")
    assert captured.err.count("\n") == 1
    assert captured.err.isascii()


@pytest.mark.parametrize(
    "command, size, read, unbuffered",
    [
        pytest.param("classify", 20000, 1, False, id="classify-20000-1"),
        pytest.param("kind", 5, 0, False, id="kind-5-0"),
        pytest.param("classify", 20000, 1, True, id="classify-20000-1-unbuffered"),
    ],
)
def test_a_closed_stdout_pipe_exits_2_with_one_error_line(
    tmp_path, command, size, read, unbuffered
):
    # classify writes a report far larger than a pipe buffer into the
    # pipe closed after one byte; kind's short report waits in stdout's
    # buffer for the flush, and the pipe is closed before it is written.
    # Unbuffered, stdout's text layer hands each write straight to the
    # pipe, which takes part of the report before the reader closes it.
    path = tmp_path / "tree.fzg"
    path.write_text(random_fuzzy_tree(0, size, 0).serialize())
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "fuzzygraph", command, str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert len(proc.stdout.read(read)) == read
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert "Traceback" not in err
    assert err.startswith("error: cannot write stdout: ")
    assert err.count("\n") == 1


def test_a_stdout_closed_at_start_exits_2_with_one_error_line():
    # with fd 1 closed before Python starts, sys.stdout is None
    proc = subprocess.run(
        [sys.executable, "-m", "fuzzygraph", "kind", data_path("tree5.fzg")],
        stderr=subprocess.PIPE,
        text=True,
        timeout=120,
        preexec_fn=lambda: os.close(1),
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: cannot write stdout: ")
    assert proc.stderr.count("\n") == 1


def test_a_stderr_closed_at_start_keeps_the_error_line_off_stdout():
    # with fd 2 closed before Python starts, sys.stderr is None, and print
    # to it would write to stdout
    proc = subprocess.run(
        [sys.executable, "-m", "fuzzygraph", "kind", "/nonexistent.fzg"],
        stdout=subprocess.PIPE,
        timeout=120,
        preexec_fn=lambda: os.close(2),
    )
    assert proc.returncode == 2
    assert proc.stdout == b""


# ------------------------------------------------------------ out of memory

_MEMORY_LIMIT = 200 << 20  # bytes of address space for each child


def _limit_memory() -> None:
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (_MEMORY_LIMIT, _MEMORY_LIMIT))


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="RLIMIT_AS as on Linux"
)
def test_running_out_of_memory_exits_2_with_one_error_line(tmp_path):
    # each command runs in a child whose address space is capped, so the
    # allocation that fails is the child's own: the full tables of a
    # 3,000-vertex graph, and the candidate pairs of a 20,000-vertex tree
    path = tmp_path / "sparse.fzg"
    path.write_text(random_sparse_graph(0, 3000, 1500).serialize())
    report = tmp_path / "report.txt"
    for argv in (
        ["indices", str(path)],
        ["falsify", "corollary-star", "--sizes", "20000..20000", "--trials", "1"],
        ["--output", str(report), "indices", str(path)],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "fuzzygraph", *argv],
            capture_output=True,
            text=True,
            timeout=120,
            preexec_fn=_limit_memory,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: out of memory\n"
        ), argv
        assert not report.exists()


# ----------------------------------------------- one parser for many calls

_FRESH_MAIN = (
    "import sys; from fuzzygraph.cli import main; sys.exit(main(sys.argv[1:]))"
)


def test_repeated_calls_in_one_process_match_fresh_interpreters(
    tmp_path, capsys, monkeypatch
):
    # a fixed width keeps argparse's usage wrapping the same in both
    monkeypatch.setenv("COLUMNS", "80")
    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(
        cli, "build_parser", lambda: built.append(1) or build_parser()
    )
    monkeypatch.setattr(cli, "_parser", None)
    tree = data_path("tree5.fzg")
    calls = [
        ["--format", "json", "indices", tree],
        ["indices", tree],
        ["falsify", "corollary-star", "--trials", "0"],
        ["falsify", "corollary-star", "--trials", "3", "--seed", "7"],
        ["falsify", "theorem-star"],
        ["--output", str(tmp_path / "missing_dir" / "x.txt"), "indices", tree],
    ]
    for argv in calls:
        code = main(argv)
        captured = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-c", _FRESH_MAIN, *argv],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert (code, captured.out, captured.err) == (
            fresh.returncode,
            fresh.stdout,
            fresh.stderr,
        ), argv
    assert len(built) == 1


# ------------------------------------------------------------ JSON renderer

_TRICKY = st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\u00e9", "\u2028", "\U0001f600"]
)
_STRINGS = st.text(_TRICKY | st.characters(), max_size=8)
_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | _STRINGS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(_STRINGS, children, max_size=4),
    max_leaves=20,
)


@given(_DOCS)
@settings(max_examples=300, deadline=None)
def test_json_text_is_json_dumps_with_indent_2(doc):
    assert cli._json_text(doc) == json.dumps(doc, indent=2) + "\n"


# characters a row layout could read as its own syntax: JSON quotes and
# escapes, % conversions and str.format fields
_LAYOUT = st.sampled_from(
    ['"', "\\", "%", "%s", "%%", "%(u)s", "{", "}", "{0}", "}{"]
)


@st.composite
def row_lists(draw) -> tuple[tuple[str, ...], list[tuple]]:
    key = _STRINGS | _LAYOUT
    keys = draw(st.lists(key, min_size=1, max_size=4, unique=True))
    field = st.none() | _STRINGS | _LAYOUT
    rows = draw(st.lists(st.tuples(*[field] * len(keys)), max_size=4))
    return tuple(keys), rows


def _json_value(field: str | None) -> str:
    return "null" if field is None else encode_basestring_ascii(field)


@given(row_lists(), st.integers(0, 2))
@settings(max_examples=300, deadline=None)
def test_row_lists_render_as_json_dumps_with_indent_2(row_list, depth):
    keys, rows = row_list
    calls = []

    def build(*heads: str) -> list[str]:
        # as the commands build their rows: each value quoted on its own,
        # then one string per row from the heads the layout hands over
        calls.append(len(heads))
        *heads, end = heads
        return [
            "".join(map(str.__add__, heads, map(_json_value, row))) + end
            for row in rows
        ]

    doc = cli._Rows((keys, build))
    expected = [dict(zip(keys, row)) for row in rows]
    for _ in range(depth):  # nest the list to move its indent
        doc, expected = {"rows": [doc]}, {"rows": [expected]}
    want = json.dumps({"x": expected}, indent=2) + "\n"
    assert cli._json_text({"x": doc}) == want
    assert calls == [len(keys) + 1]


@st.composite
def nested_row_lists(draw) -> list[tuple[tuple, list[tuple]]]:
    """Runs of rows, each run with its own keys, some of them nested
    objects with keys of their own (none, to give {})."""
    key = _STRINGS | _LAYOUT
    field = st.none() | st.booleans() | st.integers() | _STRINGS | _LAYOUT
    runs = []
    for _ in range(draw(st.integers(0, 3))):
        names = draw(st.lists(key, min_size=1, max_size=4, unique=True))
        keys = tuple(
            (name, tuple(draw(st.lists(key, max_size=3, unique=True))))
            if draw(st.booleans()) else name
            for name in names
        )
        width = sum(1 if isinstance(k, str) else len(k[1]) for k in keys)
        rows = draw(st.lists(st.tuples(*[field] * width), max_size=3))
        runs.append((keys, rows))
    return runs


def _as_object(keys: tuple, values: list) -> dict:
    """The object of a row's keys, taking its values off the front."""
    doc = {}
    for key in keys:
        if isinstance(key, str):
            doc[key] = values.pop(0)
        else:
            doc[key[0]] = _as_object(key[1], values)
    return doc


@given(nested_row_lists(), st.integers(0, 2))
@settings(max_examples=200, deadline=None)
def test_nested_row_lists_render_as_json_dumps_with_indent_2(runs, depth):
    def builder(rows):
        def build(*heads: str) -> list[str]:
            *heads, end = heads
            return [
                "".join(map(str.__add__, heads, map(json.dumps, row))) + end
                for row in rows
            ]
        return build

    doc = cli._Rows(*[(keys, builder(rows)) for keys, rows in runs])
    expected = [
        _as_object(keys, [*row]) for keys, rows in runs for row in rows
    ]
    for _ in range(depth):  # nest the list to move its indent
        doc, expected = {"rows": [doc]}, {"rows": [expected]}
    want = json.dumps({"x": expected}, indent=2) + "\n"
    assert cli._json_text({"x": doc}) == want


_QUOTED_NAMES = (
    'v "a 1\nv b\\ 0.7\nv c\\" 0.25\nv d 0.5\nv %s{0}} 0.5\n'
    'e "a b\\ 0.7\ne b\\ c\\" 0.25\ne "a c\\" 0.2\ne "a d 0.5\n'
    'e d %s{0}} 0.3\n'
)


_GRAPHS = {
    "QUOTED": _QUOTED_NAMES,
    # c has no strong path to a or b: indices has no WI and two null d_s
    "DISCONNECTED": "v a 1\nv b 1\nv c 0.5\ne a b 0.5\n",
    "EDGELESS": "v a 0.5\n",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["indices", "QUOTED"],
        ["classify", "QUOTED"],
        ["mst", "QUOTED"],
        ["kind", "QUOTED"],
        ["repro"],
        ["falsify", "corollary-star", "--trials", "5", "--seed", "1"],
        ["falsify", "theorem-star", "--n", "4..6", "--trials", "2"],
        ["indices", "DISCONNECTED"],
        ["classify", "DISCONNECTED"],
        ["indices", "EDGELESS"],
        ["classify", "EDGELESS"],
        ["mst", "EDGELESS"],
        ["indices", "--summary", "QUOTED"],
        # no witness at all: exit 4 and an empty verdict list
        ["falsify", "corollary-star", "--sizes", "2..2"],
        ["falsify", "theorem-star", "--n", "4..10"],
        ["falsify", "corollary-star", "--trials", "8", "--sizes", "10..16"],
    ],
)
def test_every_json_report_is_json_dumps_with_indent_2(tmp_path, capsys, argv):
    command, graph = argv[0], argv[-1]
    if graph in _GRAPHS:
        path = tmp_path / "graph.fzg"
        path.write_text(_GRAPHS[graph])
        argv = [*argv[:-1], str(path)]
    code, out = run_cli(capsys, "--format", "json", *argv)
    doc = json.loads(out)
    if (command, graph) == ("indices", "DISCONNECTED"):
        assert code == 3
    elif graph == "2..2":
        assert (code, doc["verdicts"]) == (4, [])
    else:
        assert code == 0
    assert out == json.dumps(doc, indent=2) + "\n"
    if graph == "4..10":
        assert {v["size"] for v in doc["verdicts"]} == {4, 6, 8, 10}
    if graph == "10..16":
        assert len(doc["verdicts"]) > 1
        assert min(v["size"] for v in doc["verdicts"]) >= 10
    if graph == "QUOTED" and command != "kind" and "--summary" not in argv:
        assert '"b\\\\"' in out and '"c\\\\\\""' in out
        assert '"%s{0}}"' in out
    if (command, graph) == ("indices", "DISCONNECTED"):
        assert [row["ds"] for row in doc["pairs"]] == ["0.5", None, None]
    if graph == "EDGELESS":
        rows = doc["mst"]["edges"] if command == "mst" else doc.get("edges", [])
        assert (rows, doc["pairs"]) == ([], [])


# ------------------------------------------------------ collector pause


def _graph_files(tmp_path) -> dict[str, str]:
    """The _GRAPHS texts, plus a file that fails to parse, as paths."""
    paths = {}
    for name, text in {**_GRAPHS, "BROKEN": "v a 1\nx b\n"}.items():
        path = tmp_path / f"{name}.fzg"
        path.write_text(text)
        paths[name] = str(path)
    return paths


def _run_silently(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        with contextlib.redirect_stderr(io.StringIO()):
            return main(argv)


_COMMAND_RUNS = [
    (["kind", "QUOTED"], 0),
    (["classify", "QUOTED"], 0),
    (["mst", "QUOTED"], 0),
    (["indices", "QUOTED"], 0),
    (["indices", "--summary", "QUOTED"], 0),
    (["indices", "DISCONNECTED"], 3),
    (["falsify", "corollary-star", "--trials", "5", "--seed", "1"], 0),
    (["falsify", "theorem-star", "--n", "4..8"], 0),
    (["repro"], 0),
    (["kind", "BROKEN"], 2),
]


def test_commands_leave_no_cyclic_garbage(tmp_path):
    """main runs a command with the cyclic collector paused, which costs
    no memory only while no command leaves a reference cycle behind."""
    paths = _graph_files(tmp_path)
    runs = [
        (["--format", fmt, *argv[:-1], paths.get(argv[-1], argv[-1])], code)
        for fmt in ("text", "json")
        for argv, code in _COMMAND_RUNS
    ]
    enabled = gc.isenabled()
    gc.disable()
    try:
        # a first round loads each module and builds the argument parser
        for argv, code in runs:
            assert _run_silently(argv) == code, argv
        gc.collect()
        for argv, code in runs:
            assert _run_silently(argv) == code, argv
            assert gc.collect() == 0, argv
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize(
    "argv, code",
    [
        (["kind", "QUOTED"], 0),
        (["--help"], 0),
        (["--bogus"], 2),
        (["kind", "BROKEN"], 2),
        (["--output", "UNWRITABLE", "kind", "QUOTED"], 2),
        (["indices", "DISCONNECTED"], 3),
    ],
    ids=[
        "exit-0", "help", "bad-argument", "input-error", "unwritable", "exit-3"
    ],
)
def test_main_restores_the_collector_state(tmp_path, enabled, argv, code):
    paths = _graph_files(tmp_path)
    paths["UNWRITABLE"] = str(tmp_path / "missing_dir" / "report.txt")
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert _run_silently([paths.get(arg, arg) for arg in argv]) == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_a_command_runs_with_the_collector_paused(monkeypatch):
    seen = []

    def interrupted(path):
        seen.append(gc.isenabled())
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_load", interrupted)
    assert gc.isenabled()
    with pytest.raises(KeyboardInterrupt):
        main(["kind", data_path("tree5.fzg")])
    # paused while the command ran, and back on after an uncaught exception
    assert seen == [False]
    assert gc.isenabled()


# ------------------------------------------- CLI tables and the public API


@st.composite
def report_graphs(draw) -> FuzzyGraph:
    """Graphs of 0-7 vertices, some of them with sigma 0 and so isolated."""
    g = draw(fuzzy_graphs(min_vertices=0, max_vertices=5))
    sigma = {name: g.sigma(name) for name in g.vertices()}
    for i in range(draw(st.integers(0, 2))):
        sigma[f"z{i}"] = Membership(0)
    return FuzzyGraph(sigma, {(u, v): grade for u, v, grade in g.edges()})


def _run_quietly(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _ds_or_none(g: FuzzyGraph, u: str, v: str) -> str | None:
    try:
        return format_fraction(ds_bruteforce(g, u, v))
    except StrongDisconnectedError:
        return None


@given(report_graphs())
@settings(max_examples=150, deadline=None)
def test_cli_tables_match_the_public_api(g):
    try:
        table = geodesic_distance(g)
        ds = lambda u, v: format_fraction(table.value(u, v))
        wiener = format_fraction(wiener_index(g))
    except StrongDisconnectedError:
        # some pair has no strong path; the report prints '-' for it
        ds = lambda u, v: _ds_or_none(g, u, v)
        wiener = None
    connectivity = format_fraction(connectivity_index(g))
    rows = [
        (u, v, str(conn), ds(u, v))
        for (u, v), conn in strength_of_connectedness(g).pairs()
    ]
    kind = graph_kind(g)
    zero_sigma = [name for name in g.vertices() if g.sigma(name).is_zero]
    expected = [
        f"vertices: {g.vertex_count}",
        f"edges: {g.edge_count}",
        f"connected: {_yes(kind.is_connected)}",
        f"fuzzy tree: {_yes(kind.is_fuzzy_tree)}",
        f"fuzzy cycle: {_yes(kind.is_fuzzy_cycle)}",
        f"saturated fuzzy cycle: {_yes(kind.is_saturated_fuzzy_cycle)}",
    ]
    if zero_sigma:
        names = " ".join(zero_sigma)
        expected.append(
            f"warning: zero-grade vertices contribute nothing: {names}"
        )
    expected.append(
        "WI = unavailable (strong subgraph disconnected)"
        if wiener is None
        else f"WI = {wiener}"
    )
    expected.append(f"CI = {connectivity}")
    if rows:
        expected.append("pair conn d_s")
        expected += [f"{u} {v} {conn} {d or '-'}" for u, v, conn, d in rows]
    edges = [
        (u, v, str(rec.grade), rec.edge_class.value, str(rec.residual))
        for (u, v), rec in classify_edges(g).items()
    ]
    exit_code = 0 if wiener is not None else 3

    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "g.fzg")
        with open(path, "w", encoding="ascii") as handle:
            handle.write(g.serialize())
        assert _run_quietly(["indices", path]) == (
            exit_code,
            "\n".join(expected) + "\n",
        )
        code, out = _run_quietly(["--format", "json", "indices", path])
        doc = json.loads(out)
        assert code == exit_code
        assert (doc["wiener"], doc["connectivity"]) == (wiener, connectivity)
        assert [
            (p["u"], p["v"], p["conn"], p["ds"]) for p in doc["pairs"]
        ] == rows
        assert _run_quietly(["kind", path]) == (
            0,
            "\n".join(expected[2:6]) + "\n",
        )
        code, out = _run_quietly(["--format", "json", "kind", path])
        assert code == 0
        assert json.loads(out)["warnings"] == [
            line.removeprefix("warning: ")
            for line in expected
            if line.startswith("warning: ")
        ]
        code, out = _run_quietly(["classify", path])
        assert code == 0
        assert [tuple(line.split(" ")) for line in out.splitlines()] == edges
        code, out = _run_quietly(["--format", "json", "classify", path])
        assert code == 0
        assert [
            (e["u"], e["v"], e["mu"], e["class"], e["residual"])
            for e in json.loads(out)["edges"]
        ] == edges


def _joined(row: dict) -> str:
    """A JSON report row as its text line: the values joined by one
    space, with "-" for a null."""
    return " ".join("-" if value is None else value for value in row.values())


def _flag_lines(kind: dict) -> list[str]:
    """A JSON kind object as its text lines: each key with spaces for
    underscores, then yes or no."""
    return [f"{key.replace('_', ' ')}: {_yes(flag)}" for key, flag in kind.items()]


@given(report_graphs())
@example(FuzzyGraph({}, {}))
@example(FuzzyGraph({"a": Membership.parse("0.5")}, {}))
@settings(max_examples=150, deadline=None)
def test_text_and_json_reports_agree(g):
    """Every text row line must read as the matching JSON row, its values
    joined by one space, as both formats call one row builder; the flag
    lines of kind and indices as the JSON kind object; and the text
    totals as the JSON ones."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "g.fzg")
        with open(path, "w", encoding="ascii") as handle:
            handle.write(g.serialize())
        runs = {
            tuple(argv): (
                _run_quietly([*argv, path]),
                _run_quietly(["--format", "json", *argv, path]),
            )
            for argv in (
                ["mst"], ["classify"], ["kind"], ["indices"],
                ["indices", "--summary"],
            )
        }
    for argv, ((code, text), (json_code, out)) in runs.items():
        assert code == json_code, argv
        if argv == ("mst",) and code == 2:
            # no spanning tree: one error line on stderr in both formats
            assert text == out == ""
            continue
        lines, doc = text.splitlines(), json.loads(out)
        if argv == ("mst",):
            mst = doc["mst"]
            assert lines == [
                *map(_joined, mst["edges"]),
                f"total = {mst['total_strength']}",
            ]
        elif argv == ("classify",):
            assert lines == [*map(_joined, doc["edges"])]
        elif argv == ("kind",):
            assert lines == _flag_lines(doc["kind"])
        else:
            assert lines[2:6] == _flag_lines(doc["kind"])
            wiener = doc["wiener"]
            if wiener is None:
                wiener = "unavailable (strong subgraph disconnected)"
            end = lines.index(f"CI = {doc['connectivity']}") + 1
            assert lines[end - 2] == f"WI = {wiener}"
            pairs = [*map(_joined, doc["pairs"])]
            assert lines[end:] == (["pair conn d_s", *pairs] if pairs else [])
            n = 0 if "--summary" in argv else g.vertex_count
            assert len(pairs) == n * (n - 1) // 2


def test_unicode_separators_exit_2_with_one_ascii_line(tmp_path, capsys):
    path = tmp_path / "spaces.fzg"
    path.write_bytes("v\u00a0a\u20031\n".encode("utf-8"))
    code = main(["indices", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: line 1: ")
    assert captured.err.count("\n") == 1
    assert captured.err.isascii()


# ------------------------------------------------------- the empty graph

_EMPTY_KIND = {
    "connected": True,
    "fuzzy_tree": False,
    "fuzzy_cycle": False,
    "saturated_fuzzy_cycle": False,
}
_EMPTY_KIND_TEXT = (
    "connected: yes\nfuzzy tree: no\nfuzzy cycle: no\n"
    "saturated fuzzy cycle: no\n"
)


@pytest.mark.parametrize("content", ["", "# nothing here\n\n# at all\n"])
def test_the_empty_graph_is_connected_and_no_fuzzy_tree(
    tmp_path, capsys, content
):
    path = tmp_path / "empty.fzg"
    path.write_text(content, encoding="ascii")
    file = str(path)
    empty_doc = {key: [] for key in ("pairs", "verdicts", "warnings")}
    empty_doc.update(wiener=None, connectivity=None, kind=None)

    assert run_cli(capsys, "indices", file) == (
        0,
        "vertices: 0\nedges: 0\n" + _EMPTY_KIND_TEXT + "WI = 0\nCI = 0\n",
    )
    code, out = run_cli(capsys, "indices", file, "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        **empty_doc, "wiener": "0", "connectivity": "0", "kind": _EMPTY_KIND
    }
    assert run_cli(capsys, "kind", file) == (0, _EMPTY_KIND_TEXT)
    code, out = run_cli(capsys, "kind", file, "--format", "json")
    assert code == 0
    assert json.loads(out) == {**empty_doc, "kind": _EMPTY_KIND}
    assert run_cli(capsys, "classify", file) == (0, "")
    code, out = run_cli(capsys, "classify", file, "--format", "json")
    assert code == 0
    assert json.loads(out) == {**empty_doc, "edges": []}
    for fmt in ("text", "json"):
        assert main(["mst", file, "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: empty graph has no spanning tree\n"


def test_falsify_leaves_the_size_defaults_to_the_library(
    capsys, monkeypatch
):
    calls = []

    def recording(claim, trials=None, seed=0, size_range=None):
        calls.append((claim.value, trials, size_range))
        return []

    monkeypatch.setattr(falsifier, "search_counterexamples", recording)
    assert main(["falsify", "corollary-star"]) == 4
    assert main(["falsify", "theorem-star"]) == 4
    assert main(
        ["falsify", "theorem-star", "--n", "6..8", "--trials", "3"]
    ) == 4
    capsys.readouterr()
    assert calls == [
        ("corollary-star", 50, None),
        ("theorem-star", None, None),
        ("theorem-star", 3, (6, 8)),
    ]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_falsify_builds_each_witness_cycle_once(capsys, monkeypatch, fmt):
    built = []
    original = FuzzyGraph._layout

    def counting(self, names, sigma, mu):
        built.append(len(names))
        return original(self, names, sigma, mu)

    monkeypatch.setattr(FuzzyGraph, "_layout", counting)
    code, _ = run_cli(capsys, "--format", fmt, "falsify", "theorem-star")
    assert code == 0
    # 5 even lengths 4..12, 45 gradings each, one cycle per spec
    assert len(built) == 225


def test_falsify_corollary_star_builds_one_graph_per_trial(
    capsys, monkeypatch
):
    built, analysed = [], []
    build, analyse = FuzzyGraph._layout, analysis.Analysis.__init__

    def counting_build(self, names, sigma, mu):
        built.append(len(names))
        return build(self, names, sigma, mu)

    def counting_analyse(self, g):
        analysed.append(g)
        analyse(self, g)

    monkeypatch.setattr(FuzzyGraph, "_layout", counting_build)
    monkeypatch.setattr(analysis.Analysis, "__init__", counting_analyse)
    code, _ = run_cli(
        capsys, "falsify", "corollary-star",
        "--trials", "20", "--sizes", "3..10", "--seed", "5",
    )
    assert code == 0
    # one generated tree per trial, analysed once
    assert len(built) == 20
    assert len(analysed) == 20


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_falsify_serializes_each_witness_once(capsys, monkeypatch, fmt):
    texts, maps = [], []
    original = FuzzyGraph.serialize

    def counting(self, *grades):
        texts.append(original(self, *grades))
        maps.extend(grades)
        return texts[-1]

    monkeypatch.setattr(FuzzyGraph, "serialize", counting)
    code, out = run_cli(
        capsys, "--format", fmt, "falsify", "corollary-star",
        "--trials", "20", "--sizes", "3..10", "--seed", "5",
    )
    assert code == 0
    if fmt == "json":
        witnesses = len(json.loads(out)["verdicts"])
    else:
        witnesses = out.count(", holds=false, ")
    # one text per witness, none made for sorting them, all from the
    # report's one grade map
    assert len(texts) == witnesses > 1
    assert len(maps) == witnesses and len({*map(id, maps)}) == 1


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("claim", ["corollary-star", "theorem-star"])
def test_falsify_renders_each_grade_of_its_witnesses_once(
    capsys, monkeypatch, fmt, claim
):
    rendered = []
    original = model.micro_text

    def counting(micro):
        rendered.append(micro)
        return original(micro)

    monkeypatch.setattr(cli, "micro_text", counting)
    monkeypatch.setattr(model, "micro_text", counting)
    argv = ["falsify", claim, "--seed", "3"]
    if claim == "corollary-star":
        argv += ["--trials", "40", "--sizes", "3..12"]
    else:
        argv += ["--n", "4..8"]
    code, _ = run_cli(capsys, "--format", fmt, *argv)
    assert code == 0
    monkeypatch.undo()
    claim_id = falsifier.ClaimId(claim)
    verdicts = falsifier.search_counterexamples(
        claim_id,
        trials=40 if claim == "corollary-star" else None,
        seed=3,
        size_range=(3, 12) if claim == "corollary-star" else (4, 8),
    )
    per_tree = [{*v.graph.sigma_micro, *v.graph.mu_micro} for v in verdicts]
    grades = set().union(*per_tree)
    # once per distinct grade over all the witnesses, where rendering
    # each graph on its own would render the grades they share again
    assert sorted(rendered) == sorted(grades)
    assert sum(map(len, per_tree)) > len(grades)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("claim", ["corollary-star", "theorem-star"])
def test_falsify_formats_each_value_of_a_witness_once(
    capsys, monkeypatch, fmt, claim
):
    formatted = []

    def counting(value):
        formatted.append(value)
        return format_fraction(value)

    monkeypatch.setattr(verdicts, "format_fraction", counting)
    code, out = run_cli(capsys, "--format", fmt, "falsify", claim)
    assert code == 0
    if fmt == "json":
        witnesses = len(json.loads(out)["verdicts"])
    else:
        witnesses = out.count(", holds=false, ")
    # lhs and rhs are two of the detail's values, and corollary-star's
    # wi_g and wi_f are one forest sum, so each witness has two values
    assert len(formatted) == 2 * witnesses > 2


def test_a_verdict_renders_sides_that_are_not_its_detail_objects():
    g = five_vertex_tree()
    verdict = check_corollary_star(g)
    apart = falsifier.ClaimVerdict(
        claim_id=verdict.claim_id,
        instance=g,
        graph=g,
        lhs=Fraction(verdict.lhs.numerator, verdict.lhs.denominator),
        rhs=Fraction(1, 3),
        holds=False,
        detail=dict(verdict.detail),
    )
    grades = cli._MicroTexts("text")
    lines = verdicts.verdict_lines(1, apart, grades)
    assert lines[0] == "witness 1: size 5, holds=false, lhs = 7.4, rhs = 1/3"
    assert lines[1] == "  wi_g = 7.4, wi_f = 7.4, ci_f = 3.5"
    rows = cli._Rows(*verdicts.verdict_rows([apart], grades))
    (doc,) = json.loads(cli._json_text({"verdicts": rows}))["verdicts"]
    assert (doc["lhs"], doc["rhs"]) == ("7.4", "1/3")
    assert doc["detail"] == {"wi_g": "7.4", "wi_f": "7.4", "ci_f": "3.5"}
    # the public .fzg text of the verdict, as the row renders it
    assert doc["instance"] == {"fzg": g.serialize()}
