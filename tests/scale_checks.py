"""The command line at scale against ``benchmarks/reference.py``, closed
forms, sha256 pins and relations that need no reference, on seeded inputs
built once: 100,000-vertex trees, cycles and paths with 100,000 chords,
and graphs of 1,000 and 2,000 vertices.  Then every graph on 5 vertices
at 2 grade levels (59,049 graphs) against the oracle, as
``test_small_scope.py`` checks the smaller scopes, and a 1 s smoke run of
each benchmark workload, every report checked.  Each command is a
subprocess with a 60 s limit; ~145 s in all, 85 s of it the 5-vertex
scope, on a 2-core shared host.  Run from anywhere as
``python tests/scale_checks.py [pytest options]``, or from the checkout as
``PYTHONPATH=src python -m pytest tests/scale_checks.py``, as tier-1 needs."""

import hashlib
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import fuzzygraph as fg
from fuzzygraph import model
import reference as ref  # shares no code with the library
from test_small_scope import check_scope

N = 100_000
# a seeded renaming changes the name order, and so the Kruskal tie order
PERM = random.Random(0).sample(range(N), N)
RENAME = {f"v{i:05d}": f"v{p:05d}" for i, p in enumerate(PERM)}


def cli(*args, code=0, timeout=60) -> subprocess.CompletedProcess:
    """Run this checkout's ``python -m fuzzygraph ARGS``; it must exit ``code``."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    argv = [sys.executable, "-m", "fuzzygraph", *map(str, args)]
    run = subprocess.run(argv, capture_output=True, env=env, timeout=timeout)
    assert run.returncode == code, run.stderr[-2000:].decode(errors="replace")
    assert b"\r" not in run.stdout  # bytes as written: each line ends in a bare LF
    return run


def out(*args, **kwargs) -> str:
    return cli(*args, **kwargs).stdout.decode()  # strict utf-8: encode() undoes it


def field(report: str, prefix: str) -> str:
    """The rest of the report's one line that starts with ``prefix``."""
    (value,) = [x[len(prefix) :] for x in report.splitlines() if x.startswith(prefix)]
    return value


def sums(report: str) -> list[str]:
    return re.findall("^(?:WI|CI) = .*", report, re.M)


def write(tmp_path_factory, name: str, lines: list[str]) -> Path:
    path = tmp_path_factory.getbasetemp() / f"{name}.fzg"
    path.write_text("".join(line + "\n" for line in lines))
    return path


@pytest.fixture(scope="session")
def trees(tmp_path_factory) -> dict[str, Path]:
    """The tree; it less one edge, reversed, renamed, and with each edge after its
    later end, so that the reader re-keys its edges at 32 bits mid-file."""
    lines = fg.random_fuzzy_tree(0, N, 0).serialize().splitlines()
    vertices, edges = lines[:N], lines[N:]
    assert vertices[-1].startswith("v v99999 ")
    after: list[list[str]] = [[] for _ in range(N)]
    for line in edges:
        _, u, v, _ = line.split()
        after[max(int(u[1:]), int(v[1:]))].append(line)
    assert sum(map(len, after[:32768])) > 10000
    variants = {
        "tree": lines,
        "forest": lines[:-1],
        "reversed": vertices[::-1] + edges,
        "interleaved": [x for k in range(N) for x in (vertices[k], *after[k])],
        "renamed": [" ".join(RENAME.get(w, w) for w in x.split()) for x in lines],
    }
    return {name: write(tmp_path_factory, name, x) for name, x in variants.items()}


@pytest.fixture(scope="session")
def tree_reports(trees) -> dict[str, str]:
    commands = "kind", "mst", "classify", "indices --summary", "--format json classify"
    return {args: out(*args.split(), trees["tree"]) for args in commands}


def test_tree_reports_as_the_reference_sums_them(trees, tree_reports):
    g = ref.parse_fzg(trees["tree"].read_text())
    summary, mst = tree_reports["indices --summary"], tree_reports["mst"]
    assert Fraction(field(summary, "WI = ")) == ref.tree_wiener_index(g)
    assert Fraction(field(summary, "CI = ")) == ref.connectivity_index(g)
    assert "fuzzy tree: yes" in tree_reports["kind"].splitlines()
    total = Fraction(ref.mst_total(g), ref.MICRO)
    assert mst.count("\n") == N and field(mst, "total = ")[0].isdigit()
    assert Fraction(field(mst, "total = ")) == total
    doc = json.loads(out("--format", "json", "mst", trees["tree"]))["mst"]
    assert len(doc["edges"]) == N - 1 and Fraction(doc["total_strength"]) == total
    assert len(json.loads(tree_reports["--format json classify"])["edges"]) == N - 1


def test_the_tree_less_one_edge_is_strongly_disconnected(trees):
    lines = out("indices", "--summary", trees["forest"], code=3).splitlines()
    assert "connected: no" in lines
    assert "WI = unavailable (strong subgraph disconnected)" in lines


def test_the_bulk_reader_reads_the_canonical_layouts_alone(trees):
    # serialize's layout, its vertices in any order, is read in bulk; a
    # vertex after an edge, or an edge against name order, is read by line
    for name, path in trees.items():
        text = path.read_text()
        bulk = model._bulk_records(text)
        if name in ("interleaved", "renamed"):
            assert bulk is None, name
        else:
            assert bulk == model._line_records(text), name


# the tree is read in bulk, its interleaved and renamed texts by line
@pytest.mark.parametrize("name", ["reversed", "interleaved"])
def test_reordered_declarations_report_alike(trees, tree_reports, name):
    for args in "kind", "mst", "--format json classify":
        assert cli(*args.split(), trees[name]).stdout == tree_reports[args].encode()


def test_renamed_vertices_report_alike(trees, tree_reports):
    assert out("kind", trees["renamed"]) == tree_reports["kind"]
    summary = out("indices", "--summary", trees["renamed"])
    assert sums(summary) == sums(tree_reports["indices --summary"])
    mst = out("mst", trees["renamed"])
    assert field(mst, "total = ") == field(tree_reports["mst"], "total = ")
    # each edge's class and residual, keyed by its endpoints' new names
    rows = map(str.split, out("classify", trees["renamed"]).splitlines())
    got = {frozenset((u, v)): rest for u, v, _, *rest in rows}
    rows = map(str.split, tree_reports["classify"].splitlines())
    assert got == {frozenset((RENAME[u], RENAME[v])): rest for u, v, _, *rest in rows}


@pytest.fixture(scope="session")
def paths(tmp_path_factory) -> dict[str, Path]:
    """A path graded 0.02-0.99 with N chords at 0.01 ("chords"); one on a 4-step
    grid with N chords over 2-5 steps "below" it, or every 1000th tied ("ties")."""
    rng = random.Random(0)
    lines = [f"e p{i:05d} p{i + 1:05d} 0.{rng.randrange(2, 100):02d}"
             for i in range(N - 1)]
    chords: set[tuple[int, int]] = set()
    while len(chords) < N:
        i, j = sorted(rng.sample(range(N), 2))
        if j - i > 1:
            chords.add((i, j))
    lines += [f"e p{i:05d} p{j:05d} 0.01" for i, j in sorted(chords)]
    graphs = {"chords": lines}
    grades = ["0.25", "0.5", "0.75", "1"]
    for variant in "below", "ties":
        rng = random.Random(0)
        path = [rng.randrange(1, 4) for _ in range(N - 1)]
        lines = [f"e p{i:05d} p{i + 1:05d} {grades[g]}" for i, g in enumerate(path)]
        chords = set()
        while len(chords) < N:
            i = rng.randrange(N - 2)
            chords.add((i, min(N - 1, i + rng.randrange(2, 6))))
        for k, (i, j) in enumerate(sorted(chords)):
            low = min(path[i:j])
            g = low if variant == "ties" and k % 1000 == 0 else rng.randrange(low)
            lines.append(f"e p{i:05d} p{j:05d} {grades[g]}")
        graphs[variant] = lines
    vertices = [f"v p{i:05d} 1" for i in range(N)]
    return {name: write(tmp_path_factory, name, vertices + x)
            for name, x in graphs.items()}


def test_a_path_with_chords(paths):
    path = paths["chords"]
    assert "fuzzy tree: yes" in out("kind", path).splitlines()
    assert cli("classify", path).stdout.count(b"\n") == 2 * N - 1
    summary = out("indices", "--summary", path)
    g = ref.parse_fzg(path.read_text())
    assert Fraction(field(summary, "CI = ")) == ref.connectivity_index(g)
    # every chord is weaker than every path edge, so the strong subgraph
    # is the path, and with sigma 1 its edge from p_i to p_(i+1) lies on
    # the strong paths of (i + 1) (n - 1 - i) pairs
    edges = [x.split()[1:] for x in path.read_text().splitlines() if x[0] == "e"]
    ends = [(int(u[1:]), int(v[1:]), Fraction(mu)) for u, v, mu in edges]
    wi = sum(mu * (i + 1) * (N - 1 - i) for i, j, mu in ends if j == i + 1)
    assert field(summary, "WI = ")[0].isdigit()
    assert Fraction(field(summary, "WI = ")) == wi


@pytest.mark.parametrize("variant, tree", [("below", "yes"), ("ties", "no")])
def test_grid_kind_agrees_with_classify(paths, variant, tree):
    # kind reads the strong edges off the Kruskal merge tree, classify from
    # the residuals: in a fuzzy tree every edge left out of the mst is delta
    flag = field(out("kind", paths[variant]), "fuzzy tree: ")
    mst = out("mst", paths[variant]).splitlines()[:-1]
    forest = {tuple(line.split()[:2]) for line in mst}
    rows = [x.split() for x in out("classify", paths[variant]).splitlines()]
    outside = [row for row in rows if (row[0], row[1]) not in forest]
    assert (len(forest), len(rows), len(outside)) == (N - 1, 2 * N - 1, N)
    residual_route = "yes" if all(row[3] == "delta" for row in outside) else "no"
    assert flag == residual_route == tree


@pytest.fixture(scope="session")
def cycles(tmp_path_factory) -> dict[str, Path]:
    grades = {"saturated": lambda i: f"0.{5 - 2 * (i % 2)}",
              "uniform": lambda i: "0.5",
              "lowered": lambda i: "0.4" if i == N // 2 else "0.5"}
    vertices = [f"v c{i:05d} 1" for i in range(N)]
    return {name: write(tmp_path_factory, f"cycle-{name}", vertices + [
        f"e c{i:05d} c{(i + 1) % N:05d} {grade(i)}" for i in range(N)
    ]) for name, grade in grades.items()}


def test_cycles_of_every_kind(cycles):
    kind = {name: set(out("kind", x).splitlines()) for name, x in cycles.items()}
    assert "saturated fuzzy cycle: yes" in kind["saturated"]
    # n^3 (kappa + eta) / 16 for 4 | n, the corrected theorem-star form
    summary = out("indices", "--summary", cycles["saturated"])
    assert "WI = 50000000000000" in summary.splitlines()
    # every grade tied: a fuzzy cycle with no alpha edge, so not saturated
    assert {"fuzzy cycle: yes", "saturated fuzzy cycle: no"} <= kind["uniform"]
    # one edge below the rest: its weakest grade is unique, a fuzzy tree
    assert {"fuzzy cycle: no", "fuzzy tree: yes"} <= kind["lowered"]


def test_grade_literals_longer_than_4300_digits_are_read_in_full(tmp_path_factory):
    cli("kind", write(tmp_path_factory, "zeros", ["v a " + "0" * 5000 + "1"]))
    ones = cli("kind", write(tmp_path_factory, "ones", ["v a " + "1" * 5000]), code=2)
    assert b"Traceback" not in ones.stderr and ones.stderr.count(b"\n") == 1
    assert re.match(b"error: .*grade above 1", ones.stderr)


COROLLARY = "falsify corollary-star --trials 50 --sizes 200..400 --seed 1"


@pytest.mark.parametrize("args, witnesses, timeout, digest", [
    (COROLLARY, 50, 60, None),
    # as recorded before the generator read CONN off the merge tree
    (f"--format json {COROLLARY}", None, 60,
     "89dbccd8583d257c11306abda405be15cabc5cf25b6ce4b042d82bed8aad962d"),
    # a capped sweep builds only the specs it checks
    ("falsify theorem-star --n 4..40000 --trials 1", 1, 10, None),
    # the text as recorded before the witnesses were sorted by int keys
    ("falsify theorem-star --n 4..300", 6705, 60,
     "b5fcb474c0e272773818df416e36650fc9d7c03bf9b461e539812199977e6160"),
    # both as recorded before verdicts were rendered as row lists
    ("--format json falsify theorem-star --n 4..12", None, 60,
     "8c4f906ffec5fcdf2fd14a4369a07c761a12589fbcaaf86f23527a63d007eb7f"),
    ("--format json repro", None, 60,
     "3f5b40d24032f9452e3c5c70149c50c43c4e74aac38580ae4c5740bdb8018728"),
])
def test_falsify_and_repro_reports_as_recorded(args, witnesses, timeout, digest):
    stdout = cli(*args.split(), timeout=timeout).stdout
    assert digest is None or hashlib.sha256(stdout).hexdigest() == digest
    if witnesses is not None:
        assert f"witnesses: {witnesses}" in stdout.decode().splitlines()
        assert len(re.findall(b"^witness [0-9]", stdout, re.M)) == witnesses


@pytest.fixture(scope="session")
def mid_graphs(tmp_path_factory) -> dict[str, Path]:
    from support import random_sparse_graph
    cycle = fg.SaturatedCycleSpec(1000, *map(fg.Membership.parse, ["0.6", "0.2"]))
    graphs = {"sparse1000": random_sparse_graph(0, 1000, 500),
              "sparse2000": random_sparse_graph(0, 2000, 1000),
              "tree1000": fg.random_fuzzy_tree(0, 1000, 0),
              "cycle1000": fg.make_saturated_cycle(cycle)}
    return {name: write(tmp_path_factory, name, g.serialize().splitlines())
            for name, g in graphs.items()}


@pytest.mark.parametrize("name", ["sparse1000", "sparse2000", "tree1000", "cycle1000"])
def test_the_two_wi_routes_and_every_pair_row(mid_graphs, name):
    # pair_sum over the printed d_s rows against wiener(): the block
    # search, the bridge route and the cycle two-pointer sum at scale
    full = out("indices", mid_graphs[name])
    summary = out("indices", "--summary", mid_graphs[name])
    assert field(full, "WI = ")[0].isdigit() and sums(full) == sums(summary)
    kind = {"tree1000": "fuzzy tree", "cycle1000": "saturated fuzzy cycle"}
    assert name not in kind or f"{kind[name]}: yes" in summary.splitlines()
    if name == "sparse2000":
        return  # the reference's pair tables are checked to 1,000 vertices
    # every printed pair row, each pair once, against the reference: CONN
    # from Kruskal merges, d_s by one Dijkstra per source
    g = ref.parse_fzg(mid_graphs[name].read_text())
    conn, ds = ref.conn_table(g), ref.strong_distances(g)
    index = {vertex: i for i, vertex in enumerate(g.names)}
    lines = full.splitlines()
    rows = [x.split() for x in lines[lines.index("pair conn d_s") + 1 :]]
    got = {tuple(sorted((index[u], index[v]))): (c, d) for u, v, c, d in rows}
    assert len(got) == len(rows) and got == {
        key: (ref.grade_text(c), "-" if ds[key] is None else ref.grade_text(ds[key]))
        for key, c in conn.items()
    }


def test_every_graph_on_5_vertices_at_2_grade_levels_matches_the_oracle():
    assert check_scope(5, 2) == 59049


@pytest.mark.parametrize("workload", ["dense-report", "falsify-sweep", "large-mst"])
def test_a_benchmark_smoke_run_checks_every_report(workload):
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload,
            "--seed", "0", "--seconds", "1"]
    run = subprocess.run(argv, capture_output=True, cwd=ROOT, timeout=60)
    assert run.returncode == 0, run.stderr[-2000:].decode(errors="replace")
    last = run.stdout.decode().splitlines()[-1]
    assert '"correct": true' in last, last


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__, *sys.argv[1:]]))
