"""Mutation gate: every listed mutant of ``src/`` must fail its tests.

Run from anywhere, with pytest installed:

    python tests/mutation_gate.py [pytest options]

Each mutant is one edit of one exact source line, and one test here,
named by its file and line.  The test copies ``src/`` to a temporary
directory, makes the edit there and runs only the mutant's killing
tests against the copy.  It fails when the mutant's line is not found,
when its tests pass on the mutant (it survives), or when one of them
fails by a ``NameError``, ``ImportError`` or ``SyntaxError`` (the mutant
broke the module and changed no behaviour the tests check).  Every
mutant test first needs ``fuzzygraph`` to import from an unmutated copy
and every killing test to pass on it.  An equivalent mutant changes no
behaviour; each is listed with the reason and is one test too, which
needs its line to be found, so the argument stays attached to the code
it is about.  Tier-1 does not collect this file.
"""

from __future__ import annotations

import builtins
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    file: str  # under src/fuzzygraph
    line: str  # the whole source line, without its indentation
    old: str
    new: str
    killers: tuple[str, ...] = ()
    reason: str = ""  # why an equivalent mutant changes no behaviour

    def apply(self, text: str) -> str:
        """``text`` with the mutant's edit; ValueError when its line is
        not exactly one line of ``text`` or ``old`` not once in it."""
        lines = text.splitlines(keepends=True)
        hits = [k for k, line in enumerate(lines) if line.strip() == self.line]
        if len(hits) != 1 or self.line.count(self.old) != 1:
            raise ValueError(f"{self.file}: {len(hits)} lines {self.line!r}")
        k = hits[0]
        lines[k] = lines[k].replace(self.old, self.new)
        return "".join(lines)


_SMALL_SCOPE = "tests/test_small_scope.py::" \
    "test_every_small_graph_matches_the_oracle"
_SHAPES = "tests/test_index_sums.py::test_pair_rows_on_every_shape"
_PENDANT = "tests/test_structure.py::" \
    "test_a_triangle_with_a_pendant_vertex_is_no_fuzzy_cycle"
_BULK = "tests/test_model.py::" \
    "test_the_bulk_reader_reads_as_the_line_reader_does_or_declines"
_FIRST_PAIR = "tests/test_connectivity.py::" \
    "test_the_first_pair_with_no_strong_path_starts_at_vertex_0"

MUTANTS = [
    # boundaries of single-trial and zero-sigma inputs
    Mutant(
        "cli.py", "if value < 1:", "<", "<=",
        ("tests/test_cli.py::test_falsify_corollary_takes_a_single_trial",),
    ),
    Mutant(
        "falsifier.py", "if trials is not None and trials < 1:", "<", "<=",
        ("tests/test_falsifier.py::test_a_search_takes_a_single_trial",),
    ),
    Mutant(
        "model.py", "if su < 0 or sv < 0:", "sv < 0", "sv <= 0",
        ("tests/test_model.py::"
         "test_zero_sigma_vertex_allowed_but_cannot_carry_edges",),
    ),
    Mutant(
        "model.py", "name = u if su < 0 else v", "<", "<=",
        ("tests/test_model.py::"
         "test_an_edge_from_a_zero_sigma_vertex_names_its_undeclared_end",),
    ),
    # ties between a grade and a strength
    Mutant(
        "analysis.py", "while label[i] > w:", ">", ">=",
        (f"{_SMALL_SCOPE}[3-3-64]",),
    ),
    Mutant(
        "analysis.py", "if grade > residual:", ">", ">=",
        (f"{_SMALL_SCOPE}[3-3-64]",),
    ),
    # the pair tables: each pair set once, above the diagonal
    Mutant(
        "analysis.py", "rows[x][y] = grade", "rows[x][y]", "row[x]",
        (f"{_SHAPES}[cactus]", f"{_SHAPES}[apart]"),
    ),
    Mutant(
        "analysis.py", "rows[p][q] = dq + dp", "rows[p][q]", "row[p]",
        (f"{_SHAPES}[tree]", f"{_SHAPES}[cactus]"),
    ),
    Mutant(
        "analysis.py",
        "(q, b, dq) for b, x in enumerate(vertices) for q, dq in part[x]",
        "enumerate(vertices)", "enumerate(vertices[:-1])",
        (f"{_SHAPES}[cactus]", f"{_SHAPES}[cycle of 12]"),
    ),
    Mutant(
        "analysis.py", "if b != a:", "!=", ">",
        (f"{_SMALL_SCOPE}[5-1-1024]",),
    ),
    Mutant(
        "model.py",
        "return self._read(self._rows[i][j] if i < j else self._rows[j][i])",
        "self._rows[j][i]", "self._rows[i][j]",
        ("tests/test_index_sums.py::test_no_reader_looks_below_the_diagonal",),
    ),
    # a text line is its JSON row's values joined by one space
    Mutant(
        "cli.py", 'return build("", *[" "] * (len(keys) - 1), "")',
        '" "', '"  "',
        ("tests/test_cli.py::test_indices_text_on_tree5",
         "tests/test_cli.py::test_text_and_json_reports_agree"),
    ),
    Mutant(
        "cli.py", """f"{key.replace('_', ' ')}: {'yes' if value else 'no'}\"""",
        "replace('_', ' ')", "replace('_', '-')",
        ("tests/test_cli.py::test_kind_text",
         "tests/test_cli.py::test_text_and_json_reports_agree"),
    ),
    # the search's int sort key orders trees as their texts do
    Mutant(
        "falsifier.py",
        "return (g.vertex_count, g.sigma_micro, tuple(zip(g.ends, g.mu_micro)))",
        "g.sigma_micro, tuple(zip(g.ends, g.mu_micro))",
        "tuple(zip(g.ends, g.mu_micro)), g.sigma_micro",
        ("tests/test_falsifier.py::"
         "test_int_keys_sort_trees_as_their_texts_do",),
    ),
    # the theorem-star sweep comes out in its texts' order, unsorted
    Mutant(
        "falsifier.py", "for eta in range(1, kappa)",
        "range(1, kappa)", "reversed(range(1, kappa))",
        ("tests/test_falsifier.py::"
         "test_theorem_sweeps_come_out_in_text_order",),
    ),
    # the parser widens its edge keys past 2**15 vertices, re-keying
    Mutant(
        "model.py", "if count == full:", "count == full", "False",
        ("tests/test_model.py::"
         "test_the_parser_widens_its_edge_keys_past_32768_vertices",),
    ),
    Mutant(
        "model.py",
        "k >> bits << wider | k & full - 1: w for k, w in mu.items()",
        "k >> bits << wider | k & full - 1", "k",
        ("tests/test_model.py::"
         "test_the_parser_widens_its_edge_keys_past_32768_vertices",),
    ),
    # the bulk reader declines every record the line reader refuses
    Mutant(
        "model.py", "if len(mu) < count:", "len(mu) < count", "False",
        (_BULK,),
    ),
    Mutant(
        "model.py",
        "if 0 in w or not all(map(le, w, map(sigma.__getitem__, du))):",
        "0 in w or ", "",
        (_BULK,),
    ),
    Mutant(
        "model.py", "if not all(map(le, w, map(sigma.__getitem__, dv))):",
        "not all(map(le, w, map(sigma.__getitem__, dv)))", "False",
        (_BULK,),
    ),
    # the one walk that recognises a fuzzy cycle, and its saturation
    Mutant(
        "analysis.py", "if not all(len(near) == 2 for near in around):",
        "all", "any",
        (f"{_PENDANT}[off vertex 0]", f"{_PENDANT}[vertex 0 hangs]",
         f"{_PENDANT}[off vertex 2]"),
    ),
    Mutant(
        "analysis.py", "if mu.count(min(mu)) >= 2:", ">= 2", ">= 1",
        ("tests/test_structure.py::"
         "test_a_crisp_cycle_with_one_weakest_edge_is_a_fuzzy_tree",
         "tests/test_structure.py::test_is_fuzzy_cycle"),
    ),
    # ne -> eq, spelt so that it needs no import
    Mutant(
        "analysis.py", "saturated = all(map(ne, weak, weak[1:] + weak[:1]))",
        "ne", "bool.__eq__",
        ("tests/test_structure.py::"
         "test_uniform_cycle_is_fuzzy_cycle_but_not_saturated",
         "tests/test_structure.py::test_saturated_cycles"),
    ),
    # the first pair with no strong path, by the CONN climb from vertex 0
    Mutant(
        "analysis.py",
        "other = next(x for x, c in enumerate(climb, 1) if not c)",
        "if not c", "if c",
        (f"{_FIRST_PAIR}[0 alone]", f"{_FIRST_PAIR}[0 with 1]",
         "tests/test_index_sums.py::"
         "test_the_first_missing_pair_is_the_lowest_unreached_vertex"),
    ),
    # shapes: bridges below first, the shorter arc
    Mutant(
        "analysis.py", "for x in reversed(preorder):",
        "reversed(preorder)", "preorder",
        ("tests/test_falsifier.py::test_corollary_star_fails_on_tree5",
         "tests/test_acceptance.py::"
         "test_criterion_1_five_vertex_tree_replication"),
    ),
    Mutant(
        "analysis.py",
        "[min(d, length - d) for d in (abs(p - q) for q in position)]",
        "min(d, length - d)", "d",
        ("tests/test_acceptance.py::test_criterion_3_six_cycle_distance_table",
         "tests/test_indices.py::"
         "test_cycle6_geodesics_follow_the_eta_heavy_arc"),
    ),
    # a tree edge ends a block unless a back edge climbs past its top:
    # the one branch that yields bridges and larger blocks alike
    Mutant(
        "analysis.py", "if low[x] < disc[parent]:", "<", "<=",
        (f"{_SHAPES}[cactus]", f"{_SHAPES}[apart]"),
    ),
    # union by size keeps the merge tree at most log2 n deep
    Mutant(
        "analysis.py", "if size[i] < size[j]:", "<", ">",
        ("tests/test_connectivity.py::"
         "test_the_kruskal_merge_tree_is_at_most_log2_n_deep[100-path]",
         "tests/test_connectivity.py::"
         "test_the_kruskal_merge_tree_is_at_most_log2_n_deep[100-broom]"),
    ),
]

EQUIVALENT = [
    Mutant(
        "analysis.py", "if x > y:", ">", ">=",
        reason="x and y lie in the two parts a merge joins, never equal",
    ),
    Mutant(
        "analysis.py", "if p > q:", ">", ">=",
        reason="p and q lie in the two parts a bridge joins, never equal",
    ),
    Mutant(
        "analysis.py", "for q, b, dq in members[s:]:", "[s:]", "[s - 1 :]",
        reason="the one member added is the source itself, in its own "
        "part, which the b != a test skips",
    ),
    Mutant(
        "analysis.py", "if not all(len(near) == 2 for near in around):",
        "== 2", ">= 2",
        reason="the walk runs only on n edges over n vertices, whose "
        "degrees sum to 2n: none is above 2 when none is below",
    ),
]


def _run(killers: tuple[str, ...], src: Path) -> tuple[int, list[str]]:
    """pytest's exit code on ``killers`` against ``src``, and the errors
    among their failures that say the module is broken: a name, import
    or syntax error (an indentation error is a syntax error)."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    # -vv keeps each failure's message whole in the short summary
    command = [sys.executable, "-m", "pytest", "-vv", "--tb=no", "-rfE",
               "-p", "no:cacheprovider", *killers]
    done = subprocess.run(
        command, cwd=ROOT, env=env, capture_output=True, text=True
    )
    broken = []
    for line in done.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            error = line.partition(" - ")[2].split(":", 1)[0]
            kind = getattr(builtins, error, None)
            if isinstance(kind, type) and issubclass(
                kind, (NameError, ImportError, SyntaxError)
            ):
                broken.append(error)
    return done.returncode, broken


@pytest.fixture(scope="session")
def clean(tmp_path_factory) -> Path:
    """An unmutated copy of ``src/`` that ``fuzzygraph`` imports from,
    with every killing test passing on it."""
    src = tmp_path_factory.mktemp("clean") / "src"
    shutil.copytree(ROOT / "src", src)
    probe = subprocess.run(
        [sys.executable, "-c", "import fuzzygraph; print(fuzzygraph.__file__)"],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True,
    )
    assert probe.stdout.startswith(str(src)), \
        f"fuzzygraph imports from {probe.stdout.strip()}"
    killers = tuple(dict.fromkeys(k for m in MUTANTS for k in m.killers))
    assert _run(killers, src)[0] == 0, \
        "the killing tests fail on the unmutated source"
    return src


def _name(mutant: Mutant) -> str:
    return f"{mutant.file}: {mutant.line}"


@pytest.mark.parametrize("mutant", MUTANTS, ids=_name)
def test_the_mutant_fails_its_killing_tests(clean, tmp_path, mutant):
    src = tmp_path / "src"
    shutil.copytree(clean, src)
    target = src / "fuzzygraph" / mutant.file
    target.write_text(mutant.apply(target.read_text()))
    edit = f"{mutant.old} -> {mutant.new}"
    assert mutant.killers, f"SURVIVED {edit}: no killing test"
    code, broken = _run(mutant.killers, src)
    assert not broken, f"BROKEN {edit}: {len(broken)} {broken[0]}"
    assert code == 1, f"SURVIVED {edit}: pytest {code}"


@pytest.mark.parametrize("mutant", EQUIVALENT, ids=_name)
def test_the_equivalent_line_is_found(mutant):
    mutant.apply((ROOT / "src/fuzzygraph" / mutant.file).read_text())


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))  # tests/conftest.py imports it
    sys.exit(pytest.main(["-q", __file__, *sys.argv[1:]]))
