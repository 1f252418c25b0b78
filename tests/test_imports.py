"""Module boundaries: no fuzzygraph module reaches into another's
private names, each command runs only the modules it calls, and the
package's public names stay as they are."""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import fuzzygraph
from fuzzygraph import cli

SOURCE = Path(__file__).resolve().parent.parent / "src" / "fuzzygraph"


def _private_imports() -> list[str]:
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [
                    f"{path.name}:{node.lineno} {node.module}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    return found


def test_no_module_imports_a_private_name_of_another():
    assert _private_imports() == []


# ------------------------------------------------- each module on first use

ROOT = SOURCE.parent.parent
TREE = str(SOURCE / "data" / "tree5.fzg")

# prints the exit code and the fuzzygraph modules that have run; type()
# reads no attribute, so it does not load a module that is still lazy
_RAN = """
import contextlib, io, json, sys, types
{setup}
print(json.dumps([code, sorted(
    name for name, module in sys.modules.items()
    if name.split(".")[0] == "fuzzygraph" and type(module) is types.ModuleType
)]))
"""
_MAIN = """
from fuzzygraph.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
"""
_GRAPH = ["fuzzygraph", "cli", "errors", "model", "analysis"]
_FALSIFY = _GRAPH + ["structure", "indices", "falsifier", "verdicts"]
_REPRO = _FALSIFY + ["samples", "replication"]


def _fresh_run(setup: str, *argv: str) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "-c", _RAN.format(setup=setup), *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, ran = json.loads(proc.stdout)
    return code, ran


def _names(short: list[str]) -> list[str]:
    return sorted(
        name if name == "fuzzygraph" else f"fuzzygraph.{name}"
        for name in short
    )


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["indices", TREE], _GRAPH),
        (["classify", TREE], _GRAPH),
        (["kind", TREE], _GRAPH),
        (["mst", TREE], _GRAPH),
        (["falsify", "theorem-star", "--n", "4..4"], _FALSIFY),
        (["repro"], _REPRO),
    ],
    ids=["indices", "classify", "kind", "mst", "falsify", "repro"],
)
def test_each_command_runs_only_the_modules_it_calls(argv, modules):
    assert _fresh_run(_MAIN, *argv) == (0, _names(modules))


@pytest.mark.parametrize(
    "argv", [["kind", TREE], ["repro"]], ids=["kind", "repro"]
)
def test_a_command_loads_no_pathlib(argv):
    # -I -S: no site module, which may load pathlib on its own; -B: no
    # bytecode written into the checkout
    script = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {str(SOURCE.parent)!r})\n"
        "from fuzzygraph.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(code, 'pathlib' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", script, *argv],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.stdout, proc.stderr) == ("0 False\n", "")


def test_a_star_import_runs_the_modules_that_define_the_names():
    setup = "from fuzzygraph import *\ncode = 0"
    defining = ["connectivity", "falsifier", "indices", "oracle", "structure"]
    expected = ["fuzzygraph", "errors", "model", "analysis"] + defining
    assert _fresh_run(setup) == (0, _names(expected))


def test_a_reload_keeps_the_modules_already_imported():
    setup = (
        "import importlib, fuzzygraph\n"
        "from fuzzygraph import model\n"
        "importlib.reload(fuzzygraph)\n"
        "code = fuzzygraph.model is model is sys.modules['fuzzygraph.model']"
    )
    assert _fresh_run(setup) == (True, _names(["fuzzygraph"]))


def test_importing_the_cli_registers_every_benchmark_layer():
    setup = (
        f"sys.path.insert(0, {str(ROOT / 'benchmarks')!r})\n"
        "import fuzzygraph.cli\n"
        "from spans import LAYERS\n"
        "code = [l for l in LAYERS if f'fuzzygraph.{l}' not in sys.modules]"
    )
    assert _fresh_run(setup) == ([], _names(_GRAPH))


# ------------------------------------------------------ the public surface


def test_a_star_import_binds_each_public_name_from_its_module():
    namespace: dict = {}
    exec("from fuzzygraph import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == fuzzygraph.__all__
    # every public name, the seven oracle functions among them
    assert len(fuzzygraph.__all__) == 57
    for name, value in namespace.items():
        # MICRO and VertexId name an int and str, defined in model
        home = getattr(value, "__module__", "")
        if not home.startswith("fuzzygraph."):
            home = "fuzzygraph.model"
        assert getattr(sys.modules[home], name) is value, name


def test_dir_lists_every_public_name():
    assert set(fuzzygraph.__all__) <= set(dir(fuzzygraph))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError) as info:
        fuzzygraph.no_such_name
    assert str(info.value) == (
        "module 'fuzzygraph' has no attribute 'no_such_name'"
    )


def test_the_falsify_claim_choices_are_the_claim_ids():
    parser = cli.build_parser()
    (commands,) = parser._subparsers._group_actions
    (claim,) = [
        action
        for action in commands.choices["falsify"]._actions
        if action.dest == "claim"
    ]
    assert list(claim.choices) == [c.value for c in fuzzygraph.ClaimId]
