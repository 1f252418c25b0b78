"""Self-test of the benchmark: run from the root of a checkout with

    python3 benchmarks/selftest.py

It runs every workload at a tiny size and checks that

- every op passes its checks on today's program;
- a corrupted output (an altered CI, a flipped edge class, ...), an
  unexpected exit code and a digest mismatch are each counted as errors;
- the same seed gives the same inputs;
- a traced run's counts repeat exactly, and large-mst never enters
  connectivity.

Exit code 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import os
import re
import shutil
import sys
from dataclasses import replace

import run
import workloads

# One corruption per kind of op, each altering a value the checks test.
_CORRUPTIONS = (
    (r"CI = ", "CI = 1"),
    (r'"class": "(alpha|beta)"', '"class": "delta"'),
    (r"fuzzy tree: yes", "fuzzy tree: no"),
    (r"total = ", "total = 1"),
    (r'"total_strength": "', '"total_strength": "1'),
    (r'"ci_f": "', '"ci_f": "1'),
    (r"witnesses: 45", "witnesses: 44"),
    (r" PASS\n", " FAIL\n"),
)
_COUNTS = (
    "model.parse_calls",
    "model.graphs_built",
    "model.memberships_built",
    "connectivity.conn_calls",
    "connectivity.conn_calls_per_graph",
    "connectivity.edges_classified",
    "indices.pairs_summed",
    "falsifier.instances_checked",
    "falsifier.witness_ratio",
    "cli.output_bytes",
    "trace.spans",
)


def corrupt(op, data: bytes) -> bytes:
    text = data.decode("utf-8")
    for pattern, replacement in _CORRUPTIONS:
        altered = re.sub(pattern, replacement, text, count=1)
        if altered != text:
            return altered.encode("utf-8")
    raise AssertionError(f"no corruption applies to {op.label}")


class Results:
    def __init__(self) -> None:
        self.failed = 0

    def expect(self, condition: bool, message: str) -> None:
        print(f"{'PASS' if condition else 'FAIL'}: {message}")
        self.failed += not condition


def _run_all(runner, ops) -> run.Tally:
    tally = run.Tally()
    for op in ops:
        runner.run(op, tally)
    return tally


def check_workload(name: str, work, results: Results) -> None:
    inputs = work / name
    inputs.mkdir()
    workload = workloads.build(name, 3, inputs, tiny=True)
    cli = run.import_cli()
    out = work / "out.txt"
    calibration = run.Calibration()

    runner = run.Runner(cli, out, {}, calibration)
    tally = _run_all(runner, workload.ops + [workload.warmup])
    results.expect(
        not tally.failures,
        f"{name}: {tally.attempted} ops pass their checks "
        f"{tally.failures[:3]}",
    )

    corrupting = run.Runner(cli, out, {}, calibration, mutate=corrupt)
    tally = _run_all(corrupting, workload.ops)
    results.expect(
        len(tally.failures) == tally.attempted,
        f"{name}: {len(tally.failures)} of {tally.attempted} corrupted "
        "outputs counted as errors",
    )

    wrong_digests = {op.digest_key: "0" * 16 for op in workload.ops}
    checking = run.Runner(cli, out, wrong_digests, calibration)
    tally = _run_all(checking, workload.ops)
    results.expect(
        len(tally.failures) == tally.attempted,
        f"{name}: digest mismatches counted as errors",
    )

    missing = [replace(op, argv=op.argv + ["--no-such-flag"])
               for op in workload.ops[:1]]
    tally = _run_all(runner, missing)
    results.expect(
        len(tally.failures) == 1, f"{name}: an exit code of 2 is an error"
    )

    again = work / f"{name}-again"
    again.mkdir()
    workloads.build(name, 3, again, tiny=True)
    same = all(
        (inputs / f.name).read_bytes() == f.read_bytes()
        for f in again.iterdir()
    ) and sorted(os.listdir(again)) == sorted(os.listdir(inputs))
    results.expect(same, f"{name}: one seed gives the same inputs")

    first = run.traced(runner, workload, work, 3)[2]
    second = run.traced(runner, workload, work, 3)[2]
    results.expect(
        all(first[key] == second[key] for key in _COUNTS),
        f"{name}: traced counts repeat exactly",
    )
    if name == "large-mst":
        results.expect(
            first["connectivity.conn_calls"] == 0,
            "large-mst: connectivity is never entered",
        )


def main() -> int:
    work = run.ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    results = Results()
    try:
        for name in workloads.NAMES:
            check_workload(name, work, results)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{results.failed} failed")
    return 1 if results.failed else 0


if __name__ == "__main__":
    sys.exit(main())
