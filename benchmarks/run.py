"""Seeded end-to-end benchmark of the fuzzygraph command line.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload dense-report --seed 1 \
        --seconds 20 --trace 0

The benchmark imports fuzzygraph from the checkout's ``src`` directory,
writes the workload's inputs under ``.bench_work/``, and drives
``fuzzygraph.cli.main`` in-process in a closed loop: one client, one
process, one thread, each op starting when the previous one has ended,
with ``--output`` pointed at a file.  Garbage from one op is collected
before the next starts, outside the timed region, as a one-shot CLI
process never pays for the previous command's garbage.  Every output is
checked against values the benchmark computes without fuzzygraph; with
seed 0, and for ops whose output does not depend on the seed, the
output's digest must also match ``digests.json``.

``--trace 0`` measures for ``--seconds`` seconds, and past that until
MIN_OPS ops have completed, so that p90 has ten samples above it.  It
reports the end-to-end metrics.  ``--trace 1`` runs the first TRACE_OPS
ops of the workload's cycle untraced and then the same ops traced, so
every count repeats exactly for a seed, and reports the per-layer
metrics and the tracing overhead.  It writes the spans and the per-layer table to
``.bench_out/``.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  ``--write-digests`` records
the digests of seed 0 instead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import reference
import workloads
from spans import Recorder
from workloads import Mismatch, Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

MIN_OPS = 100
MAX_MEASURE_S = 120.0
SETUP_REPS = 7
# The traced run covers this many ops from the start of the cycle: the
# whole cycle on dense-report and large-mst, a third of falsify-sweep's.
TRACE_OPS = 120

UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "success_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "output_bytes": "bytes",
    "graphs_built_per_op": "graphs/op",
    "conn_calls_per_graph": "calls/graph",
    "witness_ratio": "ratio",
    "overhead": "ratio",
    "ops_per_s": "1/s",
    "traced_ops_per_s": "1/s",
}


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def import_cli():
    """Import fuzzygraph afresh from the checkout and return its cli."""
    for name in [m for m in sys.modules if m.split(".")[0] == "fuzzygraph"]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.invalidate_caches()
    try:
        cli = importlib.import_module("fuzzygraph.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import fuzzygraph: {exc}") from exc
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"fuzzygraph came from {cli.__file__}, not {SRC}")
    return cli


class Calibration:
    """A fixed piece of pure-Python work, timed around every op.

    The host's speed drifts by tens of percent over seconds to minutes.
    Each op's time is scaled by REFERENCE_S over the mean of the
    calibration times just before and just after it, which reports it
    at the speed where one calibration takes REFERENCE_S.  The work
    parses, sorts and merges a sparse graph, as the ops do, and uses
    only the benchmark's own code, so no change to fuzzygraph moves it.
    """

    REFERENCE_S = 0.010

    def __init__(self) -> None:
        rng = random.Random("calibration")
        self._text = reference.to_fzg(workloads.sparse_connected(rng, 600))
        self.samples: list[float] = []

    def time(self) -> float:
        start = perf_counter()
        g = reference.parse_fzg(self._text)
        reference.mst_total(g)
        reference.strong_edges(g)
        elapsed = perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def scale(self, elapsed: float, before: float, after: float) -> float:
        return elapsed * 2 * self.REFERENCE_S / (before + after)


@dataclass
class Tally:
    latencies: list[float] = field(default_factory=list)  # scaled
    raw: list[float] = field(default_factory=list)  # as measured
    failures: list[str] = field(default_factory=list)
    output_bytes: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies)


class Runner:
    """Runs ops through the CLI, times them and checks their output."""

    def __init__(self, cli, out_path: Path, digests: dict[str, str],
                 calibration: Calibration, mutate=None):
        self.cli = cli
        self.out_path = out_path
        self.digests = digests
        self.calibration = calibration
        # the self-test corrupts outputs through this hook
        self.mutate = mutate
        self._before: float | None = None

    def execute(self, op: Op) -> tuple[int | None, str, float]:
        """Run one op; return its exit code, any exception and wall time."""
        self.out_path.unlink(missing_ok=True)
        gc.collect()
        error = ""
        start = perf_counter()
        try:
            code = self.cli.main(["--output", str(self.out_path), *op.argv])
        except Exception as exc:  # a traceback is a failed op, not a stop
            code, error = None, f"raised {exc!r}"
        return code, error, perf_counter() - start

    def run(self, op: Op, tally: Tally) -> None:
        if self._before is None:
            self._before = self.calibration.time()
        code, error, elapsed = self.execute(op)
        after = self.calibration.time()
        tally.raw.append(elapsed)
        tally.latencies.append(
            self.calibration.scale(elapsed, self._before, after)
        )
        self._before = after
        self.verify(op, code, error, tally)

    def verify(self, op: Op, code: int | None, error: str, tally: Tally):
        if code is None:
            tally.failures.append(f"{op.label}: {error}")
            return
        try:
            data = self.out_path.read_bytes()
        except FileNotFoundError:
            data = b""
        tally.output_bytes += len(data)
        if self.mutate is not None:
            data = self.mutate(op, data)
        try:
            op.check(code, data.decode("utf-8"))
            want = self.digests.get(op.digest_key)
            if want is not None and digest(data) != want:
                raise Mismatch("output differs from the recorded digest")
        except (Mismatch, ValueError, KeyError, IndexError, TypeError) as exc:
            tally.failures.append(f"{op.label}: {type(exc).__name__}: {exc}")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def setup(workload, out_path: Path, digests, calibration: Calibration):
    """Import fuzzygraph and run the warm-up op, SETUP_REPS times.

    Returns the runner, the median scaled set-up time and the warm-up
    ops' tally.
    """
    times = []
    warmup = Tally()
    before = calibration.time()
    for _ in range(SETUP_REPS):
        gc.collect()
        start = perf_counter()
        runner = Runner(import_cli(), out_path, digests, calibration)
        code, error, _ = runner.execute(workload.warmup)
        elapsed = perf_counter() - start
        after = calibration.time()
        times.append(calibration.scale(elapsed, before, after))
        before = after
        runner.verify(workload.warmup, code, error, warmup)
    return runner, statistics.median(times), warmup


def measure(runner: Runner, ops: list[Op], seconds: float) -> Tally:
    tally = Tally()
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if elapsed >= MAX_MEASURE_S or (
            elapsed >= seconds and tally.attempted >= MIN_OPS
        ):
            return tally
        runner.run(ops[tally.attempted % len(ops)], tally)


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


def end_to_end(tally: Tally, setup_s: float) -> dict[str, float]:
    correct = tally.attempted - len(tally.failures)
    lat = tally.latencies
    return {
        "ops_per_s": correct / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p90_ms": percentile(lat, 0.9) * 1e3,
        "success_rate": correct / tally.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }


def traced(runner: Runner, workload, out_dir: Path, seed: int):
    """One untraced and one traced pass over the first TRACE_OPS ops."""
    cycle = workload.ops[:TRACE_OPS]
    plain = Tally()
    for op in cycle:
        runner.run(op, plain)
    recorder = Recorder()
    recorder.install()
    spanned = Tally()
    try:
        for op_id, op in enumerate(cycle):
            recorder.begin_op(op_id)
            runner.run(op, spanned)
            recorder.end_op()
    finally:
        recorder.uninstall()
    ops = len(cycle)
    metrics = recorder.table(ops, spanned.output_bytes)
    metrics["trace.ops"] = ops
    metrics["trace.ops_per_s"] = ops / sum(plain.latencies)
    metrics["trace.traced_ops_per_s"] = ops / sum(spanned.latencies)
    metrics["trace.overhead"] = (
        metrics["trace.ops_per_s"] / metrics["trace.traced_ops_per_s"]
    )
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload.name}-seed{seed}.json"
    origin = recorder.spans[0][2] if recorder.spans else 0.0
    with path.open("w", encoding="utf-8") as stream:
        json.dump(
            {
                "workload": workload.name,
                "seed": seed,
                "ops": [op.label for op in cycle],
                "table": metrics,
                "span_fields": ["name", "start_s", "end_s", "parent", "op"],
                "spans": [
                    [name, start - origin, end - origin, parent, op_id]
                    for name, _, start, end, parent, op_id in recorder.spans
                ],
            },
            stream,
        )
    return plain, spanned, metrics, path


def layer_unit(name: str) -> str:
    suffix = name.split(".", 1)[1]
    if suffix in LAYER_UNITS:
        return LAYER_UNITS[suffix]
    return "s" if suffix.endswith("_s") else "count"


def write_digests(runner: Runner, workload) -> None:
    """Record the digest of every op's output after checking it."""
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for op in workload.ops:
        code, error, _ = runner.execute(op)
        data = runner.out_path.read_bytes()
        op.check(code, data.decode("utf-8"))
        recorded[op.digest_key] = digest(data)
    DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(workload.ops)} digests for {workload.name}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fuzzygraph" / "cli.py").is_file():
        print(f"error: no fuzzygraph sources under {SRC}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work" / str(os.getpid())
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.build(args.workload, args.seed, inputs)
        digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        # the inputs and checks live for the whole run; keep them out of
        # the program's garbage collections
        gc.collect()
        gc.freeze()
        calibration = Calibration()
        runner, setup_s, warmup = setup(
            workload, work / "out.txt", digests, calibration
        )
        if args.write_digests:
            write_digests(runner, workload)
            return 0
        if args.trace:
            plain, spanned, metrics, path = traced(
                runner, workload, ROOT / ".bench_out", args.seed
            )
            tallies = [warmup, plain, spanned]
            units = {name: layer_unit(name) for name in metrics}
            print(f"trace written to {path.relative_to(ROOT)}")
        else:
            tally = measure(runner, workload.ops, args.seconds)
            tallies = [warmup, tally]
            metrics = end_to_end(tally, setup_s)
            units = UNITS
            raw_p50 = statistics.median(tally.raw) * 1e3
            raw_p90 = percentile(tally.raw, 0.9) * 1e3
            cal = statistics.median(calibration.samples) * 1e3
            print(
                f"{tally.attempted} ops timed over {sum(tally.raw):.2f} s; "
                f"as measured, p50 {raw_p50:.2f} ms and p90 {raw_p90:.2f} ms; "
                f"calibration median {cal:.3f} ms"
            )
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failures = [f for t in tallies for f in t.failures]
    for failure in failures[:10]:
        print(f"wrong: {failure}", file=sys.stderr)
    attempted = sum(t.attempted for t in tallies)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops attempted, {len(failures)} failed or wrong")
    for name, value in metrics.items():
        print(f"  {name:38s} {value:>16.6f} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
