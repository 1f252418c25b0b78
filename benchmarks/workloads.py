"""The benchmark's workloads: seeded inputs, CLI argument lists and checks.

Each workload is a fixed cycle of ops that the closed loop repeats.  A
workload's inputs come only from its seed.  Sizes are not drawn at
random: each cycle visits every size once, in a stride order, so that
the mix of op costs, and with it every latency figure, is the same for
every seed and any prefix of a cycle is spread evenly over the sizes.

Every check compares a report with values computed by ``reference``,
which does not use fuzzygraph, and raises Mismatch on any difference.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference as ref
from reference import MICRO, Graph

NAMES = ("dense-report", "falsify-sweep", "large-mst")

_HUNDREDTH = MICRO // 100  # grades are drawn on the 0.01 grid
_STRIDE = 7  # coprime with every cycle length used below


class Mismatch(Exception):
    """A report differs from what the benchmark expects."""


@dataclass
class Op:
    label: str
    argv: list[str]
    check: Callable[[int, str], None]
    # Output digests are recorded for seed 0; ops whose output does not
    # depend on the seed share one key across seeds.
    digest_key: str


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warmup: Op


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def _flag(value: bool) -> str:
    return "yes" if value else "no"


# ------------------------------------------------------------------ inputs


def _names(n: int) -> list[str]:
    return [f"v{i:04d}" for i in range(n)]


def _grade(rng: random.Random, cap: int) -> int:
    """A grade on the 0.01 grid in [0.01, cap]."""
    return rng.randint(1, cap // _HUNDREDTH) * _HUNDREDTH


def _attachment_tree(rng: random.Random, n: int) -> tuple[list[int], dict]:
    sigma = [_grade(rng, MICRO) for _ in range(n)]
    edges = {}
    for i in range(1, n):
        j = rng.randrange(i)
        edges[(j, i)] = _grade(rng, min(sigma[i], sigma[j]))
    return sigma, edges


def _graph(sigma: list[int], edges: dict) -> Graph:
    return Graph(
        _names(len(sigma)), sigma, [(u, v, w) for (u, v), w in edges.items()]
    )


def _extra_count(n: int, p: float) -> int:
    return round(p * (n * (n - 1) // 2 - (n - 1)))


def random_connected(rng: random.Random, n: int, p: float = 0.15) -> Graph:
    """Attachment tree plus a fixed share p of the remaining pairs."""
    sigma, edges = _attachment_tree(rng, n)
    free = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if (u, v) not in edges
    ]
    for u, v in rng.sample(free, _extra_count(n, p)):
        edges[(u, v)] = _grade(rng, min(sigma[u], sigma[v]))
    return _graph(sigma, edges)


def fuzzy_tree(rng: random.Random, n: int, p: float = 0.15) -> Graph:
    """Attachment tree plus extra edges strictly weaker than the tree path.

    Such an edge is in no maximum spanning tree, so the graph is a fuzzy
    tree by construction.
    """
    sigma, edges = _attachment_tree(rng, n)
    tree = _graph(sigma, edges)
    path_min = ref.conn_table(tree)
    free = [pair for pair in path_min if pair not in edges]
    rng.shuffle(free)
    wanted = _extra_count(n, p)
    for u, v in free:
        if wanted == 0:
            break
        if path_min[(u, v)] > _HUNDREDTH:
            edges[(u, v)] = _grade(rng, path_min[(u, v)] - _HUNDREDTH)
            wanted -= 1
    return _graph(sigma, edges)


def sparse_connected(rng: random.Random, n: int, degree: int = 6) -> Graph:
    """Attachment tree plus random pairs up to an average degree."""
    sigma, edges = _attachment_tree(rng, n)
    while len(edges) < n * degree // 2:
        u, v = sorted(rng.sample(range(n), 2))
        if (u, v) not in edges:
            edges[(u, v)] = _grade(rng, min(sigma[u], sigma[v]))
    return _graph(sigma, edges)


def _write(directory: Path, name: str, g: Graph) -> str:
    path = directory / name
    path.write_text(ref.to_fzg(g), encoding="ascii")
    return str(path)


# ------------------------------------------------------------------ checks


def check_indices(g: Graph) -> Callable[[int, str], None]:
    head = [
        f"vertices: {g.n}",
        f"edges: {len(g.edges)}",
        f"connected: {_flag(ref.is_connected(g))}",
        f"fuzzy tree: {_flag(ref.is_fuzzy_tree(g))}",
        f"fuzzy cycle: {_flag(ref.is_fuzzy_cycle(g))}",
        # generated graphs are never fuzzy cycles, so never saturated
        "saturated fuzzy cycle: no",
    ]
    wiener = ref.wiener_index(g)
    connectivity = ref.connectivity_index(g)
    conn = ref.conn_table(g)
    ds = ref.strong_distances(g)
    pairs = {
        (g.names[u], g.names[v]): (conn[(u, v)], Fraction(ds[(u, v)], MICRO))
        for u, v in conn
    }

    def check(code: int, text: str) -> None:
        _expect(code == 0, f"exit code {code}")
        lines = text.splitlines()
        _expect(lines[:6] == head, f"header {lines[:6]}")
        _expect(lines[6].startswith("WI = "), "no WI line")
        _expect(Fraction(lines[6][5:]) == wiener, f"{lines[6]}, want {wiener}")
        _expect(lines[7].startswith("CI = "), "no CI line")
        _expect(
            Fraction(lines[7][5:]) == connectivity,
            f"{lines[7]}, want {connectivity} from Kruskal merges",
        )
        _expect(lines[8] == "pair conn d_s", "no pair table")
        rows = lines[9:]
        _expect(len(rows) == len(pairs), f"{len(rows)} pair rows")
        seen = set()
        for row in rows:
            u, v, conn_text, ds_text = row.split()
            want_conn, want_ds = pairs[(u, v)]
            _expect(ref.grade_micro(conn_text) == want_conn, f"CONN {row}")
            _expect(Fraction(ds_text) == want_ds, f"d_s {row}")
            seen.add((u, v))
        _expect(len(seen) == len(pairs), "repeated pair rows")

    return check


def check_classify(g: Graph) -> Callable[[int, str], None]:
    strong = ref.strong_edges(g)
    edges = {
        (g.names[u], g.names[v]): (w, (u, v) in strong) for u, v, w in g.edges
    }

    def check(code: int, text: str) -> None:
        _expect(code == 0, f"exit code {code}")
        rows = json.loads(text)["edges"]
        _expect(len(rows) == len(edges), f"{len(rows)} edge rows")
        _expect(len({(r["u"], r["v"]) for r in rows}) == len(rows), "repeats")
        for row in rows:
            grade, in_some_forest = edges[(row["u"], row["v"])]
            mu = ref.grade_micro(row["mu"])
            residual = ref.grade_micro(row["residual"])
            _expect(mu == grade, f"mu {row}")
            if mu > residual:
                want = "alpha"
            elif mu == residual:
                want = "beta"
            else:
                want = "delta"
            _expect(row["class"] == want, f"class against residual {row}")
            _expect(
                (row["class"] != "delta") == in_some_forest,
                f"strong iff in some maximum spanning forest {row}",
            )

    return check


def check_kind_of_fuzzy_tree(g: Graph) -> Callable[[int, str], None]:
    _expect(ref.is_fuzzy_tree(g), "the generator made no fuzzy tree")
    want = (
        "connected: yes\nfuzzy tree: yes\n"
        f"fuzzy cycle: {_flag(ref.is_fuzzy_cycle(g))}\n"
        "saturated fuzzy cycle: no\n"
    )

    def check(code: int, text: str) -> None:
        _expect(code == 0, f"exit code {code}")
        _expect(text == want, f"kind report {text!r}")

    return check


def check_mst(g: Graph, fmt: str) -> Callable[[int, str], None]:
    grades = {(g.names[u], g.names[v]): w for u, v, w in g.edges}
    index = {name: i for i, name in enumerate(g.names)}
    total = ref.mst_total(g)

    def check(code: int, text: str) -> None:
        _expect(code == 0, f"exit code {code}")
        if fmt == "json":
            doc = json.loads(text)["mst"]
            rows = [(e["u"], e["v"], e["mu"]) for e in doc["edges"]]
            total_text = doc["total_strength"]
        else:
            lines = text.splitlines()
            rows = [tuple(line.split()) for line in lines[:-1]]
            _expect(lines[-1].startswith("total = "), "no total line")
            total_text = lines[-1][len("total = ") :]
        _expect(len(rows) == g.n - 1, f"{len(rows)} tree edges")
        tree = Graph(g.names, g.sigma, [])
        for u, v, mu in rows:
            grade = grades[(u, v)]
            _expect(grade == ref.grade_micro(mu), f"edge {u} {v} {mu}")
            tree.edges.append((index[u], index[v], grade))
        _expect(ref.is_connected(tree), "tree edges do not span the graph")
        listed = sum(w for _, _, w in tree.edges)
        _expect(listed == total, f"tree weighs {listed}, Kruskal {total}")
        _expect(Fraction(total_text) == Fraction(total, MICRO), "total")

    return check


def check_corollary_star(
    trials: int, sizes: tuple[int, int]
) -> Callable[[int, str], None]:
    def check(code: int, text: str) -> None:
        _expect(code == 0, f"exit code {code}")
        verdicts = json.loads(text)["verdicts"]
        _expect(1 <= len(verdicts) <= trials, f"{len(verdicts)} witnesses")
        for verdict in verdicts:
            g = ref.parse_fzg(verdict["instance"]["fzg"])
            _expect(verdict["claim"] == "corollary-star", "claim")
            _expect(verdict["holds"] is False, "witness that holds")
            _expect(verdict["size"] == g.n, "size")
            _expect(sizes[0] <= g.n <= sizes[1], f"size {g.n}")
            _expect(ref.is_fuzzy_tree(g), "witness is no fuzzy tree")
            strong = ref.strong_edges(g)
            forest = Graph(
                g.names, g.sigma, [e for e in g.edges if e[:2] in strong]
            )
            want = {
                "wi_g": ref.wiener_index(g),
                "wi_f": ref.tree_wiener_index(forest),
                "ci_f": ref.connectivity_index(g),
            }
            got = {k: Fraction(v) for k, v in verdict["detail"].items()}
            _expect(got == want, f"detail {verdict['detail']}, want {want}")
            _expect(Fraction(verdict["lhs"]) == want["wi_g"], "lhs")
            _expect(Fraction(verdict["rhs"]) == want["ci_f"], "rhs")
            _expect(want["wi_g"] != want["ci_f"], "not a counterexample")

    return check


_WITNESS = re.compile(
    r"witness (\d+): size (\d+), holds=false, lhs = (\S+), rhs = (\S+)$"
)
_GRID_TENTH = MICRO // 10


def check_theorem_star(n: int) -> Callable[[int, str], None]:
    """Every spec of length n on the 0.1 grid with kappa > eta is refuted."""
    specs = {
        (kappa * _GRID_TENTH, eta * _GRID_TENTH)
        for kappa in range(2, 11)
        for eta in range(1, kappa)
    }
    coefficient = Fraction(n * ((n + 3) ** 2 - 6), 16)

    def check(code: int, text: str) -> None:
        _expect(code == 0, f"exit code {code}")
        head, *blocks = text.split("\n\n")
        _expect(
            head == f"claim: theorem-star\nwitnesses: {len(specs)}",
            f"head {head!r}",
        )
        _expect(len(blocks) == len(specs), f"{len(blocks)} witness blocks")
        seen = set()
        for number, block in enumerate(blocks, start=1):
            lines = block.splitlines()
            match = _WITNESS.match(lines[0])
            _expect(match is not None, f"witness line {lines[0]!r}")
            index, size, lhs, rhs = match.groups()
            _expect((int(index), int(size)) == (number, n), lines[0])
            detail = f"  wiener_direct = {lhs}, formula = {rhs}"
            _expect(lines[1] == detail, lines[1])
            g = ref.parse_fzg("\n".join(line[2:] for line in lines[2:]))
            grades = [w for _, _, w in g.edges]
            kappa, eta = max(grades), min(grades)
            seen.add((kappa, eta))
            _expect(g.n == n and ref.is_fuzzy_cycle(g), "instance")
            _expect(Fraction(lhs) == ref.wiener_index(g), f"WI {lines[0]}")
            formula = coefficient * Fraction(kappa + eta, MICRO)
            _expect(Fraction(rhs) == formula, f"closed form {lines[0]}")
            _expect(Fraction(lhs) != formula, "not refuted")
        _expect(seen == specs, "specs missing")

    return check


def check_repro(code: int, text: str) -> None:
    _expect(code == 0, f"exit code {code}")
    *lines, result = text.splitlines()
    _expect(all(line.endswith(" PASS") for line in lines), "a check failed")
    _expect(
        result == f"result: {len(lines)} of {len(lines)} checks passed",
        result,
    )


# --------------------------------------------------------------- workloads


def _stride_sizes(rng: random.Random, sizes: list[int], count: int):
    offset = rng.randrange(len(sizes))
    return [sizes[(offset + _STRIDE * c) % len(sizes)] for c in range(count)]


def _dense_report(rng, directory, key, tiny) -> Workload:
    sizes = list(range(5, 9) if tiny else range(16, 33))
    kinds = ("indices", "classify", "kind")
    cycle = _stride_sizes(rng, sizes, len(kinds) * len(sizes))
    ops = []
    for c, n in enumerate(cycle):
        command = kinds[c % len(kinds)]
        if command == "kind":
            g = fuzzy_tree(rng, n)
            fmt, check = "text", check_kind_of_fuzzy_tree(g)
        elif command == "classify":
            g = random_connected(rng, n)
            fmt, check = "json", check_classify(g)
        else:
            g = random_connected(rng, n)
            fmt, check = "text", check_indices(g)
        path = _write(directory, f"dense-{c:02d}.fzg", g)
        ops.append(
            Op(f"{command} {fmt} n={n}", ["--format", fmt, command, path],
               check, f"{key}#{c}")
        )
    g = random_connected(rng, sizes[len(sizes) // 2])
    path = _write(directory, "dense-warmup.fzg", g)
    warmup = Op("warm-up", ["--format", "json", "classify", path],
                check_classify(g), f"{key}#warmup")
    return Workload("dense-report", ops, warmup)


def _falsify_sweep(rng, directory, key, tiny) -> Workload:
    trials, sizes = (3, (3, 5)) if tiny else (20, (3, 10))
    lengths = [4] if tiny else [4, 6, 8, 10, 12]
    # A corollary-star op's cost depends on its seed; 120 of them per
    # cycle keep the latency mix nearly the same for every workload seed.
    rounds = 2 if tiny else 24
    repro = Op("repro", ["repro"], check_repro, "repro")
    ops = []
    for c in range(rounds * 3 * len(lengths)):
        if c % 3 == 0:
            seed = rng.randrange(1 << 32)
            argv = ["--format", "json", "falsify", "corollary-star",
                    "--trials", str(trials),
                    "--sizes", f"{sizes[0]}..{sizes[1]}", "--seed", str(seed)]
            ops.append(Op(f"corollary-star seed={seed}", argv,
                          check_corollary_star(trials, sizes), f"{key}#{c}"))
        elif c % 3 == 1:
            n = lengths[(c // 3) % len(lengths)]
            label = f"theorem-star n={n}"
            argv = ["falsify", "theorem-star", "--n", f"{n}..{n}"]
            ops.append(Op(label, argv, check_theorem_star(n), label))
        else:
            ops.append(repro)
    return Workload("falsify-sweep", ops, repro)


def _large_mst(rng, directory, key, tiny) -> Workload:
    sizes = [30, 40, 50] if tiny else [2000 + 125 * i for i in range(17)]
    graphs = {}
    ops = []
    for c, n in enumerate(_stride_sizes(rng, sizes, 2 * len(sizes))):
        if n not in graphs:
            graphs[n] = sparse_connected(rng, n)
            _write(directory, f"mst-{n}.fzg", graphs[n])
        fmt = ("text", "json")[c % 2]
        path = str(directory / f"mst-{n}.fzg")
        ops.append(Op(f"mst {fmt} n={n}", ["--format", fmt, "mst", path],
                      check_mst(graphs[n], fmt), f"{key}#{c}"))
    g = sparse_connected(rng, sizes[len(sizes) // 2])
    path = _write(directory, "mst-warmup.fzg", g)
    warmup = Op("warm-up", ["--format", "json", "mst", path],
                check_mst(g, "json"), f"{key}#warmup")
    return Workload("large-mst", ops, warmup)


_BUILDERS = {
    "dense-report": _dense_report,
    "falsify-sweep": _falsify_sweep,
    "large-mst": _large_mst,
}


def build(name: str, seed: int, directory: Path, tiny=False) -> Workload:
    """Write the workload's inputs under directory and return its ops.

    ``tiny`` shrinks every size so the self-test runs in seconds.
    """
    rng = random.Random(f"{name}/{seed}/{'tiny' if tiny else 'full'}")
    key = f"{name}{'-tiny' if tiny else ''}@{seed}"
    return _BUILDERS[name](rng, directory, key, tiny)
