"""Command line front end.

Exit codes: 0 success, 1 replication mismatch, 2 input error or out of
memory, 3 partial result (connectivity index printed but Wiener index
unavailable), 4 no counterexample witness found.

Reports are built straight from the analysis lists.  Each row list has
one builder, called by both formats, that makes one string per row with
one f-string, from values rendered once per report in the report's
format: each vertex name is JSON-quoted once, and each distinct grade or
distance is rendered once.  A text line is its JSON row's values joined
by one space, with - for a null.
A falsify or repro report's verdicts are a row list too, one string per
verdict with its nested ``detail`` and ``instance`` objects, and the
.fzg texts of all its witnesses share one grade map: each distinct
grade is rendered once across all the witnesses, not once per graph.
The ``verdicts`` module renders them, and only those two commands load
it.

Each subcommand's parser carries its handler, and each JSON report is
the six base keys of ``_BASE`` in order, then the command's own.
``_render`` lays out every JSON object, the row templates included.

The input file is read, and an ``--output`` report written, as bytes
by a plain ``open`` with no text layer: the file gets exactly the bytes
stdout gets, on every platform.

``main`` pauses the cyclic garbage collector while a command runs.  A
command builds up to millions of objects that live until it ends and
holds no reference cycle among them, so every collector pass would walk
them and free nothing; the caller's collector state is restored on
every exit.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import gc
import json
import os
import sys
from itertools import compress
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

from .analysis import Analysis, EdgeClass, GraphKind
from .errors import BadParamsError, FuzzyGraphError
from .model import FuzzyGraph, format_fraction, micro_text, parse_graph

# falsifier, replication, structure and verdicts are imported inside the
# functions that call them, so the graph commands never load them
if TYPE_CHECKING:
    from collections.abc import Callable, Sequence

_COROLLARY_NOTE = (
    "claim tested exactly as published; no auxiliary hypotheses assumed"
)


def _parse_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected A..B or a single integer, got {text!r}"
        ) from None
    return lo, hi


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=("text", "json"),
        default=argparse.SUPPRESS,
        help="output format (default text)",
    )
    common.add_argument(
        "--output",
        metavar="PATH",
        default=argparse.SUPPRESS,
        help="write the report to PATH instead of stdout",
    )
    parser = argparse.ArgumentParser(
        prog="fuzzygraph",
        description="Exact indices, edge classification and counterexample "
        "search for fuzzy graphs.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--output", metavar="PATH", default=None)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, text in (
        ("indices", _cmd_indices, "Wiener and connectivity indices"),
        ("classify", _cmd_classify, "alpha/beta/delta edge classes"),
        ("mst", _cmd_mst, "maximum spanning tree"),
        ("kind", _cmd_kind, "structure recognition flags"),
        ("repro", _cmd_repro,
         "replay the built-in counterexample computations"),
        ("falsify", _cmd_falsify, "search for claim counterexamples"),
    ):
        p = sub.add_parser(name, parents=[common], help=text)
        p.set_defaults(run=run)
        if name not in ("repro", "falsify"):
            p.add_argument("file")
    sub.choices["indices"].add_argument(
        "--summary",
        action="store_true",
        help="print the indices and flags without the per-pair table",
    )
    p = sub.choices["falsify"]
    # the ClaimId values, written out so that no parser loads the falsifier
    p.add_argument("claim", choices=("corollary-star", "theorem-star"))
    p.add_argument("--trials", type=_positive_int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--sizes",
        type=_parse_range,
        default=None,
        help="vertex count range A..B for corollary-star trees",
    )
    p.add_argument(
        "--n",
        dest="cycle_lengths",
        type=_parse_range,
        default=None,
        help="cycle length range A..B for the theorem-star sweep",
    )
    return parser


# the keys every JSON report opens with, in this order; a command's own
# keys follow them
_BASE = {
    "wiener": None,
    "connectivity": None,
    "pairs": [],
    "kind": None,
    "verdicts": [],
    "warnings": [],
}


def _kind_json(kind: GraphKind) -> dict:
    """Each flag keyed by its ``GraphKind`` field name without ``is_``."""
    return {name[3:]: flag for name, flag in vars(kind).items()}


def _kind_lines(kind: GraphKind) -> list[str]:
    return [
        f"{key.replace('_', ' ')}: {'yes' if value else 'no'}"
        for key, value in _kind_json(kind).items()
    ]


def _warnings_for(zero_sigma_vertices: tuple[str, ...]) -> list[str]:
    if zero_sigma_vertices:
        names = " ".join(zero_sigma_vertices)
        return [f"zero-grade vertices contribute nothing: {names}"]
    return []


def _load(path: str) -> FuzzyGraph:
    with open(path, "rb") as file:
        data = file.read()
    return parse_graph(data)


class _MicroTexts(dict):
    """micro-unit count -> its decimal text in one report's format,
    rendering each distinct count of the report once.  JSON quotes the
    text, which holds no character that JSON escapes.  None stands for
    a d_s with no strong path: null in JSON, - in text."""

    def __init__(self, fmt: str):
        self.quoted = fmt == "json"
        super().__init__({None: "null" if self.quoted else "-"})

    def __missing__(self, micro: int) -> str:
        text = micro_text(micro)
        if self.quoted:
            text = f'"{text}"'
        self[micro] = text
        return text


def _quoted(texts: Sequence[str], fmt: str) -> Sequence[str]:
    """Each name or label as one report's format prints it: a JSON
    string, quoted once per report, or in text the text itself."""
    return [*map(encode_basestring_ascii, texts)] if fmt == "json" else texts


def _text_rows(rows: tuple[tuple, Callable[..., list[str]]]) -> list[str]:
    """Each row of a (keys, build) row list as its values joined by a space."""
    keys, build = rows
    return build("", *[" "] * (len(keys) - 1), "")


def _cmd_indices(args) -> tuple[int, str]:
    g = _load(args.file)
    analysis = Analysis(g)
    n, text = g.vertex_count, _MicroTexts(args.format)
    ds_rows = None if args.summary else analysis.ds_rows()
    kind = analysis.kind()
    if not kind.is_connected:
        # the strong edges contain the forest, so every pair has a
        # strong path exactly when the graph is connected
        wiener = None
    elif args.summary:
        wiener = format_fraction(analysis.wiener())
    else:
        # the printed d_s rows are already built, and summing them costs less
        # than a block search: over the 17 indices inputs of dense-report seed
        # 0 (16-32 vertices), in-process on a 2-core host, WI from wiener()
        # made the fastest round 869-1,139 -> 991-1,218 us per op, slower in
        # each of 4 alternating process pairs
        wiener = format_fraction(analysis.pair_sum(ds_rows))
    connectivity = format_fraction(analysis.connectivity())
    warnings = _warnings_for(analysis.zero_sigma_vertices())
    code = 0 if wiener is not None else 3
    names = _quoted(analysis.names, args.format)
    tables = () if args.summary else zip(analysis.conn_rows(), ds_rows)
    pairs = (
        ("u", "v", "conn", "ds"),
        lambda u, v, c, d, end: [
            f"{u}{names[i]}{v}{names[j]}{c}{text[conn[j]]}"
            f"{d}{text[ds[j]]}{end}"
            for i, (conn, ds) in enumerate(tables)
            for j in range(i + 1, n)
        ],
    )
    if args.format == "json":
        return code, _json_text({
            **_BASE, "wiener": wiener, "connectivity": connectivity,
            "pairs": _Rows(pairs), "kind": _kind_json(kind),
            "warnings": warnings,
        })
    lines = [f"vertices: {g.vertex_count}", f"edges: {g.edge_count}"]
    lines += _kind_lines(kind)
    lines += [f"warning: {message}" for message in warnings]
    if wiener is None:
        wiener = "unavailable (strong subgraph disconnected)"
    lines += [f"WI = {wiener}", f"CI = {connectivity}"]
    table = _text_rows(pairs)
    if table:
        lines.append("pair conn d_s")
        lines += table
    return code, "\n".join(lines) + "\n"


def _cmd_classify(args) -> tuple[int, str]:
    analysis = Analysis(_load(args.file))
    fmt = args.format
    names, text = _quoted(analysis.names, fmt), _MicroTexts(fmt)
    label = dict(zip(EdgeClass, _quoted([c.value for c in EdgeClass], fmt)))
    residual, classes = analysis.residual(), analysis.edge_classes()
    edges = zip(analysis.ends, analysis.mu, residual, classes)
    rows = (
        ("u", "v", "mu", "class", "residual"),
        lambda u, v, m, c, r, end: [
            f"{u}{names[i]}{v}{names[j]}{m}{text[grade]}"
            f"{c}{label[edge_class]}{r}{text[res]}{end}"
            for (i, j), grade, res, edge_class in edges
        ],
    )
    if args.format == "json":
        return 0, _json_text({**_BASE, "edges": _Rows(rows)})
    lines = _text_rows(rows)
    return 0, "\n".join(lines) + ("\n" if lines else "")


def _cmd_mst(args) -> tuple[int, str]:
    analysis = Analysis(_load(args.file))
    analysis.require_spanning_tree()
    names = _quoted(analysis.names, args.format)
    mu, kept, text = analysis.mu, analysis.in_forest, _MicroTexts(args.format)
    total = micro_text(sum(compress(mu, kept)))
    edges = compress(zip(analysis.ends, mu), kept)
    rows = (
        ("u", "v", "mu"),
        lambda u, v, m, end: [
            f"{u}{names[i]}{v}{names[j]}{m}{text[w]}{end}"
            for (i, j), w in edges
        ],
    )
    if args.format == "json":
        mst = {"edges": _Rows(rows), "total_strength": total}
        return 0, _json_text({**_BASE, "mst": mst})
    lines = _text_rows(rows)
    lines.append(f"total = {total}")
    return 0, "\n".join(lines) + "\n"


def _cmd_kind(args) -> tuple[int, str]:
    analysis = Analysis(_load(args.file))
    kind = analysis.kind()
    if args.format == "json":
        return 0, _json_text({
            **_BASE, "kind": _kind_json(kind),
            "warnings": _warnings_for(analysis.zero_sigma_vertices()),
        })
    return 0, "\n".join(_kind_lines(kind)) + "\n"


def _cmd_repro(args) -> tuple[int, str]:
    from .replication import replication_checks
    from .verdicts import verdict_rows

    checks, verdicts = replication_checks()
    passed = sum(1 for check in checks if check.passed)
    code = 0 if passed == len(checks) else 1
    if args.format == "json":
        return code, _json_text({
            **_BASE,
            "verdicts": _Rows(*verdict_rows(verdicts, _MicroTexts("text"))),
            # each check's fields in order: label, detail, passed
            "checks": [vars(check) for check in checks],
        })
    lines = [
        f"{check.label}: {check.detail} {'PASS' if check.passed else 'FAIL'}"
        for check in checks
    ]
    lines.append(f"result: {passed} of {len(checks)} checks passed")
    return code, "\n".join(lines) + "\n"


def _cmd_falsify(args) -> tuple[int, str]:
    from .falsifier import ClaimId, search_counterexamples
    from .verdicts import verdict_lines, verdict_rows

    claim = ClaimId(args.claim)
    if claim is ClaimId.COROLLARY_STAR:
        if args.cycle_lengths is not None:
            raise BadParamsError("--n applies to theorem-star only")
        trials = args.trials if args.trials is not None else 50
        size_range = args.sizes
        note = _COROLLARY_NOTE
    else:
        if args.sizes is not None:
            raise BadParamsError("--sizes applies to corollary-star only")
        trials = args.trials
        size_range = args.cycle_lengths
        note = None
    verdicts = search_counterexamples(
        claim, trials=trials, seed=args.seed, size_range=size_range
    )
    code = 0 if verdicts else 4
    # the one grade map of the report: each distinct grade of all the
    # witnesses' .fzg texts is rendered once
    grades = _MicroTexts("text")
    if args.format == "json":
        return code, _json_text({
            **_BASE, "verdicts": _Rows(*verdict_rows(verdicts, grades)),
            "warnings": [] if note is None else [note],
        })
    lines = [f"claim: {claim.value}"]
    if note is not None:
        lines.append(f"note: {note}")
    lines.append(f"witnesses: {len(verdicts)}")
    for index, verdict in enumerate(verdicts, start=1):
        lines.append("")
        lines += verdict_lines(index, verdict, grades)
    return code, "\n".join(lines) + "\n"


class _Rows:
    """A JSON list of objects, built one string per object.

    ``parts`` holds (keys, build) pairs, one per run of objects that
    share their keys; the runs' objects follow one another in the list.
    ``keys`` is one or more distinct keys, and a key may be a pair (key,
    subkeys), whose value is a nested object with those keys (none
    gives ``{}``).  The object has one value per key, a nested object
    one per subkey.

    ``_render`` calls each ``build(*heads, end)`` once, with one head
    per value: the text that opens the object or separates the value
    from the previous one, with every brace of a nested object that
    opens or closes there, then the value's key and its colon.
    ``build`` returns each object as ``heads[0] + value_0 + heads[1] +
    value_1 + ... + end``, every value already JSON text: a quoted
    string, a number, true, false or null.  The heads are ``_render``'s
    own layout of a template object with these keys, cut at its values
    (see ``_heads``), so the layout, which depends on where the list
    sits, is decided in ``_render`` alone, and the caller renders each
    distinct value once."""

    __slots__ = ("parts",)

    def __init__(
        self, *parts: tuple[tuple, Callable[..., list[str]]]
    ):
        self.parts = parts


# A value's place in a ``_heads`` template.  ``_render`` writes it as a
# raw NUL, which no rendered string or key holds: JSON escapes it.
_HOLE = object()
_HOLE_TEXT = "\0"


def _json_text(doc: dict) -> str:
    """``json.dumps(doc, indent=2) + "\\n"``, byte for byte, for documents
    of dicts with string keys, lists, strings and other JSON scalars,
    where a ``_Rows`` stands for its list of objects.

    With an indent the json module drops its C encoder for a pure-Python
    one; here strings are escaped in C, and each ``_Rows`` list is joined
    from one string per object, so Python walks only the rest of the
    document.
    """
    out: list[str] = []
    _render(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _render(value, newline: str, out: list[str]) -> None:
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        lead = "{" + inner
        for key, item in value.items():
            out.append(lead)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _render(item, inner, out)
            lead = "," + inner
        out.append(newline + "}")
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        lead = "[" + inner
        for item in value:
            out.append(lead)
            _render(item, inner, out)
            lead = "," + inner
        out.append(newline + "]")
    elif isinstance(value, _Rows):
        inner = newline + "  "
        rows: list[str] = []
        for keys, build in value.parts:
            rows += build(*_heads(keys, inner))
        if rows:
            out.append(f"[{inner}{f',{inner}'.join(rows)}{newline}]")
        else:
            out.append("[]")
    elif value is _HOLE:
        out.append(_HOLE_TEXT)
    else:
        out.append(json.dumps(value))


def _heads(keys: tuple, newline: str) -> list[str]:
    """The texts around the values of one ``_Rows`` object with these
    keys, laid out at ``newline``: one text before each value, then the
    text that ends the object.  ``_render`` lays out the object with a
    hole for each value, and the texts are what lies between the holes."""
    out: list[str] = []
    _render(_template(keys), newline, out)
    return "".join(out).split(_HOLE_TEXT)


def _template(keys: tuple) -> dict:
    """The ``_Rows`` object with these keys, each value a hole."""
    return dict(
        (key, _HOLE) if isinstance(key, str) else (key[0], _template(key[1]))
        for key in keys
    )


def _write_stdout(text: str) -> None:
    """Write text to stdout and flush it; OSError when some byte is not
    taken.  A stdout closed before Python started is None and takes no
    byte.  An unbuffered stdout's text layer drops what a short write
    leaves, so the bytes go to its binary layer until all are taken."""
    if sys.stdout is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    out = getattr(sys.stdout, "buffer", None)
    if out is None:
        out = sys.stdout
        out.write(text)
    else:
        sys.stdout.flush()  # text already written goes first
        data = memoryview(text.encode(sys.stdout.encoding, sys.stdout.errors))
        while data:
            data = data[out.write(data) :]
    out.flush()


# Built on the first call to main and reused by later calls in the same
# process; parse_args keeps no state between calls.
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    # no collector pass while the command runs (see the module docstring)
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if enabled:
            gc.enable()


def _main(argv: list[str] | None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _run(args)
    except MemoryError:
        pass
    # printed after the except block, which frees the traceback's frames
    # and the lists they hold
    _error("out of memory")
    return 2


def _run(args: argparse.Namespace) -> int:
    """Run the command and write its report: the exit code."""
    try:
        code, text = args.run(args)
    except FileNotFoundError as exc:
        _error(f"no such file: {exc.filename}")
        return 2
    except OSError as exc:
        # only _load opens a file before the report is written
        reason = exc.strerror or exc
        _error(f"cannot read {args.file}: {reason}")
        return 2
    except FuzzyGraphError as exc:
        _error(str(exc))
        return 2
    try:
        if args.output is None:
            _write_stdout(text)
        else:
            # bytes, as stdout gets them: no newline translation; encoded
            # first, so a failure leaves no empty file
            data = text.encode("utf-8")
            with open(args.output, "wb") as file:
                file.write(data)
    except OSError as exc:
        target = "stdout" if args.output is None else args.output
        if args.output is None and sys.stdout is not None:
            # on the null device, the flush at exit cannot fail again
            with contextlib.suppress(OSError, ValueError):
                fd, null = sys.stdout.fileno(), os.open(os.devnull, os.O_WRONLY)
                os.dup2(null, fd)
                os.close(null)
        reason = exc.strerror or exc
        _error(f"cannot write {target}: {reason}")
        return 2
    return code


def _error(message: str) -> None:
    """Write the one error line to stderr.  With fd 2 closed at start,
    ``sys.stderr`` is None and the line is dropped, as argparse drops its
    usage errors, where ``print`` would send it to stdout."""
    if sys.stderr is not None:
        print(f"error: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
