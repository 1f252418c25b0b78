"""The falsify and repro verdicts as report text.

Only those two commands import this module, so the graph commands never
compile it.  A verdict's lhs, rhs and detail values are formatted once
each; its witness graph is serialized with the report's one grade map,
so each distinct grade of all the witnesses is rendered once.  The JSON
``verdicts`` list is built one string per verdict, as the parts of the
CLI's row list: ``verdict_rows`` returns (keys, build) pairs, each
``build`` called with the layout texts around the values.
"""

from __future__ import annotations

from functools import partial
from itertools import groupby
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

from .model import format_fraction
from .structure import SaturatedCycleSpec

if TYPE_CHECKING:
    from collections.abc import Callable, Mapping

    from .falsifier import ClaimVerdict


def _texts(verdict: ClaimVerdict) -> tuple[str, str, list[str]]:
    """The texts of a verdict's lhs, rhs and detail values, in detail
    order, formatting each value object once.  lhs and rhs are two of
    the detail's values, the same objects, so they are known by ``id``
    while the verdict holds them; a ``Fraction`` key would cost a hash
    about as dear as the formatting."""
    texts: dict[int, str] = {}
    detail = []
    for value in verdict.detail.values():
        text = texts.get(id(value))
        if text is None:
            text = texts[id(value)] = format_fraction(value)
        detail.append(text)
    lhs = texts.get(id(verdict.lhs)) or format_fraction(verdict.lhs)
    rhs = texts.get(id(verdict.rhs)) or format_fraction(verdict.rhs)
    return lhs, rhs, detail


def verdict_rows(
    verdicts: list[ClaimVerdict], grades: Mapping[int, str]
) -> list[tuple[tuple, Callable[..., list[str]]]]:
    """The (keys, build) parts of the JSON ``verdicts`` row list.  A run
    of verdicts of one claim and one detail shares its keys; a
    theorem-star instance lists its spec before the .fzg text.
    ``grades`` is the report's one micro-unit -> text map, so each
    distinct grade of all the witnesses is rendered once."""

    def shape(verdict: ClaimVerdict) -> tuple:
        cycle = isinstance(verdict.instance, SaturatedCycleSpec)
        return verdict.claim_id, tuple(verdict.detail), cycle

    parts = []
    for (claim_id, names, cycle), run in groupby(verdicts, shape):
        instance = ("n", "kappa", "eta", "fzg") if cycle else ("fzg",)
        keys = (
            "claim", "size", "holds", "lhs", "rhs",
            ("detail", names), ("instance", instance),
        )
        claim = encode_basestring_ascii(claim_id.value)
        build = partial(_strings, [*run], claim, cycle, grades)
        parts.append((keys, build))
    return parts


def _strings(
    run: list[ClaimVerdict],
    claim: str,
    cycle: bool,
    grades: Mapping[int, str],
    *heads: str,
) -> list[str]:
    """The build of ``verdict_rows``: one string per verdict of the run,
    from one f-string."""
    c, s, h, left, right, *heads, end = heads
    rows = []
    for verdict in run:
        lhs, rhs, detail = _texts(verdict)
        values = [f'"{text}"' for text in detail]
        if cycle:
            spec = verdict.instance
            values += [
                str(spec.n),
                f'"{grades[spec.kappa.micro]}"',
                f'"{grades[spec.eta.micro]}"',
            ]
        fzg = verdict.graph.serialize(grades)
        values.append(encode_basestring_ascii(fzg))
        rows.append(
            f"{c}{claim}{s}{verdict.size}"
            f"{h}{'true' if verdict.holds else 'false'}"
            f'{left}"{lhs}"{right}"{rhs}"'
            f"{''.join(map(str.__add__, heads, values))}{end}"
        )
    return rows


def verdict_lines(
    index: int, verdict: ClaimVerdict, grades: Mapping[int, str]
) -> list[str]:
    """The text report's lines of witness ``index``."""
    lhs, rhs, detail = _texts(verdict)
    items = ", ".join(map("{} = {}".format, verdict.detail, detail))
    return [
        f"witness {index}: size {verdict.size}, holds=false, "
        f"lhs = {lhs}, rhs = {rhs}",
        f"  {items}",
        # the .fzg text, each line indented; it ends in one newline
        "  " + verdict.graph.serialize(grades)[:-1].replace("\n", "\n  "),
    ]
