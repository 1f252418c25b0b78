"""Wiener and connectivity indices with exact rational arithmetic.

The geodesic distance d_s(u, v) is the minimum total grade of a path
between u and v that uses only strong (alpha or beta) edges; the minimum
ranges over all such paths, not only the strongest ones.  The Wiener
index weights d_s by the endpoint grades, the connectivity index weights
the strength of connectedness the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from typing import Iterator

from .connectivity import _Analysis
from .errors import StrongDisconnectedError
from .model import MICRO, FuzzyGraph, Membership, VertexId, pair
from .structure import GraphKind, SaturatedCycleSpec, _graph_kind

# sigma(u) sigma(v) value, each factor in micro-units
_SUM_SCALE = MICRO**3


class DistanceMatrix:
    """Symmetric table of geodesic distances, keyed on unordered pairs."""

    __slots__ = ("_ds",)

    def __init__(self, ds: dict[tuple[VertexId, VertexId], Fraction]):
        self._ds = dict(sorted(ds.items()))

    def value(self, u: VertexId, v: VertexId) -> Fraction:
        return self._ds[pair(u, v)]

    def pairs(self) -> Iterator[tuple[tuple[VertexId, VertexId], Fraction]]:
        yield from self._ds.items()

    def __len__(self) -> int:
        return len(self._ds)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DistanceMatrix):
            return NotImplemented
        return self._ds == other._ds

    def __repr__(self) -> str:
        return f"DistanceMatrix({len(self._ds)} pairs)"


@dataclass(frozen=True)
class PairEntry:
    u: VertexId
    v: VertexId
    conn: Membership
    ds: Fraction | None


@dataclass(frozen=True)
class IndexReport:
    """Everything the CLI prints for one graph.

    ``wiener`` is None when some pair has no strong path; the
    connectivity index is always defined.
    """

    wiener: Fraction | None
    connectivity: Fraction
    pairs: tuple[PairEntry, ...]
    kind: GraphKind
    zero_sigma_vertices: tuple[VertexId, ...]


def _single_source(
    adj: list[list[tuple[int, int]]], source: int
) -> list[int | None]:
    dist: list[int | None] = [None] * len(adj)
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        d, node = heappop(heap)
        if d > dist[node]:
            continue
        for nbr, weight in adj[node]:
            nd = d + weight
            if dist[nbr] is None or nd < dist[nbr]:
                dist[nbr] = nd
                heappush(heap, (nd, nbr))
    return dist


def _strong_distances(analysis: _Analysis) -> list[list[int | None]]:
    """d_s rows in micro-units over the strong edges; None when unreachable."""
    adj = analysis.strong_adjacency()
    return [_single_source(adj, source) for source in range(len(adj))]


def _strong_distance_table(
    g: FuzzyGraph,
) -> dict[tuple[VertexId, VertexId], Fraction | None]:
    """Geodesic distances over the strong subgraph; None when unreachable."""
    analysis = _Analysis(g)
    rows, names = _strong_distances(analysis), analysis.names
    table: dict[tuple[VertexId, VertexId], Fraction | None] = {}
    for i, u in enumerate(names):
        for j in range(i + 1, len(names)):
            micro = rows[i][j]
            table[(u, names[j])] = (
                None if micro is None else Fraction(micro, MICRO)
            )
    return table


def geodesic_distance(g: FuzzyGraph) -> DistanceMatrix:
    """All-pairs min-length distances over strong edges only.

    Raises StrongDisconnectedError if any pair of vertices has no path
    consisting solely of strong edges.
    """
    table = _strong_distance_table(g)
    for (u, v), value in table.items():
        if value is None:
            raise StrongDisconnectedError(
                f"no strong path between {u!r} and {v!r}"
            )
    return DistanceMatrix(table)


def wiener_index(g: FuzzyGraph) -> Fraction:
    """Sum of sigma(u) sigma(v) d_s(u, v) over unordered pairs."""
    return _wiener_index(_Analysis(g))


def _wiener_index(analysis: _Analysis) -> Fraction:
    return Fraction(
        _pair_sum(_strong_distances(analysis), analysis), _SUM_SCALE
    )


def connectivity_index(g: FuzzyGraph) -> Fraction:
    """Sum of sigma(u) sigma(v) CONN(u, v) over unordered pairs."""
    return _connectivity_index(_Analysis(g))


def _connectivity_index(analysis: _Analysis) -> Fraction:
    return Fraction(_pair_sum(analysis.conn_rows(), analysis), _SUM_SCALE)


def _pair_sum(rows: list[list[int | None]], analysis: _Analysis) -> int:
    """Sum of sigma(u) sigma(v) rows[u][v] over pairs u < v, in units of
    _SUM_SCALE.  A None entry is a pair with no strong path: raises
    StrongDisconnectedError for the first one."""
    sigma = analysis.sigma
    total = 0
    for i, row in enumerate(rows):
        weight = sigma[i]
        for j in range(i + 1, len(rows)):
            value = row[j]
            if value is None:
                raise StrongDisconnectedError(
                    f"no strong path between {analysis.names[i]!r} and "
                    f"{analysis.names[j]!r}"
                )
            total += weight * sigma[j] * value
    return total


def theorem_star_formula(spec: SaturatedCycleSpec) -> Fraction:
    """The published closed form n((n+3)^2 - 6)/16 (kappa + eta).

    Kept verbatim for comparison purposes: direct computation refutes it
    (see the falsifier module), so never use this as a shortcut for the
    Wiener index of a saturated cycle.
    """
    coefficient = Fraction(spec.n * ((spec.n + 3) ** 2 - 6), 16)
    return coefficient * (spec.kappa.as_fraction() + spec.eta.as_fraction())


@dataclass(frozen=True)
class _IndexTables:
    """What index_report and the CLI's indices report are built from.

    Row i of ``conn`` and ``ds`` belongs to ``names[i]``; entries are
    micro-units, a ``ds`` entry None when the pair has no strong path.
    """

    names: tuple[VertexId, ...]
    conn: list[list[int]]
    ds: list[list[int | None]]
    wiener: Fraction | None
    connectivity: Fraction
    kind: GraphKind
    zero_sigma_vertices: tuple[VertexId, ...]


def _index_tables(g: FuzzyGraph) -> _IndexTables:
    analysis = _Analysis(g)
    conn, ds = analysis.conn_rows(), _strong_distances(analysis)
    try:
        wiener = Fraction(_pair_sum(ds, analysis), _SUM_SCALE)
    except StrongDisconnectedError:
        wiener = None
    names = analysis.names
    return _IndexTables(
        names=names,
        conn=conn,
        ds=ds,
        wiener=wiener,
        connectivity=Fraction(_pair_sum(conn, analysis), _SUM_SCALE),
        kind=_graph_kind(g, analysis),
        zero_sigma_vertices=tuple(
            name for name, grade in zip(names, analysis.sigma) if grade == 0
        ),
    )


def index_report(g: FuzzyGraph) -> IndexReport:
    """Compute both indices plus the per-pair table and structure flags."""
    tables = _index_tables(g)
    names = tables.names
    entries = []
    for i, u in enumerate(names):
        conn_row, ds_row = tables.conn[i], tables.ds[i]
        for j in range(i + 1, len(names)):
            micro = ds_row[j]
            entries.append(
                PairEntry(
                    u,
                    names[j],
                    Membership(conn_row[j]),
                    None if micro is None else Fraction(micro, MICRO),
                )
            )
    return IndexReport(
        wiener=tables.wiener,
        connectivity=tables.connectivity,
        pairs=tuple(entries),
        kind=tables.kind,
        zero_sigma_vertices=tables.zero_sigma_vertices,
    )
