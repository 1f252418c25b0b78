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
from operator import mul

from .connectivity import _Analysis
from .errors import StrongDisconnectedError
from .model import (
    MICRO,
    FuzzyGraph,
    Membership,
    PairTable,
    VertexId,
    _micro_fraction,
)
from .structure import GraphKind, SaturatedCycleSpec, _graph_kind

# sigma(u) sigma(v) value, each factor in micro-units
_SUM_SCALE = MICRO**3


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


def _require_strong_paths(
    rows: list[list[int | None]], names: tuple[VertexId, ...]
) -> None:
    """Raise StrongDisconnectedError for the first pair, in lexicographic
    order, with no strong path (a None entry).  Strong reachability is
    an equivalence, so when some pair has no strong path the first
    vertex has none to some vertex, and the first such pair is in row 0.
    """
    if rows and None in rows[0]:
        raise StrongDisconnectedError(
            f"no strong path between {names[0]!r} and "
            f"{names[rows[0].index(None)]!r}"
        )


def geodesic_distance(g: FuzzyGraph) -> PairTable[Fraction]:
    """All-pairs min-length distances over strong edges only.

    Raises StrongDisconnectedError if any pair of vertices has no path
    consisting solely of strong edges.
    """
    analysis = _Analysis(g)
    rows = _strong_distances(analysis)
    _require_strong_paths(rows, analysis.names)
    return PairTable(analysis.names, rows, _micro_fraction)


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
    _require_strong_paths(rows, analysis.names)
    sigma, total = analysis.sigma, 0
    for i, row in enumerate(rows):
        total += sigma[i] * sum(map(mul, sigma[i + 1 :], row[i + 1 :]))
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
    entries = (
        PairEntry(
            u,
            names[j],
            Membership(conn_row[j]),
            None if ds_row[j] is None else _micro_fraction(ds_row[j]),
        )
        for i, (u, conn_row, ds_row) in enumerate(
            zip(names, tables.conn, tables.ds)
        )
        for j in range(i + 1, len(names))
    )
    return IndexReport(
        wiener=tables.wiener,
        connectivity=tables.connectivity,
        pairs=tuple(entries),
        kind=tables.kind,
        zero_sigma_vertices=tables.zero_sigma_vertices,
    )
