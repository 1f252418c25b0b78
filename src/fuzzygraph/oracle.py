"""Reference implementations the fast routes are tested against.

The brute-force functions enumerate simple paths directly from the
definitions and are intentionally naive; their inputs are capped at
MAX_VERTICES vertices.  The mid-size references recompute CONN by a
max-min Floyd-Warshall closure and classify each edge by deleting it and
recomputing CONN from scratch, O(m n^3) in all; they have no cap and
serve graphs of a few dozen vertices.  Edge classification is redone
here instead of calling the connectivity module, so the routes stay
independent; only the result types are shared.
"""

from __future__ import annotations

from fractions import Fraction

from .connectivity import EdgeClass, EdgeClassification
from .errors import StrongDisconnectedError, TooLargeError
from .model import MICRO, FuzzyGraph, Membership, PairTable, VertexId

MAX_VERTICES = 12


def _require_small(g: FuzzyGraph) -> None:
    if g.vertex_count > MAX_VERTICES:
        raise TooLargeError(
            f"{g.vertex_count} vertices exceeds the brute-force cap "
            f"of {MAX_VERTICES}"
        )


def _adjacency(g, allowed=None):
    names = g.vertices()
    adj = {name: [] for name in names}
    for (i, j), grade in zip(g.ends, g.mu_micro):
        u, v = names[i], names[j]
        if allowed is not None and (u, v) not in allowed:
            continue
        adj[u].append((v, grade))
        adj[v].append((u, grade))
    return adj


def _max_min_path(adj, u, v):
    best = 0
    visited = {u}

    def extend(node, floor):
        nonlocal best
        if node == v:
            best = max(best, floor)
            return
        for nbr, weight in adj[node]:
            if nbr in visited:
                continue
            visited.add(nbr)
            extend(nbr, floor if floor < weight else weight)
            visited.remove(nbr)

    extend(u, MICRO)
    return best


def conn_bruteforce(g: FuzzyGraph, u: VertexId, v: VertexId) -> Membership:
    """Max over all simple u-v paths of the min grade along the path."""
    _require_small(g)
    g.sigma(u)
    g.sigma(v)
    if u == v:
        raise ValueError("strength is defined for distinct vertices")
    return Membership(_max_min_path(_adjacency(g), u, v))


def strong_edges_bruteforce(
    g: FuzzyGraph,
) -> set[tuple[VertexId, VertexId]]:
    """Edges whose grade is >= the detour strength without them."""
    _require_small(g)
    strong = set()
    for (u, v), grade in zip(g.edge_pairs(), g.mu_micro):
        residual = _max_min_path(_adjacency(g.remove_edge(u, v)), u, v)
        if grade >= residual:
            strong.add((u, v))
    return strong


def _min_strong_path(adj, u, v):
    best = None
    visited = {u}

    def extend(node, travelled):
        nonlocal best
        if node == v:
            if best is None or travelled < best:
                best = travelled
            return
        for nbr, weight in adj[node]:
            if nbr in visited:
                continue
            visited.add(nbr)
            extend(nbr, travelled + weight)
            visited.remove(nbr)

    extend(u, 0)
    return best


def ds_bruteforce(
    g: FuzzyGraph,
    u: VertexId,
    v: VertexId,
    strong_pairs: set[tuple[VertexId, VertexId]] | None = None,
) -> Fraction:
    """Min total grade over simple u-v paths made of strong edges only.

    ``strong_pairs`` lets callers reuse one classification pass; when
    omitted it is recomputed here by brute force.
    """
    _require_small(g)
    g.sigma(u)
    g.sigma(v)
    if u == v:
        raise ValueError("distance is defined for distinct vertices")
    if strong_pairs is None:
        strong_pairs = strong_edges_bruteforce(g)
    adj = _adjacency(g, allowed=strong_pairs)
    best = _min_strong_path(adj, u, v)
    if best is None:
        raise StrongDisconnectedError(
            f"no strong path between {u!r} and {v!r}"
        )
    return Fraction(best, MICRO)


def wi_bruteforce(g: FuzzyGraph) -> Fraction:
    _require_small(g)
    strong_pairs = strong_edges_bruteforce(g)
    adj = _adjacency(g, allowed=strong_pairs)
    names, sigma = g.vertices(), g.sigma_micro
    total = 0
    for i, u in enumerate(names):
        for j in range(i + 1, len(names)):
            best = _min_strong_path(adj, u, names[j])
            if best is None:
                raise StrongDisconnectedError(
                    f"no strong path between {u!r} and {names[j]!r}"
                )
            total += sigma[i] * sigma[j] * best
    return Fraction(total, MICRO**3)


def ci_bruteforce(g: FuzzyGraph) -> Fraction:
    _require_small(g)
    adj = _adjacency(g)
    names, sigma = g.vertices(), g.sigma_micro
    total = 0
    for i, u in enumerate(names):
        for j in range(i + 1, len(names)):
            total += sigma[i] * sigma[j] * _max_min_path(adj, u, names[j])
    return Fraction(total, MICRO**3)


def conn_reference(g: FuzzyGraph) -> PairTable[Membership]:
    """CONN for every pair by a max-min Floyd-Warshall closure, O(n^3)."""
    names = g.vertices()
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    conn = [[0] * n for _ in range(n)]
    for u, v, grade in g.edges():
        i, j = index[u], index[v]
        conn[i][j] = conn[j][i] = grade.micro
    for k in range(n):
        row_k = conn[k]
        for i in range(n):
            if i == k:
                continue
            via = conn[i][k]
            if via == 0:
                continue
            row_i = conn[i]
            for j in range(n):
                width = via if via < row_k[j] else row_k[j]
                if width > row_i[j]:
                    row_i[j] = width
    return PairTable(names, conn, Membership)


def classify_edges_reference(
    g: FuzzyGraph,
) -> dict[tuple[VertexId, VertexId], EdgeClassification]:
    """Classify each edge by deleting it and recomputing CONN, O(m n^3)."""
    result = {}
    for u, v, grade in g.edges():
        residual = conn_reference(g.remove_edge(u, v)).value(u, v)
        if grade > residual:
            edge_class = EdgeClass.ALPHA_STRONG
        elif grade == residual:
            edge_class = EdgeClass.BETA_STRONG
        else:
            edge_class = EdgeClass.DELTA
        result[(u, v)] = EdgeClassification(grade, residual, edge_class)
    return result
