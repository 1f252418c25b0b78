"""All-pairs max-min connection strength and edge classification.

A view over ``analysis.Analysis``, which explains how CONN and the
alpha/beta/delta edge classes are read off one maximum spanning forest.
Each function here builds the analysis of its graph and converts the
micro-unit results to public values.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analysis import Analysis, EdgeClass
from .model import FuzzyGraph, Membership, PairTable, VertexId, pair


@dataclass(frozen=True)
class EdgeClassification:
    """Classification of one edge together with the evidence for it.

    ``residual`` is the strength of connectedness between the endpoints
    in the graph without the edge, 0 when the edge is a bridge.
    """

    grade: Membership
    residual: Membership
    edge_class: EdgeClass


def strength_of_connectedness(g: FuzzyGraph) -> PairTable[Membership]:
    """CONN for every unordered pair, read off the maximum spanning forest;
    pairs in different crisp components have strength 0."""
    analysis = Analysis(g)
    return PairTable(analysis.names, analysis.conn_rows(), Membership)


def classify_edge(g: FuzzyGraph, u: VertexId, v: VertexId) -> EdgeClass:
    """Classify one edge as alpha-strong, beta-strong or delta."""
    g.mu(u, v)  # raises NoSuchEdgeError when uv is not an edge
    return classify_edges(g)[pair(u, v)].edge_class


def classify_edges(
    g: FuzzyGraph,
) -> dict[tuple[VertexId, VertexId], EdgeClassification]:
    """Classify every edge; keys are canonical unordered pairs."""
    analysis = Analysis(g)
    return {
        (u, v): EdgeClassification(grade, Membership(res), edge_class)
        for (u, v, grade), res, edge_class in zip(
            g.edges(), analysis.residual(), analysis.edge_classes()
        )
    }


def strong_subgraph(g: FuzzyGraph) -> FuzzyGraph:
    """Same vertices, only the alpha-strong and beta-strong edges."""
    pairs = g.edge_pairs()
    return g.edge_subgraph(pairs[e] for e in Analysis(g).strong_edges())
