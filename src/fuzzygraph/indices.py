"""Wiener and connectivity indices with exact rational arithmetic.

The geodesic distance d_s(u, v) is the minimum total grade of a path
between u and v that uses only strong (alpha or beta) edges; the minimum
ranges over all such paths, not only the strongest ones.  The Wiener
index weights d_s by the endpoint grades, the connectivity index weights
the strength of connectedness the same way.

A view over ``analysis.Analysis``, which computes the d_s rows and the
two index sums in micro-units; ``wiener_index`` and
``connectivity_index`` build no rows.  The functions here build the
public values.
"""

from __future__ import annotations

from fractions import Fraction

from .analysis import Analysis
from .model import MICRO, FuzzyGraph, PairTable
from .structure import SaturatedCycleSpec


def _distance(micro: int) -> Fraction:
    return Fraction(micro, MICRO)


def geodesic_distance(g: FuzzyGraph) -> PairTable[Fraction]:
    """All-pairs min-length distances over strong edges only.

    Raises StrongDisconnectedError if any pair of vertices has no path
    consisting solely of strong edges.
    """
    analysis = Analysis(g)
    analysis.require_strong_paths()
    return PairTable(analysis.names, analysis.ds_rows(), _distance)


def wiener_index(g: FuzzyGraph) -> Fraction:
    """Sum of sigma(u) sigma(v) d_s(u, v) over unordered pairs."""
    return Analysis(g).wiener()


def connectivity_index(g: FuzzyGraph) -> Fraction:
    """Sum of sigma(u) sigma(v) CONN(u, v) over unordered pairs."""
    return Analysis(g).connectivity()


def theorem_star_formula(spec: SaturatedCycleSpec) -> Fraction:
    """The published closed form n((n+3)^2 - 6)/16 (kappa + eta).

    Kept verbatim for comparison purposes: direct computation refutes it
    (see the falsifier module), so never use this as a shortcut for the
    Wiener index of a saturated cycle.
    """
    n, grades = spec.n, spec.kappa.micro + spec.eta.micro
    return Fraction(n * ((n + 3) ** 2 - 6) * grades, 16 * MICRO)
