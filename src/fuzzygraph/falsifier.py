"""Randomized and exhaustive search for counterexamples to two claims.

Claim corollary-star: for every fuzzy tree G with maximum spanning tree
F, WI(G) = WI(F) = CI(F).  Claim theorem-star: the Wiener index of a
saturated fuzzy cycle equals n((n+3)^2 - 6)/16 (kappa + eta).  Both are
false; this module produces concrete witnesses with exact arithmetic on
both sides.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import islice
from typing import Iterator

from .analysis import Analysis
from .errors import BadParamsError, NotAFuzzyTreeError
from .indices import theorem_star_formula, wiener_index
from .model import FuzzyGraph, Membership
from .structure import (
    SaturatedCycleSpec,
    make_saturated_cycle,
    random_fuzzy_tree,
)

_TENTH = 100_000  # micro-units per 0.1 grid step of the sweep


class ClaimId(Enum):
    COROLLARY_STAR = "corollary-star"
    THEOREM_STAR = "theorem-star"


@dataclass(frozen=True)
class ClaimVerdict:
    """Outcome of evaluating one claim on one instance.

    ``graph`` is the graph that was evaluated: the instance itself for
    corollary-star, the built cycle for theorem-star.  ``holds`` is
    exact equality of lhs and rhs; ``detail`` carries every
    intermediate quantity needed to audit the verdict by hand.
    """

    claim_id: ClaimId
    instance: FuzzyGraph | SaturatedCycleSpec
    graph: FuzzyGraph
    lhs: Fraction
    rhs: Fraction
    holds: bool
    detail: dict[str, Fraction]

    @property
    def size(self) -> int:
        return self.graph.vertex_count


def check_corollary_star(g: FuzzyGraph) -> ClaimVerdict:
    """Evaluate WI(G) = WI(F) = CI(F) on a fuzzy tree.

    The claim is tested exactly as published, with no auxiliary
    hypotheses.  lhs is WI(G), rhs is CI(F); WI(F) is in the detail map.
    F is the maximum spanning forest of G's one analysis, not a second
    graph, and CI(F) is the CI its Kruskal pass summed.  On a fuzzy tree
    the strong subgraph S of G is F, so WI(G) = WI(F) by definition:
    ``Analysis.wiener`` sums it once, over the edges of F as bridges,
    mu(e) sigma(below e) sigma(rest) each, and it is reported as both.
    Raises NotAFuzzyTreeError or DisconnectedError.
    """
    analysis = Analysis(g)
    analysis.require_spanning_tree()
    if not analysis.is_fuzzy_forest():
        raise NotAFuzzyTreeError("corollary-star applies to fuzzy trees only")
    wi_g = wi_f = analysis.wiener()
    ci_f = analysis.connectivity()
    return ClaimVerdict(
        claim_id=ClaimId.COROLLARY_STAR,
        instance=g,
        graph=g,
        lhs=wi_g,
        rhs=ci_f,
        holds=(wi_g == wi_f == ci_f),
        detail={"wi_g": wi_g, "wi_f": wi_f, "ci_f": ci_f},
    )


def check_theorem_star(spec: SaturatedCycleSpec) -> ClaimVerdict:
    """Compare the direct Wiener index against the published closed form."""
    cycle = make_saturated_cycle(spec)
    direct = wiener_index(cycle)
    formula = theorem_star_formula(spec)
    return ClaimVerdict(
        claim_id=ClaimId.THEOREM_STAR,
        instance=spec,
        graph=cycle,
        lhs=direct,
        rhs=formula,
        holds=(direct == formula),
        detail={"wiener_direct": direct, "formula": formula},
    )


def _trial_seed(seed: int, index: int) -> int:
    return (seed * 1_000_003 + index) & ((1 << 64) - 1)


def _canonical_key(verdict: ClaimVerdict) -> tuple:
    """The sort key of a corollary-star verdict, from its int grades alone.

    It orders the verdicts of one search exactly as the text keys
    ``(size, fzg)`` of their trees do, and is equal exactly where they
    are, so the stable sort keeps ties in one order too.  The keys
    compare size first, so take two verdicts of one size n:

    - Every search verdict of size n has the names ``_vertex_names(n)``,
      of one width, so its .fzg text is the same vertex lines ``v <name>
      <sigma>`` for each vertex in index order, then ``e <name_i>
      <name_j> <mu>`` for each edge in ``ends`` order.  Two texts differ
      first either in a pair of edge names, whose zero-padded digits
      compare as the indices (i, j) do, or in a grade; or one text's
      edge lines stop first, and it sorts first, as a tuple that is a
      prefix of another does.
    - Where they first differ in a grade, the shortest decimal text of a
      grade in [0, 1] ("0", "1" or "0.d..." with no trailing zero) sorts
      as its number does: the texts differ first in a digit, or one
      text stops where the other goes on with "." or a digit.  The
      character after a grade is "\\n", a space or the end of the text,
      each below every digit and below ".", so the shorter text sorts
      first, as its smaller number does.

    Hence (n, sigma_micro, the (ends, mu) pairs) give the text keys'
    order, and the search never renders a grade to sort.
    """
    g = verdict.graph
    return (g.vertex_count, g.sigma_micro, tuple(zip(g.ends, g.mu_micro)))


def _sweep_specs(size_range: tuple[int, int]) -> Iterator[SaturatedCycleSpec]:
    """The sweep's specs, built one at a time as the caller takes them,
    in ascending (n, kappa, eta): the order of their texts ``cycle n={n}
    kappa={kappa} eta={eta}`` within one n, since grade texts sort as
    their numbers do (proof at ``_canonical_key``)."""
    lo, hi = size_range
    start = max(4, lo + lo % 2)
    if start > hi:
        raise BadParamsError(
            f"no even cycle length of at least 4 in {lo}..{hi}"
        )
    return (
        SaturatedCycleSpec(
            n, Membership(kappa * _TENTH), Membership(eta * _TENTH)
        )
        for n in range(start, hi + 1, 2)
        for kappa in range(2, 11)
        for eta in range(1, kappa)
    )


def search_counterexamples(
    claim_id: ClaimId,
    trials: int | None = None,
    seed: int = 0,
    size_range: tuple[int, int] | None = None,
) -> list[ClaimVerdict]:
    """Generate instances and return the verdicts that refute the claim.

    corollary-star draws ``trials`` random fuzzy trees with vertex counts
    in ``size_range`` (default 3..8); each trial's randomness is derived
    from (seed, trial index), so results are reproducible and independent
    of evaluation order.  theorem-star sweeps every even cycle length in
    ``size_range`` (default 4..12) against the 0.1-grade grid with
    kappa > eta; ``trials`` caps the sweep when given.  Only verdicts
    with holds = False are returned, sorted by instance size and then by
    canonical serialization: a tree's .fzg text, a cycle's "cycle n=...
    kappa=... eta=..." text.  The sweep yields its specs in that order,
    and the trees' key reads it off the int grades, so the search
    serializes no graph (proof at ``_canonical_key``).
    """
    if trials is not None and trials < 1:
        raise BadParamsError(f"trials must be >= 1, got {trials}")
    if size_range is not None:
        lo, hi = size_range
        if lo > hi:
            raise BadParamsError(f"empty size range {lo}..{hi}")
    violations: list[ClaimVerdict] = []
    if claim_id is ClaimId.COROLLARY_STAR:
        if trials is None:
            raise BadParamsError("corollary-star search needs a trial count")
        lo, hi = size_range if size_range is not None else (3, 8)
        if lo < 2:
            raise BadParamsError(f"trees need at least 2 vertices, got {lo}")
        for index in range(trials):
            rng = random.Random(_trial_seed(seed, index))
            n = rng.randrange(lo, hi + 1)
            extra = rng.randrange(4)
            tree = random_fuzzy_tree(rng.randrange(1 << 63), n, extra)
            verdict = check_corollary_star(tree)
            if not verdict.holds:
                violations.append(verdict)
        violations.sort(key=_canonical_key)
    elif claim_id is ClaimId.THEOREM_STAR:
        specs = _sweep_specs(size_range if size_range is not None else (4, 12))
        if trials is not None:
            specs = islice(specs, trials)
        for spec in specs:
            verdict = check_theorem_star(spec)
            if not verdict.holds:
                violations.append(verdict)
    else:
        raise BadParamsError(f"unknown claim {claim_id!r}")
    return violations
