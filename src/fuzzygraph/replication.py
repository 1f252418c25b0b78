"""Recompute the published counterexample figures and report PASS/FAIL.

Three reference computations are replayed from scratch: a five-vertex
fuzzy tree refuting the tree claim (corollary-star), and the alternating
cycles C4 and C6 refuting the cycle claim (theorem-star).  The cycle
identities are linear in (kappa, eta) on the region kappa > eta, so
checking them at two linearly independent gradings proves them
symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .falsifier import ClaimVerdict, check_corollary_star, check_theorem_star
from .indices import geodesic_distance
from .model import Membership, format_fraction
from .samples import five_vertex_tree
from .structure import SaturatedCycleSpec

GRADINGS: tuple[tuple[str, str], ...] = (("0.5", "0.3"), ("0.7", "0.2"))

# d_s of the alternating C6 as (kappa coefficient, eta coefficient),
# keyed by position pairs around the cycle.
CYCLE6_TABLE: dict[tuple[int, int], tuple[int, int]] = {
    (0, 1): (1, 0),
    (0, 2): (1, 1),
    (0, 3): (1, 2),
    (0, 4): (1, 1),
    (0, 5): (0, 1),
    (1, 2): (0, 1),
    (1, 3): (1, 1),
    (1, 4): (1, 2),
    (1, 5): (1, 1),
    (2, 3): (1, 0),
    (2, 4): (1, 1),
    (2, 5): (1, 2),
    (3, 4): (0, 1),
    (3, 5): (1, 1),
    (4, 5): (1, 0),
}

# WI of the alternating cycles as (kappa coefficient, eta coefficient).
CYCLE_WI_COEFFS = {4: (4, 4), 6: (12, 15)}

# Closed-form coefficient of (kappa + eta) claimed by theorem-star.
FORMULA_COEFFS = {4: Fraction(43, 4), 6: Fraction(225, 8)}


@dataclass(frozen=True)
class ReplicationCheck:
    label: str
    detail: str
    passed: bool


def _value_check(
    label: str, name: str, actual: Fraction, expected: Fraction
) -> ReplicationCheck:
    if actual == expected:
        detail = f"{name} = {format_fraction(actual)}"
    else:
        detail = (
            f"{name} = {format_fraction(actual)}, "
            f"expected {format_fraction(expected)}"
        )
    return ReplicationCheck(label, detail, actual == expected)


def _tree_checks(verdicts: list[ClaimVerdict]) -> list[ReplicationCheck]:
    verdict = check_corollary_star(five_vertex_tree())
    verdicts.append(verdict)
    figures = verdict.detail
    # check_corollary_star raises NotAFuzzyTreeError on anything but a
    # fuzzy tree, and G's one Kruskal pass gives CI(G) = CI(F)
    return [
        ReplicationCheck("tree5", "recognized as fuzzy tree", True),
        _value_check("tree5", "WI(G)", figures["wi_g"], Fraction(37, 5)),
        _value_check("tree5", "WI(F)", figures["wi_f"], Fraction(37, 5)),
        _value_check("tree5", "CI(F)", figures["ci_f"], Fraction(7, 2)),
        _value_check("tree5", "CI(G)", figures["ci_f"], Fraction(7, 2)),
        ReplicationCheck(
            "tree5",
            "WI(G) = WI(F) differs from CI(F), counterexample CONFIRMED",
            not verdict.holds,
        ),
    ]


def _cycle_checks(n: int, verdicts: list[ClaimVerdict]) -> list[ReplicationCheck]:
    label = f"cycle{n}"
    wi_k, wi_e = CYCLE_WI_COEFFS[n]
    checks = []
    wi_ok = formula_ok = confirmed = True
    entry_ok = {key: True for key in CYCLE6_TABLE} if n == 6 else {}
    for kappa_text, eta_text in GRADINGS:
        spec = SaturatedCycleSpec(
            n, Membership.parse(kappa_text), Membership.parse(eta_text)
        )
        kappa, eta = spec.kappa.as_fraction(), spec.eta.as_fraction()
        # lhs is the directly computed WI, rhs the published closed form
        verdict = check_theorem_star(spec)
        verdicts.append(verdict)
        wi_ok &= verdict.lhs == wi_k * kappa + wi_e * eta
        formula_ok &= verdict.rhs == FORMULA_COEFFS[n] * (kappa + eta)
        confirmed &= not verdict.holds
        if n == 6:
            names = verdict.graph.vertices()
            ds = geodesic_distance(verdict.graph)
            for (i, j), (ck, ce) in sorted(CYCLE6_TABLE.items()):
                if ds.value(names[i], names[j]) != ck * kappa + ce * eta:
                    entry_ok[(i, j)] = False
    gradings = len(GRADINGS)
    if n == 6:
        matches = sum(1 for ok in entry_ok.values() if ok)
        checks.append(
            ReplicationCheck(
                label,
                f"distance table: {matches} of {len(entry_ok)} entries "
                f"match at {gradings} gradings",
                matches == len(entry_ok),
            )
        )
    checks.append(
        ReplicationCheck(
            label,
            f"WI = {wi_k}kappa+{wi_e}eta at {gradings} gradings",
            wi_ok,
        )
    )
    checks.append(
        ReplicationCheck(
            label,
            f"closed form = {FORMULA_COEFFS[n]}(kappa+eta) at "
            f"{gradings} gradings",
            formula_ok,
        )
    )
    checks.append(
        ReplicationCheck(
            label,
            "WI differs from closed form, counterexample CONFIRMED",
            confirmed,
        )
    )
    return checks


def replication_checks() -> tuple[list[ReplicationCheck], list[ClaimVerdict]]:
    """All replication checks plus the claim verdicts they rest on."""
    verdicts: list[ClaimVerdict] = []
    checks = _tree_checks(verdicts)
    checks += _cycle_checks(4, verdicts)
    checks += _cycle_checks(6, verdicts)
    return checks, verdicts
