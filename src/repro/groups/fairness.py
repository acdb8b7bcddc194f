"""Fairness policy helpers on top of group coverage.

The paper notes (Section III-B) that group coverage expresses practical
fairness measures: Equal Opportunity assigns the same bound ``c`` to every
group; disparate-impact rules constrain the minority/majority ratio of the
answer. These helpers build the corresponding constraints and audits.
"""

from __future__ import annotations

from typing import Dict, Mapping

from repro.errors import GroupError
from repro.groups.system import GroupSystem


def equal_opportunity_constraints(
    groups: GroupSystem, total_coverage: int
) -> GroupSystem:
    """Distribute ``C`` evenly across groups (the paper's Equal Opportunity).

    ``C`` must divide cleanly enough: each group receives ``C // m`` and the
    remainder goes to the earliest groups, matching the "evenly distribute
    C to each group" protocol of Exp-1. Raises if a share exceeds a group's
    size (the constraint would be unsatisfiable by definition).
    """
    m = len(groups)
    base = total_coverage // m
    remainder = total_coverage % m
    constraints: Dict[str, int] = {}
    for i, group in enumerate(groups):
        share = base + (1 if i < remainder else 0)
        if share > len(group):
            raise GroupError(
                f"equal-opportunity share {share} exceeds |{group.name}| = {len(group)}"
            )
        constraints[group.name] = share
    return groups.with_constraints(constraints)


def disparate_impact_ratio(overlaps: Mapping[str, int]) -> float:
    """min/max group representation ratio of an answer (1.0 = parity).

    Returns 0.0 when some group is entirely absent; raises on an empty
    overlap mapping.
    """
    if not overlaps:
        raise GroupError("no group overlaps provided")
    counts = list(overlaps.values())
    largest = max(counts)
    if largest == 0:
        return 1.0  # Vacuous parity: nothing selected from any group.
    return min(counts) / largest


def satisfies_eighty_percent_rule(
    overlaps: Mapping[str, int], threshold: float = 0.8
) -> bool:
    """The "80% rule": minority share at least ``threshold`` of majority."""
    return disparate_impact_ratio(overlaps) >= threshold
