"""Disjoint node groups with static member sets (paper's ``P`` and ``C``).

:class:`GroupSet` is the paper's exact setting — ``m`` pairwise-disjoint
groups scored with the L1 aggregate — expressed as the strict special
case of the generalized :class:`~repro.groups.system.GroupSystem`
(overlap allowed, relaxed thresholds, pluggable aggregate ``f``; see
``docs/fairness.md``). It takes explicit member sets, as the hardness
reduction and hand-built systems need; disjointness is validated at
construction and coverage stays pure-integer L1 arithmetic. Groups defined
by attribute values are built with
:func:`~repro.groups.system.system_from_rules` instead.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.errors import GroupError
from repro.groups.system import GroupSystem, NodeGroup

__all__ = ["GroupSet", "NodeGroup"]


class GroupSet(GroupSystem):
    """The paper's ``P``: pairwise-disjoint groups with constraints ``C``.

    Disjointness is validated at construction — the size bound of Theorem 2
    relies on ``C ≤ |V|``, which holds only for disjoint groups. The
    aggregate is fixed to the paper's L1 sum; overlapping membership or a
    different aggregate requires the general
    :class:`~repro.groups.system.GroupSystem`.

    Example:
        >>> groups = GroupSet([NodeGroup("m", frozenset({1, 2}), 1),
        ...                    NodeGroup("f", frozenset({3, 4}), 1)])
        >>> groups.total_coverage
        2
        >>> groups.coverage_error({1, 3, 4})
        1
    """

    def __init__(self, groups: Sequence[NodeGroup]) -> None:
        super().__init__(groups, aggregate="l1")
        seen: set = set()
        for group in groups:
            if seen & group.members:
                raise GroupError(f"group {group.name!r} overlaps a previous group")
            seen |= group.members

    def group_of(self, node_id: int) -> Optional[str]:
        """Name of the (unique) group containing ``node_id``, or None.

        Backed by the lazily-built node→group inverted index, so a lookup
        is O(1) after the first call. Well-defined because groups are
        disjoint (the general multi-membership form is
        :meth:`~repro.groups.system.GroupSystem.groups_of`).
        """
        names = self.groups_of(node_id)
        return names[0] if names else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{g.name}(|P|={len(g)}, c={g.coverage})" for g in self)
        return f"GroupSet({parts})"
