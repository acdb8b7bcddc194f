"""Sufficient statistics for one scored answer set.

A :class:`ScoreState` holds everything the quality measures need about an
answer set in delta-updatable form:

* the answer nodes as a sorted list (the order both measure reductions
  consume);
* per Gower attribute, the *present* value multiset as a sorted numeric
  list plus a value-count map, with present / non-numeric tallies — the
  removal- and insert-updatable version of the sorted-prefix-sum /
  value-count inputs of ``pair_sum_numeric`` / ``pair_sum_categorical``
  (:mod:`repro.core.distance`);
* per-group overlap counters, maintained through the node→groups inverted
  index on :class:`~repro.groups.system.GroupSystem` (each node updates
  every group it belongs to — at most one for disjoint groups).

States are *persistent by copying*: :meth:`derive` clones the parent's
structures and applies the delta, leaving the parent untouched for its
other lattice children. A derivation costs O(|Δ|·(k + n)) against the
O(n·k·log n) of :meth:`build` — which is the whole point: a lattice
child's answer differs from its parent's by a handful of nodes (paper
Section IV), so maintaining the statistics along lattice edges makes the
per-instance scoring cost proportional to the *change*, not the answer.

Exactness note: nothing in here ever accumulates a floating-point ±delta.
The state stores raw values and integer counts only; the final reductions
(:meth:`DiversityMeasure.of_maintained`,
:meth:`CoverageMeasure.of_overlaps`) recompute the measure from the kept
statistics in the from-scratch summation order, so delta-maintained δ and
f are bitwise-equal to from-scratch values.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.core.distance import _is_number
from repro.graph.attributed_graph import AttributedGraph
from repro.groups.system import GroupSystem


class AttributeStats:
    """The present-value multiset of one attribute over one answer set.

    Attributes:
        present: Number of answer nodes carrying the attribute.
        non_numeric: How many of those values fail ``_is_number`` (the
            decomposed Gower path switches to the categorical formula as
            soon as one exists).
        numeric: Sorted multiset of the numeric values (raw, unscaled —
            scaling by the attribute spread happens in the reduction,
            exactly as the from-scratch path does).
        counts: Value → multiplicity over *all* present values.
    """

    __slots__ = ("present", "non_numeric", "numeric", "counts")

    def __init__(self) -> None:
        self.present = 0
        self.non_numeric = 0
        self.numeric: List[Any] = []
        self.counts: Dict[Any, int] = {}

    def add(self, value: Any) -> None:
        self.present += 1
        self.counts[value] = self.counts.get(value, 0) + 1
        if _is_number(value):
            insort(self.numeric, value)
        else:
            self.non_numeric += 1

    def remove(self, value: Any) -> None:
        self.present -= 1
        remaining = self.counts[value] - 1
        if remaining:
            self.counts[value] = remaining
        else:
            del self.counts[value]
        if _is_number(value):
            # bisect finds *an* equal element; equal numerics (e.g. 5 vs
            # 5.0) are interchangeable in every reduction.
            self.numeric.pop(bisect_left(self.numeric, value))
        else:
            self.non_numeric -= 1

    def clone(self) -> "AttributeStats":
        twin = AttributeStats.__new__(AttributeStats)
        twin.present = self.present
        twin.non_numeric = self.non_numeric
        twin.numeric = list(self.numeric)
        twin.counts = dict(self.counts)
        return twin


class ScoreState:
    """Delta-updatable scoring statistics of one answer set."""

    __slots__ = ("nodes", "attrs", "overlaps")

    def __init__(
        self,
        nodes: List[int],
        attrs: Dict[str, AttributeStats],
        overlaps: Dict[str, int],
    ) -> None:
        self.nodes = nodes
        self.attrs = attrs
        self.overlaps = overlaps

    @classmethod
    def build(
        cls,
        matches: Iterable[int],
        graph: AttributedGraph,
        attributes: Sequence[str],
        groups: Optional[GroupSystem],
    ) -> "ScoreState":
        """From-scratch construction (the delta path's fallback).

        ``groups=None`` skips overlap maintenance (the engine does this
        when the coverage measure cannot consume maintained counters).
        """
        nodes = sorted(set(matches))
        attrs: Dict[str, AttributeStats] = {}
        if attributes:
            attrs = {name: AttributeStats() for name in attributes}
            for node in nodes:
                node_attrs = graph.attributes(node)
                for name, st in attrs.items():
                    value = node_attrs.get(name)
                    if value is not None:
                        st.add(value)
        overlaps: Dict[str, int] = {}
        if groups is not None:
            overlaps = {name: 0 for name in groups.names}
            for node in nodes:
                for name in groups.groups_of(node):
                    overlaps[name] += 1
        return cls(nodes, attrs, overlaps)

    def derive(
        self,
        removed: FrozenSet[int],
        added: FrozenSet[int],
        graph: AttributedGraph,
        groups: Optional[GroupSystem],
    ) -> "ScoreState":
        """A new state for (this answer − removed + added); self unchanged."""
        if removed:
            nodes = [v for v in self.nodes if v not in removed]
        else:
            nodes = list(self.nodes)
        attrs = {name: st.clone() for name, st in self.attrs.items()}
        overlaps = dict(self.overlaps)
        for node in removed:
            self._apply(node, nodes, attrs, overlaps, graph, groups, sign=-1)
        for node in added:
            insort(nodes, node)
            self._apply(node, nodes, attrs, overlaps, graph, groups, sign=+1)
        return ScoreState(nodes, attrs, overlaps)

    @staticmethod
    def _apply(
        node: int,
        nodes: List[int],
        attrs: Dict[str, AttributeStats],
        overlaps: Dict[str, int],
        graph: AttributedGraph,
        groups: Optional[GroupSystem],
        sign: int,
    ) -> None:
        if attrs:
            node_attrs = graph.attributes(node)
            for name, st in attrs.items():
                value = node_attrs.get(name)
                if value is not None:
                    if sign > 0:
                        st.add(value)
                    else:
                        st.remove(value)
        if groups is not None:
            for group in groups.groups_of(node):
                overlaps[group] += sign

    # -- In-place patches (streaming attribute churn) --------------------- #

    def patch_attribute(self, node: int, name: str, old: Any, new: Any) -> None:
        """Repair one tracked attribute after an in-place value change.

        ``remove(old)`` + ``add(new)`` on the attribute's multiset — the
        surgical alternative to rebuilding the state when a streaming
        delta rewrites an answer node's attribute in place. ``old`` /
        ``new`` of ``None`` express attribute insertion / removal. The
        node's membership in this answer is the *caller's* invariant
        (the engine routes patches through its node→keys index); untracked
        attribute names are ignored — they cannot feed the reductions.

        Exactness: the multiset after remove+add equals the multiset a
        from-scratch build over the mutated graph would collect, and every
        downstream reduction is insensitive to the internal orderings that
        can differ (the numeric list is kept sorted; the categorical
        formula is all-integer over counts) — pinned by the patched ≡
        rebuilt signature property suite.
        """
        st = self.attrs.get(name)
        if st is None:
            return
        if old is not None:
            st.remove(old)
        if new is not None:
            st.add(new)

    def patch_membership(self, diff: Any) -> int:
        """±1 overlap-counter adjustments from a membership diff.

        ``diff`` is a :class:`~repro.groups.system.MembershipDiff`; moves
        of nodes outside this answer are skipped (binary search on the
        sorted answer list). Returns how many moves applied. No-op when
        this state maintains no overlap counters (coverage measure not
        delta-capable) — the engine's score recomputation then reads the
        patched group container directly.
        """
        overlaps = self.overlaps
        if not overlaps:
            return 0
        nodes = self.nodes
        applied = 0
        for move in diff.moves:
            i = bisect_left(nodes, move.node)
            if i >= len(nodes) or nodes[i] != move.node:
                continue
            for name in move.removed:
                overlaps[name] -= 1
            for name in move.added:
                overlaps[name] += 1
            applied += 1
        return applied

    # -- Introspection (tests, debugging) -------------------------------- #

    def signature(self) -> Tuple:
        """Canonical rendering for equality checks in the test suite."""
        return (
            tuple(self.nodes),
            {
                name: (st.present, st.non_numeric, tuple(st.numeric),
                       tuple(sorted(st.counts.items(), key=repr)))
                for name, st in self.attrs.items()
            },
            dict(self.overlaps),
        )

    def __len__(self) -> int:
        return len(self.nodes)
