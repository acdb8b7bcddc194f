"""Quality measures: max-sum diversity ``δ`` and coverage quality ``f``.

Diversity (paper Section III-A):

    δ(q) = (1−λ) · Σ_{v∈q(G)} r(u_o, v)
         + (2λ / (|V_{u_o}| − 1)) · Σ_{v<v'∈q(G)} d(v, v')

with ``δ(q) ∈ [0, |V_{u_o}|]``. Coverage:

    f(q) = C − Σ_i | |q(G) ∩ P_i| − c_i |,  C = Σ c_i,  f ∈ [0, C].

The pairwise term is O(|q(G)|²) naively; the measure also implements a
*decomposed* path — exact for the Gower tuple distance — that computes the
sum over all pairs attribute-by-attribute in O(n log n) using sorted prefix
sums (numeric) and value counts (categorical). ``mode="auto"`` picks the
decomposed path for large answers when the kernel allows it.

For the Gower distance over the output label's enumeration, both paths
and the relevance sum run vectorised in
:class:`~repro.core.gower.GowerKernel`, bitwise identical to the
pure-Python code here. That code is the only path for a caller-supplied
``distance`` and for answers holding an ``EXOTIC`` cell or a node outside
the label, and it is the test oracle.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.core.distance import (
    GowerTupleDistance,
    _is_number,
    pair_sum_categorical,
    pair_sum_categorical_counts,
    pair_sum_numeric,
)
from repro.core.gower import GowerKernel
from repro.core.relevance import ConstantRelevance, RelevanceScorer
from repro.graph.attributed_graph import AttributedGraph
from repro.groups.system import GroupSystem

#: Answers at or below this size always use the exact pairwise path.
_DECOMPOSE_THRESHOLD = 64


class DiversityMeasure:
    """Computes ``δ(q, G)`` for answer sets of one output label.

    Args:
        graph: The data graph.
        output_label: Label of the output node ``u_o`` (fixes ``V_{u_o}``).
        lam: The relevance/diversity balance ``λ ∈ [0, 1]``.
        relevance: Scorer for ``r(u_o, v)``; defaults to constant 1.
        distance: Pairwise kernel for ``d``; defaults to
            :class:`~repro.core.distance.GowerTupleDistance` over all of the
            label's attributes.
        mode: ``"exact"`` (always pairwise), ``"decomposed"`` (always the
            fast path; requires a Gower kernel), or ``"auto"``.

    Example:
        >>> measure = DiversityMeasure(graph, "person", lam=0.5)  # doctest: +SKIP
        >>> measure.of({1, 5, 9})  # doctest: +SKIP
        1.87
    """

    def __init__(
        self,
        graph: AttributedGraph,
        output_label: str,
        lam: float = 0.5,
        relevance: Optional[RelevanceScorer] = None,
        distance: Optional[Callable[[int, int], float]] = None,
        mode: str = "auto",
    ) -> None:
        if not 0.0 <= lam <= 1.0:
            raise ConfigurationError("lambda must lie in [0, 1]")
        if mode not in ("auto", "exact", "decomposed"):
            raise ConfigurationError(f"unknown diversity mode {mode!r}")
        self.graph = graph
        self.output_label = output_label
        self.lam = lam
        self.relevance = relevance or ConstantRelevance(1.0)
        self.distance = distance or GowerTupleDistance(graph, output_label)
        self.mode = mode
        self._label_count = graph.count_label(output_label)
        self._relevance_cache: Dict[int, float] = {}
        self._gower = isinstance(self.distance, GowerTupleDistance)
        if mode == "decomposed" and not self._gower:
            raise ConfigurationError("decomposed mode requires the Gower kernel")
        # The kernel reads the output label's enumeration; for another
        # distance, δ takes the Python paths.
        self._kernel = None
        if (
            type(self.distance) is GowerTupleDistance
            and self.distance.graph is graph
            and self.distance.label == output_label
        ):
            self._kernel = GowerKernel(
                graph,
                self.distance.label,
                self.distance.attributes,
                self.distance.ranges,
                self.relevance,
            )

    # ------------------------------------------------------------------ #

    @property
    def upper_bound(self) -> float:
        """``|V_{u_o}|`` — the maximum possible diversity value."""
        return float(self._label_count)

    def of(self, matches: Union[int, Iterable[int]]) -> float:
        """``δ`` for an answer: any iterable of node ids, or a mask over
        the output label's enumeration (``graph.enumeration``), whose bit
        positions the kernel reads directly."""
        nodes: Optional[List[int]] = None
        positions = None
        if not isinstance(matches, int):
            nodes = sorted(set(matches))
            positions = self._positions(nodes)
        elif self._kernel is None:
            nodes = sorted(self.graph.enumeration(self.output_label).to_ids(matches))
        else:
            positions = self.graph.enumeration(self.output_label).positions(matches)
        if not len(nodes if positions is None else positions):
            return 0.0
        relevance_sum = self._relevance_sum(nodes, positions)
        pair_sum = self._pair_sum(nodes, positions)
        normalizer = max(1, self._label_count - 1)
        return (1.0 - self.lam) * relevance_sum + (2.0 * self.lam / normalizer) * pair_sum

    def of_maintained(
        self,
        nodes: Sequence[int],
        stats: Optional[Mapping[str, Any]] = None,
    ) -> float:
        """``δ`` from a maintained sorted answer list (the delta-scoring path).

        ``nodes`` must be the answer set already deduplicated and sorted
        ascending; ``stats`` optionally maps each Gower attribute to its
        maintained sufficient statistics (an object exposing ``present``,
        ``non_numeric``, ``numeric`` — the sorted numeric multiset — and
        ``counts``, see :class:`repro.scoring.state.AttributeStats`).

        The contract is bitwise equality with ``of(set(nodes))``: rather
        than accumulating ±deltas, the final reduction re-runs the exact
        summation orders of the from-scratch path — relevance over the
        sorted nodes, then either the pairwise loop or the per-attribute
        decomposition — so floating-point rounding is identical.
        """
        if not nodes:
            return 0.0
        positions = self._positions(nodes)
        relevance_sum = self._relevance_sum(nodes, positions)
        pair_sum = self._pair_sum_maintained(nodes, stats, positions)
        normalizer = max(1, self._label_count - 1)
        return (1.0 - self.lam) * relevance_sum + (2.0 * self.lam / normalizer) * pair_sum

    def uses_decomposed(self, size: int) -> bool:
        """Whether an answer of ``size`` nodes takes the decomposed path."""
        return self.mode == "decomposed" or (
            self.mode == "auto" and self._gower and size > _DECOMPOSE_THRESHOLD
        )

    def _positions(self, nodes: Sequence[int]):
        """Label positions of the sorted ``nodes`` for the kernel; None runs
        the Python paths (no kernel, or a node outside the label)."""
        if self._kernel is None:
            return None
        position = self.graph.enumeration(self.output_label).position
        found = [position.get(v) for v in nodes]
        return None if None in found else np.array(found, dtype=np.int64)

    def _relevance_sum(self, nodes: Sequence[int], positions) -> float:
        """``Σ r(u_o, v)`` left to right over the sorted nodes.

        An explicit running sum, not ``sum()``: Python 3.12 made ``sum``
        over floats compensated, which would round differently from the
        kernel and from earlier interpreters.
        """
        if positions is not None:
            return self._kernel.relevance_sum(positions)
        total = 0.0
        for v in nodes:
            total += self._relevance_of(v)
        return total

    def _relevance_of(self, node_id: int) -> float:
        """Memoized ``r(u_o, v)``.

        Answer sets of one run overlap heavily (hundreds of sibling
        instances share most matches), and scorers are pure per node, so
        each node's score is computed once per measure lifetime.
        """
        cached = self._relevance_cache.get(node_id)
        if cached is None:
            cached = self._relevance_cache[node_id] = float(self.relevance(node_id))
        return cached

    # ------------------------------------------------------------------ #
    # Pair-sum strategies
    # ------------------------------------------------------------------ #

    def _pair_sum(self, nodes: Optional[Sequence[int]], positions=None) -> float:
        """``Σ d(v, v')``; ``nodes`` may be None when ``positions`` is given."""
        size = len(nodes if positions is None else positions)
        if size < 2 or self.lam == 0.0:
            return 0.0
        decomposed = self.uses_decomposed(size)
        if positions is not None:
            value = self._kernel.pair_sum(positions, decomposed)
            if value is not None:
                return value
            ids = self.graph.enumeration(self.output_label).ids
            nodes = [ids[i] for i in positions.tolist()]
        if decomposed:
            return self._pair_sum_decomposed(nodes)
        return self._pair_sum_exact(nodes)

    def _pair_sum_maintained(
        self, nodes: Sequence[int], stats: Optional[Mapping[str, Any]], positions=None
    ) -> float:
        """Pair-sum mirroring :meth:`_pair_sum`'s mode decision, fed from
        maintained statistics whenever the decomposed path would run."""
        if (
            stats is not None
            and len(nodes) >= 2
            and self.lam != 0.0
            and self.uses_decomposed(len(nodes))
        ):
            return self._pair_sum_from_stats(len(nodes), stats)
        return self._pair_sum(nodes, positions)

    def _pair_sum_exact(self, nodes: Sequence[int]) -> float:
        total = 0.0
        distance = self.distance
        for i, v in enumerate(nodes):
            for w in nodes[i + 1 :]:
                total += distance(v, w)
        return total

    def _pair_sum_decomposed(self, nodes: Sequence[int]) -> float:
        """Exact Gower pair-sum in O(n k log n); see module docstring.

        Per attribute: pairs with exactly one missing value contribute 1
        each; both-present pairs contribute the numeric prefix-sum or the
        categorical count formula. The attribute sums are averaged by the
        kernel's attribute count.
        """
        attributes = self.distance.attributes
        if not attributes:
            return 0.0
        graph = self.graph
        ranges = self.distance.ranges
        total = 0.0
        attr_maps = [graph.attributes(v) for v in nodes]
        for attribute in attributes:
            present: List[Any] = []
            for attrs in attr_maps:
                value = attrs.get(attribute)
                if value is not None:
                    present.append(value)
            n_missing = len(nodes) - len(present)
            # One-missing pairs each contribute the maximal distance 1.
            contribution = float(len(present) * n_missing)
            if present:
                if all(_is_number(v) for v in present):
                    spread = ranges.spread(attribute)
                    if spread > 0:
                        contribution += pair_sum_numeric(
                            [float(v) / spread for v in present]
                        ) * 1.0
                    else:
                        contribution += pair_sum_categorical(present)
                else:
                    contribution += pair_sum_categorical(present)
            total += contribution
        return total / len(attributes)

    def _pair_sum_from_stats(self, n: int, stats: Mapping[str, Any]) -> float:
        """Decomposed Gower pair-sum from maintained per-attribute stats.

        Bitwise-identical to :meth:`_pair_sum_decomposed` on the same
        answer set: the per-attribute branch tests and summation orders
        are the same (``pair_sum_numeric`` re-sorts the already-sorted
        scaled values into the identical sequence, and the categorical
        formula is all-integer, so count iteration order cannot matter).
        """
        attributes = self.distance.attributes
        if not attributes:
            return 0.0
        ranges = self.distance.ranges
        total = 0.0
        for attribute in attributes:
            st = stats[attribute]
            present = st.present
            contribution = float(present * (n - present))
            if present:
                if st.non_numeric == 0:
                    spread = ranges.spread(attribute)
                    if spread > 0:
                        contribution += pair_sum_numeric(
                            [float(v) / spread for v in st.numeric]
                        ) * 1.0
                    else:
                        contribution += pair_sum_categorical_counts(present, st.counts)
                else:
                    contribution += pair_sum_categorical_counts(present, st.counts)
            total += contribution
        return total / len(attributes)


class CoverageMeasure:
    """Computes ``f(q, P)`` and feasibility for one group system.

    The aggregate error and its upper bound are delegated to the group
    container, so one measure serves the paper's disjoint L1 setting
    (:class:`~repro.groups.groups.GroupSet` — the error penalizes the
    total absolute deviation, ``f ∈ [0, C]``) and the generalized
    overlapping systems (``"max"`` / ``"weighted"`` aggregates, relaxed
    feasibility thresholds). The result is clamped at 0 either way (an
    answer wildly overshooting every group cannot go negative).

    For the L1 aggregate every quantity stays a pure integer until the
    final float cast, so delegation preserves bitwise equality with the
    pre-generalization arithmetic.
    """

    def __init__(self, groups: GroupSystem) -> None:
        self.groups = groups

    @property
    def upper_bound(self):
        """The maximum possible coverage quality (``C = Σ c_i`` for L1)."""
        return self.groups.quality_bound

    def of(self, matches: Iterable[int]) -> float:
        """``f`` for an answer set."""
        error = self.groups.coverage_error(matches)
        return float(max(0, self.groups.quality_bound - error))

    def of_overlaps(self, overlaps: Mapping[str, int]) -> float:
        """``f`` from maintained per-group overlap counters.

        The aggregate recomputes from the integer counters in the
        from-scratch summation order (all-integer for L1/max), so the
        value is exactly :meth:`of` of any answer set with these
        overlaps — the delta path's coverage reduction.
        """
        error = self.groups.error_of_overlaps(overlaps)
        return float(max(0, self.groups.quality_bound - error))

    def is_feasible(self, matches: Iterable[int]) -> bool:
        """Feasibility: every group covered with ≥ ``c_i − relax_i`` nodes."""
        return self.groups.is_feasible(matches)

    def of_mask(self, enumeration, mask: int) -> Tuple[float, bool]:
        """``(f, feasible)`` of an answer mask over a label enumeration,
        from one popcount per group (:meth:`GroupSystem.mask_overlaps
        <repro.groups.system.GroupSystem.mask_overlaps>`)."""
        overlaps = self.groups.mask_overlaps(enumeration, mask)
        return self.of_overlaps(overlaps), self.feasible_overlaps(overlaps)

    def feasible_overlaps(self, overlaps: Mapping[str, int]) -> bool:
        """:meth:`is_feasible` from maintained per-group overlap counters."""
        return self.groups.feasible_overlaps(overlaps)

    def overlaps(self, matches: Iterable[int]) -> Dict[str, int]:
        """Per-group overlap counts (for reports and the case study)."""
        return self.groups.overlaps(matches)


def max_min_diversity(
    graph: AttributedGraph,
    label: str,
    matches: Iterable[int],
    distance: Optional[Callable[[int, int], float]] = None,
) -> float:
    """Max-min diversity: the minimum pairwise distance of an answer set.

    The diversification literature's other classic objective (the paper's
    related work [34]). NOTE: unlike max-sum, max-min is *not* monotone
    under answer growth, so it cannot drive the lattice algorithms' pruning
    — use it as a post-hoc analysis score (e.g. comparing returned
    instances), not as the generation objective.
    """
    nodes = sorted(set(matches))
    if len(nodes) < 2:
        return 0.0
    kernel = distance or GowerTupleDistance(graph, label)
    best = float("inf")
    for i, v in enumerate(nodes):
        for w in nodes[i + 1 :]:
            value = kernel(v, w)
            if value < best:
                best = value
                if best == 0.0:
                    return 0.0
    return best
