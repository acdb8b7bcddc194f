"""The delta-scoring engine: answer-set scoring with state maintenance.

:class:`ScoreEngine` sits between :class:`~repro.core.evaluator.InstanceEvaluator`
and the quality measures. For every verified instance it produces the
``(δ, f, feasible)`` triple via, in order of preference:

1. **Fingerprint cache** — sibling instances frequently share the exact
   same answer set (different instantiations, identical ``q(G)``); a
   bounded LRU keyed on ``frozenset(matches)`` returns the triple in O(1).
2. **Delta path** — when the caller supplies the parent's answer set and
   its :class:`~repro.scoring.state.ScoreState` is retained, the engine
   diffs the two answers and derives the child's state in O(|Δ|·(k + n)),
   then recomputes the measure reductions from the maintained statistics
   (bitwise-equal to from-scratch; see :mod:`repro.scoring.state`).
   Deltas exceeding ``max_delta_fraction · |parent|`` fall through — past
   that point a rebuild is no slower and keeps constants small.
3. **Full build** — from-scratch state construction (still feeding the
   same reductions), used for roots, cache misses, and oversized deltas.

When a measure is subclassed or configured in a way the maintained
reductions cannot reproduce (a non-Gower kernel, ``mode="exact"``, a
custom coverage class), the engine degrades feature-by-feature to the
measures' own ``of()`` — correctness never depends on the fast path.

Every decision increments a ``scoring.*`` counter on the run's
:class:`~repro.obs.registry.MetricsRegistry`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.distance import _is_number
from repro.core.measures import CoverageMeasure, DiversityMeasure
from repro.graph.attributed_graph import AttributedGraph
from repro.groups.system import MembershipDiff
from repro.obs.registry import MetricsRegistry
from repro.scoring.state import ScoreState

#: One coalesced in-place attribute change: (node, name, old, new).
AttributeChange = Tuple[int, str, Any, Any]


class ScoredAnswer(NamedTuple):
    """The evaluator-facing scoring result for one answer set."""

    delta: float
    coverage: float
    feasible: bool


class ScoreEngine:
    """Delta-maintained, fingerprint-cached quality scoring.

    Args:
        graph: The data graph (attribute lookups during state maintenance).
        diversity: The run's diversity measure.
        coverage: The run's coverage measure.
        metrics: Counter sink; ``scoring.*`` namespace.
        max_delta_fraction: Deltas larger than this fraction of the parent
            answer size fall back to a full state rebuild.
        max_entries: Bound for *each* of the two LRUs (fingerprint → score,
            fingerprint → state). ``None`` disables bounding.
    """

    def __init__(
        self,
        graph: AttributedGraph,
        diversity: DiversityMeasure,
        coverage: CoverageMeasure,
        metrics: Optional[MetricsRegistry] = None,
        max_delta_fraction: float = 0.5,
        max_entries: Optional[int] = 4096,
    ) -> None:
        self.graph = graph
        self.diversity = diversity
        self.coverage = coverage
        self.metrics = metrics or MetricsRegistry()
        self.max_delta_fraction = max_delta_fraction
        self.max_entries = max_entries
        self._scores: "OrderedDict[FrozenSet[int], ScoredAnswer]" = OrderedDict()
        self._states: "OrderedDict[FrozenSet[int], ScoreState]" = OrderedDict()
        # node → cached fingerprints containing it, covering both LRUs.
        # Streaming invalidation and patching walk this instead of the
        # caches themselves, so their cost tracks the touched entries,
        # not the LRU capacity.
        self._by_node: Dict[int, Set[FrozenSet[int]]] = {}
        # Capability detection — exact-class checks, not isinstance: a
        # subclass may override of()/is_feasible with semantics the
        # maintained reductions do not reproduce.
        self._div_delta = type(diversity) is DiversityMeasure
        self._cov_delta = type(coverage) is CoverageMeasure
        self._groups = coverage.groups if self._cov_delta else None
        # Attribute statistics only pay off when the decomposed Gower path
        # can consume them; "exact" mode never reads them.
        if self._div_delta and diversity._gower and diversity.mode != "exact":
            self._attributes: Tuple[str, ...] = diversity.distance.attributes
        else:
            self._attributes = ()

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #

    def score(
        self,
        matches: Iterable[int],
        parent_matches: Optional[Iterable[int]] = None,
    ) -> ScoredAnswer:
        """Score an answer set, reusing the parent's state when profitable.

        ``parent_matches`` is the already-scored parent instance's answer
        set (or None at lattice roots); it keys the retained parent state.
        """
        metrics = self.metrics
        metrics.inc("scoring.score_calls")
        fingerprint = matches if isinstance(matches, frozenset) else frozenset(matches)
        cached = self._scores.get(fingerprint)
        if cached is not None:
            metrics.inc("scoring.cache_hits")
            self._scores.move_to_end(fingerprint)
            return cached
        metrics.inc("scoring.cache_misses")

        state = self._state_for(fingerprint, parent_matches)
        if state is not None:
            delta = self._diversity_of(state)
            coverage, feasible = self._coverage_of(state)
            answer = ScoredAnswer(delta, coverage, feasible)
        else:
            # No maintainable reduction for either measure — plain scoring
            # (the fingerprint cache above still amortizes repeats).
            answer = ScoredAnswer(
                self.diversity.of(fingerprint),
                self.coverage.of(fingerprint),
                self.coverage.is_feasible(fingerprint),
            )

        self._remember(self._scores, fingerprint, answer, "scoring.cache_evictions")
        metrics.set("scoring.cache_size", len(self._scores))
        return answer

    def clear(self) -> None:
        """Drop all cached scores and states (run boundary)."""
        self._scores.clear()
        self._states.clear()
        self._by_node.clear()

    def invalidate_nodes(self, nodes: Iterable[int]) -> int:
        """Drop cached entries whose answer set touches ``nodes``.

        The streaming layer's attribute-repair hook: a node's attribute
        values feed every :class:`~repro.scoring.state.ScoreState` (and
        cached score) of an answer containing it, so after an in-place
        attribute update those entries are stale while every disjoint
        answer's entry stays valid. Edge-only deltas never need this —
        scores are pure functions of the answer *node set*. Driven by the
        node→keys inverted index, so the cost is proportional to the
        entries actually touched, not the LRU capacity. Returns the
        number of dropped entries, also counted under
        ``scoring.invalidated_entries``.
        """
        dropped = 0
        for key in self._keys_touching(nodes):
            dropped += self._drop_entry(key)
        if dropped:
            self.metrics.inc("scoring.invalidated_entries", dropped)
        return dropped

    def patch_nodes(
        self,
        changes: Sequence[AttributeChange],
        diff: Optional[MembershipDiff] = None,
    ) -> Tuple[int, int]:
        """Repair intersecting cached entries in place after a delta.

        The surgical tier between "keep everything" (edge-only deltas)
        and "drop everything touched" (:meth:`invalidate_nodes`):
        ``changes`` are the coalesced in-place attribute rewrites on
        kernel-relevant nodes, ``diff`` the group-membership moves the
        same delta caused. Every cached state whose answer intersects the
        touched nodes is patched — multiset ``remove``+``add`` per
        attribute change, ±1 overlap adjustments per membership move —
        and its cached score recomputed from the patched statistics via
        the exact reduction order a fresh build would replay, so patched
        entries stay bitwise-identical to rebuilt ones.

        Per-entry fallback to invalidation (the entry is dropped and the
        next ``score()`` call rebuilds) when:

        * the score has no retained state to patch (state LRU eviction),
        * a changed value straddles the numeric/non-numeric boundary
          (the decomposed reduction may flip formulas — rebuilt wholesale
          rather than reasoned about), or
        * the touched fraction of the answer exceeds
          ``max_delta_fraction`` (same threshold as the derive path —
          past it a rebuild is no slower).

        Returns ``(patched, invalidated)`` entry counts, published under
        ``scoring.patched_entries`` / ``scoring.invalidated_entries``.
        """
        per_node: Dict[int, list] = {}
        straddlers: Set[int] = set()
        for node, name, old, new in changes:
            per_node.setdefault(node, []).append((name, old, new))
            if (
                old is not None
                and new is not None
                and _is_number(old) != _is_number(new)
            ):
                straddlers.add(node)
        touched: Set[int] = set(per_node)
        if diff is not None:
            touched.update(move.node for move in diff.moves)
        patched = invalidated = 0
        for key in self._keys_touching(touched):
            state = self._states.get(key)
            touched_in = key & touched
            budget = self.max_delta_fraction * max(1, len(key))
            if (
                state is None
                or key & straddlers
                or len(touched_in) > budget
            ):
                invalidated += self._drop_entry(key)
                continue
            for node in touched_in:
                for name, old, new in per_node.get(node, ()):
                    state.patch_attribute(node, name, old, new)
            if diff is not None:
                state.patch_membership(diff)
            if key in self._scores:
                delta = self._diversity_of(state)
                coverage, feasible = self._coverage_of(state)
                self._scores[key] = ScoredAnswer(delta, coverage, feasible)
            patched += 1
        if patched:
            self.metrics.inc("scoring.patched_entries", patched)
        if invalidated:
            self.metrics.inc("scoring.invalidated_entries", invalidated)
        return patched, invalidated

    # ------------------------------------------------------------------ #
    # Node → cached-keys inverted index
    # ------------------------------------------------------------------ #

    def _keys_touching(self, nodes: Iterable[int]) -> Set[FrozenSet[int]]:
        """Cached fingerprints intersecting ``nodes`` (via the index)."""
        keys: Set[FrozenSet[int]] = set()
        for node in nodes:
            bucket = self._by_node.get(node)
            if bucket:
                keys.update(bucket)
        return keys

    def _drop_entry(self, key: FrozenSet[int]) -> int:
        """Remove a fingerprint from both LRUs and the index."""
        dropped = 0
        if self._scores.pop(key, None) is not None:
            dropped += 1
        if self._states.pop(key, None) is not None:
            dropped += 1
        self._index_discard(key)
        return dropped

    def _index_add(self, key: FrozenSet[int]) -> None:
        for node in key:
            self._by_node.setdefault(node, set()).add(key)

    def _index_discard(self, key: FrozenSet[int]) -> None:
        for node in key:
            bucket = self._by_node.get(node)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._by_node[node]

    # ------------------------------------------------------------------ #
    # State management
    # ------------------------------------------------------------------ #

    def _state_for(
        self,
        fingerprint: FrozenSet[int],
        parent_matches: Optional[Iterable[int]],
    ) -> Optional[ScoreState]:
        """Obtain (derive or build) and retain the answer's ScoreState."""
        if not (self._div_delta or self._cov_delta):
            return None
        metrics = self.metrics
        state: Optional[ScoreState] = None
        if parent_matches is not None:
            parent_key = (
                parent_matches
                if isinstance(parent_matches, frozenset)
                else frozenset(parent_matches)
            )
            parent_state = self._states.get(parent_key)
            if parent_state is not None:
                removed = parent_key - fingerprint
                added = fingerprint - parent_key
                budget = self.max_delta_fraction * max(1, len(parent_key))
                if len(removed) + len(added) <= budget:
                    self._states.move_to_end(parent_key)
                    state = parent_state.derive(
                        removed, added, self.graph, self._groups
                    )
                    metrics.inc("scoring.delta_updates")
                    metrics.inc("scoring.delta_nodes", len(removed) + len(added))
                else:
                    metrics.inc("scoring.fallback_large_delta")
        if state is None:
            state = ScoreState.build(
                fingerprint, self.graph, self._attributes, self._groups
            )
            metrics.inc("scoring.full_builds")
        self._remember(self._states, fingerprint, state, "scoring.state_evictions")
        metrics.set("scoring.state_size", len(self._states))
        return state

    def _remember(self, lru: OrderedDict, key, value, eviction_counter: str) -> None:
        if key not in self._scores and key not in self._states:
            self._index_add(key)
        lru[key] = value
        lru.move_to_end(key)
        if self.max_entries is not None:
            while len(lru) > self.max_entries:
                evicted, _ = lru.popitem(last=False)
                if evicted not in self._scores and evicted not in self._states:
                    self._index_discard(evicted)
                self.metrics.inc(eviction_counter)

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #

    def _diversity_of(self, state: ScoreState) -> float:
        if not self._div_delta:
            return self.diversity.of(state.nodes)
        stats = state.attrs if self._attributes else None
        return self.diversity.of_maintained(state.nodes, stats)

    def _coverage_of(self, state: ScoreState) -> Tuple[float, bool]:
        if not self._cov_delta:
            return (
                self.coverage.of(state.nodes),
                self.coverage.is_feasible(state.nodes),
            )
        overlaps = state.overlaps
        return (
            self.coverage.of_overlaps(overlaps),
            self.coverage.feasible_overlaps(overlaps),
        )
