"""Instance evaluation: matching + measures in one call.

Every generation algorithm funnels instance verification through
:class:`InstanceEvaluator`, which runs the (incremental, memoized) matcher
and attaches the bi-objective coordinates. The evaluator also carries the
work counters the efficiency experiments report (verified instances,
incremental verifications, wall work via backtrack calls).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import FrozenSet, Optional, Tuple

from repro.core.config import GenerationConfig
from repro.core.measures import CoverageMeasure, DiversityMeasure
from repro.graph.attributed_graph import LabelEnumeration
from repro.matching.incremental import IncrementalVerifier
from repro.matching.matcher import SubgraphMatcher
from repro.obs.registry import MetricsRegistry
from repro.query.instance import QueryInstance
from repro.runtime.budget import NULL_GUARD, ExecutionGuard
from repro.scoring.engine import ScoreEngine


class EvaluatedInstance:
    """A verified query instance with its bi-objective coordinates.

    Attributes:
        instance: The underlying query instance.
        delta: Diversity ``δ(q)``.
        coverage: Coverage quality ``f(q)``.
        feasible: Whether every group meets its constraint.
        mask: ``q(G)`` as a mask over ``enumeration`` — the output
            label's :class:`~repro.graph.attributed_graph.LabelEnumeration`
            — or None for an instance built from ids only.
        enumeration: The enumeration ``mask`` is over (None with it).
    """

    __slots__ = ("instance", "delta", "coverage", "feasible", "mask", "enumeration", "_matches")

    def __init__(
        self,
        instance: QueryInstance,
        matches: Optional[FrozenSet[int]] = None,
        *,
        delta: float,
        coverage: float,
        feasible: bool,
        mask: Optional[int] = None,
        enumeration: Optional[LabelEnumeration] = None,
    ) -> None:
        self.instance, self.delta, self.coverage, self.feasible = instance, delta, coverage, feasible
        self.mask, self.enumeration, self._matches = mask, enumeration, matches

    @property
    def matches(self) -> FrozenSet[int]:
        """``q(G)`` — the exact output-node match set (built from the mask
        on first read)."""
        if self._matches is None:
            self._matches = self.enumeration.to_ids(self.mask)
        return self._matches

    @property
    def cardinality(self) -> int:
        """``|q(G)|``."""
        return len(self._matches) if self.mask is None else self.mask.bit_count()

    @property
    def objectives(self) -> tuple:
        """The (δ, f) pair."""
        return (self.delta, self.coverage)

    def _key(self) -> tuple:  # the value identity, as a dataclass compares
        return (self.instance, self.matches, self.delta, self.coverage, self.feasible)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EvaluatedInstance) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EvaluatedInstance(|q(G)|={self.cardinality}, δ={self.delta:.3f}, "
            f"f={self.coverage:.1f}, feasible={self.feasible})"
        )


class InstanceEvaluator:
    """Verifies instances and computes their quality coordinates.

    Results are memoized by instantiation, so re-evaluating an instance
    reached through a different lattice path is free, and scores by answer
    mask, so distinct instances with one answer pay for δ and f once. Both
    memos are LRUs under the same bound as the verifier's
    (``GenerationConfig.verifier_max_entries``; None keeps them unbounded).

    Args:
        config: The generation configuration.
        metrics: Registry shared with the matcher and verifier. When
            omitted, ``config.metrics`` is used if set, else a private
            registry — so standalone evaluators stay self-contained and
            generator-owned evaluators share the run's registry.
        guard: The run's :class:`~repro.runtime.budget.ExecutionGuard`,
            probed at every evaluation and shared with the matcher.
            Standalone evaluators default to the inert guard (no budget
            enforcement); generator-owned evaluators receive the
            algorithm's guard.
    """

    def __init__(
        self,
        config: GenerationConfig,
        metrics: Optional[MetricsRegistry] = None,
        guard: Optional[ExecutionGuard] = None,
    ) -> None:
        self.config = config
        self.metrics = metrics or config.metrics or MetricsRegistry()
        self.guard = guard if guard is not None else NULL_GUARD
        self.matcher = SubgraphMatcher(
            config.graph,
            config.build_indexes(),
            injective=config.injective,
            metrics=self.metrics,
            guard=self.guard,
            literal_pool_max_entries=config.literal_pool_max_entries,
        )
        self.verifier = IncrementalVerifier(
            self.matcher,
            use_incremental=config.use_incremental,
            metrics=self.metrics,
            max_entries=config.verifier_max_entries,
        )
        self.diversity: DiversityMeasure = config.build_diversity()
        self.coverage: CoverageMeasure = config.build_coverage()
        # The delta-scoring engine exists only when enabled: its scoring.*
        # counters then appear in snapshots, and regression baselines taken
        # with the knob off stay byte-identical.
        self.scoring: Optional[ScoreEngine] = None
        if config.use_delta_scoring:
            self.scoring = ScoreEngine(
                config.graph,
                self.diversity,
                self.coverage,
                metrics=self.metrics,
                max_delta_fraction=config.scoring_delta_max_fraction,
                max_entries=config.score_cache_max_entries,
            )
        self._evaluated: "OrderedDict[tuple, EvaluatedInstance]" = OrderedDict()
        # (δ, f, feasible) by answer mask over ``_scored_over``, the one
        # output-label enumeration the masks index.
        self._scored: "OrderedDict[int, Tuple[float, float, bool]]" = OrderedDict()
        self._scored_over: Optional[LabelEnumeration] = None
        self._max_entries = config.verifier_max_entries
        # Pre-register so snapshots always carry the pair, even at zero.
        self.metrics.counter("evaluator.eval_calls")
        self.metrics.counter("evaluator.memo_hits")

    # ------------------------------------------------------------------ #

    def evaluate(
        self, instance: QueryInstance, parent: Optional[QueryInstance] = None
    ) -> EvaluatedInstance:
        """Verify ``instance`` (seeding from ``parent`` if available).

        The paper's incVerify: if the parent is a verified lattice ancestor,
        its per-node candidate sets bound the child's (Lemma 2), cutting the
        verification cost.
        """
        # Budget probe before any work (and before the memo store below,
        # so an interrupted evaluation never caches a partial result).
        self.guard.checkpoint()
        self.metrics.inc("evaluator.eval_calls")
        key = instance.instantiation.key
        cached = self._evaluated.get(key)
        if cached is not None:
            self._evaluated.move_to_end(key)
            self.metrics.inc("evaluator.memo_hits")
            return cached
        result = self.verifier.verify(instance, parent)
        enumeration = self.config.graph.enumeration(result.labels[result.output])
        parent_matches = self._parent_matches(parent) if self.scoring else None
        evaluated = self.score(instance, result.mask, enumeration, parent_matches)
        self._evaluated[key] = evaluated
        if self._max_entries is not None and len(self._evaluated) > self._max_entries:
            self._evaluated.popitem(last=False)
        return evaluated

    def score(
        self,
        instance: QueryInstance,
        mask: int,
        enumeration: LabelEnumeration,
        parent_matches: Optional[FrozenSet[int]] = None,
    ) -> EvaluatedInstance:
        """(δ, f, feasible) of the answer ``mask`` over ``enumeration``:
        one popcount per group, δ at the mask's bit positions, memoized by
        mask. The delta-scoring engine takes the id set, derived from
        ``parent_matches`` when it can."""
        if self.scoring is not None:
            matches = enumeration.to_ids(mask)
            scored = self.scoring.score(matches, parent_matches)
            return EvaluatedInstance(
                instance, matches, delta=scored.delta, coverage=scored.coverage,
                feasible=scored.feasible, mask=mask, enumeration=enumeration,
            )
        if enumeration is not self._scored_over:
            self._scored.clear()
            self._scored_over = enumeration
        scored = self._scored.get(mask)
        if scored is None:
            coverage, feasible = self.coverage.of_mask(enumeration, mask)
            scored = self._scored[mask] = (self.diversity.of(mask), coverage, feasible)
            if self._max_entries is not None and len(self._scored) > self._max_entries:
                self._scored.popitem(last=False)
        else:
            self._scored.move_to_end(mask)
        delta, coverage, feasible = scored
        return EvaluatedInstance(
            instance, delta=delta, coverage=coverage,
            feasible=feasible, mask=mask, enumeration=enumeration,
        )

    def _parent_matches(
        self, parent: Optional[QueryInstance]
    ) -> Optional[FrozenSet[int]]:
        """The parent's answer set, if it was evaluated or verified here.

        Checks this evaluator's memo first, then the verifier's match
        cache (``peek`` — no LRU touch), so the delta path engages exactly
        when the parent's state is plausibly still warm.
        """
        if parent is None:
            return None
        evaluated = self._evaluated.get(parent.instantiation.key)
        if evaluated is not None:
            return evaluated.matches
        peeked = self.verifier.peek(parent)
        if peeked is not None:
            return peeked.matches
        return None

    # -- Work counters ---------------------------------------------------- #

    @property
    def verified_count(self) -> int:
        """Distinct instances actually matched (the paper's work metric)."""
        return self.verifier.verified_count

    @property
    def incremental_count(self) -> int:
        """How many verifications were parent-seeded."""
        return self.verifier.incremental_count

    @property
    def cache_hits(self) -> int:
        """Verifier memo hits (re-evaluations that skipped matching)."""
        return self.verifier.cache_hits

    def reset_counters(self) -> None:
        """Clear memoization and counters (between benchmark repetitions)."""
        self.verifier.clear()
        self._evaluated.clear()
        self._scored.clear()
        if self.scoring is not None:
            self.scoring.clear()

    # -- Streaming repair hooks -------------------------------------------- #

    def invalidate_matches(self) -> None:
        """Drop match-derived memos after an in-place graph delta.

        Verifier results and evaluated instances are keyed on the old
        graph's answers, and the score memo goes with them; measures and
        the scoring engine are *not* touched — their validity after a delta
        is attribute-dependent and decided separately by the streaming
        session (see
        :meth:`repair_scoring` / :meth:`rebuild_measures`). Counters keep
        accumulating (contrast :meth:`reset_counters`).
        """
        self.verifier.invalidate()
        self._evaluated.clear()
        self._scored.clear()

    def repair_scoring(self, nodes) -> int:
        """Scoped score repair: drop state involving ``nodes``.

        For an attribute update that cannot change any normalizing spread:
        distance pair-caches and scoring-engine entries touching the
        updated nodes are dropped, everything disjoint stays warm. Returns
        the number of dropped scoring-engine entries. The score memo is
        cleared.
        """
        self._scored.clear()
        distance = getattr(self.diversity, "distance", None)
        if distance is not None and hasattr(distance, "invalidate_nodes"):
            distance.invalidate_nodes(nodes)
        if self.scoring is not None:
            return self.scoring.invalidate_nodes(nodes)
        return 0

    def patch_scoring(self, changes, diff, distance_nodes=()) -> tuple:
        """Surgical score repair: patch cached state instead of dropping it.

        The streaming session's preferred scoped tier (see
        :meth:`repair_scoring` for the invalidation fallback): distance
        pair-caches touching ``distance_nodes`` are dropped — pairwise
        kernels read live graph values, so they cannot be patched — while
        the scoring engine's maintained states and scores are repaired in
        place from the coalesced attribute ``changes`` and the group
        :class:`~repro.groups.system.MembershipDiff`. Returns the
        engine's ``(patched, invalidated)`` entry counts. The score memo
        is cleared.
        """
        self._scored.clear()
        if distance_nodes:
            distance = getattr(self.diversity, "distance", None)
            if distance is not None and hasattr(distance, "invalidate_nodes"):
                distance.invalidate_nodes(distance_nodes)
        if self.scoring is not None:
            return self.scoring.patch_nodes(changes, diff)
        return (0, 0)

    def rebuild_measures(self) -> None:
        """Rebuild measures and scoring against the (mutated) graph.

        The heavy tier of streaming score repair, used when an attribute
        update may have changed a normalizing spread — every cached pair
        distance, attribute range and maintained score state is then
        suspect, so all of them are rebuilt from the config.
        """
        self.diversity = self.config.build_diversity()
        self.coverage = self.config.build_coverage()
        if self.scoring is not None:
            self.scoring = ScoreEngine(
                self.config.graph,
                self.diversity,
                self.coverage,
                metrics=self.metrics,
                max_delta_fraction=self.config.scoring_delta_max_fraction,
                max_entries=self.config.score_cache_max_entries,
            )
        self._evaluated.clear()
        self._scored.clear()
