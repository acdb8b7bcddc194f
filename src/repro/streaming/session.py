"""Live-graph streaming: incremental archive maintenance over update streams.

:class:`StreamingSession` pins one :class:`~repro.service.context.GraphContext`
and consumes an ordered stream of :class:`~repro.matching.delta.GraphDelta`
updates interleaved with generation/offer requests, keeping an ε-Pareto
archive live across every update. The invariant it maintains — and the one
the differential suite checks after *every* delta — is

    archive == the archive a cold rebuild would produce by evaluating the
    session's ledger of instances, in order, against the materialized
    ``G ⊕ Δ₁ ⊕ … ⊕ Δₜ``, offering the feasible ones.

Per update, the session does strictly local work instead of a rebuild:

1. **Graph + index repair** — the context's in-place path
   (:meth:`~repro.service.context.GraphContext.apply_delta_in_place`)
   mutates the pinned graph, whose hooks drop exactly the adjacency rows
   and attribute tables the delta staled and repair the touched literal
   masks bit by bit.
2. **Delta-seeded re-verification** — only ledger entries whose answers
   intersect the two-sided d-hop influence ball of the touched nodes are
   re-matched, and only over the ball (:mod:`repro.streaming.reverify`).
3. **Score repair** — tiered: edge-only deltas keep every cached score
   (scores are pure functions of the answer node set); attribute deltas
   that cannot move a normalizing spread invalidate only the entries
   touching updated nodes (through
   :meth:`~repro.scoring.engine.ScoreEngine.invalidate_nodes`); a spread
   change rebuilds the measures outright.
4. **Archive repair** — the archive is replayed from the repaired ledger
   (sequential ``offer`` is exactly how a cold build would construct it).

Fault tolerance: an injected fault or a tripped per-update budget aborts
the incremental path and falls back to a cold re-evaluation of the ledger
on the already-repaired graph — correctness never depends on the
incremental machinery finishing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple, Union

from repro.core.evaluator import EvaluatedInstance, InstanceEvaluator
from repro.core.relevance import ConstantRelevance
from repro.core.update import EpsilonParetoArchive
from repro.errors import ConfigurationError
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.ball import Ball, BallDepths, ball_depths
from repro.groups.system import (
    EMPTY_MEMBERSHIP_DIFF,
    GroupSystem,
    MembershipDiff,
)
from repro.matching.delta import DeltaReceipt, GraphDelta
from repro.obs.registry import MetricsRegistry
from repro.query.instance import QueryInstance
from repro.runtime.budget import (
    Budget,
    ExecutionGuard,
    ExecutionInterrupt,
    NULL_GUARD,
)
from repro.runtime.faults import FaultInjectionError, FaultInjector
from repro.service.context import GraphContext
from repro.streaming.events import GenerateEvent, OfferEvent, UpdateEvent
from repro.streaming.reverify import instance_diameter, reverify_matches
from repro.workload.stream import random_instance_stream

#: Counters the session pre-registers so snapshots and regression
#: baselines always carry the full set, even at zero.
_COUNTERS = (
    "streaming.deltas_applied",
    "streaming.edges_inserted",
    "streaming.edges_deleted",
    "streaming.attrs_set",
    "streaming.instances_rechecked",
    "streaming.instances_skipped",
    "streaming.instances_changed",
    "streaming.recheck_pool_nodes",
    "streaming.rescored",
    "streaming.scores_kept",
    "streaming.full_rescores",
    "streaming.budget_fallbacks",
    "streaming.fault_recoveries",
    "streaming.offers",
    "streaming.duplicate_offers",
    "streaming.generated",
)


@dataclass
class _LedgerEntry:
    """One maintained instance: its current evaluation + locality radius."""

    evaluated: EvaluatedInstance
    diameter: int


@dataclass(frozen=True)
class UpdateReport:
    """What one :meth:`StreamingSession.update` actually did.

    Attributes:
        receipt: The in-place application receipt (None for empty deltas).
        rechecked: Ledger entries whose ball pool forced a matcher run.
        skipped: Entries repaired without any matcher work.
        changed: Entries whose answer set changed.
        rescored: Entries whose (δ, f) was recomputed.
        scores_kept: Entries whose cached (δ, f) provably survived.
        full_rescore: Whether a spread change forced a measure rebuild.
        recovered: ``None``, or ``"fault"`` / ``"budget"`` when the
            incremental path aborted and the cold fallback repaired state.
        archive_size: Archive size after the update.
        seconds: Wall-clock cost of the update.
        membership_moves: Nodes whose group membership the delta moved
            (rule-built systems only; 0 for static member sets).
    """

    receipt: Optional[DeltaReceipt]
    rechecked: int = 0
    skipped: int = 0
    changed: int = 0
    rescored: int = 0
    scores_kept: int = 0
    full_rescore: bool = False
    recovered: Optional[str] = None
    archive_size: int = 0
    seconds: float = 0.0
    membership_moves: int = 0

    @property
    def is_empty(self) -> bool:
        """True when the delta was a no-op and nothing was touched."""
        return self.receipt is None


class StreamingSession:
    """Incremental archive maintenance over one live graph.

    Args:
        context: The serving context pinning the live graph — or a bare
            :class:`~repro.graph.attributed_graph.AttributedGraph`, which
            gets a private context.
        template: Query template of the maintained workload.
        groups: Protected groups with coverage constraints. Rule-built
            :class:`~repro.groups.system.GroupSystem`\\ s (from
            ``system_from_rules``) additionally get their membership
            repaired in place on every attribute delta — touched nodes
            are re-evaluated against the rules and the resulting
            :class:`~repro.groups.system.MembershipDiff` drives surgical
            score patching (``streaming.membership_moves``).
        faults: Optional :class:`~repro.runtime.faults.FaultInjector`;
            probed per (update index, ledger index) during repair, so
            chaos tests can kill an update mid-flight and watch the cold
            fallback restore the invariant.
        membership_patching: Route attribute deltas through the scoring
            engine's in-place patch tier
            (:meth:`~repro.scoring.engine.ScoreEngine.patch_nodes`)
            instead of invalidate-and-rescore. On by default; only
            engages when delta scoring is enabled. ``False`` forces the
            legacy invalidation fallback (the benchmark's comparison
            arm).
        **options: Forwarded to
            :class:`~repro.core.config.GenerationConfig` (``epsilon``,
            ``max_domain_values``, ``use_delta_scoring``, …).

    Raises:
        ConfigurationError: For a custom relevance scorer — relevance is
            sampled once per node and a structure-dependent scorer (e.g.
            PageRank-flavored) would silently go stale under edge deltas.
            Only the structure-independent constant default is supported.

    Example:
        >>> session = StreamingSession(graph, template, groups)  # doctest: +SKIP
        >>> session.generate(count=32, seed=7)                   # doctest: +SKIP
        >>> report = session.update(GraphDelta(insert_edges=((0, 1, "e"),)))
        ...                                                      # doctest: +SKIP
        >>> session.archive.instances()  # live ε-Pareto set      # doctest: +SKIP
    """

    def __init__(
        self,
        context: Union[GraphContext, AttributedGraph],
        template,
        groups,
        faults: Optional[FaultInjector] = None,
        membership_patching: bool = True,
        **options,
    ) -> None:
        if isinstance(context, AttributedGraph):
            context = GraphContext(context)
        self.context = context
        self.metrics: MetricsRegistry = context.metrics
        self.config = context.configure(template, groups, **options)
        if self.config.relevance is not None and not isinstance(
            self.config.relevance, ConstantRelevance
        ):
            raise ConfigurationError(
                "StreamingSession requires a structure-independent relevance "
                "scorer (the constant default); custom scorers go stale "
                "under edge deltas"
            )
        self.faults = faults
        self.membership_patching = membership_patching
        self.evaluator = InstanceEvaluator(self.config, metrics=self.metrics)
        self.archive = EpsilonParetoArchive(self.config.epsilon)
        self.ledger: List[_LedgerEntry] = []
        self._by_key: Dict[tuple, _LedgerEntry] = {}
        self._updates = 0
        for name in _COUNTERS:
            self.metrics.counter(name)
        # Membership-churn counters exist only for rule-built systems, so
        # legacy (static member set) streaming baselines stay free of them.
        if getattr(self.config.groups, "has_rules", False):
            self.metrics.counter("streaming.membership_moves")
            self.metrics.counter("groups.membership_repairs")
        # Per-attribute carrier refcounts over output-label nodes: the
        # kernel-universe drift check reads these instead of rescanning
        # the graph (one O(|V|) scan here, O(|Δ|) maintenance per delta).
        self._carrier_counts = self._scan_carrier_counts()

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #

    @property
    def graph(self) -> AttributedGraph:
        """The live graph (same object across every in-place update)."""
        return self.context.graph

    def ledger_instances(self) -> List[QueryInstance]:
        """The maintained instances in offer order (differential replay)."""
        return [entry.evaluated.instance for entry in self.ledger]

    # ------------------------------------------------------------------ #
    # Instance intake
    # ------------------------------------------------------------------ #

    def offer(self, instances: Iterable[QueryInstance]) -> List[EvaluatedInstance]:
        """Evaluate and adopt instances into the ledger + live archive.

        Duplicate instantiations (by key) are dropped — the ledger is a
        set with an order. Returns the evaluations of the newly adopted
        instances.
        """
        adopted: List[EvaluatedInstance] = []
        for instance in instances:
            key = instance.instantiation.key
            if key in self._by_key:
                self.metrics.inc("streaming.duplicate_offers")
                continue
            evaluated = self.evaluator.evaluate(instance)
            entry = _LedgerEntry(evaluated, instance_diameter(instance))
            self.ledger.append(entry)
            self._by_key[key] = entry
            if evaluated.feasible:
                self.archive.offer(evaluated)
            adopted.append(evaluated)
            self.metrics.inc("streaming.offers")
        self._publish_sizes()
        return adopted

    def generate(self, count: int, seed: int = 0) -> List[EvaluatedInstance]:
        """Sample ``count`` candidates against the *current* graph and offer.

        Domains are rebuilt per call — an earlier attribute delta may have
        changed the active domain, and stale constants would instantiate
        literals no current node satisfies.
        """
        domains = self.config.build_domains()
        instances = list(
            random_instance_stream(self.config.template, domains, count, seed)
        )
        self.metrics.inc("streaming.generated", count)
        return self.offer(instances)

    # ------------------------------------------------------------------ #
    # Updates
    # ------------------------------------------------------------------ #

    def update(self, delta: GraphDelta, budget: Optional[Budget] = None) -> UpdateReport:
        """Apply one delta and repair graph, indexes, scores and archive.

        An empty delta returns immediately without touching any counter,
        gauge or histogram — the no-op property the streaming property
        suite pins down.
        """
        if delta.is_empty:
            return UpdateReport(receipt=None)
        tick = time.perf_counter()
        self._updates += 1

        # Phase 0 — pre-mutation reads: the old-side ball walk, the
        # spread snapshot of scoring-relevant touched attributes, and the
        # pre-update value of every attribute the delta rewrites (all must
        # see the graph before it changes; the old values feed both the
        # carrier-refcount maintenance and the surgical score patches).
        max_diameter = max((e.diameter for e in self.ledger), default=0)
        old_depths = ball_depths(self.graph, delta.touched_nodes, max_diameter)
        relevant_attrs, universe_sensitive = self._scoring_relevant_attributes(delta)
        distance = self.evaluator.diversity.distance
        old_spreads = {name: distance.ranges.spread(name) for name in relevant_attrs}
        old_values: Dict[Tuple[int, str], Any] = {}
        final_values: Dict[Tuple[int, str], Any] = {}
        for node, name, value in delta.set_attributes:
            pair = (node, name)
            if pair not in old_values:
                old_values[pair] = self.graph.attributes(node).get(name)
            final_values[pair] = value

        # Phase 1 — mutate the pinned graph (its hooks repair the ball
        # kernel, indexes, literal-mask memo and domains it owns) and walk
        # the new-side ball; then repair the evaluator's engine-local
        # masks and match memos.
        receipt = self.context.apply_delta_in_place(delta)
        new_depths = ball_depths(self.graph, delta.touched_nodes, max_diameter)
        self.evaluator.invalidate_matches()
        self.evaluator.matcher.repair_literal_pools(
            receipt.touched_attributes, touched_nodes=receipt.touched_nodes
        )
        self.metrics.inc("streaming.deltas_applied")
        self.metrics.inc("streaming.edges_inserted", receipt.edges_inserted)
        self.metrics.inc("streaming.edges_deleted", receipt.edges_deleted)
        self.metrics.inc("streaming.attrs_set", receipt.attributes_set)
        self._patch_carrier_counts(old_values, final_values)

        # Phase 1b — membership repair. Rule-built group systems re-test
        # only the attribute-touched nodes against their rules and patch
        # member sets + the node→groups inverted index in place; static
        # member sets cannot move under attribute churn (empty diff).
        diff: MembershipDiff = EMPTY_MEMBERSHIP_DIFF
        container = self.config.groups
        if isinstance(container, GroupSystem) and container.has_rules:
            diff = container.repair_membership(
                receipt, graph=self.graph, metrics=self.metrics
            )
            if diff.moves:
                self.metrics.inc("streaming.membership_moves", len(diff.moves))

        # Phase 2 — score-repair tier. Edge-only deltas keep every cached
        # score (pure functions of the node set). Attribute deltas that
        # cannot move a normalizing spread patch (or, fallback, drop) only
        # state touching the updated/moved nodes; a spread change, kernel
        # universe drift or a re-clamped coverage target rebuilds the
        # measures outright.
        full_rescore = bool(diff.coverage_changes)
        scoped_rescore = False
        if universe_sensitive and self._kernel_universe_drifted():
            full_rescore = True
        elif relevant_attrs:
            distance.ranges.drop(relevant_attrs)
            full_rescore = full_rescore or any(
                distance.ranges.spread(name) != old_spreads[name]
                for name in relevant_attrs
            )
            scoped_rescore = not full_rescore
        score_touched: FrozenSet[int] = frozenset()
        if not full_rescore:
            if scoped_rescore:
                score_touched |= receipt.touched_nodes
            if diff.moves:
                score_touched |= diff.nodes
        if full_rescore:
            self.evaluator.rebuild_measures()
            self.metrics.inc("streaming.full_rescores")
        elif score_touched:
            if self.membership_patching and self.evaluator.scoring is not None:
                changes = (
                    self._kernel_changes(old_values, final_values)
                    if scoped_rescore
                    else ()
                )
                self.evaluator.patch_scoring(
                    changes,
                    diff if diff.moves else None,
                    distance_nodes=(
                        receipt.touched_nodes if scoped_rescore else ()
                    ),
                )
            else:
                self.evaluator.repair_scoring(score_touched)

        # Phase 3 — delta-seeded re-verification + archive replay, guarded
        # by the optional per-update budget; any injected fault or budget
        # trip falls back to the cold path on the already-repaired graph.
        report: UpdateReport
        try:
            report = self._repair_ledger(
                receipt, old_depths, new_depths, full_rescore, score_touched, budget
            )
        except FaultInjectionError:
            self.metrics.inc("streaming.fault_recoveries")
            report = self._recover(receipt, reason="fault")
        except ExecutionInterrupt:
            self.metrics.inc("streaming.budget_fallbacks")
            report = self._recover(receipt, reason="budget")

        seconds = time.perf_counter() - tick
        self.metrics.observe("streaming.update_seconds", seconds)
        self._publish_sizes()
        return replace(
            report,
            archive_size=len(self.archive),
            seconds=seconds,
            membership_moves=len(diff.moves),
        )

    def consume(
        self, events: Iterable[Union[UpdateEvent, OfferEvent, GenerateEvent]]
    ) -> List[Union[UpdateReport, List[EvaluatedInstance]]]:
        """Dispatch an ordered event stream; returns per-event results."""
        results: List[Union[UpdateReport, List[EvaluatedInstance]]] = []
        for event in events:
            if isinstance(event, UpdateEvent):
                results.append(self.update(event.delta, budget=event.budget))
            elif isinstance(event, OfferEvent):
                results.append(self.offer(event.instances))
            elif isinstance(event, GenerateEvent):
                results.append(self.generate(event.count, event.seed))
            else:
                raise ConfigurationError(f"unknown stream event {event!r}")
        return results

    # ------------------------------------------------------------------ #
    # Repair machinery
    # ------------------------------------------------------------------ #

    def _scoring_relevant_attributes(
        self, delta: GraphDelta
    ) -> Tuple[Tuple[str, ...], bool]:
        """Touched attribute names that can feed the diversity kernel.

        Only updates on output-label nodes to attributes the distance
        kernel reads can move a δ value; everything else (other labels,
        literal-only attributes) affects scores solely through answer-set
        changes, which the re-verification path already repairs.

        The second element flags *universe sensitivity*: when the kernel's
        attribute tuple is auto-derived (no explicit ``config.distance``),
        an update can change which attributes the tuple even contains —
        introducing a name no output-label node carried, or removing a
        name's last carrier — which shifts every pair distance's divisor.
        Spread comparison cannot see that, so the caller must re-derive
        the universe post-mutation (:meth:`_kernel_universe_drifted`).
        """
        diversity = self.evaluator.diversity
        kernel_attrs = set(diversity.distance.attributes)
        auto_derived = self.config.distance is None
        graph = self.graph
        names: List[str] = []
        universe_sensitive = False
        for node, name, value in delta.set_attributes:
            if graph.label(node) != diversity.output_label:
                continue
            if name in kernel_attrs:
                if name not in names:
                    names.append(name)
                if auto_derived and value is None:
                    universe_sensitive = True
            elif auto_derived:
                universe_sensitive = True
        return tuple(names), universe_sensitive

    def _kernel_universe_drifted(self) -> bool:
        """Whether a fresh kernel would select a different attribute tuple.

        Called post-mutation; compares the attribute universe over
        output-label nodes with the pinned kernel's tuple — the selection
        :class:`~repro.core.distance._TupleDistanceBase` makes at
        construction when no explicit attribute list is configured. The
        universe is read off the maintained carrier refcounts
        (:meth:`_patch_carrier_counts`), so the check is O(universe)
        instead of a full-graph rescan; refcount ≡ fresh-scan equivalence
        is pinned by the streaming property suite.
        """
        fresh = tuple(sorted(self._carrier_counts))
        return fresh != self.evaluator.diversity.distance.attributes

    def _scan_carrier_counts(self) -> Dict[str, int]:
        """Fresh per-attribute carrier refcounts over output-label nodes.

        ``counts[name]`` = how many output-label nodes currently carry
        attribute ``name``. One full scan at session start; afterwards
        :meth:`_patch_carrier_counts` maintains the map in O(|Δ|) per
        delta. Names at refcount zero are removed, so the key set *is*
        the attribute universe a fresh kernel would derive.
        """
        graph = self.graph
        label = self.evaluator.diversity.output_label
        counts: Dict[str, int] = {}
        for node_id in graph.nodes_with_label(label):
            for name in graph.attributes(node_id):
                counts[name] = counts.get(name, 0) + 1
        return counts

    def _patch_carrier_counts(
        self,
        old_values: Dict[Tuple[int, str], Any],
        final_values: Dict[Tuple[int, str], Any],
    ) -> None:
        """Maintain the carrier refcounts from one delta's coalesced writes.

        Only presence transitions move a refcount: ``None → value`` adds
        a carrier, ``value → None`` removes one; value-to-value rewrites
        leave the universe untouched. Called post-mutation (labels are
        immutable, so reading them after the apply is safe).
        """
        graph = self.graph
        label = self.evaluator.diversity.output_label
        counts = self._carrier_counts
        for (node, name), new in final_values.items():
            if graph.label(node) != label:
                continue
            old = old_values[(node, name)]
            if old is None and new is not None:
                counts[name] = counts.get(name, 0) + 1
            elif old is not None and new is None:
                remaining = counts.get(name, 0) - 1
                if remaining > 0:
                    counts[name] = remaining
                else:
                    counts.pop(name, None)

    def _kernel_changes(
        self,
        old_values: Dict[Tuple[int, str], Any],
        final_values: Dict[Tuple[int, str], Any],
    ) -> List[Tuple[int, str, Any, Any]]:
        """The delta's coalesced kernel-relevant attribute rewrites.

        Exactly the (node, name, old, new) tuples that can move a
        maintained :class:`~repro.scoring.state.AttributeStats` multiset:
        kernel attributes on output-label nodes (answers contain only
        output-label nodes, and only kernel attributes feed δ).
        """
        diversity = self.evaluator.diversity
        kernel = set(diversity.distance.attributes)
        label = diversity.output_label
        graph = self.graph
        return [
            (node, name, old_values[(node, name)], new)
            for (node, name), new in final_values.items()
            if name in kernel and graph.label(node) == label
        ]

    def _guard_for(self, budget: Optional[Budget]) -> ExecutionGuard:
        """A per-update guard over the session's *running* counters.

        Instance/backtrack limits compare against absolute registry
        values, so a per-update allowance is expressed by offsetting the
        caps with the counters' current readings; the deadline window
        starts at guard construction, which is per-update by nature.
        """
        if budget is None:
            return NULL_GUARD
        offset = replace(
            budget,
            max_instances=(
                None
                if budget.max_instances is None
                else budget.max_instances
                + self.metrics.value("evaluator.cache_misses")
            ),
            max_backtracks=(
                None
                if budget.max_backtracks is None
                else budget.max_backtracks
                + self.metrics.value("matcher.backtrack_calls")
            ),
        )
        return ExecutionGuard(offset, metrics=self.metrics)

    def _repair_ledger(
        self,
        receipt: DeltaReceipt,
        old_depths: BallDepths,
        new_depths: BallDepths,
        full_rescore: bool,
        score_touched: FrozenSet[int],
        budget: Optional[Budget],
    ) -> UpdateReport:
        """Incrementally repair every ledger entry, then replay the archive.

        ``score_touched`` seeds the scoped rescore: entries whose answer
        intersects it get fresh (δ, f) — a cache hit against patched
        engine state on the patch path, a rebuild on the fallback path.
        """
        guard = self._guard_for(budget)
        balls: Dict[int, Ball] = {}
        # The graph is fixed for this loop, so a witness ball depends only
        # on its (output label, pool, diameter) key: walk each one once.
        witnesses: Dict[Tuple[str, int, int], Ball] = {}
        rechecked = skipped = changed = rescored = kept = 0
        matcher = self.evaluator.matcher
        graph = self.graph
        # Answers are masks over the output label's enumeration, so the
        # change and touched tests below are integer operations.
        enumeration = graph.enumeration(self.evaluator.diversity.output_label)
        touched = enumeration.mask_of(score_touched)
        for index, entry in enumerate(self.ledger):
            if self.faults is not None:
                self.faults.maybe_fire(self._updates - 1, 0, index)
            guard.checkpoint()
            ball = balls.get(entry.diameter)
            if ball is None:
                ball = balls[entry.diameter] = old_depths.ball(
                    entry.diameter
                ) | new_depths.ball(entry.diameter)
            old = entry.evaluated
            mask, pool_size = reverify_matches(
                matcher, graph, old.instance, old.mask, ball, entry.diameter, witnesses
            )
            if pool_size:
                rechecked += 1
                self.metrics.inc("streaming.recheck_pool_nodes", pool_size)
            else:
                skipped += 1
            match_changed = mask != old.mask
            if match_changed:
                changed += 1
            if match_changed or full_rescore or mask & touched:
                # The delta-scoring engine derives the new answer's score
                # from the old one's when the answer drifted.
                parent = old.matches if match_changed and self.evaluator.scoring else None
                entry.evaluated = self.evaluator.score(old.instance, mask, enumeration, parent)
                rescored += 1
            else:
                kept += 1
        self.metrics.inc("streaming.instances_rechecked", rechecked)
        self.metrics.inc("streaming.instances_skipped", skipped)
        self.metrics.inc("streaming.instances_changed", changed)
        self.metrics.inc("streaming.rescored", rescored)
        self.metrics.inc("streaming.scores_kept", kept)
        self._replay_archive()
        return UpdateReport(
            receipt=receipt,
            rechecked=rechecked,
            skipped=skipped,
            changed=changed,
            rescored=rescored,
            scores_kept=kept,
            full_rescore=full_rescore,
        )

    def _replay_archive(self) -> None:
        """Rebuild the archive by replaying the repaired ledger in order.

        Sequential ``offer`` of the feasible entries is *definitionally*
        how a cold build constructs its archive, so box-level equality
        with a from-scratch rebuild reduces to per-entry value equality —
        which the repair path guarantees bitwise.
        """
        archive = EpsilonParetoArchive(self.config.epsilon)
        for entry in self.ledger:
            if entry.evaluated.feasible:
                archive.offer(entry.evaluated)
        self.archive = archive

    def _recover(self, receipt: DeltaReceipt, reason: str) -> UpdateReport:
        """Cold fallback: re-evaluate the whole ledger on the repaired graph.

        The graph mutation and index repair completed before the repair
        loop started (phases are ordered), so a fresh evaluator sees a
        fully consistent substrate; re-evaluating every ledger instance
        from scratch restores the maintained invariant regardless of how
        far the incremental path got.
        """
        self.evaluator = InstanceEvaluator(self.config, metrics=self.metrics)
        for entry in self.ledger:
            entry.evaluated = self.evaluator.evaluate(entry.evaluated.instance)
        self._replay_archive()
        return UpdateReport(
            receipt=receipt,
            rescored=len(self.ledger),
            recovered=reason,
        )

    def _publish_sizes(self) -> None:
        self.metrics.set("streaming.ledger_size", len(self.ledger))
        self.metrics.set("streaming.archive_size", len(self.archive))
