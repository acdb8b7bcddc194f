"""Subgraph matcher: the one entry point to instance verification.

After candidate pruning, the matcher decides for each surviving candidate
``v`` of the output node whether a full matching ``h`` with ``h(u_o) = v``
exists. On acyclic instances arc consistency is already exact so the
backtracking step degenerates to a constant-time confirmation; on cyclic
instances it resolves the residual joins.

The pipeline itself is the mask engine of :mod:`repro.matching.bitset`,
whose arc consistency sweeps or probes each constraint by pool size.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Mapping, Optional, Sequence, Set

from repro.errors import MatchingError
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.indexes import GraphIndexes
from repro.matching.bitset import BitsetEngine, MatchResult
from repro.obs.registry import MetricsRegistry
from repro.query.instance import QueryInstance
from repro.runtime.budget import NULL_GUARD, ExecutionGuard

__all__ = ["MatchResult", "SubgraphMatcher"]


class SubgraphMatcher:
    """Evaluates query instances over one attributed graph.

    The matcher is stateless across calls except for the graph's shared
    :class:`~repro.graph.indexes.GraphIndexes` and its engine's literal
    cache, so a single instance is reused for a whole generation run.

    Args:
        graph: The data graph.
        indexes: Optional indexes over ``graph`` (default: the graph's
            own, :meth:`~repro.graph.attributed_graph.AttributedGraph.indexes`).
        injective: If True, require distinct query nodes to map to
            distinct data nodes (subgraph-isomorphism semantics). The
            paper's definition is the non-injective one; the switch exists
            for benchmarking against isomorphism-based engines.
        metrics: Registry receiving the ``matcher.*`` work counters
            (a private one is created when omitted). Instrumentation
            never affects match results.
        guard: The run's :class:`~repro.runtime.budget.ExecutionGuard`,
            probed at the backtracking-sweep loop heads so a
            ``max_backtracks`` or deadline budget can stop matching
            mid-sweep. Defaults to the inert guard.
        literal_pool_max_entries: Optional LRU bound on the engine's
            local literal cache (None = unbounded).
    """

    def __init__(
        self,
        graph: AttributedGraph,
        indexes: Optional[GraphIndexes] = None,
        injective: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        guard: Optional[ExecutionGuard] = None,
        literal_pool_max_entries: Optional[int] = None,
    ) -> None:
        self.graph = graph
        self.indexes = indexes or graph.indexes()
        self.injective = injective
        self.metrics = metrics or MetricsRegistry()
        self.guard = guard if guard is not None else NULL_GUARD
        self.engine = BitsetEngine(
            graph,
            self.indexes,
            injective=injective,
            metrics=self.metrics,
            guard=self.guard,
            literal_pool_max_entries=literal_pool_max_entries,
        )

    def match(
        self,
        instance: QueryInstance,
        restrict: Optional[Mapping[str, Set[int]]] = None,
        restrict_masks: Optional[Mapping[str, int]] = None,
        first_only: bool = False,
    ) -> MatchResult:
        """Compute ``q(G)`` (and per-node candidate masks) for ``instance``.

        ``restrict_masks`` bounds each query node's initial pool by a mask
        — the incremental-verification hook, fed a verified parent's
        :attr:`MatchResult.candidate_masks` (see
        :class:`~repro.matching.incremental.IncrementalVerifier`);
        ``restrict`` bounds them by plain id sets. ``first_only`` stops
        after the first confirmed output match — the ``exists()`` fast
        path; the returned answer is then a (possibly partial) witness
        set, candidates stay complete.
        """
        return self.engine.match(
            instance,
            restrict=restrict,
            restrict_masks=restrict_masks,
            first_only=first_only,
        )

    def exists(self, instance: QueryInstance) -> bool:
        """True iff ``q(G)`` is non-empty (cheaper early-exit path).

        Short-circuits the backtracking sweep after the first extendable
        output candidate instead of computing the full match set; the
        candidate-pruning stages (where infeasible instances already die)
        run unchanged.
        """
        return bool(self.match(instance, first_only=True).mask)

    def repair_literal_pools(self, pairs, touched_nodes=None) -> int:
        """Repair engine-local literal masks over touched (label, attribute) pairs.

        Streaming repair hook forwarding to the engine's
        :class:`~repro.matching.bitset.LiteralPoolCache`. With
        ``touched_nodes`` the stale masks are repaired bit-by-bit (only
        the touched nodes' predicate outcomes can have changed); without,
        they are dropped and recomputed lazily. Returns the number of
        masks repaired or dropped.
        """
        if touched_nodes is not None:
            return self.engine.literal_pools.repair_attributes(
                self.graph, touched_nodes, pairs
            )
        return self.engine.literal_pools.invalidate_attributes(pairs)

    def match_outputs(
        self,
        instance: QueryInstance,
        outputs: Sequence[str],
        restrict: Optional[Mapping[str, Set[int]]] = None,
    ) -> Dict[str, FrozenSet[int]]:
        """Exact match sets ``q(u, G)`` for several query nodes at once.

        The multiple-output-node extension (paper §VI): candidate pruning
        runs once; on acyclic non-injective instances the AC-pruned sets
        are already exact for *every* node, otherwise each requested node
        gets its own backtracking sweep rooted at it.
        """
        for output in outputs:
            if output not in instance.active_nodes:
                raise MatchingError(f"output node {output!r} not active in instance")
        return self.engine.match_outputs(instance, outputs, restrict=restrict)
