"""Process-lifetime serving state for one graph.

Everything that is a pure function of the graph — its
:class:`~repro.graph.indexes.GraphIndexes` (label pools, attribute
tables, bitset enumerations, adjacency rows, literal masks), active
domains, Gower columns and ball kernel — is owned by the graph itself
(:meth:`~repro.graph.attributed_graph.AttributedGraph.indexes`) and built
once, so a workload of k generation requests pays the build cost once
instead of k times. A :class:`GraphContext` pins *which* graph the
service answers for, checks that configs are built against it, and counts
its changes.

Invalidation: graphs themselves are immutable (``freeze()``), so cached
state never silently goes stale. Both update methods run the one update
path, :func:`repro.matching.delta.apply_delta_in_place`:
:meth:`GraphContext.apply_delta` runs it on a copy
(:func:`repro.matching.delta.apply_delta`) and swaps the copy in;
:meth:`GraphContext.apply_delta_in_place` mutates the served graph, whose
in-place hooks repair its derived state. :meth:`GraphContext.invalidate`
drops the graph's derived state (bumping ``generation`` so stale
references are detectable). Run-level state —
per-run ε-Pareto archives (:mod:`repro.core.update`) and verifier memos —
is never shared here, so nothing of it can leak across an invalidation.
"""

from __future__ import annotations

from typing import Optional

from repro.core.config import GenerationConfig
from repro.errors import ServiceError
from repro.graph.attributed_graph import AttributedGraph
from repro.matching.delta import DeltaReceipt, GraphDelta, apply_delta, apply_delta_in_place
from repro.obs.registry import MetricsRegistry


class GraphContext:
    """The graph a service answers for.

    Args:
        graph: The (frozen) data graph to serve.
        metrics: Registry receiving the ``service.*`` counters; the
            scheduler built on top shares it by default. A private one is
            created when omitted.
        warm: Pre-build the per-label index state eagerly
            (:meth:`GraphIndexes.warm <repro.graph.indexes.GraphIndexes.warm>`)
            so the first request served is not a cold start.

    Example:
        >>> context = GraphContext(graph)                   # doctest: +SKIP
        >>> config = context.bind(GenerationConfig(graph, template, groups))
        ...                                                 # doctest: +SKIP
        >>> BiQGen(config).run()  # reuses the graph's indexes  # doctest: +SKIP
    """

    def __init__(
        self,
        graph: AttributedGraph,
        metrics: Optional[MetricsRegistry] = None,
        warm: bool = False,
    ) -> None:
        self.metrics = metrics or MetricsRegistry()
        self._graph = graph
        self._generation = 0
        self._revision = 0
        self.metrics.counter("service.context.invalidations")
        self.metrics.counter("service.context.configs_bound")
        self.metrics.counter("service.context.inplace_deltas")
        if warm:
            self.warm()

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #

    @property
    def graph(self) -> AttributedGraph:
        """The graph currently served."""
        return self._graph

    @property
    def generation(self) -> int:
        """Invalidation epoch — bumped by every invalidate/apply_delta."""
        return self._generation

    @property
    def revision(self) -> int:
        """In-place mutation counter — bumped by every in-place delta.

        Unlike :attr:`generation`, a revision bump means the *same* graph
        object changed underneath; bound configs stay valid (the graph's
        indexes were repaired in place) but any state keyed on raw answer
        sets — verifier memos, evaluator memos — must be refreshed by the
        caller, which is exactly what the streaming session does.
        """
        return self._revision

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GraphContext({self._graph.name!r}, generation={self._generation}, "
            f"revision={self._revision})"
        )

    # ------------------------------------------------------------------ #
    # Binding configurations
    # ------------------------------------------------------------------ #

    def bind(self, config: GenerationConfig) -> GenerationConfig:
        """Check that ``config`` is built for the served graph and count it.

        Returns ``config`` itself: its runs read the graph's own indexes.
        Raises :class:`~repro.errors.ServiceError` when the config was
        built for a different graph object — the answers would describe
        another graph.
        """
        if config.graph is not self._graph:
            raise ServiceError(
                "config.graph is not the context's graph; rebuild the config "
                "against context.graph (or apply_delta first)"
            )
        self.metrics.inc("service.context.configs_bound")
        return config

    def configure(self, template, groups, **options) -> GenerationConfig:
        """Build a :class:`GenerationConfig` bound to this context."""
        return self.bind(
            GenerationConfig(self._graph, template, groups, **options)
        )

    # ------------------------------------------------------------------ #
    # Warm-up / invalidation
    # ------------------------------------------------------------------ #

    def warm(self) -> None:
        """Pre-build the per-label index state (cold-start cut)."""
        self._graph.indexes().warm()

    def invalidate(self) -> None:
        """Drop the served graph's derived state and bump ``generation``.

        Call after replacing the served graph out-of-band; every cached
        structure rebuilds on next use. Runs in flight keep the indexes
        they already hold.
        """
        self._generation += 1
        self.metrics.inc("service.context.invalidations")
        self._graph.clear_caches()

    def apply_delta(self, delta: GraphDelta) -> AttributedGraph:
        """Serve ``G ⊕ Δ``: update a copy of the graph, swap, invalidate.

        The old graph object is left untouched, so runs in flight keep
        it. Returns the new graph so callers can rebuild their configs
        against it.
        """
        self._graph = apply_delta(self._graph, delta)
        self.invalidate()
        return self._graph

    def apply_delta_in_place(self, delta: GraphDelta) -> DeltaReceipt:
        """Serve ``G ⊕ Δ`` without rebuilding: mutate, keep identity.

        The streaming fast path. The served graph object is mutated in
        place (so configs bound to it remain bound — :meth:`bind`'s
        identity check still passes), and its in-place hooks repair its
        derived state as they go: adjacency rows of touched endpoints,
        sorted tables and literal masks of touched (label, attribute)
        pairs, active domains, the ball kernel and the Gower columns.
        ``generation`` is untouched; :attr:`revision` records the
        mutation. Returns the
        :class:`~repro.matching.delta.DeltaReceipt` describing what
        changed, for the caller's own repair (verifier memos, scores).
        """
        receipt = apply_delta_in_place(self._graph, delta)
        self._revision += 1
        self.metrics.inc("service.context.inplace_deltas")
        return receipt
