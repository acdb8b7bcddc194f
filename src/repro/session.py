"""High-level facades: one object per workflow.

The low-level API is compositional (config → algorithm → result →
selection/audit/explanation); this module wires the two common paths:

* :class:`FairSQGSession` — one template, one run, then inspect:

    >>> session = FairSQGSession(graph, template, groups, epsilon=0.1)  # doctest: +SKIP
    >>> session.suggest()                      # runs BiQGen, caches result
    >>> session.top(3)                         # k spread-out suggestions
    >>> pick = session.pick(lambda_r=0.8)      # preference-selected winner
    >>> print(session.why(pick))               # edits vs the initial query
    >>> print(session.audit(pick).summary())   # fairness verdict

* :class:`BatchSession` — one graph, many templates, served over the
  graph's shared indexes (:mod:`repro.service`):

    >>> batch = BatchSession(graph, groups)                   # doctest: +SKIP
    >>> outcomes = batch.run([batch.request(t, epsilon=0.1) for t in templates])
    ...                                                       # doctest: +SKIP

* :class:`DaemonSession` — the same serving surface, but backed by the
  persistent multi-tenant daemon (:mod:`repro.service.daemon`): SLO-aware
  admission, deficit-round-robin tenant fairness, a replicated worker
  pool with retries, and load shedding by truncated partials:

    >>> daemon = DaemonSession(graph, groups, workers=4)      # doctest: +SKIP
    >>> outcomes = daemon.serve(request_dicts)                # doctest: +SKIP
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Type

from repro.core.base import QGenAlgorithm
from repro.core.biqgen import BiQGen
from repro.core.config import GenerationConfig
from repro.core.evaluator import EvaluatedInstance, InstanceEvaluator
from repro.core.explain import explain_suggestion
from repro.core.lattice import InstanceLattice
from repro.core.preferences import select_by_preference
from repro.core.report import build_report
from repro.core.representatives import select_representatives
from repro.core.result import GenerationResult
from repro.graph.attributed_graph import AttributedGraph
from repro.groups.auditing import FairnessAudit, audit_answer
from repro.groups.system import GroupSystem
from repro.obs.registry import MetricsRegistry
from repro.query.template import QueryTemplate
from repro.service.context import GraphContext
from repro.service.daemon import ServingDaemon
from repro.service.requests import GenerationRequest, RequestOutcome
from repro.service.scheduler import BatchScheduler


class FairSQGSession:
    """Stateful convenience wrapper around one generation configuration.

    Args:
        graph: The data graph.
        template: The query template.
        groups: Groups with coverage constraints.
        epsilon: ε of ε-dominance.
        algorithm: Generation algorithm class (default BiQGen).
        context: Optional :class:`~repro.service.context.GraphContext`
            serving ``graph``; the config is bound to it (checked to be
            built for its graph and counted). Indexes are the graph's own
            either way.
        **config_options: Forwarded to :class:`GenerationConfig`
            (``lam``, ``max_domain_values``, ``relevance``, ...).
    """

    def __init__(
        self,
        graph: AttributedGraph,
        template: QueryTemplate,
        groups: GroupSystem,
        epsilon: float = 0.05,
        algorithm: Type[QGenAlgorithm] = BiQGen,
        context: Optional[GraphContext] = None,
        **config_options,
    ) -> None:
        self.config = GenerationConfig(
            graph, template, groups, epsilon=epsilon, **config_options
        )
        if context is not None:
            self.config = context.bind(self.config)
        self._algorithm_cls = algorithm
        self._algorithm: Optional[QGenAlgorithm] = None
        self._result: Optional[GenerationResult] = None
        self._initial: Optional[EvaluatedInstance] = None

    # ------------------------------------------------------------------ #
    # Generation
    # ------------------------------------------------------------------ #

    def suggest(self, force: bool = False) -> GenerationResult:
        """Run the algorithm (cached; ``force=True`` re-runs)."""
        if self._result is None or force:
            self._algorithm = self._algorithm_cls(self.config)
            self._result = self._algorithm.run()
        return self._result

    @property
    def result(self) -> GenerationResult:
        """The run's result (triggers :meth:`suggest` on first access)."""
        return self.suggest()

    @property
    def initial(self) -> EvaluatedInstance:
        """The most relaxed instance — the "initial query" baseline."""
        if self._initial is None:
            evaluator = self._evaluator()
            self._initial = evaluator.evaluate(InstanceLattice(self.config).root())
        return self._initial

    def _evaluator(self) -> InstanceEvaluator:
        if self._algorithm is not None:
            return self._algorithm.evaluator
        return InstanceEvaluator(self.config)

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #

    def top(self, k: int = 3) -> List[EvaluatedInstance]:
        """Up to ``k`` spread-out representative suggestions."""
        return select_representatives(self.result.instances, k)

    def pick(self, lambda_r: float = 0.5) -> Optional[EvaluatedInstance]:
        """The preference-selected suggestion (None if nothing feasible)."""
        return select_by_preference(self.result.instances, lambda_r)

    def why(self, suggestion: EvaluatedInstance) -> str:
        """Edit-level explanation of ``suggestion`` vs the initial query."""
        return explain_suggestion(self.initial, suggestion, self.config.groups)

    def audit(self, suggestion: EvaluatedInstance) -> FairnessAudit:
        """Fairness audit of one suggestion's answer."""
        return audit_answer(suggestion.matches, self.config.groups)

    def report(self, lambda_r: float = 0.5, max_representatives: int = 5) -> str:
        """The full one-page text report."""
        return build_report(
            self.config,
            self.result,
            lambda_r=lambda_r,
            max_representatives=max_representatives,
            evaluator=self._evaluator(),
        )


class BatchSession:
    """Workload-scale serving facade: one graph, many generation requests.

    Owns a :class:`~repro.service.context.GraphContext` and a
    :class:`~repro.service.scheduler.BatchScheduler`; every request reads
    the graph's own indexes and literal masks, so successive batches
    against the same graph keep getting warmer. Per-request results are
    identical to standalone runs — only the shared build work is
    amortized.

    Args:
        graph: The data graph to serve.
        groups: Groups/constraints every request is generated under.
        metrics: Registry for ``service.*`` counters (private if omitted).
        warm: Pre-build per-label index state at construction.
        **defaults: Further per-request config defaults
            (``max_domain_values=4``, ...), overridable per request.
    """

    def __init__(
        self,
        graph: AttributedGraph,
        groups: GroupSystem,
        metrics: Optional[MetricsRegistry] = None,
        warm: bool = True,
        **defaults,
    ) -> None:
        self.context = GraphContext(graph, metrics=metrics, warm=warm)
        self.scheduler = BatchScheduler(self.context, groups, defaults=defaults)
        self._request_counter = 0

    @property
    def metrics(self) -> MetricsRegistry:
        """The serving registry (``service.*`` + absorbed run counters)."""
        return self.context.metrics

    def request(
        self,
        template: QueryTemplate,
        request_id: Optional[str] = None,
        **kwargs,
    ) -> GenerationRequest:
        """Build a request for this session (ids auto-assigned if omitted)."""
        if request_id is None:
            self._request_counter += 1
            request_id = f"req-{self._request_counter}"
        return GenerationRequest(request_id, template, **kwargs)

    def stream(
        self, requests: Iterable[GenerationRequest]
    ) -> Iterator[RequestOutcome]:
        """Execute a batch, yielding outcomes as they complete."""
        return self.scheduler.stream(requests)

    def run(self, requests: Iterable[GenerationRequest]) -> List[RequestOutcome]:
        """Execute a batch, materialized in admission order."""
        return self.scheduler.run(requests)

    def session(self, template: QueryTemplate, **config_options) -> FairSQGSession:
        """A single-template :class:`FairSQGSession` sharing this cache.

        The batch defaults (domain cap etc.) apply here too, so the
        session is configured exactly like a request for ``template``;
        ``config_options`` override them.
        """
        options = dict(self.scheduler.defaults)
        options.update(config_options)
        return FairSQGSession(
            self.context.graph,
            template,
            self.scheduler.groups,
            context=self.context,
            **options,
        )

    def apply_delta(self, delta) -> None:
        """Serve ``G ⊕ Δ``: later requests run on the new graph."""
        self.context.apply_delta(delta)


class DaemonSession:
    """Multi-tenant serving facade over the persistent asyncio daemon.

    The daemon analogue of :class:`BatchSession`: the same graph/groups
    surface and the same outcome objects, but requests flow through
    SLO-aware admission (per-tenant bounded queues, deficit round robin,
    load shedding by truncated partials) and execute on a pool of
    replicated worker contexts with infrastructure-fault retries. The
    chaos suite pins that for any fault-free workload the outcomes are
    byte-identical to :class:`BatchSession`'s.

    Args:
        graph: The data graph to serve.
        groups: Groups/constraints every request is generated under.
        workers: Replicated worker-context count.
        metrics: Registry for ``service.daemon.*`` / ``service.admission.*``
            counters (private if omitted).
        queue_depth / max_retries / attempt_timeout / warm / faults:
            Forwarded to
            :class:`~repro.service.daemon.ServingDaemon`.
        **defaults: Further per-request config defaults, overridable per
            request.
    """

    def __init__(
        self,
        graph: AttributedGraph,
        groups: GroupSystem,
        workers: int = 2,
        metrics: Optional[MetricsRegistry] = None,
        queue_depth: int = 64,
        max_retries: int = 2,
        attempt_timeout: Optional[float] = None,
        warm: bool = True,
        faults=None,
        **defaults,
    ) -> None:
        self.daemon = ServingDaemon(
            graph,
            groups,
            workers=workers,
            defaults=defaults,
            queue_depth=queue_depth,
            max_retries=max_retries,
            attempt_timeout=attempt_timeout,
            warm=warm,
            faults=faults,
            metrics=metrics,
        )
        self._request_counter = 0

    @property
    def metrics(self) -> MetricsRegistry:
        """The daemon registry (admission + daemon + absorbed run counters)."""
        return self.daemon.metrics

    def request(
        self,
        template: QueryTemplate,
        request_id: Optional[str] = None,
        **kwargs,
    ) -> GenerationRequest:
        """Build a request for this session (ids auto-assigned if omitted)."""
        if request_id is None:
            self._request_counter += 1
            request_id = f"req-{self._request_counter}"
        return GenerationRequest(request_id, template, **kwargs)

    def serve(self, submissions) -> List[RequestOutcome]:
        """Serve a workload to completion; outcomes in submission order.

        Accepts parsed :class:`GenerationRequest`s, raw JSONL request
        lines, or a mix — malformed lines come back as structured
        rejections instead of raising.
        """
        return self.daemon.serve(submissions)

    def shutdown(self) -> None:
        """Release the worker thread pool."""
        self.daemon.shutdown()
