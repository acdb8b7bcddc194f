"""Batch execution of generation requests over one shared graph context.

The :class:`BatchScheduler` is the serving layer's control loop: it
admits N :class:`~repro.service.requests.GenerationRequest`s with fair
round-robin interleaving across clients, deduplicates requests whose
:meth:`~repro.service.requests.GenerationRequest.canonical_signature`
matches an earlier one, binds each surviving request's configuration to
the shared :class:`~repro.service.context.GraphContext` (whose graph owns
the indexes and literal masks every request reads), runs it through the
existing
:class:`~repro.runtime.budget.ExecutionGuard` budget machinery with the
request's own deadline, and streams
:class:`~repro.service.requests.RequestOutcome`s as they complete.

Isolation guarantees worth stating:

* per-request results are **identical to a standalone run** of the same
  configuration — the graph-owned caches hold pure functions of the
  frozen graph, and each request still gets its own evaluator memo, verifier and
  ε-Pareto archive (pinned by ``tests/integration/test_batch_service.py``);
* one failing or budget-exhausted request never takes the batch down:
  budget exhaustion returns that request's truncated partial front, an
  exception records a failed outcome and the loop continues.

Work is published under ``service.*`` on the context's registry (requests
admitted / completed / failed / deduplicated / truncated, per-request
latency histogram) next to the absorbed run counters (the
``matcher.bitset.literal_pool_*`` cache counters among them), so one
``--metrics`` snapshot tells the whole serving story.
"""

from __future__ import annotations

import json
import time
from collections import OrderedDict
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Type, Union

from repro.core.base import QGenAlgorithm
from repro.core.biqgen import BiQGen
from repro.core.cbm import CBM
from repro.core.config import GenerationConfig
from repro.core.enumqgen import EnumQGen
from repro.core.kungs import Kungs
from repro.core.rfqgen import RfQGen
from repro.errors import ReproError, ServiceError
from repro.graph.attributed_graph import AttributedGraph
from repro.groups.system import GroupSystem, canonical_spec, system_from_dict
from repro.obs.registry import MetricsRegistry
from repro.service.context import GraphContext
from repro.service.requests import (
    ALLOWED_OPTIONS,
    GenerationRequest,
    RequestOutcome,
    RequestRejection,
)

#: Algorithm names accepted in requests (the CLI's ``--algorithm`` set).
ALGORITHMS: Dict[str, Type[QGenAlgorithm]] = {
    "enum": EnumQGen,
    "kungs": Kungs,
    "cbm": CBM,
    "rfqgen": RfQGen,
    "biqgen": BiQGen,
}


def resolve_request_groups(
    request: GenerationRequest,
    graph: AttributedGraph,
    default_groups: GroupSystem,
    cache: Optional[Dict[str, GroupSystem]] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> GroupSystem:
    """The groups a request is generated under.

    Requests without a ``group_system`` spec run under the batch's
    default groups — the legacy path, untouched. A request carrying a
    spec gets it materialized against the serving graph (coverage targets
    clamped to matched populations so a wire spec can never be
    unsatisfiable by construction). ``cache`` memoizes systems by the
    spec's canonical form, so a scenario repeated across a batch scans
    the graph once; construction work lands under ``groups.*`` on
    ``metrics`` for the first build only.
    """
    spec = request.group_system
    if spec is None:
        return default_groups
    key = json.dumps(canonical_spec(spec), sort_keys=True, default=str)
    if cache is not None:
        cached = cache.get(key)
        if cached is not None:
            return cached
    system = system_from_dict(spec, graph, clamp=True, metrics=metrics)
    if cache is not None:
        cache[key] = system
    return system


def round_robin_admission(
    requests: Sequence[GenerationRequest],
) -> List[GenerationRequest]:
    """Fair admission order: interleave clients round-robin.

    Clients are visited in order of first appearance and each contributes
    its next pending request per round, so a client submitting 100
    requests cannot starve one submitting 2 — the small client's requests
    are admitted within the first two rounds regardless of arrival order.
    Within a client, submission order is preserved.
    """
    queues: "OrderedDict[str, List[GenerationRequest]]" = OrderedDict()
    for request in requests:
        queues.setdefault(request.client, []).append(request)
    admitted: List[GenerationRequest] = []
    while queues:
        for client in list(queues):
            admitted.append(queues[client].pop(0))
            if not queues[client]:
                del queues[client]
    return admitted


class BatchScheduler:
    """Executes request batches against one :class:`GraphContext`.

    Args:
        context: The shared graph context (owns indexes, pools, metrics).
        groups: The groups/constraints every request is generated under.
        defaults: Config overrides applied to every request unless the
            request sets them itself (e.g. ``{"max_domain_values": 4}``
            from the CLI's ``--domain-cap``). Restricted to the same
            whitelist as request options.
    """

    def __init__(
        self,
        context: GraphContext,
        groups: GroupSystem,
        defaults: Optional[Dict[str, object]] = None,
    ) -> None:
        unknown = set(defaults or ()) - ALLOWED_OPTIONS
        if unknown:
            raise ServiceError(
                f"unknown scheduler default option(s) {sorted(unknown)}; "
                f"allowed: {sorted(ALLOWED_OPTIONS)}"
            )
        self.context = context
        self.groups = groups
        self.defaults = dict(defaults or {})
        self.metrics = context.metrics
        # Materialized per-request group systems, keyed by canonical spec
        # (scenario repeats across a batch cost one graph scan).
        self._systems: Dict[str, GroupSystem] = {}
        self._systems_epoch = (context.generation, context.revision)
        for name in (
            "service.requests",
            "service.completed",
            "service.failed",
            "service.deduplicated",
            "service.truncated",
            "service.batches",
            "service.requests.rejected",
        ):
            self.metrics.counter(name)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def stream(
        self, requests: Iterable[Union[GenerationRequest, RequestRejection]]
    ) -> Iterator[Union[RequestOutcome, RequestRejection]]:
        """Admit, deduplicate and execute; yield outcomes as they finish.

        Outcomes arrive in admission order (round-robin across clients).
        Deduplication is per batch: a request whose canonical signature
        matches an earlier one of the *same* batch replays that result
        without re-running (never across batches, where an invalidation
        may have changed the graph in between).

        :class:`~repro.service.requests.RequestRejection`s — the lenient
        wire parser's answer to malformed lines — pass straight through
        as structured error outcomes (counted under
        ``service.requests.rejected``) ahead of the admitted work, so
        one corrupt line never takes the batch down.
        """
        self.metrics.inc("service.batches")
        admitted: List[GenerationRequest] = []
        for item in requests:
            if isinstance(item, RequestRejection):
                self.metrics.inc("service.requests.rejected")
                yield item
            else:
                admitted.append(item)
        completed: Dict[str, RequestOutcome] = {}
        for request in round_robin_admission(admitted):
            self.metrics.inc("service.requests")
            signature = request.canonical_signature()
            earlier = completed.get(signature)
            if earlier is not None and earlier.ok:
                self.metrics.inc("service.deduplicated")
                outcome = RequestOutcome(
                    request=request,
                    result=earlier.result,
                    elapsed_seconds=0.0,
                    deduplicated=True,
                )
            else:
                outcome = self._execute(request)
                completed[signature] = outcome
            yield outcome

    def run(
        self, requests: Iterable[Union[GenerationRequest, RequestRejection]]
    ) -> List[Union[RequestOutcome, RequestRejection]]:
        """:meth:`stream`, materialized."""
        return list(self.stream(requests))

    # ------------------------------------------------------------------ #

    def _configure(self, request: GenerationRequest) -> GenerationConfig:
        options = dict(self.defaults)
        options.update(request.options)
        # Materialized systems are functions of the graph's contents; a
        # graph swap (generation) or in-place streaming delta (revision)
        # may change memberships, so the memo dies with either.
        epoch = (self.context.generation, self.context.revision)
        if epoch != self._systems_epoch:
            self._systems.clear()
            self._systems_epoch = epoch
        groups = resolve_request_groups(
            request,
            self.context.graph,
            self.groups,
            cache=self._systems,
            metrics=self.metrics,
        )
        config = GenerationConfig(
            self.context.graph,
            request.template,
            groups,
            epsilon=request.epsilon,
            budget=request.budget(),
            metrics=self.metrics,
            **options,
        )
        return self.context.bind(config)

    def _execute(self, request: GenerationRequest) -> RequestOutcome:
        start = time.perf_counter()
        try:
            algorithm_cls = ALGORITHMS.get(request.algorithm)
            if algorithm_cls is None:
                raise ServiceError(
                    f"unknown algorithm {request.algorithm!r}; "
                    f"known: {sorted(ALGORITHMS)}"
                )
            result = algorithm_cls(self._configure(request)).run()
        except ReproError as exc:
            elapsed = time.perf_counter() - start
            self.metrics.inc("service.failed")
            self.metrics.observe("service.request_seconds", elapsed)
            return RequestOutcome(
                request=request, error=str(exc), elapsed_seconds=elapsed
            )
        elapsed = time.perf_counter() - start
        self.metrics.inc("service.completed")
        if result.truncated:
            self.metrics.inc("service.truncated")
        self.metrics.observe("service.request_seconds", elapsed)
        return RequestOutcome(
            request=request, result=result, elapsed_seconds=elapsed
        )
