"""Workload-scale serving: graph-owned caches + batch session service.

Where the rest of the library thinks in single generation runs, this
package thinks in *workloads* — k requests against one graph. Everything
shared across them is a pure function of the graph, and the graph owns
it: :meth:`AttributedGraph.indexes
<repro.graph.attributed_graph.AttributedGraph.indexes>` (label pools,
attribute tables, bitset enumerations, adjacency rows and a bounded
literal-mask memo), active domains, Gower columns and the ball kernel are
built once per graph and read by every request. :class:`GraphContext`
pins the served graph, checks that configs are built for it and carries
its invalidation hooks. Run-scoped state — each request's ε-Pareto
archive, verifier memo and evaluator state — stays per request, exactly
as in standalone runs, which is why batch results are identical to
sequential ones.

:class:`BatchScheduler` executes request batches on top (fair round-robin
admission, canonical-template deduplication, per-request budgets,
streamed outcomes); :class:`repro.session.BatchSession` and the CLI's
``fairsqg batch`` subcommand are the front doors. See ``docs/serving.md``.

For *open-ended* traffic, :class:`ServingDaemon` promotes the scheduler
loop to a persistent asyncio daemon: JSONL wire format over a Unix
socket or stdio, SLO-aware admission with per-tenant bounded queues and
deficit-round-robin fairness (:mod:`repro.service.admission`), a pool of
worker threads (one :class:`GraphContext` each, all reading the graph's
one set of caches) with retry/exactly-once outcome accounting, and load shedding by truncated ε-Pareto partials.
"""

from repro.service.admission import (
    AdmissionController,
    SHED_DEADLINE,
    SHED_QUEUE_FULL,
    SLOClass,
    SLO_CLASSES,
    resolve_budget,
)
from repro.service.context import GraphContext
from repro.service.daemon import DedupLedger, ServingDaemon, replay_unix
from repro.service.requests import (
    ALLOWED_OPTIONS,
    GenerationRequest,
    RequestOutcome,
    RequestRejection,
    iter_requests_jsonl,
    load_requests_jsonl,
    outcome_to_dict,
    parse_request_lines,
    request_from_dict,
    save_outcomes_jsonl,
    shed_outcome,
)
from repro.service.scheduler import ALGORITHMS, BatchScheduler, round_robin_admission

__all__ = [
    "ALGORITHMS",
    "ALLOWED_OPTIONS",
    "AdmissionController",
    "BatchScheduler",
    "DedupLedger",
    "GenerationRequest",
    "GraphContext",
    "RequestOutcome",
    "RequestRejection",
    "SHED_DEADLINE",
    "SHED_QUEUE_FULL",
    "SLOClass",
    "SLO_CLASSES",
    "ServingDaemon",
    "iter_requests_jsonl",
    "load_requests_jsonl",
    "outcome_to_dict",
    "parse_request_lines",
    "replay_unix",
    "request_from_dict",
    "resolve_budget",
    "round_robin_admission",
    "save_outcomes_jsonl",
    "shed_outcome",
]
