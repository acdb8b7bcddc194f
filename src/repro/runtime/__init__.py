"""``repro.runtime`` — execution budgets, cancellation and fault injection.

The runtime layer makes the paper's *anytime* property operational:

* :class:`Budget` — wall-clock deadline (injectable clock), max
  instances verified, max matcher backtracks; any subset;
* :class:`CancellationToken` — cooperative, thread-safe cancellation;
* :class:`ExecutionGuard` — the per-run enforcement point every layer
  (matcher engines, evaluator, archive offers, generator loops) probes
  at its loop heads; exhaustion unwinds to the generator, which returns
  the current ε-Pareto archive as a valid partial result with
  ``RunStats.truncated`` set;
* :class:`FaultInjector` — a seeded, deterministic fault schedule
  (worker crash / straggler / evaluator exception at the Nth call)
  fired by the serving daemon's attempts and the streaming session's
  re-verification loop.

Counters live under ``runtime.*`` (see ``docs/observability.md``) and
are only registered when a budget or token is actually configured, so
unbudgeted runs export byte-identical counter sets.
"""

from repro.runtime.budget import (
    NULL_GUARD,
    Budget,
    CancellationToken,
    ExecutionGuard,
    ExecutionInterrupt,
    TickingClock,
    TruncationReason,
)
from repro.runtime.faults import (
    FaultInjectionError,
    FaultInjector,
    FaultKind,
    FaultSpec,
    WorkerCrashed,
)

__all__ = [
    "Budget",
    "CancellationToken",
    "ExecutionGuard",
    "ExecutionInterrupt",
    "FaultInjectionError",
    "FaultInjector",
    "FaultKind",
    "FaultSpec",
    "NULL_GUARD",
    "TickingClock",
    "TruncationReason",
    "WorkerCrashed",
]
