"""Execution budgets and cooperative cancellation.

The paper's algorithms are *anytime*: Fig. 9(e) plots result quality
against the fraction of ``I(Q)`` explored, and OnlineQGen's whole design
is bounded-delay maintenance. This module makes that property
*enforceable*: a :class:`Budget` (wall-clock deadline, max instances
verified, max matcher backtracks — any subset) and a cooperative
:class:`CancellationToken` travel on
:class:`~repro.core.config.GenerationConfig`, and every layer of a run —
matcher, evaluator, archive offers, generator loops — calls
:meth:`ExecutionGuard.checkpoint` at its loop heads.

The truncation contract:

* exhaustion **never raises out of** ``run()`` and **never corrupts the
  archive** — the generator returns the current ε-Pareto archive of
  everything offered so far, with ``RunStats.truncated`` and
  ``RunStats.truncation_reason`` set;
* checkpoints fire *between* atomic archive operations, so a partial
  result is always an internally consistent ε-Pareto set of the verified
  prefix;
* with no budget and no token configured the guard is completely inert:
  it registers no counters and a checkpoint is a single attribute test,
  which keeps the counter-regression baselines byte-identical.

Deadlines measure time through an **injectable clock** (``Budget.clock``)
so tests can drive truncation deterministically — see
:class:`TickingClock` and ``tests/regression/test_truncation.py``.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.obs.registry import MetricsRegistry

__all__ = [
    "Budget",
    "CancellationToken",
    "ExecutionGuard",
    "ExecutionInterrupt",
    "NULL_GUARD",
    "TickingClock",
    "TruncationReason",
]

Clock = Callable[[], float]


class TruncationReason(str, enum.Enum):
    """Why a run returned a partial result."""

    DEADLINE = "deadline"
    MAX_INSTANCES = "max_instances"
    MAX_BACKTRACKS = "max_backtracks"
    CANCELLED = "cancelled"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class ExecutionInterrupt(Exception):
    """Internal control-flow signal unwinding a run to its loop boundary.

    Raised by :meth:`ExecutionGuard.checkpoint` when the budget is
    exhausted or the token cancelled; every generator catches it at its
    main loop and finalizes the partial archive. It never escapes
    ``run()`` — callers observe ``RunStats.truncated`` instead.
    """

    def __init__(self, reason: TruncationReason) -> None:
        super().__init__(reason.value)
        self.reason = reason


class CancellationToken:
    """Cooperative cancellation flag, safe to share across threads.

    ``cancel()`` may be called from any thread (a request handler's
    timeout, a signal handler, a supervisor); the running generator
    observes it at its next checkpoint and returns its partial result.
    """

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Request cancellation (idempotent)."""
        self._event.set()

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def reset(self) -> None:
        """Re-arm the token (between independent runs sharing one token)."""
        self._event.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CancellationToken(cancelled={self.cancelled})"


@dataclass(frozen=True)
class Budget:
    """Execution bounds for one generation run (any subset may be set).

    Attributes:
        deadline_seconds: Wall-clock allowance, measured from the run's
            start via ``clock``.
        max_instances: Cap on distinct instances verified (the paper's
            work metric, ``evaluator.cache_misses``).
        max_backtracks: Cap on matcher backtracking calls (bounds the
            worst-case cost of cyclic instances).
        clock: Zero-argument seconds source for the deadline; defaults to
            :func:`time.monotonic`. Inject a fake (:class:`TickingClock`)
            for deterministic truncation tests.
    """

    deadline_seconds: Optional[float] = None
    max_instances: Optional[int] = None
    max_backtracks: Optional[int] = None
    clock: Optional[Clock] = None

    def __post_init__(self) -> None:
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError("deadline_seconds must be positive")
        if self.max_instances is not None and self.max_instances <= 0:
            raise ValueError("max_instances must be positive")
        if self.max_backtracks is not None and self.max_backtracks <= 0:
            raise ValueError("max_backtracks must be positive")

    @property
    def bounded(self) -> bool:
        """True iff at least one limit is actually set."""
        return (
            self.deadline_seconds is not None
            or self.max_instances is not None
            or self.max_backtracks is not None
        )

    def describe(self) -> str:
        """Human-readable one-liner (CLI banners, bench tables)."""
        parts = []
        if self.deadline_seconds is not None:
            parts.append(f"deadline={self.deadline_seconds}s")
        if self.max_instances is not None:
            parts.append(f"max_instances={self.max_instances}")
        if self.max_backtracks is not None:
            parts.append(f"max_backtracks={self.max_backtracks}")
        return ", ".join(parts) if parts else "unbounded"


class TickingClock:
    """Deterministic clock: advances a fixed ``tick`` per call.

    Time under this clock is a pure function of how many times it was
    consulted, so a deadline trips at exactly the same checkpoint on
    every run — the truncation regression tests pin partial archives
    with it.
    """

    def __init__(self, tick: float = 0.001, start: float = 0.0) -> None:
        self.tick = tick
        self.now = start
        self.calls = 0

    def __call__(self) -> float:
        self.calls += 1
        self.now += self.tick
        return self.now


class ExecutionGuard:
    """Per-run budget enforcement shared by every layer of a generation.

    One guard is created per :class:`~repro.core.base.QGenAlgorithm`
    instance and handed to its evaluator and matcher, so a single
    ``checkpoint()`` contract covers the whole stack. The guard is
    **inert** (no counters registered, checkpoint is one attribute test)
    unless the budget has a bound or a token is present — instrumentation
    must not perturb unbudgeted runs.

    When active, the guard maintains:

    * ``runtime.budget.checks`` — checkpoints evaluated;
    * ``runtime.budget.trips`` — budget exhaustions (at most one per run);
    * ``runtime.budget.trips.<reason>`` — exhaustions by reason.

    Args:
        budget: The run's budget (or None).
        token: Cooperative cancellation token (or None).
        metrics: The run's registry — instance/backtrack limits read the
            shared ``evaluator.cache_misses`` / ``matcher.backtrack_calls``
            counters from it.
    """

    __slots__ = (
        "budget",
        "token",
        "metrics",
        "active",
        "tripped",
        "_clock",
        "_started_at",
        "_checks",
        "_trips",
        "_verified",
        "_backtracks",
    )

    def __init__(
        self,
        budget: Optional[Budget] = None,
        token: Optional[CancellationToken] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.budget = budget
        self.token = token
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.active = bool(
            (budget is not None and budget.bounded) or token is not None
        )
        self.tripped: Optional[TruncationReason] = None
        clock = budget.clock if budget is not None and budget.clock else None
        self._clock: Clock = clock or time.monotonic
        if self.active:
            self._bind()
            self._started_at = self._clock()
        else:
            self._started_at = 0.0

    def _bind(self) -> None:
        """Resolve counter handles once; checkpoints stay dict-free."""
        registry = self.metrics
        self._checks = registry.counter("runtime.budget.checks")
        self._trips = registry.counter("runtime.budget.trips")
        self._verified = registry.counter("evaluator.cache_misses")
        self._backtracks = registry.counter("matcher.backtrack_calls")

    # ------------------------------------------------------------------ #

    def arm(self) -> None:
        """(Re)start the budget window — called at ``run()`` entry.

        Re-arming clears a previous trip and re-stamps the deadline
        origin, so one algorithm instance can run twice. Counter handles
        are re-bound because ``_begin_run`` may have reset namespaces.
        """
        if not self.active:
            return
        self.tripped = None
        self._bind()
        self._started_at = self._clock()
        if self.budget is not None and self.budget.deadline_seconds is not None:
            self.metrics.set(
                "runtime.budget.deadline_seconds", self.budget.deadline_seconds
            )

    def checkpoint(self, extra_backtracks: int = 0) -> None:
        """Loop-head budget probe; raises :class:`ExecutionInterrupt` on
        exhaustion.

        ``extra_backtracks`` lets the matcher account for in-flight work
        not yet published to the registry (its per-call tally is folded
        into ``matcher.backtrack_calls`` only when a match completes).
        """
        if not self.active:
            return
        self._checks.inc()
        if self.token is not None and self.token.cancelled:
            self._trip(TruncationReason.CANCELLED)
        budget = self.budget
        if budget is None:
            return
        if (
            budget.max_instances is not None
            and self._verified.value >= budget.max_instances
        ):
            self._trip(TruncationReason.MAX_INSTANCES)
        if (
            budget.max_backtracks is not None
            and self._backtracks.value + extra_backtracks >= budget.max_backtracks
        ):
            self._trip(TruncationReason.MAX_BACKTRACKS)
        if (
            budget.deadline_seconds is not None
            and self._clock() - self._started_at >= budget.deadline_seconds
        ):
            self._trip(TruncationReason.DEADLINE)

    def _trip(self, reason: TruncationReason) -> None:
        if self.tripped is None:
            # Count the first exhaustion only: nested loops unwinding
            # through further checkpoints must not inflate the trip count.
            self.tripped = reason
            self._trips.inc()
            self.metrics.inc(f"runtime.budget.trips.{reason.value}")
        raise ExecutionInterrupt(reason)


#: Shared inert guard for components constructed without one (standalone
#: matchers/evaluators). Never trips, never counts.
NULL_GUARD = ExecutionGuard()
