"""Deterministic fault injection for the serving daemon and streaming.

Fault tolerance is only trustworthy if it is tested against real failure
modes, so this module gives two callers a seeded, reproducible way to
make work misbehave:

* :class:`~repro.service.daemon.ServingDaemon` fires at the start of a
  request attempt (``call=0``) and once its result exists (``call=1``),
  keyed by the request's submission seq; a failed attempt is retried on
  another worker with a bounded budget;
* :class:`~repro.streaming.StreamingSession` fires once per ledger entry
  of phase-3 re-verification (``call`` = entry index), keyed by the
  update's index; any fault aborts the incremental path and the session
  falls back to a cold re-evaluation of the ledger.

The fault kinds:

* **CRASH** — raises :class:`WorkerCrashed` (a dead worker: the daemon
  tears the worker's context down and rebuilds it);
* **SLOW** — sleeps for ``delay_seconds`` (a straggler, abandoned when
  the daemon has an ``attempt_timeout``);
* **ERROR** — raises :class:`FaultInjectionError` (a poisoned request or
  transient bug).

Faults are keyed by ``(index, attempt, call)``, so the schedule is a
pure function of the retry history: no shared state, no clocks,
identical behaviour on every run. A spec fires on attempts
``0 .. times-1`` and passes afterwards, which is exactly the shape retry
logic must survive.
"""

from __future__ import annotations

import enum
import random
import time
from dataclasses import dataclass
from typing import Sequence, Tuple

__all__ = [
    "FaultInjectionError",
    "FaultInjector",
    "FaultKind",
    "FaultSpec",
    "WorkerCrashed",
]


class FaultKind(enum.Enum):
    """The failure mode a :class:`FaultSpec` injects."""

    CRASH = "crash"  # raise WorkerCrashed: a dead worker.
    SLOW = "slow"  # sleep for delay_seconds: a straggler.
    ERROR = "error"  # raise FaultInjectionError: a poisoned attempt.


class FaultInjectionError(RuntimeError):
    """Raised by an injected ERROR fault.

    A CRASH fault raises the subclass :class:`WorkerCrashed`.
    """


class WorkerCrashed(FaultInjectionError):
    """An injected worker death (a CRASH fault).

    The daemon discards and rebuilds the worker's context and retries the
    in-flight request on another worker; any other catcher of
    :class:`FaultInjectionError` treats it as an ordinary fault.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    Attributes:
        kind: What goes wrong.
        batch_index: Which index triggers it (the daemon's submission
            seq, or the streaming session's update index).
        call_index: Which call within that index fires it (the daemon:
            0 before the attempt's work, 1 after it; streaming: the
            ledger entry being re-verified).
        times: How many attempts fire — attempts ``>= times`` pass, so
            ``times=1`` tests a single transient fault and a large value
            tests retry exhaustion.
        delay_seconds: Sleep length for SLOW faults.
    """

    kind: FaultKind
    batch_index: int
    call_index: int = 0
    times: int = 1
    delay_seconds: float = 1.0

    def __post_init__(self) -> None:
        if self.batch_index < 0:
            raise ValueError("batch_index must be non-negative")
        if self.call_index < 0:
            raise ValueError("call_index must be non-negative")
        if self.times <= 0:
            raise ValueError("times must be positive")
        if self.delay_seconds < 0:
            raise ValueError("delay_seconds must be non-negative")


class FaultInjector:
    """A deterministic fault schedule, shared by every worker that fires it.

    Args:
        faults: The fault specs to honor.
        seed: Recorded provenance for schedules built via :meth:`random`.
    """

    def __init__(self, faults: Sequence[FaultSpec] = (), seed: int = 0) -> None:
        self.faults: Tuple[FaultSpec, ...] = tuple(faults)
        self.seed = seed

    @classmethod
    def random(
        cls,
        num_batches: int,
        rate: float = 0.25,
        seed: int = 0,
        kinds: Sequence[FaultKind] = (FaultKind.CRASH, FaultKind.ERROR),
    ) -> "FaultInjector":
        """A seeded random schedule: each batch faults with ``rate``.

        Deterministic for a given ``(num_batches, rate, seed, kinds)``,
        so property-style tests can sweep seeds and still reproduce any
        failure exactly.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError("rate must lie in [0, 1]")
        rng = random.Random(seed)
        faults = [
            FaultSpec(kind=rng.choice(list(kinds)), batch_index=index)
            for index in range(num_batches)
            if rng.random() < rate
        ]
        return cls(faults, seed=seed)

    def __len__(self) -> int:
        return len(self.faults)

    def maybe_fire(self, index: int, attempt: int, call: int) -> None:
        """Fire any fault scheduled for this (index, attempt, call).

        Raises :class:`WorkerCrashed` for CRASH, sleeps for SLOW and
        raises :class:`FaultInjectionError` for ERROR.
        """
        for spec in self.faults:
            if spec.batch_index != index or spec.call_index != call:
                continue
            if attempt >= spec.times:
                continue
            if spec.kind is FaultKind.CRASH:
                raise WorkerCrashed(
                    f"injected worker crash: index {index}, attempt {attempt}"
                )
            if spec.kind is FaultKind.SLOW:
                time.sleep(spec.delay_seconds)
            else:
                raise FaultInjectionError(
                    f"injected evaluator fault: index {index}, "
                    f"call {call}, attempt {attempt}"
                )
