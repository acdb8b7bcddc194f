"""Unit tests for the execution-budget runtime (``repro.runtime``)."""

from __future__ import annotations

import pytest

from repro.obs.registry import MetricsRegistry
from repro.runtime import (
    Budget,
    CancellationToken,
    ExecutionGuard,
    ExecutionInterrupt,
    FaultInjectionError,
    FaultInjector,
    FaultKind,
    FaultSpec,
    NULL_GUARD,
    TickingClock,
    TruncationReason,
    WorkerCrashed,
)


class TestBudget:
    def test_defaults_are_unbounded(self):
        budget = Budget()
        assert not budget.bounded
        assert budget.describe() == "unbounded"

    def test_any_limit_makes_it_bounded(self):
        assert Budget(deadline_seconds=1.0).bounded
        assert Budget(max_instances=10).bounded
        assert Budget(max_backtracks=100).bounded

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline_seconds": 0.0},
            {"deadline_seconds": -1.0},
            {"max_instances": 0},
            {"max_backtracks": -5},
        ],
    )
    def test_non_positive_limits_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Budget(**kwargs)

    def test_describe_lists_set_limits(self):
        text = Budget(deadline_seconds=2.5, max_instances=7).describe()
        assert "deadline=2.5s" in text
        assert "max_instances=7" in text
        assert "max_backtracks" not in text


class TestCancellationToken:
    def test_cancel_and_reset(self):
        token = CancellationToken()
        assert not token.cancelled
        token.cancel()
        token.cancel()  # idempotent
        assert token.cancelled
        token.reset()
        assert not token.cancelled


class TestTickingClock:
    def test_time_is_pure_function_of_calls(self):
        a = TickingClock(tick=0.5)
        b = TickingClock(tick=0.5)
        assert [a() for _ in range(4)] == [b() for _ in range(4)]
        assert a.calls == 4
        assert a.now == pytest.approx(2.0)

    def test_start_offset(self):
        clock = TickingClock(tick=1.0, start=10.0)
        assert clock() == pytest.approx(11.0)


class TestExecutionGuard:
    def test_inert_without_budget_or_token(self):
        registry = MetricsRegistry()
        guard = ExecutionGuard(metrics=registry)
        assert not guard.active
        guard.arm()
        for _ in range(10):
            guard.checkpoint()
        # The inert guard must not perturb the registry at all — this is
        # what keeps unbudgeted counter baselines byte-identical.
        assert not any(n.startswith("runtime.") for n in registry.counters())

    def test_unbounded_budget_is_inert(self):
        guard = ExecutionGuard(Budget(), metrics=MetricsRegistry())
        assert not guard.active

    def test_null_guard_never_trips(self):
        NULL_GUARD.checkpoint(extra_backtracks=10**9)
        assert NULL_GUARD.tripped is None

    def test_max_instances_trips(self):
        registry = MetricsRegistry()
        guard = ExecutionGuard(Budget(max_instances=3), metrics=registry)
        guard.arm()
        registry.counter("evaluator.cache_misses").inc(3)
        with pytest.raises(ExecutionInterrupt) as exc:
            guard.checkpoint()
        assert exc.value.reason is TruncationReason.MAX_INSTANCES
        assert guard.tripped is TruncationReason.MAX_INSTANCES
        assert registry.value("runtime.budget.trips") == 1
        assert registry.value("runtime.budget.trips.max_instances") == 1

    def test_below_limit_does_not_trip(self):
        registry = MetricsRegistry()
        guard = ExecutionGuard(Budget(max_instances=3), metrics=registry)
        guard.arm()
        registry.counter("evaluator.cache_misses").inc(2)
        guard.checkpoint()
        assert guard.tripped is None
        assert registry.value("runtime.budget.checks") == 1

    def test_max_backtracks_counts_in_flight_work(self):
        registry = MetricsRegistry()
        guard = ExecutionGuard(Budget(max_backtracks=10), metrics=registry)
        guard.arm()
        registry.counter("matcher.backtrack_calls").inc(4)
        guard.checkpoint(extra_backtracks=5)  # 9 < 10: fine
        with pytest.raises(ExecutionInterrupt) as exc:
            guard.checkpoint(extra_backtracks=6)  # 10 >= 10: trips
        assert exc.value.reason is TruncationReason.MAX_BACKTRACKS

    def test_deadline_uses_injected_clock(self):
        clock = TickingClock(tick=0.4)
        guard = ExecutionGuard(
            Budget(deadline_seconds=1.0, clock=clock), metrics=MetricsRegistry()
        )
        guard.arm()
        guard.checkpoint()  # elapsed 0.4
        guard.checkpoint()  # elapsed 0.8
        with pytest.raises(ExecutionInterrupt) as exc:
            guard.checkpoint()  # elapsed 1.2 >= 1.0
        assert exc.value.reason is TruncationReason.DEADLINE

    def test_deadline_gauge_exported(self):
        registry = MetricsRegistry()
        guard = ExecutionGuard(Budget(deadline_seconds=2.0), metrics=registry)
        guard.arm()
        assert registry.gauge("runtime.budget.deadline_seconds").value == pytest.approx(
            2.0
        )

    def test_cancellation_trips(self):
        token = CancellationToken()
        guard = ExecutionGuard(token=token, metrics=MetricsRegistry())
        guard.arm()
        guard.checkpoint()
        token.cancel()
        with pytest.raises(ExecutionInterrupt) as exc:
            guard.checkpoint()
        assert exc.value.reason is TruncationReason.CANCELLED

    def test_trip_counted_once_but_always_raises(self):
        registry = MetricsRegistry()
        guard = ExecutionGuard(Budget(max_instances=1), metrics=registry)
        guard.arm()
        registry.counter("evaluator.cache_misses").inc(1)
        for _ in range(3):
            with pytest.raises(ExecutionInterrupt):
                guard.checkpoint()
        assert registry.value("runtime.budget.trips") == 1
        assert registry.value("runtime.budget.checks") == 3

    def test_arm_clears_previous_trip(self):
        clock = TickingClock(tick=0.6)
        guard = ExecutionGuard(
            Budget(deadline_seconds=1.0, clock=clock), metrics=MetricsRegistry()
        )
        guard.arm()
        with pytest.raises(ExecutionInterrupt):
            guard.checkpoint()
            guard.checkpoint()
        assert guard.tripped is not None
        guard.arm()  # re-stamps the deadline origin
        assert guard.tripped is None
        guard.checkpoint()  # one tick past the new origin: within budget


class TestFaultSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_index": -1},
            {"call_index": -2},
            {"times": 0},
            {"delay_seconds": -0.1},
        ],
    )
    def test_validation(self, kwargs):
        base = {"kind": FaultKind.ERROR, "batch_index": 0}
        base.update(kwargs)
        with pytest.raises(ValueError):
            FaultSpec(**base)


class TestFaultInjector:
    def test_error_fault_fires_on_exact_key(self):
        injector = FaultInjector(
            [FaultSpec(FaultKind.ERROR, batch_index=2, call_index=1)]
        )
        injector.maybe_fire(2, 0, 0)  # wrong call
        injector.maybe_fire(1, 0, 1)  # wrong batch
        with pytest.raises(FaultInjectionError):
            injector.maybe_fire(2, 0, 1)

    def test_fault_passes_after_times_attempts(self):
        injector = FaultInjector([FaultSpec(FaultKind.ERROR, batch_index=0, times=2)])
        with pytest.raises(FaultInjectionError):
            injector.maybe_fire(0, 0, 0)
        with pytest.raises(FaultInjectionError):
            injector.maybe_fire(0, 1, 0)
        injector.maybe_fire(0, 2, 0)  # attempt >= times: recovered

    def test_slow_fault_sleeps(self):
        import time

        injector = FaultInjector(
            [FaultSpec(FaultKind.SLOW, batch_index=0, delay_seconds=0.02)]
        )
        start = time.monotonic()
        injector.maybe_fire(0, 0, 0)
        assert time.monotonic() - start >= 0.02

    def test_random_schedule_is_seed_deterministic(self):
        a = FaultInjector.random(num_batches=20, rate=0.5, seed=7)
        b = FaultInjector.random(num_batches=20, rate=0.5, seed=7)
        c = FaultInjector.random(num_batches=20, rate=0.5, seed=8)
        assert a.faults == b.faults
        assert a.faults != c.faults

    def test_crash_fault_raises_worker_crashed(self):
        injector = FaultInjector(
            [
                FaultSpec(FaultKind.CRASH, batch_index=0, times=2),
                FaultSpec(FaultKind.ERROR, batch_index=1),
            ]
        )
        # Specs fire on attempts 0..times-1 only.
        for attempt in range(2):
            with pytest.raises(WorkerCrashed):
                injector.maybe_fire(0, attempt, 0)
        injector.maybe_fire(0, 2, 0)
        # ERROR stays a plain FaultInjectionError; CRASH is one too.
        with pytest.raises(FaultInjectionError) as error:
            injector.maybe_fire(1, 0, 0)
        assert not isinstance(error.value, WorkerCrashed)
        assert issubclass(WorkerCrashed, FaultInjectionError)
        # Unscheduled indexes pass through untouched.
        injector.maybe_fire(7, 0, 0)
