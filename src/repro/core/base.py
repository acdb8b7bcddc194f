"""Shared scaffolding for the generation algorithms.

Every algorithm takes a :class:`~repro.core.config.GenerationConfig`,
exposes ``run()`` returning a
:class:`~repro.core.result.GenerationResult`, and optionally records
*anytime* snapshots of its archive every ``trace_every`` verifications —
the convergence experiments (Fig. 9(e), Fig. 11(b)) replay those traces.

Observability: each algorithm instance owns a per-run
:class:`~repro.obs.registry.MetricsRegistry` shared with its evaluator,
matcher, verifier and lattice. Work is counted under ``gen.<algo>.*``
while the run executes; :class:`~repro.core.result.RunStats` is
materialized from the registry at the end. When the run finishes, the
per-run registry is *published* (absorbed) into ``config.metrics`` and/or
the ambient :func:`repro.obs.tracing.collecting` registry, which is how
``fairsqg ... --metrics`` and the bench runner harvest counters across
many runs without per-run interference.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.config import GenerationConfig
from repro.core.evaluator import EvaluatedInstance, InstanceEvaluator
from repro.core.lattice import InstanceLattice
from repro.core.result import GenerationResult, RunStats
from repro.core.update import EpsilonParetoArchive, UpdateCase
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import current_registry
from repro.runtime.budget import ExecutionGuard


class QGenAlgorithm:
    """Base class: owns the evaluator, lattice, metrics and trace plumbing.

    Args:
        config: The generation configuration.
        trace_every: Record an archive snapshot every N verified instances
            (0 disables tracing).
    """

    name = "QGen"

    def __init__(self, config: GenerationConfig, trace_every: int = 0) -> None:
        self.config = config
        self.trace_every = trace_every
        # One registry per algorithm instance: counters stay per-run even
        # when many algorithms share a config (parameter sweeps).
        self.metrics = MetricsRegistry()
        # The run's budget/cancellation enforcement point, shared with the
        # evaluator and matcher so every layer probes the same guard.
        # Inert (no counters, no-op checkpoints) when the config carries
        # neither a budget nor a token.
        self.runtime = ExecutionGuard(
            config.budget, config.cancellation, metrics=self.metrics
        )
        self.evaluator = InstanceEvaluator(
            config, metrics=self.metrics, guard=self.runtime
        )
        self.lattice = InstanceLattice(config, metrics=self.metrics)
        self._trace: List[tuple] = []
        # Full counter name per ``_inc`` suffix, formatted once.
        self._counter_names: Dict[str, str] = {}

    # ------------------------------------------------------------------ #

    def run(self) -> GenerationResult:  # pragma: no cover - abstract
        """Execute the algorithm; subclasses implement."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Metrics helpers
    # ------------------------------------------------------------------ #

    @property
    def metrics_namespace(self) -> str:
        """Counter prefix of this algorithm (``gen.biqgen``)."""
        return f"gen.{self.name.lower()}"

    def _inc(self, suffix: str, amount: int = 1) -> None:
        """Bump ``gen.<algo>.<suffix>`` on the per-run registry."""
        name = self._counter_names.get(suffix)
        if name is None:
            name = self._counter_names[suffix] = f"{self.metrics_namespace}.{suffix}"
        self.metrics.inc(name, amount)

    def _begin_run(self) -> None:
        """Reset and pre-register this run's ``gen.<algo>.*`` counters.

        Resetting first keeps counters per-run even if ``run()`` is called
        twice on one instance; pre-registering makes every export carry
        the full counter set (zeros included).
        """
        namespace = self.metrics_namespace
        self.metrics.reset(prefix=f"{namespace}.")
        for suffix in (
            "generated",
            "verified",
            "pruned",
            "feasible",
            "dedup_skipped",
            "archive_offers",
            "archive_updates",
        ):
            self.metrics.counter(f"{namespace}.{suffix}")
        self.runtime.arm()

    def _offer(
        self, archive: EpsilonParetoArchive, evaluated: EvaluatedInstance
    ) -> UpdateCase:
        """Offer to the archive, counting offers and accepted updates.

        The budget checkpoint runs *before* the archive mutation, so a
        truncated run never leaves a half-applied Update case behind.
        """
        self.runtime.checkpoint()
        case = archive.offer(evaluated)
        self._inc("archive_offers")
        if case is not UpdateCase.REJECTED:
            self._inc("archive_updates")
        return case

    def _finalize_stats(self, stats: RunStats) -> RunStats:
        """Fill ``stats`` from the registry and publish the run's counters.

        The evaluator-derived fields (verified / incremental) are mirrored
        into the ``gen.<algo>.*`` namespace so exported snapshots carry
        per-generator work counts without consumers having to join
        namespaces, then the whole per-run registry is absorbed into
        ``config.metrics`` and the ambient collector (if any).
        """
        namespace = self.metrics_namespace
        elapsed = stats.elapsed_seconds
        stats.fill_from_registry(self.metrics, namespace)
        stats.elapsed_seconds = elapsed
        if self.runtime.tripped is not None:
            stats.truncated = True
            stats.truncation_reason = self.runtime.tripped.value
        verified_counter = self.metrics.counter(f"{namespace}.verified")
        verified_counter.inc(stats.verified - verified_counter.value)
        self.metrics.set(f"{namespace}.elapsed_seconds", stats.elapsed_seconds)
        targets = []
        for target in (self.config.metrics, current_registry()):
            if (
                target is not None
                and target is not self.metrics
                and all(target is not t for t in targets)
            ):
                targets.append(target)
        for target in targets:
            target.absorb(self.metrics)
        return stats

    # ------------------------------------------------------------------ #
    # Trace helpers
    # ------------------------------------------------------------------ #

    def _maybe_trace(self, archive_instances: List[EvaluatedInstance]) -> None:
        """Snapshot the archive if the trace cadence says so."""
        if self.trace_every and self.evaluator.verified_count % self.trace_every == 0:
            self._trace.append((self.evaluator.verified_count, list(archive_instances)))

    def _final_trace(self, archive_instances: List[EvaluatedInstance]) -> List[tuple]:
        """Close the trace with a final snapshot and return it."""
        if self.trace_every:
            self._trace.append((self.evaluator.verified_count, list(archive_instances)))
        return self._trace

    def _base_stats(self) -> RunStats:
        """Stats prefilled with the evaluator's counters."""
        stats = RunStats()
        stats.verified = self.evaluator.verified_count
        stats.incremental = self.evaluator.incremental_count
        return stats
