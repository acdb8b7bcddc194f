"""Shared experiment plumbing: configs, universes, indicators.

An :class:`ExperimentContext` caches dataset bundles and evaluated
instance universes, because most figures sweep one parameter over the same
graph and the universe (all verified feasible instances) is the expensive
part of computing the ε-indicator.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.bench.settings import BenchSettings, bench_settings
from repro.core.config import GenerationConfig
from repro.core.evaluator import EvaluatedInstance, InstanceEvaluator
from repro.core.indicators import normalized_epsilon_indicator, r_indicator
from repro.core.lattice import InstanceLattice
from repro.datasets.registry import DatasetBundle, dataset_bundle
from repro.groups.system import GroupSystem
from repro.obs import MetricsRegistry, current_registry
from repro.query.template import QueryTemplate


def make_config(
    bundle: DatasetBundle,
    settings: BenchSettings,
    template: Optional[QueryTemplate] = None,
    groups: Optional[GroupSystem] = None,
    epsilon: Optional[float] = None,
    max_domain_values: Optional[int] = None,
    **overrides,
) -> GenerationConfig:
    """A GenerationConfig from a bundle + settings with targeted overrides."""
    settings_budget = settings.budget()
    if settings_budget is not None:
        overrides.setdefault("budget", settings_budget)
    return GenerationConfig(
        graph=bundle.graph,
        template=template or bundle.template,
        groups=groups or bundle.groups,
        epsilon=epsilon if epsilon is not None else settings.epsilon,
        max_domain_values=(
            max_domain_values
            if max_domain_values is not None
            else settings.max_domain_values
        ),
        **overrides,
    )


def evaluate_universe(config: GenerationConfig) -> List[EvaluatedInstance]:
    """All feasible evaluated instances of the configuration's space.

    Verification work done here is published into the ambient metrics
    registry (see :func:`repro.obs.collecting`) under the ``universe.``
    namespace so figure tables can report it alongside generator counters.
    """
    metrics = MetricsRegistry()
    evaluator = InstanceEvaluator(config, metrics=metrics)
    lattice = InstanceLattice(config, metrics=metrics)
    evaluated = (evaluator.evaluate(i) for i in lattice.enumerate_instances())
    feasible = [e for e in evaluated if e.feasible]
    ambient = current_registry()
    if ambient is not None:
        for name, value in metrics.counters().items():
            ambient.inc(f"universe.{name}", value)
    return feasible


class ExperimentContext:
    """Caches bundles and universes across one experiment's parameter sweep."""

    def __init__(self, settings: Optional[BenchSettings] = None) -> None:
        self.settings = settings or bench_settings()
        self._bundles: Dict[Tuple, DatasetBundle] = {}
        self._universes: Dict[Tuple, List[EvaluatedInstance]] = {}

    def bundle(
        self,
        name: str,
        num_groups: int = 2,
        coverage_total: Optional[int] = None,
    ) -> DatasetBundle:
        """Dataset bundle at the configured scale (cached)."""
        coverage = (
            coverage_total if coverage_total is not None else self.settings.coverage_total
        )
        key = (name, num_groups, coverage)
        if key not in self._bundles:
            self._bundles[key] = dataset_bundle(
                name,
                scale=self.settings.scale,
                num_groups=num_groups,
                coverage_total=coverage,
            )
        return self._bundles[key]

    def universe(self, config: GenerationConfig) -> List[EvaluatedInstance]:
        """Feasible evaluated universe of a config (cached by identity)."""
        key = (
            id(config.graph),
            config.template.name,
            tuple(sorted(config.groups.constraints().items())),
            config.max_domain_values,
            config.lam,
        )
        if key not in self._universes:
            self._universes[key] = evaluate_universe(config)
        return self._universes[key]

    # -- Indicator helpers -------------------------------------------------- #

    def i_epsilon(self, result, config: GenerationConfig) -> float:
        """Normalized ε-indicator of a result against the config's universe."""
        universe = self.universe(config)
        return normalized_epsilon_indicator(
            result.instances, universe, config.epsilon
        )

    def i_r(self, result, config: GenerationConfig, lambda_r: float) -> float:
        """R-indicator: δ normalized by the universe's best (relative),
        f by the coverage target ``C`` (the measure's range) — so harder
        coverage budgets lower the score, reproducing the Fig. 9(f) trend."""
        universe = self.universe(config)
        if not universe:
            return 0.0
        delta_max = max(p.delta for p in universe)
        coverage_max = float(config.groups.total_coverage)
        return r_indicator(result.instances, lambda_r, delta_max, coverage_max)
