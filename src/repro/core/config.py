"""Generation configuration — the paper's ``C = (G, Q(u_o), P, ε)``.

Bundles the graph, template, groups and ε together with the practical
knobs every algorithm shares (diversity λ, kernels, domain quantization,
optimization toggles), so all generators take a single argument and
experiments can flip one field at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro.errors import ConfigurationError
from repro.core.measures import CoverageMeasure, DiversityMeasure
from repro.core.relevance import RelevanceScorer
from repro.graph.active_domain import ActiveDomainIndex
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.indexes import GraphIndexes
from repro.groups.system import GroupSystem
from repro.obs.registry import MetricsRegistry
from repro.query.template import QueryTemplate
from repro.runtime.budget import Budget, CancellationToken


@dataclass
class GenerationConfig:
    """Everything a FairSQG generator needs.

    Attributes:
        graph: The data graph ``G``.
        template: The query template ``Q(u_o)``.
        groups: Node groups ``P`` with coverage constraints: a
            :class:`~repro.groups.system.GroupSystem` (the paper's
            disjoint groups, or overlapping multi-attribute predicates,
            relaxed thresholds and a pluggable aggregate ``f``).
        epsilon: The ε of ε-dominance (must be > 0).
        lam: Relevance/diversity balance λ of the diversity measure.
        relevance: Optional relevance scorer (default: constant 1).
        distance: Optional pairwise distance kernel (default: Gower).
        diversity_mode: ``"auto"`` / ``"exact"`` / ``"decomposed"``.
        max_domain_values: Cap on each range variable's active domain
            (None = raw domain). Controls ``|I(Q)|``.
        use_incremental: Seed child verification from parents (incVerify).
        use_template_refinement: Enable Spawn's d-hop domain restriction
            and edge-variable fixing (Section IV optimization).
        injective: Use isomorphism-style (injective) match semantics.
        verifier_max_entries: Optional LRU bound on the verification memo
            table (None = unbounded; set for long online streams).
        metrics: Optional shared :class:`~repro.obs.registry.MetricsRegistry`
            into which generators publish their per-run work counters
            (``fairsqg ... --metrics`` plugs in here). Never changes
            results — only observability.
        budget: Optional :class:`~repro.runtime.budget.Budget` bounding
            the run (deadline / max instances / max backtracks). On
            exhaustion the generator returns its current ε-Pareto archive
            as a valid partial result with ``RunStats.truncated`` set.
        cancellation: Optional cooperative
            :class:`~repro.runtime.budget.CancellationToken`; cancelling
            it truncates the run at the next checkpoint, same contract
            as budget exhaustion.
        literal_pool_max_entries: Optional LRU bound on the matcher's
            local literal-pool cache (None = unbounded; set for
            long-lived engines such as online streams or serving
            sessions).
        use_delta_scoring: Route quality evaluation through the
            delta-scoring engine (:mod:`repro.scoring`): per-instance δ/f
            maintained by answer-set deltas along lattice edges plus an
            answer-fingerprint score cache. Values are bitwise-identical
            to from-scratch scoring; this knob only changes *how* they
            are computed. Off by default.
        scoring_delta_max_fraction: Delta-path acceptance threshold — a
            child whose answer differs from its parent's by more than
            this fraction of the parent answer size is rebuilt from
            scratch instead of derived (must lie in [0, 1]).
        score_cache_max_entries: LRU bound on the delta-scoring engine's
            fingerprint caches (scores and states each; None = unbounded).
    """

    graph: AttributedGraph
    template: QueryTemplate
    groups: GroupSystem
    epsilon: float = 0.01
    lam: float = 0.5
    relevance: Optional[RelevanceScorer] = None
    distance: Optional[Callable[[int, int], float]] = None
    diversity_mode: str = "auto"
    max_domain_values: Optional[int] = 8
    use_incremental: bool = True
    use_template_refinement: bool = True
    injective: bool = False
    verifier_max_entries: Optional[int] = None
    metrics: Optional[MetricsRegistry] = None
    budget: Optional[Budget] = None
    cancellation: Optional[CancellationToken] = None
    literal_pool_max_entries: Optional[int] = None
    use_delta_scoring: bool = False
    scoring_delta_max_fraction: float = 0.5
    score_cache_max_entries: Optional[int] = 4096

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ConfigurationError("epsilon must be positive")
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigurationError("lambda must lie in [0, 1]")
        if (
            self.literal_pool_max_entries is not None
            and self.literal_pool_max_entries <= 0
        ):
            raise ConfigurationError(
                "literal_pool_max_entries must be positive or None"
            )
        if not 0.0 <= self.scoring_delta_max_fraction <= 1.0:
            raise ConfigurationError(
                "scoring_delta_max_fraction must lie in [0, 1]"
            )
        if (
            self.score_cache_max_entries is not None
            and self.score_cache_max_entries <= 0
        ):
            raise ConfigurationError(
                "score_cache_max_entries must be positive or None"
            )
        output_label = self.template.node(self.template.output_node).label
        if self.graph.count_label(output_label) == 0:
            raise ConfigurationError(
                f"graph has no nodes labeled {output_label!r} (the output label)"
            )

    # Shared, lazily-built helpers -------------------------------------- #

    def build_indexes(self) -> GraphIndexes:
        """The graph's own :class:`GraphIndexes`, shared by every config
        on this graph (built on the first call for the graph)."""
        return self.graph.indexes()

    def build_domains(self) -> ActiveDomainIndex:
        """Fresh :class:`ActiveDomainIndex` honoring ``max_domain_values``."""
        return ActiveDomainIndex(self.graph, self.template, self.max_domain_values)

    def build_diversity(self) -> DiversityMeasure:
        """The diversity measure for the template's output label."""
        output_label = self.template.node(self.template.output_node).label
        return DiversityMeasure(
            self.graph,
            output_label,
            lam=self.lam,
            relevance=self.relevance,
            distance=self.distance,
            mode=self.diversity_mode,
        )

    def build_coverage(self) -> CoverageMeasure:
        """The coverage measure over this configuration's groups."""
        return CoverageMeasure(self.groups)

    def with_epsilon(self, epsilon: float) -> "GenerationConfig":
        """Copy with a different ε (parameter sweeps)."""
        return replace(self, epsilon=epsilon)

    def with_groups(self, groups: GroupSystem) -> "GenerationConfig":
        """Copy with different groups/constraints."""
        return replace(self, groups=groups)

    def with_template(self, template: QueryTemplate) -> "GenerationConfig":
        """Copy with a different template."""
        return replace(self, template=template)

    def with_budget(self, budget: Optional[Budget]) -> "GenerationConfig":
        """Copy with a different execution budget (None removes it)."""
        return replace(self, budget=budget)
