"""FairSQG over RPQs: ε-Pareto generation for regular path queries.

``RPQGen`` enumerates the (quantized) instance space of an
:class:`~repro.rpq.template.RPQTemplate`, evaluates each instance's answer,
scores it with the *same* diversity and coverage measures as subgraph
instances, and maintains the ε-Pareto set through the same Update archive —
demonstrating that the paper's machinery is query-class agnostic (its §VI
extension claim). The refinement monotonicity holds for RPQ endpoint
predicates too, so the exhaustive strategy here could be upgraded to the
lattice algorithms without touching the archive.
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.core.evaluator import EvaluatedInstance
from repro.core.measures import CoverageMeasure, DiversityMeasure
from repro.core.relevance import RelevanceScorer
from repro.core.result import GenerationResult, RunStats
from repro.core.update import EpsilonParetoArchive
from repro.errors import ConfigurationError
from repro.graph.attributed_graph import AttributedGraph
from repro.groups.system import GroupSystem
from repro.rpq.template import RPQTemplate


class RPQGen:
    """Enumerate-and-archive ε-Pareto generation for RPQ templates.

    Args:
        graph: The data graph.
        template: The RPQ template.
        groups: Disjoint groups with coverage constraints (over nodes of
            the template's target label).
        epsilon: ε of ε-dominance.
        lam: Diversity balance λ.
        relevance: Optional relevance scorer for the diversity measure.
        max_domain_values: Active-domain quantization cap.
    """

    name = "RPQGen"

    def __init__(
        self,
        graph: AttributedGraph,
        template: RPQTemplate,
        groups: GroupSystem,
        epsilon: float = 0.05,
        lam: float = 0.5,
        relevance: Optional[RelevanceScorer] = None,
        max_domain_values: Optional[int] = 8,
    ) -> None:
        if epsilon <= 0:
            raise ConfigurationError("epsilon must be positive")
        self.graph = graph
        self.template = template
        self.groups = groups
        self.epsilon = epsilon
        self.max_domain_values = max_domain_values
        self.diversity = DiversityMeasure(
            graph, template.target_label, lam=lam, relevance=relevance
        )
        self.coverage = CoverageMeasure(groups)

    def run(self) -> GenerationResult:
        """Enumerate, evaluate and archive; returns the ε-Pareto set."""
        stats = RunStats()
        archive = EpsilonParetoArchive(self.epsilon)
        start = time.perf_counter()
        instances = self.template.enumerate_instances(
            self.graph, self.max_domain_values
        )
        stats.generated = len(instances)
        seen = set()
        for instance in instances:
            if instance.key in seen:
                continue
            seen.add(instance.key)
            matches = instance.answer(self.graph)
            stats.verified += 1
            feasible = self.coverage.is_feasible(matches)
            if not feasible:
                continue
            stats.feasible += 1
            evaluated = EvaluatedInstance(
                instance=instance,  # type: ignore[arg-type] — duck-typed.
                matches=matches,
                delta=self.diversity.of(matches),
                coverage=self.coverage.of(matches),
                feasible=True,
            )
            archive.offer(evaluated)
        stats.elapsed_seconds = time.perf_counter() - start
        return GenerationResult(
            algorithm=self.name,
            instances=archive.instances(),
            epsilon=self.epsilon,
            stats=stats,
        )


class RPQRfGen(RPQGen):
    """Refinement-lattice generation for RPQs (RfQGen's strategy).

    The endpoint-predicate domains are already in refinement order
    (:meth:`RPQTemplate.domains`), and tightening any bound shrinks the
    answer, so the subgraph case's two levers carry over verbatim:
    depth-first exploration from the most relaxed binding, and pruning the
    entire refinement subtree of any infeasible instance.
    """

    name = "RPQRfGen"

    def run(self) -> GenerationResult:
        stats = RunStats()
        archive = EpsilonParetoArchive(self.epsilon)
        start = time.perf_counter()
        domains = self.template.domains(self.graph, self.max_domain_values)
        names = list(domains)

        def root_bindings() -> dict:
            return {
                name: (values[0] if values else None) for name, values in domains.items()
            }

        def children(bindings: dict) -> List[dict]:
            out: List[dict] = []
            for name in names:
                values = domains[name]
                if not values:
                    continue
                index = values.index(bindings[name])
                if index + 1 < len(values):
                    refined = dict(bindings)
                    refined[name] = values[index + 1]
                    out.append(refined)
            return out

        visited = set()
        stack = [root_bindings()]
        stats.generated += 1
        while stack:
            bindings = stack.pop()
            instance = self.template.instantiate(
                {k: v for k, v in bindings.items() if v is not None}
            )
            if instance.key in visited:
                continue
            visited.add(instance.key)
            matches = instance.answer(self.graph)
            stats.verified += 1
            if not self.coverage.is_feasible(matches):
                # Refinements only shrink the answer: prune the subtree.
                stats.pruned += 1
                continue
            stats.feasible += 1
            archive.offer(
                EvaluatedInstance(
                    instance=instance,  # type: ignore[arg-type] — duck-typed.
                    matches=matches,
                    delta=self.diversity.of(matches),
                    coverage=self.coverage.of(matches),
                    feasible=True,
                )
            )
            for child in children(bindings):
                stats.generated += 1
                stack.append(child)
        stats.elapsed_seconds = time.perf_counter() - start
        return GenerationResult(
            algorithm=self.name,
            instances=archive.instances(),
            epsilon=self.epsilon,
            stats=stats,
        )


class RPQBiGen(RPQGen):
    """Bi-directional RPQ generation (BiQGen's strategy on RPQ lattices).

    Alternates a forward frontier (refining from the most relaxed binding)
    with a backward frontier (relaxing from the most refined one), sharing
    one visited set and one archive. Forward prunes infeasible subtrees
    (Lemma 2's analogue for endpoint predicates); backward skips
    verification of instances that refine a recorded infeasible witness.
    """

    name = "RPQBiGen"

    def run(self) -> GenerationResult:
        from collections import deque

        stats = RunStats()
        archive = EpsilonParetoArchive(self.epsilon)
        start = time.perf_counter()
        domains = self.template.domains(self.graph, self.max_domain_values)
        names = list(domains)

        def bindings_at(extreme: int) -> dict:
            return {
                name: (values[extreme] if values else None)
                for name, values in domains.items()
            }

        def step(bindings: dict, direction: int) -> List[dict]:
            out: List[dict] = []
            for name in names:
                values = domains[name]
                if not values:
                    continue
                index = values.index(bindings[name]) + direction
                if 0 <= index < len(values):
                    moved = dict(bindings)
                    moved[name] = values[index]
                    out.append(moved)
            return out

        def refines(a: dict, b: dict) -> bool:
            """a refines b: every binding at least as deep in its domain."""
            for name in names:
                values = domains[name]
                if not values:
                    continue
                if values.index(a[name]) < values.index(b[name]):
                    return False
            return True

        infeasible: List[dict] = []
        visited = set()
        forward = deque([bindings_at(0)])
        backward = deque([bindings_at(-1)])
        stats.generated += 2

        def handle(bindings: dict, is_forward: bool) -> None:
            instance = self.template.instantiate(
                {k: v for k, v in bindings.items() if v is not None}
            )
            if instance.key in visited:
                return
            visited.add(instance.key)
            if any(refines(bindings, witness) for witness in infeasible):
                stats.pruned += 1
                if not is_forward:
                    for child in step(bindings, -1):
                        stats.generated += 1
                        backward.append(child)
                return
            matches = instance.answer(self.graph)
            stats.verified += 1
            if self.coverage.is_feasible(matches):
                stats.feasible += 1
                archive.offer(
                    EvaluatedInstance(
                        instance=instance,  # type: ignore[arg-type]
                        matches=matches,
                        delta=self.diversity.of(matches),
                        coverage=self.coverage.of(matches),
                        feasible=True,
                    )
                )
            else:
                infeasible.append(dict(bindings))
                if is_forward:
                    stats.pruned += 1
                    return  # Refinements stay infeasible.
            children = step(bindings, +1) if is_forward else step(bindings, -1)
            for child in children:
                stats.generated += 1
                (forward if is_forward else backward).append(child)

        while forward or backward:
            if forward:
                handle(forward.popleft(), is_forward=True)
            if backward:
                handle(backward.popleft(), is_forward=False)

        stats.elapsed_seconds = time.perf_counter() - start
        return GenerationResult(
            algorithm=self.name,
            instances=archive.instances(),
            epsilon=self.epsilon,
            stats=stats,
        )
