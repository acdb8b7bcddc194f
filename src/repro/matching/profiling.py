"""Verification profiling: the per-node candidate funnel of one instance.

When a query unexpectedly returns nothing (or everything), the question is
always *where the candidates went*: label pool → literal filtering → arc
consistency → final matches. :func:`profile_instance` records the funnel
per query node, making selectivity visible — the same information the
spawner's template refinement exploits, exposed for humans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.graph.attributed_graph import AttributedGraph
from repro.graph.indexes import GraphIndexes
from repro.matching.bitset import _Work
from repro.matching.matcher import SubgraphMatcher
from repro.query.instance import QueryInstance


@dataclass(frozen=True)
class NodeFunnel:
    """Candidate counts for one query node through the pipeline stages."""

    node: str
    label: str
    label_pool: int
    after_literals: int
    after_propagation: int
    is_output: bool

    @property
    def literal_selectivity(self) -> float:
        """Fraction of the label pool surviving the literals."""
        return self.after_literals / self.label_pool if self.label_pool else 0.0

    def as_row(self) -> dict:
        return {
            "node": self.node + ("*" if self.is_output else ""),
            "label": self.label,
            "label pool": self.label_pool,
            "after literals": self.after_literals,
            "after AC": self.after_propagation,
            "selectivity": round(self.literal_selectivity, 3),
        }


@dataclass(frozen=True)
class InstanceProfile:
    """Full verification profile of one instance."""

    funnels: Tuple[NodeFunnel, ...]
    matches: int
    ac_removed: int
    backtrack_calls: int

    def as_rows(self) -> List[dict]:
        return [funnel.as_row() for funnel in self.funnels]

    def bottleneck(self) -> NodeFunnel:
        """The node whose literal filtering is most selective."""
        return min(self.funnels, key=lambda f: (f.literal_selectivity, f.node))

    def summary(self) -> str:
        return (
            f"{self.matches} matches; AC removed {self.ac_removed} candidates; "
            f"{self.backtrack_calls} backtrack calls; tightest node: "
            f"{self.bottleneck().node} "
            f"(selectivity {self.bottleneck().literal_selectivity:.3f})"
        )


def profile_instance(
    graph: AttributedGraph,
    instance: QueryInstance,
    indexes: Optional[GraphIndexes] = None,
) -> InstanceProfile:
    """Run the matching pipeline stage by stage and record the funnel.

    ``indexes`` defaults to the graph's own :class:`GraphIndexes`, so
    profiling many instances of one graph builds them once.
    """
    matcher = SubgraphMatcher(graph, indexes)
    after_literals, _ = matcher.engine._initial_masks(instance, None, None, _Work())
    counts_literals = {node: mask.bit_count() for node, mask in after_literals.items()}
    result = matcher.match(instance)
    counts_ac = {
        node: mask.bit_count() for node, mask in result.candidate_masks.items()
    }

    funnels = []
    for node_id in sorted(instance.active_nodes):
        label = instance.node_label(node_id)
        funnels.append(
            NodeFunnel(
                node=node_id,
                label=label,
                label_pool=graph.count_label(label),
                after_literals=counts_literals[node_id],
                after_propagation=counts_ac[node_id],
                is_output=node_id == instance.output_node,
            )
        )
    return InstanceProfile(
        funnels=tuple(funnels),
        matches=result.cardinality,
        ac_removed=result.pruned_candidates,
        backtrack_calls=result.backtrack_calls,
    )
