"""Graph summary statistics (reproduces the shape of the paper's Table II).

Table II reports, per dataset: ``|V|``, ``|E|``, the average number of
attributes per node, the number of groups, template size, total coverage
constraint and variable count. The graph-side columns are computed here;
the configuration-side columns come from the experiment setup.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.graph.attributed_graph import AttributedGraph


@dataclass(frozen=True)
class GraphStatistics:
    """Summary statistics for one attributed graph."""

    name: str
    num_nodes: int
    num_edges: int
    num_node_labels: int
    num_edge_labels: int
    avg_attributes: float
    max_degree: int
    avg_degree: float

    def as_row(self) -> Dict[str, object]:
        """Row-dict rendering for table printers."""
        return {
            "dataset": self.name,
            "|V|": self.num_nodes,
            "|E|": self.num_edges,
            "node labels": self.num_node_labels,
            "edge labels": self.num_edge_labels,
            "avg #attr": round(self.avg_attributes, 2),
            "max deg": self.max_degree,
            "avg deg": round(self.avg_degree, 2),
        }


def compute_statistics(graph: AttributedGraph) -> GraphStatistics:
    """Compute :class:`GraphStatistics` in one pass over the graph."""
    total_attributes = 0
    max_degree = 0
    total_degree = 0
    for node in graph.nodes():
        total_attributes += len(node.attributes)
        degree = graph.degree(node.node_id)
        total_degree += degree
        max_degree = max(max_degree, degree)
    n = max(1, graph.num_nodes)
    return GraphStatistics(
        name=graph.name,
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        num_node_labels=len(graph.node_labels()),
        num_edge_labels=len(graph.edge_labels()),
        avg_attributes=total_attributes / n,
        max_degree=max_degree,
        avg_degree=total_degree / n,
    )


def label_histogram(graph: AttributedGraph) -> List[Tuple[str, int]]:
    """Node-label frequency, most common first (for dataset sanity checks)."""
    counts: Dict[str, int] = {}
    for node in graph.nodes():
        counts[node.label] = counts.get(node.label, 0) + 1
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
