"""Neighborhood sampling and induced subgraphs.

Template refinement (paper Section IV, procedure Spawn) tracks ``G_q^d``:
the subgraph induced by the d-hop neighbors of the current match set, where
``d`` is the template's diameter. Restricting active domains and edge
variables to what exists inside ``G_q^d`` prunes spawn candidates that can
never produce matches.
"""

from __future__ import annotations

from collections import deque
from typing import FrozenSet, Iterable, Set

from repro.graph.attributed_graph import AttributedGraph


def d_hop_neighborhood(
    graph: AttributedGraph, seeds: Iterable[int], d: int
) -> FrozenSet[int]:
    """Node ids within ``d`` undirected hops of any seed (seeds included).

    BFS over the union of in- and out-adjacency; ``d = 0`` returns the
    seeds themselves. When the graph's columnar store is built (columnar
    indexes or a service context enabled it), the BFS walks the undirected CSR
    instead — level-synchronous frontier expansion over flat offset
    arrays, same ball.
    """
    store = graph.columnar_store()
    if store is not None:
        return store.d_hop(seeds, d)
    seen: Set[int] = set(seeds)
    frontier = deque((node, 0) for node in seen)
    while frontier:
        current, depth = frontier.popleft()
        if depth == d:
            continue
        for neighbor in graph.neighbors(current):
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append((neighbor, depth + 1))
    return frozenset(seen)


def induced_subgraph(graph: AttributedGraph, nodes: Iterable[int]) -> AttributedGraph:
    """The subgraph of ``graph`` induced by ``nodes`` (copy).

    Node ids, labels and attributes are preserved; only edges with both
    endpoints inside the node set are kept.
    """
    keep = set(nodes)
    sub = AttributedGraph(f"{graph.name}|induced")
    for node_id in keep:
        node = graph.node(node_id)
        sub.add_node(node_id, node.label, dict(node.attributes))
    for node_id in keep:
        for edge in graph.out_edges(node_id):
            if edge.target in keep:
                sub.add_edge(edge.source, edge.target, edge.label)
    return sub.freeze()


class NeighborhoodView:
    """A lightweight membership view of ``G_q^d`` without copying the graph.

    Spawn only needs membership tests ("is this node inside the d-hop
    ball?") and per-label attribute scans restricted to the ball, so a set
    plus the original graph suffices — materializing an induced copy per
    verified instance would dominate the runtime.
    """

    def __init__(self, graph: AttributedGraph, members: FrozenSet[int]) -> None:
        self.graph = graph
        self.members = members

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.members

    def __len__(self) -> int:
        return len(self.members)

    def attribute_values(self, label: str, attribute: str) -> Set[object]:
        """Distinct values of ``attribute`` over in-ball nodes with ``label``."""
        values: Set[object] = set()
        for node_id in self.graph.nodes_with_label(label):
            if node_id in self.members:
                value = self.graph.attribute(node_id, attribute)
                if value is not None:
                    values.add(value)
        return values

    def has_labeled_edge(self, edge_label: str) -> bool:
        """True iff some edge with ``edge_label`` has both endpoints in-ball."""
        for node_id in self.members:
            for target in self.graph.successors(node_id, edge_label):
                if target in self.members:
                    return True
        return False


def neighborhood_view(
    graph: AttributedGraph, seeds: Iterable[int], d: int
) -> NeighborhoodView:
    """Build the :class:`NeighborhoodView` of the d-hop ball around seeds."""
    return NeighborhoodView(graph, d_hop_neighborhood(graph, seeds, d))
