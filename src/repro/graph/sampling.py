"""Neighborhood sampling and induced subgraphs.

Template refinement (paper Section IV, procedure Spawn) tracks ``G_q^d``:
the subgraph induced by the d-hop neighbors of the current match set, where
``d`` is the template's diameter. Restricting active domains and edge
variables to what exists inside ``G_q^d`` prunes spawn candidates that can
never produce matches. The ball itself is :mod:`repro.graph.ball`; this
module keeps its id-set view and induced subgraphs.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable

from repro.graph.attributed_graph import AttributedGraph
from repro.graph.ball import d_hop_ball


def d_hop_neighborhood(
    graph: AttributedGraph, seeds: Iterable[int], d: int
) -> FrozenSet[int]:
    """Node ids within ``d`` undirected hops of any seed (seeds included).

    An id-set view of :func:`repro.graph.ball.d_hop_ball` (in- plus
    out-adjacency; ``d = 0`` returns the seeds themselves). Seeds that are
    not nodes of ``graph`` are kept in the result and never expanded.
    """
    seeds = frozenset(seeds)
    return seeds | d_hop_ball(graph, seeds, d).ids()


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
