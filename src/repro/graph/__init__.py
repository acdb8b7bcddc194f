"""Attributed directed graph substrate.

This subpackage implements the graph model of the paper's Section II:
directed graphs ``G = (V, E, L, T)`` where every node and edge carries a
label and every node carries a tuple of attribute/value pairs. On top of the
store it provides the secondary structures the generation algorithms rely
on: per-(label, attribute) sorted value indexes (active domains), the
d-hop ball kernel (:mod:`repro.graph.ball`, for template refinement and
streaming repair), the numeric per-(label, attribute) columns of the δ
kernel (:mod:`repro.graph.gower_columns`), builders, (de)serialization and
summary statistics (Table II).
"""

from repro.graph.attributed_graph import AttributedGraph, Edge, Node
from repro.graph.builder import GraphBuilder
from repro.graph.active_domain import ActiveDomainIndex
from repro.graph.indexes import AttributeIndex
from repro.graph.sampling import d_hop_neighborhood, induced_subgraph
from repro.graph.statistics import GraphStatistics, compute_statistics
from repro.graph.transform import (
    filter_nodes,
    largest_weakly_connected_component,
    project_labels,
    relabel,
)

__all__ = [
    "AttributedGraph",
    "Node",
    "Edge",
    "GraphBuilder",
    "AttributeIndex",
    "ActiveDomainIndex",
    "d_hop_neighborhood",
    "induced_subgraph",
    "GraphStatistics",
    "compute_statistics",
    "filter_nodes",
    "project_labels",
    "relabel",
    "largest_weakly_connected_component",
]
