"""PageRank over attributed graphs + a PageRank relevance scorer.

The diversity measure's relevance term ``r(u_o, v)`` models the "impact of
v in social networks" [16]; degree centrality (the default stand-in) is
crude on graphs with hubs-of-hubs. This module adds a numpy
power-iteration PageRank over the whole graph and a
:class:`PageRankRelevance` scorer normalizing scores within one label.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core.relevance import RelevanceScorer
from repro.graph.attributed_graph import AttributedGraph


def pagerank(
    graph: AttributedGraph,
    damping: float = 0.85,
    max_iterations: int = 100,
    tolerance: float = 1e-10,
) -> Dict[int, float]:
    """Standard PageRank by power iteration (dangling mass redistributed).

    Returns a node-id → score mapping summing to 1. Runs in
    O(iterations · |E|) numpy vector updates.
    """
    ids = sorted(graph.node_ids())
    n = len(ids)
    if n == 0:
        return {}
    position = {node_id: i for i, node_id in enumerate(ids)}

    # Sparse structure: per-edge (source_pos, target_pos) with out-degrees.
    sources = []
    targets = []
    out_degree = [0] * n
    for node_id in ids:
        for edge in graph.out_edges(node_id):
            sources.append(position[edge.source])
            targets.append(position[edge.target])
            out_degree[position[edge.source]] += 1
    teleport = (1.0 - damping) / n

    degrees = np.array(out_degree, dtype=np.float64)
    src = np.array(sources, dtype=np.int64)
    dst = np.array(targets, dtype=np.int64)
    rank = np.full(n, 1.0 / n)
    for _ in range(max_iterations):
        contribution = np.zeros(n)
        if len(src):
            weights = rank[src] / degrees[src]
            np.add.at(contribution, dst, weights)
        dangling = rank[degrees == 0].sum() / n
        updated = teleport + damping * (contribution + dangling)
        if np.abs(updated - rank).sum() < tolerance:
            rank = updated
            break
        rank = updated
    return {node_id: float(rank[position[node_id]]) for node_id in ids}


class PageRankRelevance(RelevanceScorer):
    """Relevance = PageRank score normalized by the label's maximum.

    Scores are computed once per graph at construction; lookups are O(1).
    Nodes outside the label (or an empty label) score 0.
    """

    def __init__(
        self,
        graph: AttributedGraph,
        label: str,
        damping: float = 0.85,
        precomputed: Optional[Dict[int, float]] = None,
    ) -> None:
        self.graph = graph
        self.label = label
        scores = precomputed if precomputed is not None else pagerank(graph, damping)
        members = graph.nodes_with_label(label)
        top = max((scores.get(v, 0.0) for v in members), default=0.0)
        if top > 0:
            self._scores = {v: scores.get(v, 0.0) / top for v in members}
        else:
            self._scores = {v: 0.0 for v in members}

    def __call__(self, node_id: int) -> float:
        return self._scores.get(node_id, 0.0)
