"""Unit tests for d-hop neighborhoods (the id-set view) and induced subgraphs."""

import pytest

from repro.graph.builder import GraphBuilder
from repro.graph.sampling import d_hop_neighborhood, induced_subgraph


@pytest.fixture(scope="module")
def path_graph():
    # 0 -> 1 -> 2 -> 3 -> 4 (labels alternate a/b).
    b = GraphBuilder()
    for i in range(5):
        b.node("a" if i % 2 == 0 else "b", pos=i)
    for i in range(4):
        b.edge(i, i + 1, "next")
    return b.build()


class TestDHop:
    def test_zero_hops_is_seeds(self, path_graph):
        assert d_hop_neighborhood(path_graph, [2], 0) == {2}

    def test_one_hop_is_undirected(self, path_graph):
        assert d_hop_neighborhood(path_graph, [2], 1) == {1, 2, 3}

    def test_multiple_seeds(self, path_graph):
        assert d_hop_neighborhood(path_graph, [0, 4], 1) == {0, 1, 3, 4}

    def test_saturation(self, path_graph):
        assert d_hop_neighborhood(path_graph, [2], 10) == {0, 1, 2, 3, 4}

    def test_unknown_seeds_kept_unexpanded(self, path_graph):
        ball = d_hop_neighborhood(path_graph, [0, 999], 1)
        assert ball == {0, 1, 999}


class TestInducedSubgraph:
    def test_keeps_internal_edges_only(self, path_graph):
        sub = induced_subgraph(path_graph, [1, 2, 3])
        assert sub.num_nodes == 3
        assert sub.num_edges == 2
        assert sub.has_edge(1, 2, "next") and sub.has_edge(2, 3, "next")

    def test_preserves_attributes(self, path_graph):
        sub = induced_subgraph(path_graph, [0])
        assert sub.attribute(0, "pos") == 0

    def test_result_frozen(self, path_graph):
        sub = induced_subgraph(path_graph, [0])
        from repro.errors import GraphError

        with pytest.raises(GraphError):
            sub.add_node(99, "x")
