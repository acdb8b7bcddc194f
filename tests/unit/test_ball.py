"""Unit tests for the d-hop ball kernel (:mod:`repro.graph.ball`).

Small hand-checked cases; ``tests/property/test_ball_kernel_properties.py``
checks the same reads against naive oracles on random graphs.
"""

import pytest

from repro.graph.attributed_graph import AttributedGraph, Enumerations
from repro.graph.ball import BallKernel, d_hop_ball, mask_ball, mask_positions
from repro.graph.builder import GraphBuilder
from repro.matching.delta import GraphDelta, apply_delta_in_place


@pytest.fixture(scope="module")
def path_graph():
    # 0 -> 1 -> 2 -> 3 -> 4 (labels alternate a/b).
    b = GraphBuilder()
    for i in range(5):
        b.node("a" if i % 2 == 0 else "b", pos=i)
    for i in range(4):
        b.edge(i, i + 1, "next")
    return b.build()


class TestBallView:
    def test_membership(self, path_graph):
        ball = d_hop_ball(path_graph, [2], 1)
        assert ball.ids() == {1, 2, 3}
        # a-nodes 0, 2, 4 sit at positions 0, 1, 2; b-nodes 1, 3 at 0, 1.
        assert ball.mask("a") == 0b010
        assert ball.mask("b") == 0b11
        # Streaming repair keeps an answer's bits outside the ball.
        assert 0b111 & ~ball.mask("a") == 0b101

    def test_attribute_values_scoped(self, path_graph):
        ball = d_hop_ball(path_graph, [2], 1)
        # Nodes 1 (b) and 3 (b) are in the ball; their pos values show up.
        assert ball.attribute_values(path_graph, "b", "pos") == {1, 3}
        assert ball.attribute_values(path_graph, "a", "pos") == {2}
        assert ball.attribute_values(path_graph, "a", "missing") == set()

    def test_has_labeled_edge(self, path_graph):
        ball = d_hop_ball(path_graph, [2], 1)
        assert ball.has_labeled_edge("next")  # 1->2 and 2->3 are internal.
        tiny = d_hop_ball(path_graph, [0], 0)
        assert not tiny.has_labeled_edge("next")
        assert not ball.has_labeled_edge("unknown")

    def test_mask_seeded_walk(self, path_graph):
        ball = mask_ball(path_graph, "b", 0b10, 1)  # seed: node 3
        assert ball.ids() == {2, 3, 4}


class TestKernel:
    def test_label_grouped_enumeration(self, path_graph):
        kernel = path_graph.ball_kernel()
        assert kernel.order.tolist() == [0, 2, 4, 1, 3]
        assert kernel.spans == {"a": (0, 3), "b": (3, 5)}

    def test_rows_equal_neighbors(self):
        b = GraphBuilder()
        for i in range(5):
            b.node("a" if i % 2 else "b")
        for source, target, label in ((0, 1, "e"), (1, 0, "f"), (2, 2, "e"), (3, 1, "e")):
            b.edge(source, target, label)
        graph = b.build()
        kernel = graph.ball_kernel()
        order = kernel.order.tolist()
        for position, node in enumerate(order):
            row = kernel.targets[kernel.offsets[position] : kernel.offsets[position + 1]]
            assert [order[p] for p in row.tolist()] == sorted(
                graph.neighbors(node), key=order.index
            )

    def test_spliced_rows_track_neighbors(self):
        b = GraphBuilder()
        for i in range(6):
            b.node("a" if i < 3 else "b")
        for source, target in ((0, 1), (1, 2), (3, 4), (5, 5)):
            b.edge(source, target, "e")
        graph = b.build()
        kernel = graph.ball_kernel()
        apply_delta_in_place(
            graph,
            GraphDelta(
                insert_edges=((2, 3, "f"), (4, 4, "e")),
                delete_edges=((0, 1, "e"), (5, 5, "e")),
            ),
        )
        assert graph.ball_kernel() is kernel
        fresh = BallKernel(Enumerations(graph._by_label), graph._out)
        assert kernel.offsets.tolist() == fresh.offsets.tolist()
        assert kernel.targets.tolist() == fresh.targets.tolist()
        for label, (src, dst) in fresh.edges.items():
            spliced = sorted(zip(*(a.tolist() for a in kernel.edges[label])))
            assert spliced == sorted(zip(src.tolist(), dst.tolist()))

    def test_add_node_and_add_edge_drop_kernel(self):
        graph = AttributedGraph()
        graph.add_node(0, "a")
        graph.add_node(1, "a")
        kernel = graph.ball_kernel()
        graph.add_edge(0, 1, "e")
        assert graph.ball_kernel() is not kernel
        assert d_hop_ball(graph, [0], 1).ids() == {0, 1}
        graph.add_node(2, "b")
        assert len(graph.ball_kernel()) == 3


class TestMaskHelpers:
    def test_positions_are_set_bits_ascending(self):
        assert mask_positions(0, 8) == []
        assert mask_positions(0b101001, 6) == [0, 3, 5]
        assert mask_positions((1 << 70) | 2, 71) == [1, 70]
