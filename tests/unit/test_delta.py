"""Unit tests for graph deltas and localized match maintenance."""

import pytest

from repro.errors import GraphError
from repro.graph.builder import GraphBuilder
from repro.matching.delta import (
    GraphDelta,
    IncrementalMatchMaintainer,
    apply_delta,
    apply_delta_in_place,
    graph_signature,
    invert_delta,
    validate_delta,
)
from repro.query import Instantiation, Literal, Op, QueryInstance, QueryTemplate


@pytest.fixture()
def chain_graph():
    # a0 -> a1 -> a2 -> a3, all label 'a'.
    b = GraphBuilder()
    for i in range(4):
        b.node("a", x=i)
    for i in range(3):
        b.edge(i, i + 1, "e")
    return b.build()


def one_hop_instance():
    template = (
        QueryTemplate.builder("hop")
        .node("u0", "a")
        .node("u1", "a")
        .fixed_edge("u1", "u0", "e")
        .output("u0")
        .build()
    )
    return QueryInstance(Instantiation(template))


class TestGraphDelta:
    def test_touched_nodes(self):
        delta = GraphDelta(insert_edges=((0, 1, "e"),), delete_edges=((2, 3, "e"),))
        assert delta.touched_nodes == {0, 1, 2, 3}
        assert not delta.is_empty
        assert GraphDelta().is_empty

    def test_touched_nodes_includes_attribute_updates(self):
        delta = GraphDelta(set_attributes=((2, "x", 9),))
        assert delta.touched_nodes == {2}
        assert not delta.is_empty

    def test_touched_nodes_cached(self):
        delta = GraphDelta(insert_edges=((0, 1, "e"),))
        assert delta.touched_nodes is delta.touched_nodes


class TestApplyDelta:
    def test_insert_and_delete(self, chain_graph):
        delta = GraphDelta(
            insert_edges=((3, 0, "e"),), delete_edges=((0, 1, "e"),)
        )
        updated = apply_delta(chain_graph, delta)
        assert updated.has_edge(3, 0, "e")
        assert not updated.has_edge(0, 1, "e")
        assert chain_graph.has_edge(0, 1, "e")  # Original untouched.

    def test_delete_missing_edge_rejected(self, chain_graph):
        with pytest.raises(GraphError):
            apply_delta(chain_graph, GraphDelta(delete_edges=((0, 3, "e"),)))

    def test_insert_unknown_node_rejected(self, chain_graph):
        with pytest.raises(GraphError):
            apply_delta(chain_graph, GraphDelta(insert_edges=((0, 99, "e"),)))

    def test_attributes_preserved(self, chain_graph):
        updated = apply_delta(chain_graph, GraphDelta(insert_edges=((3, 0, "e"),)))
        assert updated.attribute(2, "x") == 2

    def test_attribute_update_last_wins(self, chain_graph):
        updated = apply_delta(
            chain_graph,
            GraphDelta(set_attributes=((1, "x", 7), (1, "x", 9))),
        )
        assert updated.attribute(1, "x") == 9
        assert chain_graph.attribute(1, "x") == 1  # Original untouched.

    def test_attribute_none_removes(self, chain_graph):
        updated = apply_delta(chain_graph, GraphDelta(set_attributes=((1, "x", None),)))
        assert updated.attribute(1, "x") is None

    def test_attribute_update_unknown_node_rejected(self, chain_graph):
        with pytest.raises(GraphError):
            apply_delta(chain_graph, GraphDelta(set_attributes=((99, "x", 1),)))

    def test_validate_passes_on_applicable_delta(self, chain_graph):
        validate_delta(
            chain_graph,
            GraphDelta(insert_edges=((3, 0, "e"),), delete_edges=((0, 1, "e"),)),
        )


class TestEdgeLabels:
    def test_deleting_last_edge_of_a_label_drops_the_label(self, chain_graph):
        graph = apply_delta(chain_graph, GraphDelta(insert_edges=((3, 0, "f"),)))
        assert graph.edge_labels() == {"e", "f"}
        delete = GraphDelta(delete_edges=((3, 0, "f"),))
        assert apply_delta(graph, delete).edge_labels() == {"e"}
        apply_delta_in_place(graph, delete)
        assert graph.edge_labels() == {"e"}
        apply_delta_in_place(graph, GraphDelta(delete_edges=((0, 1, "e"), (1, 2, "e"))))
        assert graph.edge_labels() == {"e"}
        apply_delta_in_place(graph, GraphDelta(delete_edges=((2, 3, "e"),)))
        assert graph.edge_labels() == frozenset()


def warm(graph):
    """Build every piece of ``graph``'s derived state."""
    graph.indexes().bitsets.adjacency_row(1, "e", True, "a")
    graph.indexes().attributes.matching_nodes("a", "x", Op.GE, 1)
    graph.ball_kernel()
    graph.gower_column("a", "x")
    graph.active_domain("x", "a")
    graph.label_attribute_names("a")


def kernel_state(kernel):
    return (
        kernel.offsets.tolist(),
        kernel.targets.tolist(),
        {label: (s.tolist(), t.tolist()) for label, (s, t) in kernel.edges.items()},
    )


class TestCopy:
    def test_fresh_copy_holds_content_and_no_derived_state(self, chain_graph):
        warm(chain_graph)
        for copy in (chain_graph.copy(), apply_delta(chain_graph, GraphDelta())):
            assert copy is not chain_graph
            assert copy.name == chain_graph.name
            assert graph_signature(copy) == graph_signature(chain_graph)
            assert copy.edge_labels() == chain_graph.edge_labels()
            assert copy.num_edges == chain_graph.num_edges
            assert copy._indexes is None and copy._ball is None
            assert not copy._enumerations and not copy._columns
            assert not copy._domains and not copy._label_attributes
            with pytest.raises(GraphError):
                copy.add_node(99, "a")

    def test_in_place_deltas_on_a_copy_leave_the_original(self, chain_graph):
        warm(chain_graph)
        signature = graph_signature(chain_graph)
        indexes = chain_graph.indexes()
        kernel = chain_graph.ball_kernel()
        column = chain_graph.gower_column("a", "x")

        def derived_state():
            return (
                kernel_state(kernel),
                column.codes.tolist(),
                indexes.bitsets.cached_rows,
                indexes.bitsets.adjacency_row(1, "e", True, "a"),
                indexes.attributes.matching_nodes("a", "x", Op.GE, 1),
                chain_graph.active_domain("x", "a"),
            )

        before = derived_state()
        copy = chain_graph.copy()
        warm(copy)
        apply_delta_in_place(
            copy,
            GraphDelta(
                insert_edges=((3, 0, "f"),),
                delete_edges=((0, 1, "e"), (1, 2, "e"), (2, 3, "e")),
                set_attributes=((1, "x", 9), (2, "x", None)),
            ),
        )
        assert copy.edge_labels() == {"f"}
        assert graph_signature(chain_graph) == signature
        assert chain_graph.edge_labels() == {"e"}
        assert chain_graph.indexes() is indexes
        assert chain_graph.ball_kernel() is kernel
        assert chain_graph.gower_column("a", "x") is column
        assert derived_state() == before


class TestInvertDelta:
    def test_edge_round_trip(self, chain_graph):
        delta = GraphDelta(insert_edges=((3, 0, "e"),), delete_edges=((0, 1, "e"),))
        inverse = invert_delta(chain_graph, delta)
        restored = apply_delta(apply_delta(chain_graph, delta), inverse)
        assert restored.has_edge(0, 1, "e")
        assert not restored.has_edge(3, 0, "e")

    def test_attribute_inverse_restores_old_value(self, chain_graph):
        delta = GraphDelta(set_attributes=((1, "x", 7), (1, "y", 5)))
        inverse = invert_delta(chain_graph, delta)
        assert set(inverse.set_attributes) == {(1, "x", 1), (1, "y", None)}
        restored = apply_delta(apply_delta(chain_graph, delta), inverse)
        assert restored.attribute(1, "x") == 1
        assert restored.attribute(1, "y") is None

    def test_idempotent_insert_excluded_from_inverse(self, chain_graph):
        # Inserting an already-present edge is a no-op; the inverse must
        # not delete it.
        delta = GraphDelta(insert_edges=((0, 1, "e"),))
        inverse = invert_delta(chain_graph, delta)
        assert inverse.is_empty

    def test_net_noop_edge_drops_out(self, chain_graph):
        delta = GraphDelta(
            insert_edges=((0, 1, "e"),), delete_edges=((0, 1, "e"),)
        )
        inverse = invert_delta(chain_graph, delta)
        assert inverse.is_empty


class TestMaintainer:
    def test_initial_matches(self, chain_graph):
        maintainer = IncrementalMatchMaintainer(chain_graph, one_hop_instance())
        # Targets of any edge: a1, a2, a3.
        assert maintainer.matches == {1, 2, 3}

    def test_insert_grows_matches(self, chain_graph):
        maintainer = IncrementalMatchMaintainer(chain_graph, one_hop_instance())
        maintainer.apply(GraphDelta(insert_edges=((3, 0, "e"),)))
        assert maintainer.matches == {0, 1, 2, 3}

    def test_delete_shrinks_matches(self, chain_graph):
        maintainer = IncrementalMatchMaintainer(chain_graph, one_hop_instance())
        maintainer.apply(GraphDelta(delete_edges=((0, 1, "e"),)))
        assert maintainer.matches == {2, 3}

    def test_locality_limits_rechecks(self):
        # Two far-apart components; touching one must not re-verify the other.
        b = GraphBuilder()
        for i in range(8):
            b.node("a", x=i)
        b.edge(0, 1, "e")
        b.edge(6, 7, "e")
        graph = b.build()
        maintainer = IncrementalMatchMaintainer(graph, one_hop_instance())
        maintainer.apply(GraphDelta(insert_edges=((1, 2, "e"),)))
        # The ball around nodes 1, 2 (diameter 1) excludes 6 and 7.
        assert maintainer.last_rechecked <= 4
        assert maintainer.matches == {1, 2, 7}
