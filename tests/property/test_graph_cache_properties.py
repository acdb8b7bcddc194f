"""Property tests: the graph's in-place hooks repair its derived state.

A graph owns state built from it on first use — attribute tables and
adjacency rows (``graph.indexes()``), the literal-mask memo, active
domains and per-label attribute names. The in-place hooks
(``_insert_edge_in_place``, ``_delete_edge_in_place``,
``_set_attribute_in_place``) repair that state instead of dropping it.
The law pinned here: after every step of a random in-place update
stream, everything the graph holds equals a fresh build over an
identical copy (``apply_delta(graph, GraphDelta())``). Every piece of
state is warmed before each step, so a hook that forgets a repair leaves
a stale entry behind and the comparison catches it.
"""

from hypothesis import given, settings, strategies as st

from repro.graph.attributed_graph import AttributedGraph
from repro.matching.bitset import LiteralPoolCache
from repro.matching.delta import GraphDelta, apply_delta
from repro.obs.registry import MetricsRegistry
from repro.query import Literal, Op
from repro.streaming import apply_delta_in_place

SETTINGS = settings(max_examples=60, deadline=None)

LABELS = ("a", "b")
EDGE_LABELS = ("e", "f")
NEW_EDGE_LABEL = "g"
ATTRIBUTES = ("v", "w")
#: Values across three type groups (ints, non-integral floats, strings);
#: equal values of different types are left out, so a domain's
#: representative of ``1 == 1.0`` cannot depend on insertion order.
VALUES = (0, 1, 2, 5, 1.5, 2.5, "x", "y", "z")
OPS = (Op.EQ, Op.GE, Op.GT, Op.LE, Op.LT)
CONSTANTS = (1, 2, 1.5, "y")

value_or_missing = st.one_of(st.none(), st.sampled_from(VALUES))


@st.composite
def graphs_and_steps(draw):
    size = draw(st.integers(min_value=2, max_value=7))
    nodes = [
        (
            draw(st.sampled_from(LABELS)),
            {name: draw(value_or_missing) for name in ATTRIBUTES},
        )
        for _ in range(size)
    ]
    node_id = st.integers(min_value=0, max_value=size - 1)
    edges = draw(
        st.lists(st.tuples(node_id, node_id, st.sampled_from(EDGE_LABELS)), max_size=12)
    )
    steps = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("insert"),
                    node_id,
                    node_id,
                    st.sampled_from(EDGE_LABELS + (NEW_EDGE_LABEL,)),
                ),
                st.tuples(st.just("delete"), st.integers(min_value=0, max_value=99)),
                st.tuples(
                    st.just("set"), node_id, st.sampled_from(ATTRIBUTES), value_or_missing
                ),
            ),
            min_size=1,
            max_size=8,
        )
    )
    return nodes, edges, steps


def build_graph(nodes, edges):
    graph = AttributedGraph("cache-props")
    for i, (label, attributes) in enumerate(nodes):
        graph.add_node(
            i, label, {k: v for k, v in attributes.items() if v is not None}
        )
    for source, target, label in edges:
        graph.add_edge(source, target, label)
    return graph.freeze()


def warm(graph):
    """Build every piece of graph-owned state the hooks must repair."""
    indexes = graph.indexes()
    pools = LiteralPoolCache(indexes, MetricsRegistry())
    for label in LABELS:
        graph.label_attribute_names(label)
        for attribute in ATTRIBUTES:
            indexes.attributes.values(label, attribute)
            for op in OPS:
                for constant in CONSTANTS:
                    pools.mask(label, Literal(attribute, op, constant))
        for edge_label in EDGE_LABELS + (NEW_EDGE_LABEL,):
            for outgoing in (True, False):
                for other in LABELS:
                    for position in range(len(indexes.bitsets.order(label))):
                        indexes.bitsets.row(position, label, edge_label, outgoing, other)
    for attribute in ATTRIBUTES:
        graph.active_domain(attribute)
        for label in LABELS:
            graph.active_domain(attribute, label)


def assert_equals_fresh(graph):
    """Every cached entry equals the same entry of a fresh build."""
    fresh = apply_delta(graph, GraphDelta())
    indexes, fresh_indexes = graph.indexes(), fresh.indexes()
    for (label, attribute), table in indexes.attributes._sorted.items():
        assert table == fresh_indexes.attributes._table(label, attribute), (label, attribute)
    for key, table in indexes.bitsets._rows.items():
        for position, row in enumerate(table):
            if row is not None:
                assert row == fresh_indexes.bitsets.row(position, *key), (key, position)
    memo = indexes.literal_masks
    assert memo._entries, "the warm-up memoized no literal mask"
    for (label, attribute, op, constant), mask in memo._entries.items():
        literal = Literal(attribute, op, constant)
        for position, node in enumerate(indexes.bitsets.order(label)):
            holds = literal.holds_for(graph.attribute(node, attribute))
            assert bool(mask >> position & 1) == holds, (literal, node)
    for (attribute, label), domain in graph._domains.items():
        assert domain == fresh.active_domain(attribute, label), (attribute, label)
    for label, names in graph._label_attributes.items():
        assert names == fresh.label_attribute_names(label), label


def to_delta(graph, step):
    kind = step[0]
    if kind == "insert":
        return GraphDelta(insert_edges=(step[1:],))
    if kind == "delete":
        edges = sorted(edge.key for edge in graph.edges())
        if not edges:
            return GraphDelta()
        return GraphDelta(delete_edges=(edges[step[1] % len(edges)],))
    return GraphDelta(set_attributes=(step[1:],))


class TestHookRepairEqualsRebuild:
    @SETTINGS
    @given(setup=graphs_and_steps())
    def test_in_place_stream_matches_fresh_build(self, setup):
        nodes, edges, steps = setup
        graph = build_graph(nodes, edges)
        for step in steps:
            warm(graph)
            indexes = graph.indexes()
            apply_delta_in_place(graph, to_delta(graph, step))
            assert graph.indexes() is indexes  # repaired, not rebuilt
            assert_equals_fresh(graph)
