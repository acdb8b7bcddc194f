"""Unit tests for attribute indexes."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.graph.attributed_graph import _sort_key
from repro.graph.builder import GraphBuilder
from repro.graph.indexes import AttributeIndex, GraphIndexes
from repro.matching import SubgraphMatcher, naive_match_set
from repro.matching.bitset import LiteralPoolCache
from repro.matching.delta import GraphDelta, apply_delta_in_place
from repro.obs import MetricsRegistry
from repro.query import Instantiation, QueryInstance, QueryTemplate
from repro.query.predicates import Literal, Op


@pytest.fixture(scope="module")
def graph():
    b = GraphBuilder()
    for i, age in enumerate([10, 20, 20, 30, 40]):
        b.node("person", age=age, rank=i)
    b.node("person")  # No attributes: excluded from attribute index.
    b.node("org", employees=100)
    return b.build()


class TestAttributeIndex:
    @pytest.mark.parametrize(
        "op,constant,expected_ages",
        [
            (Op.GE, 20, [20, 20, 30, 40]),
            (Op.GT, 20, [30, 40]),
            (Op.LE, 20, [10, 20, 20]),
            (Op.LT, 20, [10]),
            (Op.EQ, 20, [20, 20]),
        ],
    )
    def test_matching_nodes(self, graph, op, constant, expected_ages):
        index = AttributeIndex(graph)
        nodes = index.matching_nodes("person", "age", op, constant)
        ages = sorted(graph.attribute(v, "age") for v in nodes)
        assert ages == expected_ages

    def test_count_matching_agrees_with_matching_nodes(self, graph):
        index = AttributeIndex(graph)
        for op in Op:
            count = index.count_matching("person", "age", op, 20)
            nodes = index.matching_nodes("person", "age", op, 20)
            assert count == len(nodes)

    def test_missing_attribute_never_matches(self, graph):
        index = AttributeIndex(graph)
        # Node 5 has no attributes at all.
        assert 5 not in index.matching_nodes("person", "age", Op.GE, 0)

    def test_values_sorted_distinct(self, graph):
        index = AttributeIndex(graph)
        assert index.values("person", "age") == [10, 20, 30, 40]

    def test_unknown_label_or_attribute_empty(self, graph):
        index = AttributeIndex(graph)
        assert index.matching_nodes("ghost", "age", Op.GE, 0) == set()
        assert index.matching_nodes("person", "ghost", Op.GE, 0) == set()


#: Values of every type group: numbers (int, float, bool), str, tuples
#: (whose ``str()`` order is not their native order) and missing.
MIXED = [0, 1, 2, 2.5, -1, True, False, "a", "b", "three", "", (1, 2), (1, 10), None]
OPS = [Op.EQ, Op.GE, Op.GT, Op.LE, Op.LT]


def mixed_graph(values):
    builder = GraphBuilder("mixed")
    for i, value in enumerate(values):
        builder.node_with_id(i, "n", **({"v": value} if value is not None else {}))
    return builder.build()


def literal_instance(op, constant):
    template = (
        QueryTemplate.builder("one")
        .node("u0", "n", Literal("v", op, constant))
        .output("u0")
        .build()
    )
    return QueryInstance(Instantiation(template, {}))


class TestMixedTypes:
    """Literals over mixed-type columns follow ``Literal.holds_for``:
    values of another type group never match."""

    def test_attribute_index_sort_does_not_raise(self):
        graph = mixed_graph([3, "three", 1.5, "one", 2, None, "two"])
        indexes = GraphIndexes(graph)
        # Building the table sorts mixed int/str values — must not TypeError.
        assert indexes.attributes.matching_nodes("n", "v", Op.GE, 2) == {0, 4}

    def test_typed_total_order_semantics(self):
        # A comparison never crosses type groups: GE over a number reaches
        # only the numbers, and GE/LT over a string only the strings.
        graph = mixed_graph([3, "three", 1.5, "one", 2, None, "two"])
        attributes = GraphIndexes(graph).attributes
        assert attributes.matching_nodes("n", "v", Op.GE, 0) == {0, 2, 4}
        assert attributes.matching_nodes("n", "v", Op.GE, "a") == {1, 3, 6}
        assert attributes.matching_nodes("n", "v", Op.LT, "a") == set()
        assert attributes.matching_nodes("n", "v", Op.LT, "p") == {3}

    def test_sort_key_distinguishes_types_with_equal_str(self):
        class Weird:
            def __str__(self):
                return "3"

        keys = sorted([_sort_key(3), _sort_key("3"), _sort_key(Weird())])
        assert len(set(keys)) == 3

    def test_native_order_for_tuples(self):
        graph = mixed_graph([(1, 2), (1, 10), 5, "x"])
        attributes = GraphIndexes(graph).attributes
        # str() order would put "(1, 10)" below "(1, 2)".
        assert attributes.matching_nodes("n", "v", Op.GT, (1, 2)) == {1}
        assert attributes.count_matching("n", "v", Op.LE, (1, 2)) == 1

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(values=st.lists(st.sampled_from(MIXED), min_size=1, max_size=10))
    def test_matcher_equals_oracle(self, values):
        graph = mixed_graph(values)
        matcher = SubgraphMatcher(graph)
        attributes = matcher.indexes.attributes
        for op in OPS:
            for constant in MIXED[:-1]:
                instance = literal_instance(op, constant)
                expected = naive_match_set(graph, instance)
                assert matcher.match(instance).matches == expected, (op, constant)
                assert attributes.count_matching("n", "v", op, constant) == len(expected)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        values=st.lists(st.sampled_from(MIXED), min_size=2, max_size=8),
        updates=st.lists(
            st.tuples(st.integers(min_value=0, max_value=7), st.sampled_from(MIXED)),
            min_size=1,
            max_size=4,
        ),
    )
    def test_repaired_masks_equal_recomputed(self, values, updates):
        """Bit-level repair after updates that cross type groups equals a
        cold recompute over the updated graph."""
        graph = mixed_graph(values)
        cache = LiteralPoolCache(graph.indexes(), MetricsRegistry())
        literals = [Literal("v", op, constant) for op in OPS for constant in MIXED[:-1]]
        for literal in literals:
            cache.mask("n", literal)
        delta = GraphDelta(
            set_attributes=tuple((node % len(values), "v", value) for node, value in updates)
        )
        receipt = apply_delta_in_place(graph, delta)
        cache.repair_attributes(graph, receipt.touched_nodes, receipt.touched_attributes)
        cold = LiteralPoolCache(GraphIndexes(graph), MetricsRegistry())
        for literal in literals:
            assert cache.mask("n", literal) == cold.mask("n", literal), literal
