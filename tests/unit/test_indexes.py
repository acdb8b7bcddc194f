"""Unit tests for attribute indexes."""

import pytest

from repro.graph.builder import GraphBuilder
from repro.graph.indexes import AttributeIndex
from repro.query.predicates import Op


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
