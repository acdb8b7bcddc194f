"""Unit tests for node groups and fairness helpers."""

import pytest

from repro.errors import GroupError
from repro.graph.builder import GraphBuilder
from repro.groups import (
    GroupRule,
    GroupSet,
    NodeGroup,
    disparate_impact_ratio,
    equal_opportunity_constraints,
    satisfies_eighty_percent_rule,
    system_from_rules,
)


def make_groups():
    return GroupSet(
        [
            NodeGroup("M", frozenset({1, 2, 3}), 2),
            NodeGroup("F", frozenset({4, 5}), 1),
        ]
    )


class TestNodeGroup:
    def test_overlap(self):
        g = NodeGroup("x", frozenset({1, 2, 3}), 2)
        assert g.overlap({2, 3, 9}) == 2
        assert len(g) == 3

    def test_coverage_bounds(self):
        with pytest.raises(GroupError):
            NodeGroup("x", frozenset({1}), 2)
        with pytest.raises(GroupError):
            NodeGroup("x", frozenset({1}), -1)


class TestGroupSet:
    def test_basic_accessors(self):
        groups = make_groups()
        assert groups.names == ("M", "F")
        assert groups.total_coverage == 3
        assert len(groups) == 2
        assert groups["M"].coverage == 2
        with pytest.raises(GroupError):
            groups["ghost"]

    def test_disjointness_enforced(self):
        with pytest.raises(GroupError):
            GroupSet(
                [
                    NodeGroup("a", frozenset({1, 2}), 1),
                    NodeGroup("b", frozenset({2, 3}), 1),
                ]
            )

    def test_duplicate_names_rejected(self):
        with pytest.raises(GroupError):
            GroupSet(
                [
                    NodeGroup("a", frozenset({1}), 1),
                    NodeGroup("a", frozenset({2}), 1),
                ]
            )

    def test_empty_rejected(self):
        with pytest.raises(GroupError):
            GroupSet([])

    def test_feasibility_and_error(self):
        groups = make_groups()
        assert groups.is_feasible({1, 2, 4})
        assert not groups.is_feasible({1, 4})
        assert groups.coverage_error({1, 2, 4}) == 0
        assert groups.coverage_error({1, 2, 3, 4, 5}) == 2

    def test_overlaps(self):
        groups = make_groups()
        assert groups.overlaps({1, 4, 5, 99}) == {"M": 1, "F": 2}

    def test_with_constraints(self):
        groups = make_groups().with_constraints({"M": 3})
        assert groups["M"].coverage == 3
        assert groups["F"].coverage == 1


class TestGroupsFromAttribute:
    """One rule per attribute value, as the dataset builders declare them."""

    def test_induction(self):
        b = GraphBuilder()
        for genre in ["Action", "Action", "Drama", "Comedy"]:
            b.node("movie", genre=genre)
        b.node("person", genre="Action")  # Wrong label: excluded.
        graph = b.build()
        groups = system_from_rules(
            graph,
            [
                GroupRule(genre, {"genre": genre}, 1, label="movie")
                for genre in ("Action", "Drama")
            ],
        )
        assert groups["Action"].members == frozenset({0, 1})
        assert groups["Drama"].members == frozenset({2})

    def test_unconstrained_values_ignored(self):
        b = GraphBuilder()
        b.node("movie", genre="Horror")
        b.node("movie", genre="Drama")
        graph = b.build()
        groups = system_from_rules(graph, [GroupRule("Horror", {"genre": "Horror"}, 1)])
        assert groups.names == ("Horror",)
        assert groups.groups_of(1) == ()


class TestFairnessHelpers:
    def test_equal_opportunity_even_split(self):
        groups = GroupSet(
            [
                NodeGroup("a", frozenset(range(0, 10)), 0),
                NodeGroup("b", frozenset(range(10, 20)), 0),
            ]
        )
        adjusted = equal_opportunity_constraints(groups, 10)
        assert adjusted["a"].coverage == 5
        assert adjusted["b"].coverage == 5

    def test_equal_opportunity_remainder(self):
        groups = GroupSet(
            [
                NodeGroup("a", frozenset(range(0, 10)), 0),
                NodeGroup("b", frozenset(range(10, 20)), 0),
                NodeGroup("c", frozenset(range(20, 30)), 0),
            ]
        )
        adjusted = equal_opportunity_constraints(groups, 10)
        assert [adjusted[n].coverage for n in "abc"] == [4, 3, 3]

    def test_equal_opportunity_infeasible_share(self):
        groups = GroupSet(
            [
                NodeGroup("a", frozenset({1}), 0),
                NodeGroup("b", frozenset(range(10, 20)), 0),
            ]
        )
        with pytest.raises(GroupError):
            equal_opportunity_constraints(groups, 10)

    def test_disparate_impact(self):
        assert disparate_impact_ratio({"m": 10, "f": 8}) == pytest.approx(0.8)
        assert disparate_impact_ratio({"m": 10, "f": 0}) == 0.0
        assert disparate_impact_ratio({"m": 0, "f": 0}) == 1.0
        with pytest.raises(GroupError):
            disparate_impact_ratio({})

    def test_eighty_percent_rule(self):
        assert satisfies_eighty_percent_rule({"m": 10, "f": 8})
        assert not satisfies_eighty_percent_rule({"m": 10, "f": 7})
