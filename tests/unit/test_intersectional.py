"""Unit tests for intersectional groups declared as rules.

An intersection is one rule with several ``where`` keys; an integer band
is a membership list over the attribute's values.
"""

import pytest

from repro.errors import GroupError
from repro.graph.builder import GraphBuilder
from repro.groups import GroupRule, GroupSet, system_from_rules


@pytest.fixture(scope="module")
def graph():
    b = GraphBuilder()
    # (gender, yearsOfExp): F/2, F/10, F/20, M/3, M/12, M/25, plus one
    # person with no experience attribute.
    for gender, years in [("F", 2), ("F", 10), ("F", 20), ("M", 3), ("M", 12), ("M", 25)]:
        b.node("person", gender=gender, yearsOfExp=years)
    b.node("person", gender="M")
    b.node("org", employees=10)
    return b.build()


BANDS = {"junior": list(range(5)), "senior": list(range(5, 100))}


def intersections(coverage):
    """One rule per ``(gender, band)`` cell, named ``"F×senior"``."""
    return [
        GroupRule(
            f"{gender}×{band}",
            {"gender": gender, "yearsOfExp": BANDS[band]},
            required,
            label="person",
        )
        for (gender, band), required in coverage.items()
    ]


class TestBucketize:
    """Integer bands as membership-list rules."""

    def bands(self, graph, bands):
        rules = [
            GroupRule(name, {"yearsOfExp": values}, 0, label="person")
            for name, values in bands.items()
        ]
        return system_from_rules(graph, rules)

    def test_banding(self, graph):
        bands = self.bands(graph, BANDS)
        assert bands.groups_of(0) == ("junior",)  # F/2.
        assert bands.groups_of(1) == ("senior",)  # F/10.
        assert bands.groups_of(3) == ("junior",)  # M/3.

    def test_missing_attribute_excluded(self, graph):
        bands = self.bands(graph, BANDS)
        assert bands.groups_of(6) == ()  # The attribute-less person.
        assert bands.groups_of(7) == ()  # The org, another label.

    def test_strictly_below_semantics(self, graph):
        bands = self.bands(graph, {"low": list(range(10)), "high": list(range(10, 99))})
        # F/10 is not in range(10) → high.
        assert bands.groups_of(1) == ("high",)


class TestIntersectAttributes:
    def test_cross_product_groups(self, graph):
        groups = system_from_rules(
            graph,
            intersections(
                {
                    ("F", "junior"): 1,
                    ("F", "senior"): 1,
                    ("M", "junior"): 1,
                    ("M", "senior"): 1,
                }
            ),
        )
        assert len(groups) == 4
        assert groups["F×junior"].members == frozenset({0})
        assert groups["F×senior"].members == frozenset({1, 2})
        assert groups["M×junior"].members == frozenset({3})
        assert groups["M×senior"].members == frozenset({4, 5})

    def test_disjointness_automatic(self, graph):
        groups = system_from_rules(
            graph, intersections({("F", "junior"): 1, ("M", "junior"): 1})
        )
        assert groups.is_disjoint
        GroupSet(list(groups))  # Accepted: the disjoint special case.

    def test_unrequested_tuples_skipped(self, graph):
        groups = system_from_rules(
            graph, [GroupRule("F", {"gender": "F"}, 2, label="person")]
        )
        assert groups.names == ("F",)

    def test_overcoverage_rejected(self, graph):
        rules = [GroupRule("F", {"gender": "F"}, 99, label="person")]
        with pytest.raises(GroupError, match="exceeds size 3"):
            system_from_rules(graph, rules)
        assert system_from_rules(graph, rules, clamp=True)["F"].coverage == 3

    def test_no_axes_rejected(self, graph):
        with pytest.raises(GroupError):
            GroupRule("nobody", {}, 0)
        with pytest.raises(GroupError):
            system_from_rules(graph, [])

    def test_usable_in_generation(self, graph):
        """Intersectional rule systems drive FairSQG like any other groups."""
        from repro import EnumQGen, GenerationConfig, Op, QueryTemplate

        groups = system_from_rules(
            graph, intersections({("F", "senior"): 1, ("M", "senior"): 1})
        )
        template = (
            QueryTemplate.builder("everyone")
            .node("u0", "person")
            .range_var("xl", "u0", "yearsOfExp", Op.GE)
            .output("u0")
            .build()
        )
        config = GenerationConfig(graph, template, groups, epsilon=0.3)
        result = EnumQGen(config).run()
        assert result.instances
        for point in result.instances:
            assert groups.is_feasible(point.matches)
