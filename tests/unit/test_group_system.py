"""Unit tests for the generalized group system (repro.groups.system)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, GroupError
from repro.groups import (
    AGGREGATES,
    GroupRule,
    GroupSet,
    GroupSystem,
    NodeGroup,
    canonical_spec,
    rules_from_spec,
    system_from_dict,
    system_from_rules,
    validate_system_spec,
)
from repro.graph.builder import GraphBuilder
from repro.matching.delta import GraphDelta
from repro.obs.registry import MetricsRegistry
from repro.workload.scenarios import ScenarioGenerator, multi_attribute_scenarios


def overlapping_system(aggregate="l1", weights=None):
    # senior ∩ female = {2, 3}: genuinely overlapping.
    senior = NodeGroup("senior", frozenset({1, 2, 3}), 2)
    female = NodeGroup("F", frozenset({2, 3, 4}), 1, relax=1)
    return GroupSystem([senior, female], aggregate=aggregate, weights=weights)


class TestNodeGroup:
    def test_required_applies_relax(self):
        group = NodeGroup("g", frozenset({1, 2, 3}), 3, relax=1)
        assert group.required == 2

    def test_required_clamps_at_zero(self):
        group = NodeGroup("g", frozenset({1, 2}), 1, relax=5)
        assert group.required == 0

    def test_negative_relax_rejected(self):
        with pytest.raises(GroupError, match="relax must be non-negative"):
            NodeGroup("g", frozenset({1}), 1, relax=-1)

    def test_oversized_coverage_rejected(self):
        with pytest.raises(GroupError, match="exceeds size"):
            NodeGroup("g", frozenset({1, 2}), 3)

    def test_overlap_accepts_sets_and_iterables(self):
        group = NodeGroup("g", frozenset({1, 2, 3}), 1)
        assert group.overlap({2, 3, 9}) == 2
        assert group.overlap([2, 3, 9]) == 2
        assert group.overlap(iter((2, 3, 9))) == 2


class TestGroupSystemConstruction:
    def test_empty_rejected(self):
        with pytest.raises(GroupError, match="at least one group"):
            GroupSystem([])

    def test_duplicate_names_rejected(self):
        g = NodeGroup("x", frozenset({1}), 1)
        with pytest.raises(GroupError, match="duplicate group names"):
            GroupSystem([g, NodeGroup("x", frozenset({2}), 1)])

    def test_unknown_aggregate_rejected(self):
        g = NodeGroup("x", frozenset({1}), 1)
        with pytest.raises(GroupError, match="unknown aggregate"):
            GroupSystem([g], aggregate="l2")

    def test_weights_require_weighted_aggregate(self):
        g = NodeGroup("x", frozenset({1}), 1)
        with pytest.raises(GroupError, match="only meaningful"):
            GroupSystem([g], aggregate="l1", weights={"x": 2.0})

    def test_weight_for_unknown_group_rejected(self):
        g = NodeGroup("x", frozenset({1}), 1)
        with pytest.raises(GroupError, match="unknown group 'y'"):
            GroupSystem([g], aggregate="weighted", weights={"y": 2.0})

    def test_negative_weight_rejected(self):
        g = NodeGroup("x", frozenset({1}), 1)
        with pytest.raises(GroupError, match="negative weight"):
            GroupSystem([g], aggregate="weighted", weights={"x": -1.0})

    def test_missing_weights_default_to_one(self):
        system = overlapping_system("weighted", weights={"F": 3.0})
        assert system.weights == {"senior": 1.0, "F": 3.0}


class TestMembership:
    def test_groups_of_overlapping_node(self):
        system = overlapping_system()
        assert system.groups_of(2) == ("senior", "F")
        assert system.groups_of(1) == ("senior",)
        assert system.groups_of(4) == ("F",)
        assert system.groups_of(99) == ()

    def test_max_memberships_and_disjointness(self):
        system = overlapping_system()
        assert system.max_memberships == 2
        assert not system.is_disjoint
        disjoint = GroupSystem(
            [NodeGroup("a", frozenset({1}), 1), NodeGroup("b", frozenset({2}), 1)]
        )
        assert disjoint.max_memberships == 1
        assert disjoint.is_disjoint

    def test_getitem_and_names(self):
        system = overlapping_system()
        assert system.names == ("senior", "F")
        assert system["F"].relax == 1
        with pytest.raises(GroupError, match="unknown group"):
            system["nope"]

    def test_overlap_counts_equals_overlaps(self):
        system = overlapping_system()
        for answer in ({1, 2}, {2, 3, 4}, set(), {99}):
            assert system.overlap_counts(answer) == system.overlaps(answer)


class TestAggregates:
    # Answer {1, 2}: senior overlap 2 (dev 0), F overlap 1 (dev 0).
    # Answer {4}: senior overlap 0 (dev 2), F overlap 1 (dev 0).
    # Answer set(): devs are (2, 1).

    def test_l1_error(self):
        system = overlapping_system("l1")
        assert system.coverage_error({1, 2}) == 0
        assert system.coverage_error({4}) == 2
        assert system.coverage_error(set()) == 3
        assert isinstance(system.coverage_error(set()), int)

    def test_max_error(self):
        system = overlapping_system("max")
        assert system.coverage_error({1, 2}) == 0
        assert system.coverage_error({4}) == 2
        assert system.coverage_error(set()) == 2

    def test_weighted_error(self):
        system = overlapping_system("weighted", weights={"F": 3.0})
        assert system.coverage_error({4}) == pytest.approx(2.0)
        assert system.coverage_error(set()) == pytest.approx(2 + 3.0)

    def test_error_of_overlaps_matches_coverage_error(self):
        for aggregate in AGGREGATES:
            weights = {"F": 2.0} if aggregate == "weighted" else None
            system = overlapping_system(aggregate, weights=weights)
            for answer in ({1, 2}, {4}, set(), {1, 2, 3, 4}):
                assert system.error_of_overlaps(
                    system.overlaps(answer)
                ) == system.coverage_error(answer)

    def test_quality_bound_per_aggregate(self):
        assert overlapping_system("l1").quality_bound == 3
        assert overlapping_system("max").quality_bound == 2
        weighted = overlapping_system("weighted", weights={"F": 3.0})
        assert weighted.quality_bound == pytest.approx(2 + 3.0)

    def test_total_coverage_is_l1_bound(self):
        system = overlapping_system()
        assert system.total_coverage == 3
        assert system.constraints() == {"senior": 2, "F": 1}


class TestFeasibility:
    def test_relax_softens_the_bound(self):
        system = overlapping_system()
        # F needs ≥ 0 members (c=1, relax=1); senior needs ≥ 2.
        assert system.is_feasible({1, 2})
        assert system.is_feasible({2, 3})
        assert not system.is_feasible({1})

    def test_feasible_overlaps_agrees(self):
        system = overlapping_system()
        for answer in ({1, 2}, {1}, {2, 3, 4}, set()):
            assert system.feasible_overlaps(
                system.overlaps(answer)
            ) == system.is_feasible(answer)

    def test_with_constraints_keeps_aggregate_and_relax(self):
        system = overlapping_system("max")
        bumped = system.with_constraints({"senior": 3})
        assert bumped["senior"].coverage == 3
        assert bumped["F"].coverage == 1
        assert bumped["F"].relax == 1
        assert bumped.aggregate == "max"


class TestGroupRule:
    def test_scalar_equality(self):
        rule = GroupRule("F", where={"gender": "F"}, coverage=1)
        assert rule.matches("person", {"gender": "F"})
        assert not rule.matches("person", {"gender": "M"})
        assert not rule.matches("person", {})

    def test_membership_list(self):
        rule = GroupRule("lead", where={"title": ["director", "vp"]}, coverage=1)
        assert rule.matches("person", {"title": "vp"})
        assert not rule.matches("person", {"title": "analyst"})

    def test_label_gate(self):
        rule = GroupRule("F", where={"gender": "F"}, coverage=1, label="person")
        assert rule.matches("person", {"gender": "F"})
        assert not rule.matches("org", {"gender": "F"})

    def test_conjunction(self):
        rule = GroupRule(
            "F&CS", where={"gender": "F", "major": "CS"}, coverage=1
        )
        assert rule.matches("person", {"gender": "F", "major": "CS"})
        assert not rule.matches("person", {"gender": "F", "major": "Business"})

    def test_empty_where_rejected(self):
        with pytest.raises(GroupError, match="empty where-predicate"):
            GroupRule("x", where={}, coverage=1)

    def test_negative_weight_rejected(self):
        with pytest.raises(GroupError, match="negative weight"):
            GroupRule("x", where={"a": 1}, coverage=1, weight=-0.5)


class TestSystemFromRules:
    # talent_graph persons/directors: 2 r1(M,CS) 3 r2(F,Business)
    # 4 d1(M,CS) 5 d2(F,Business) 6 d3(M,CS) 7 d4(F,Design)

    def test_one_scan_materialization(self, talent_graph):
        system = system_from_rules(
            talent_graph,
            [
                GroupRule("F", where={"gender": "F"}, coverage=2),
                GroupRule("CS", where={"major": "CS"}, coverage=2),
                GroupRule(
                    "M&CS", where={"gender": "M", "major": "CS"}, coverage=1
                ),
            ],
        )
        assert system["F"].members == frozenset({3, 5, 7})
        assert system["CS"].members == frozenset({2, 4, 6})
        assert system["M&CS"].members == frozenset({2, 4, 6})
        assert not system.is_disjoint
        assert system.groups_of(4) == ("CS", "M&CS")

    def test_label_scoping(self, talent_graph):
        # "bigco" matches both ways; r1 (a person) only without the gate.
        system = system_from_rules(
            talent_graph,
            [GroupRule("named", where={"name": ["bigco", "r1"]}, coverage=1,
                       label="org")],
        )
        assert system["named"].members == frozenset({1})

    def test_oversized_coverage_raises_without_clamp(self, talent_graph):
        rule = GroupRule("F", where={"gender": "F"}, coverage=50)
        with pytest.raises(GroupError, match="exceeds size"):
            system_from_rules(talent_graph, [rule])

    def test_clamp_lowers_to_population(self, talent_graph):
        rule = GroupRule("F", where={"gender": "F"}, coverage=50)
        system = system_from_rules(talent_graph, [rule], clamp=True)
        assert system["F"].coverage == 3

    def test_empty_rules_rejected(self, talent_graph):
        with pytest.raises(GroupError, match="at least one group rule"):
            system_from_rules(talent_graph, [])

    def test_weighted_aggregate_collects_rule_weights(self, talent_graph):
        system = system_from_rules(
            talent_graph,
            [
                GroupRule("F", where={"gender": "F"}, coverage=1, weight=2.0),
                GroupRule("CS", where={"major": "CS"}, coverage=1),
            ],
            aggregate="weighted",
        )
        assert system.weights == {"F": 2.0, "CS": 1.0}

    def test_metrics_counters(self, talent_graph):
        registry = MetricsRegistry()
        system_from_rules(
            talent_graph,
            [
                GroupRule("F", where={"gender": "F"}, coverage=1),
                GroupRule("F&Biz", where={"gender": "F", "major": "Business"},
                          coverage=1),
            ],
            metrics=registry,
        )
        counters = registry.counters()
        assert counters["groups.systems_built"] == 1
        assert counters["groups.rules_evaluated"] == 2
        assert counters["groups.members_indexed"] == 3 + 2
        # r2 and d2 are F ∩ Business.
        assert counters["groups.multi_membership_nodes"] == 2

    def test_no_metrics_no_counters(self, talent_graph):
        registry = MetricsRegistry()
        system_from_rules(
            talent_graph,
            [GroupRule("F", where={"gender": "F"}, coverage=1)],
        )
        assert not any(
            name.startswith("groups.") for name in registry.counters()
        )


def _churn_graph():
    """Mutable twin of ``talent_graph``'s persons (that fixture is
    session-scoped; membership repair mutates attributes in place)."""
    b = GraphBuilder("repair-toy")
    b.node("person", gender="M", major="CS")       # 0
    b.node("person", gender="F", major="Business")  # 1
    b.node("person", gender="M", major="CS")       # 2
    b.node("person", gender="F", major="Design")   # 3
    return b.build()


REPAIR_RULES = [
    GroupRule("M", {"gender": "M"}, 1, label="person"),
    GroupRule("F", {"gender": "F"}, 1, label="person"),
    GroupRule("tech", {"major": ("CS", "Design")}, 1, label="person"),
]


def _churn(graph, *changes):
    """Apply attribute changes in place; return the matching delta."""
    for node, name, value in changes:
        graph._set_attribute_in_place(node, name, value)
    return GraphDelta(set_attributes=tuple(changes))


class TestRepairMembership:
    def test_static_system_returns_empty_diff(self):
        system = overlapping_system()
        diff = system.repair_membership(
            GraphDelta(set_attributes=((1, "gender", "F"),))
        )
        assert diff.is_empty
        assert not system.has_rules

    def test_moves_patch_index_and_members(self):
        graph = _churn_graph()
        system = system_from_rules(graph, REPAIR_RULES)
        delta = _churn(graph, (0, "gender", "F"))
        diff = system.repair_membership(delta)
        assert len(diff.moves) == 1
        move = diff.moves[0]
        assert (move.node, move.removed, move.added) == (0, ("M",), ("F",))
        assert system["M"].members == frozenset({2})
        assert system["F"].members == frozenset({0, 1, 3})
        assert system.groups_of(0) == ("F", "tech")
        assert not diff.coverage_changes

    def test_membership_neutral_delta_is_empty(self):
        graph = _churn_graph()
        system = system_from_rules(graph, REPAIR_RULES)
        # "name" feeds no rule predicate; node 1 was not in "tech" anyway.
        delta = _churn(graph, (0, "name", "alice"), (1, "major", "Law"))
        assert system.repair_membership(delta).is_empty

    def test_repaired_equals_cold_rebuild(self):
        graph = _churn_graph()
        system = system_from_rules(graph, REPAIR_RULES)
        delta = _churn(
            graph, (0, "gender", "F"), (1, "major", "CS"), (3, "major", None)
        )
        system.repair_membership(delta)
        rebuilt = system_from_rules(graph, REPAIR_RULES)
        for name in system.names:
            assert system[name].members == rebuilt[name].members
            assert system[name].coverage == rebuilt[name].coverage

    def test_clamp_records_coverage_changes(self):
        graph = _churn_graph()
        rule = GroupRule("M", {"gender": "M"}, 2, label="person")
        system = system_from_rules(graph, [rule], clamp=True)
        assert system["M"].coverage == 2
        delta = _churn(graph, (0, "gender", "F"))
        diff = system.repair_membership(delta)
        assert diff.coverage_changes == (("M", 2, 1),)
        assert system["M"].coverage == 1

    def test_shrink_below_coverage_raises_without_clamp(self):
        graph = _churn_graph()
        rule = GroupRule("M", {"gender": "M"}, 2, label="person")
        system = system_from_rules(graph, [rule])
        delta = _churn(graph, (0, "gender", "F"))
        with pytest.raises(GroupError, match="below the declared coverage"):
            system.repair_membership(delta)

    def test_metrics_counters(self):
        graph = _churn_graph()
        system = system_from_rules(graph, REPAIR_RULES)
        registry = MetricsRegistry()
        delta = _churn(graph, (0, "gender", "F"), (1, "gender", "M"))
        system.repair_membership(delta, metrics=registry)
        counters = registry.counters()
        assert counters["groups.membership_repairs"] == 1
        # 3 rules re-tested on each of the 2 touched nodes.
        assert counters["groups.rules_evaluated"] == 6

    def test_detached_system_needs_graph(self):
        graph = _churn_graph()
        system = system_from_rules(graph, REPAIR_RULES)
        system._graph = None
        delta = _churn(graph, (0, "gender", "F"))
        with pytest.raises(GroupError, match="needs a graph"):
            system.repair_membership(delta)
        diff = system.repair_membership(delta, graph=graph)
        assert diff.moves[0].node == 0


class TestWithConstraintsOnRules:
    def test_copy_keeps_rules_and_repairs_to_the_new_target(self):
        graph = _churn_graph()
        system = system_from_rules(
            graph, REPAIR_RULES, aggregate="weighted", clamp=True
        )
        bumped = system.with_constraints({"F": 2, "tech": 3})
        assert bumped.has_rules and type(bumped) is GroupSystem
        assert [rule.coverage for rule in bumped.rules] == [1, 2, 3]
        assert [rule.coverage for rule in system.rules] == [1, 1, 1]
        delta = _churn(graph, (0, "gender", "F"))
        diff = bumped.repair_membership(delta)
        assert [(m.node, m.removed, m.added) for m in diff.moves] == [
            (0, ("M",), ("F",))
        ]
        assert bumped["F"].coverage == 2
        rebuilt = system_from_rules(
            graph,
            [
                GroupRule(r.name, r.where, c, r.relax, r.weight, r.label)
                for r, c in zip(REPAIR_RULES, (1, 2, 3))
            ],
            aggregate="weighted",
            clamp=True,
        )
        for name in rebuilt.names:
            assert bumped[name].members == rebuilt[name].members
            assert bumped[name].coverage == rebuilt[name].coverage
            assert bumped[name].relax == rebuilt[name].relax
        assert bumped.weights == rebuilt.weights
        assert bumped.aggregate == rebuilt.aggregate
        for node in range(4):
            assert bumped.groups_of(node) == rebuilt.groups_of(node)

    def test_clamp_lowers_an_oversized_target(self):
        graph = _churn_graph()
        system = system_from_rules(graph, REPAIR_RULES, clamp=True)
        assert system.with_constraints({"M": 9})["M"].coverage == 2
        strict = system_from_rules(graph, REPAIR_RULES)
        with pytest.raises(GroupError, match="exceeds size"):
            strict.with_constraints({"M": 9})

    def test_static_copy_stays_static(self):
        bumped = overlapping_system().with_constraints({"senior": 3})
        assert not bumped.has_rules
        assert bumped.repair_membership(
            GraphDelta(set_attributes=((1, "gender", "F"),))
        ).is_empty


VALID_SPEC = {
    "aggregate": "max",
    "groups": [
        {"name": "F", "label": "person", "where": {"gender": "F"}, "coverage": 1},
        {
            "name": "lead",
            "where": {"title": ["director", "vp"]},
            "coverage": 2,
            "relax": 1,
            "weight": 2.0,
        },
    ],
}


class TestWireShape:
    def test_valid_spec_passes(self):
        validate_system_spec(VALID_SPEC)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda s: "not a dict", "must be a JSON object"),
            (lambda s: {**s, "extra": 1}, "unknown key"),
            (lambda s: {**s, "aggregate": "l2"}, "unknown aggregate"),
            (lambda s: {"aggregate": "l1"}, "non-empty 'groups'"),
            (lambda s: {**s, "groups": []}, "non-empty 'groups'"),
            (lambda s: {**s, "groups": ["x"]}, "must be a JSON object"),
            (
                lambda s: {**s, "groups": [{**s["groups"][0], "bogus": 1}]},
                "unknown key",
            ),
            (
                lambda s: {**s, "groups": [{**s["groups"][0], "name": ""}]},
                "non-empty string 'name'",
            ),
            (
                lambda s: {**s, "groups": [s["groups"][0], s["groups"][0]]},
                "duplicate group name",
            ),
            (
                lambda s: {**s, "groups": [{**s["groups"][0], "where": {}}]},
                "non-empty 'where'",
            ),
            (
                lambda s: {**s, "groups": [{**s["groups"][0], "coverage": -1}]},
                "coverage must be an int",
            ),
            (
                lambda s: {**s, "groups": [{**s["groups"][0], "coverage": True}]},
                "coverage must be an int",
            ),
            (
                lambda s: {**s, "groups": [{**s["groups"][0], "relax": -2}]},
                "relax must be an int",
            ),
            (
                lambda s: {**s, "groups": [{**s["groups"][0], "weight": -1.0}]},
                "weight must be a number",
            ),
        ],
    )
    def test_malformed_specs_rejected(self, mutate, message):
        with pytest.raises(GroupError, match=message):
            validate_system_spec(mutate(VALID_SPEC))

    def test_rules_from_spec_round_trip(self):
        rules = rules_from_spec(VALID_SPEC)
        assert [r.name for r in rules] == ["F", "lead"]
        assert rules[0].label == "person"
        assert rules[1].label is None
        assert rules[1].relax == 1
        assert rules[1].weight == 2.0
        assert rules[1].where == {"title": ["director", "vp"]}

    def test_system_from_dict(self, talent_graph):
        spec = {
            "aggregate": "l1",
            "groups": [
                {"name": "F", "where": {"gender": "F"}, "coverage": 2},
                {"name": "CS", "where": {"major": "CS"}, "coverage": 9},
            ],
        }
        with pytest.raises(GroupError, match="exceeds size"):
            system_from_dict(spec, talent_graph)
        system = system_from_dict(spec, talent_graph, clamp=True)
        assert system["CS"].coverage == 3
        assert system["F"].members == frozenset({3, 5, 7})

    def test_canonical_spec_order_insensitive(self):
        a = {
            "aggregate": "l1",
            "groups": [
                {"name": "b", "where": {"x": 1, "y": [3, 2]}, "coverage": 1},
                {"name": "a", "where": {"z": "v"}, "coverage": 2, "weight": 2},
            ],
        }
        b = {
            "aggregate": "l1",
            "groups": [
                {"name": "a", "where": {"z": "v"}, "coverage": 2, "weight": 2.0},
                {"name": "b", "where": {"y": [2, 3], "x": 1}, "coverage": 1},
            ],
        }
        assert canonical_spec(a) == canonical_spec(b)

    def test_canonical_spec_distinguishes_semantics(self):
        base = {"groups": [{"name": "a", "where": {"x": 1}, "coverage": 1}]}
        other = {"groups": [{"name": "a", "where": {"x": 1}, "coverage": 2}]}
        assert canonical_spec(base) != canonical_spec(other)
        assert canonical_spec(base) != canonical_spec(
            {**base, "aggregate": "max"}
        )


class TestGroupSetCompat:
    def test_overlap_rejected(self):
        with pytest.raises(GroupError, match="overlaps a previous group"):
            GroupSet(
                [
                    NodeGroup("a", frozenset({1, 2}), 1),
                    NodeGroup("b", frozenset({2, 3}), 1),
                ]
            )

    def test_group_of_singleton(self, talent_groups):
        assert talent_groups.group_of(4) == "M"
        assert talent_groups.group_of(5) == "F"
        assert talent_groups.group_of(0) is None

    def test_is_a_group_system_with_l1(self, talent_groups):
        assert isinstance(talent_groups, GroupSystem)
        assert talent_groups.aggregate == "l1"
        assert talent_groups.is_disjoint

    def test_with_constraints_stays_a_group_set(self, talent_groups):
        bumped = talent_groups.with_constraints({"M": 2})
        assert isinstance(bumped, GroupSet)
        assert bumped["M"].coverage == 2


class TestScenarioGenerator:
    @pytest.fixture()
    def generator(self, talent_graph):
        return ScenarioGenerator(
            talent_graph, "person", ("gender", "major"), seed=7
        )

    def test_spec_index_is_pure(self, generator):
        specs = generator.specs(5)
        for i, spec in enumerate(specs):
            assert generator.spec(i) == spec

    def test_equal_seeds_replay(self, talent_graph):
        a = ScenarioGenerator(talent_graph, "person", ("gender", "major"), seed=3)
        b = ScenarioGenerator(talent_graph, "person", ("gender", "major"), seed=3)
        assert a.specs(6) == b.specs(6)
        c = ScenarioGenerator(talent_graph, "person", ("gender", "major"), seed=4)
        assert a.specs(6) != c.specs(6)

    def test_specs_validate_and_cycle_aggregates(self, generator):
        specs = generator.specs(6)
        for spec in specs:
            validate_system_spec(spec)
        assert [s["aggregate"] for s in specs] == list(AGGREGATES) * 2

    def test_systems_are_satisfiable_and_overlapping(self, generator, talent_graph):
        saw_overlap = False
        for system in generator.systems(6):
            for group in system:
                assert group.coverage <= len(group.members)
            saw_overlap = saw_overlap or not system.is_disjoint
        assert saw_overlap

    def test_validation_errors(self, talent_graph):
        with pytest.raises(ConfigurationError, match="at least one candidate"):
            ScenarioGenerator(talent_graph, "person", ())
        with pytest.raises(ConfigurationError, match="max_groups"):
            ScenarioGenerator(talent_graph, "person", ("gender",), max_groups=1)
        with pytest.raises(ConfigurationError, match="coverage_fraction"):
            ScenarioGenerator(
                talent_graph, "person", ("gender",), coverage_fraction=0.0
            )
        with pytest.raises(ConfigurationError, match="unknown aggregate"):
            ScenarioGenerator(
                talent_graph, "person", ("gender",), aggregates=("l1", "l2")
            )
        with pytest.raises(ConfigurationError, match="no candidate attribute"):
            ScenarioGenerator(talent_graph, "person", ("nonexistent",))

    def test_rare_values_never_grouped(self, talent_graph):
        # person majors: CS×3, Business×2, Design×1 — Design is too rare.
        gen = ScenarioGenerator(talent_graph, "person", ("major",), seed=0)
        for spec in gen.specs(4):
            for rule in spec["groups"]:
                assert rule["where"]["major"] != "Design"

    def test_convenience_wrapper(self, talent_graph):
        specs = multi_attribute_scenarios(
            talent_graph, "person", ("gender", "major"), count=3, seed=1
        )
        assert specs == ScenarioGenerator(
            talent_graph, "person", ("gender", "major"), seed=1
        ).specs(3)
