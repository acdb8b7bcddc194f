"""Property tests: the disjoint GroupSystem IS the legacy GroupSet.

The generalization contract (docs/fairness.md, docs/theory.md): wrapping
the paper's disjoint groups in the general :class:`GroupSystem` with the
L1 aggregate must be **byte-identical** to the legacy :class:`GroupSet`
path — same coverage values with ``==`` (not approx), same feasibility,
same maintained-counter reductions, same delta-scoring states. Anything
less would shift archives and counter baselines underneath every legacy
config.

A second family checks the generalized aggregates' internal coherence on
*overlapping* systems: the maintained-counter reduction equals the
from-scratch error, and relax only ever widens feasibility.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.measures import CoverageMeasure, DiversityMeasure
from repro.graph.attributed_graph import AttributedGraph
from repro.groups.groups import GroupSet
from repro.groups.system import GroupSystem, NodeGroup
from repro.obs.registry import MetricsRegistry
from repro.scoring import ScoreEngine, ScoreState

SETTINGS = settings(max_examples=40, deadline=None)

_UNIVERSE = 40


def _graph(n: int, seed: int) -> AttributedGraph:
    graph = AttributedGraph("prop-groups")
    for i in range(n):
        r = (i * 2654435761 + seed * 40503) & 0xFFFF
        attrs = {}
        if r % 5 != 0:
            attrs["num"] = (r >> 3) % 97
        if r % 4 != 1:
            attrs["cat"] = ("x", "y", "z", "w")[(r >> 7) % 4]
        graph.add_node(i, "m", attrs)
    return graph.freeze()


@st.composite
def disjoint_groups(draw, universe=_UNIVERSE):
    """2-4 disjoint groups (as NodeGroup tuples) over the node universe."""
    m = draw(st.integers(min_value=2, max_value=4))
    assignment = draw(
        st.lists(
            st.integers(min_value=0, max_value=m),  # m == "no group"
            min_size=universe,
            max_size=universe,
        )
    )
    members = [set() for _ in range(m)]
    # Nodes 0 and 1 anchor two groups so at least two are non-empty.
    members[0].add(0)
    members[1].add(1)
    for node, bucket in enumerate(assignment[2:], start=2):
        if bucket < m:
            members[bucket].add(node)
    groups = []
    for i, nodes in enumerate(members):
        if not nodes:
            continue
        coverage = draw(st.integers(min_value=0, max_value=len(nodes)))
        groups.append(NodeGroup(f"g{i}", frozenset(nodes), coverage))
    return groups


answers = st.sets(
    st.integers(min_value=0, max_value=_UNIVERSE - 1), max_size=_UNIVERSE
)


class TestDisjointEquivalence:
    @SETTINGS
    @given(groups=disjoint_groups(), answer=answers)
    def test_coverage_measure_byte_identical(self, groups, answer):
        legacy = CoverageMeasure(GroupSet(groups))
        general = CoverageMeasure(GroupSystem(groups, aggregate="l1"))
        assert legacy.of(answer) == general.of(answer)
        assert legacy.upper_bound == general.upper_bound
        assert legacy.is_feasible(answer) == general.is_feasible(answer)
        overlaps = legacy.overlaps(answer)
        assert overlaps == general.overlaps(answer)
        assert legacy.of_overlaps(overlaps) == general.of_overlaps(overlaps)
        assert legacy.feasible_overlaps(overlaps) == general.feasible_overlaps(
            overlaps
        )

    @SETTINGS
    @given(groups=disjoint_groups(), answer=answers)
    def test_weighted_measure_agrees_on_unit_weights(self, groups, answer):
        legacy = CoverageMeasure(GroupSet(groups))
        general = CoverageMeasure(GroupSystem(groups, "weighted"))
        assert legacy.of(answer) == general.of(answer)
        assert legacy.of_overlaps(legacy.overlaps(answer)) == general.of_overlaps(
            general.overlaps(answer)
        )

    @SETTINGS
    @given(groups=disjoint_groups(), answer=answers)
    def test_membership_index_is_the_disjoint_one(self, groups, answer):
        legacy = GroupSet(groups)
        general = GroupSystem(groups)
        assert general.is_disjoint
        assert general.max_memberships <= 1
        for node in range(_UNIVERSE):
            assert general.groups_of(node) == legacy.groups_of(node)
            expected = legacy.group_of(node)
            names = general.groups_of(node)
            assert (names[0] if names else None) == expected
        assert legacy.overlap_counts(answer) == general.overlap_counts(answer)


@st.composite
def delta_chain(draw):
    seed = draw(st.integers(min_value=0, max_value=1000))
    initial = draw(
        st.sets(
            st.integers(min_value=0, max_value=_UNIVERSE - 1),
            min_size=2,
            max_size=_UNIVERSE,
        )
    )
    steps = draw(
        st.lists(
            st.tuples(
                st.sets(
                    st.integers(min_value=0, max_value=_UNIVERSE - 1), max_size=5
                ),
                st.sets(
                    st.integers(min_value=0, max_value=_UNIVERSE - 1), max_size=3
                ),
            ),
            min_size=1,
            max_size=5,
        )
    )
    return seed, initial, steps


class TestScoringEquivalence:
    @SETTINGS
    @given(groups=disjoint_groups(), chain=delta_chain())
    def test_delta_engine_identical_under_both_containers(self, groups, chain):
        """One ScoreEngine per container: every chained score matches ==."""
        seed, answer, steps = chain
        graph = _graph(_UNIVERSE, seed)
        diversity = DiversityMeasure(graph, "m", lam=0.5)
        engines = [
            ScoreEngine(
                graph,
                diversity,
                CoverageMeasure(container),
                metrics=MetricsRegistry(),
                max_delta_fraction=1.0,
            )
            for container in (GroupSet(groups), GroupSystem(groups))
        ]
        parent = None
        for removed, added in [(set(), set())] + steps:
            answer = (answer - removed) | added
            scored = [e.score(frozenset(answer), parent) for e in engines]
            assert scored[0].delta == scored[1].delta
            assert scored[0].coverage == scored[1].coverage
            assert scored[0].feasible == scored[1].feasible
            parent = frozenset(answer)

    @SETTINGS
    @given(groups=disjoint_groups(), chain=delta_chain())
    def test_score_state_signatures_identical(self, groups, chain):
        seed, answer, steps = chain
        graph = _graph(_UNIVERSE, seed)
        attributes = ("cat", "num")
        legacy, general = GroupSet(groups), GroupSystem(groups)
        s_legacy = ScoreState.build(answer, graph, attributes, legacy)
        s_general = ScoreState.build(answer, graph, attributes, general)
        assert s_legacy.signature() == s_general.signature()
        for removed, added in steps:
            removed = frozenset(removed & answer)
            added = frozenset(added - (answer - removed))
            answer = (answer - removed) | added
            s_legacy = s_legacy.derive(removed, added, graph, legacy)
            s_general = s_general.derive(removed, added, graph, general)
            assert s_legacy.signature() == s_general.signature()


@st.composite
def overlapping_system(draw):
    """A genuinely unconstrained system: memberships drawn per (node, group)."""
    m = draw(st.integers(min_value=2, max_value=4))
    aggregate = draw(st.sampled_from(("l1", "max", "weighted")))
    groups = []
    for i in range(m):
        nodes = draw(
            st.sets(
                st.integers(min_value=0, max_value=_UNIVERSE - 1),
                min_size=1,
                max_size=_UNIVERSE,
            )
        )
        coverage = draw(st.integers(min_value=0, max_value=len(nodes)))
        relax = draw(st.integers(min_value=0, max_value=2))
        groups.append(NodeGroup(f"g{i}", frozenset(nodes), coverage, relax))
    weights = (
        {g.name: draw(st.floats(min_value=0.0, max_value=4.0)) for g in groups}
        if aggregate == "weighted"
        else None
    )
    return GroupSystem(groups, aggregate=aggregate, weights=weights)


class TestOverlappingCoherence:
    @SETTINGS
    @given(system=overlapping_system(), answer=answers)
    def test_counter_reduction_equals_from_scratch(self, system, answer):
        overlaps = system.overlaps(answer)
        assert system.overlap_counts(answer) == overlaps
        assert system.error_of_overlaps(overlaps) == system.coverage_error(answer)
        assert system.feasible_overlaps(overlaps) == system.is_feasible(answer)

    @SETTINGS
    @given(system=overlapping_system(), answer=answers)
    def test_relax_only_widens_feasibility(self, system, answer):
        strict = GroupSystem(
            [NodeGroup(g.name, g.members, g.coverage) for g in system],
            aggregate=system.aggregate,
            weights=system._weights,
        )
        if strict.is_feasible(answer):
            assert system.is_feasible(answer)

    @SETTINGS
    @given(system=overlapping_system(), answer=answers)
    def test_error_bounded_by_quality_bound_structure(self, system, answer):
        measure = CoverageMeasure(system)
        value = measure.of(answer)
        assert 0.0 <= value <= float(system.quality_bound)
        if system.coverage_error(answer) == 0:
            assert value == float(system.quality_bound)
