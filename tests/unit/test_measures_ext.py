"""Unit tests for weighted coverage and max-min diversity."""

import pytest

from repro.core.measures import CoverageMeasure, max_min_diversity
from repro.errors import GroupError
from repro.graph.builder import GraphBuilder
from repro.groups import GroupSet, GroupSystem, NodeGroup


@pytest.fixture()
def groups():
    return GroupSet(
        [
            NodeGroup("A", frozenset({0, 1, 2}), 1),
            NodeGroup("B", frozenset({3, 4}), 1),
        ]
    )


def weighted_measure(groups, weights):
    """Coverage under the ``"weighted"`` aggregate of ``groups``' members."""
    return CoverageMeasure(GroupSystem(list(groups), "weighted", weights))


class TestWeightedCoverage:
    def test_unit_weights_equal_plain_measure(self, groups):
        weighted = weighted_measure(groups, {})
        plain = CoverageMeasure(groups)
        for answer in ({0, 3}, {0, 1, 3}, set(), {0, 1, 2, 3, 4}):
            assert weighted.of(answer) == plain.of(answer)
        assert weighted.upper_bound == plain.upper_bound

    def test_heavier_group_penalized_more(self, groups):
        weighted = weighted_measure(groups, {"A": 3.0})
        # Exact coverage scores the (weighted) maximum.
        assert weighted.of({0, 3}) == weighted.upper_bound == 4.0
        # Overshooting A by one costs 3; overshooting B by one costs 1.
        assert weighted.of({0, 1, 3}) == 1.0
        assert weighted.of({0, 3, 4}) == 3.0

    def test_clamped_at_zero(self, groups):
        weighted = weighted_measure(groups, {"A": 10.0})
        assert weighted.of({0, 1, 2, 3}) == 0.0

    def test_validation(self, groups):
        with pytest.raises(GroupError):
            weighted_measure(groups, {"ghost": 1.0})
        with pytest.raises(GroupError):
            weighted_measure(groups, {"A": -1.0})

    def test_feasibility_unchanged(self, groups):
        weighted = weighted_measure(groups, {"A": 5.0})
        assert weighted.is_feasible({0, 3})
        assert not weighted.is_feasible({0})

    def test_drives_generation(self, talent_config):
        """Injectable into the evaluator via a custom coverage measure."""
        from repro.core.evaluator import InstanceEvaluator

        evaluator = InstanceEvaluator(talent_config)
        evaluator.coverage = weighted_measure(talent_config.groups, {"F": 2.0})
        from repro.core.lattice import InstanceLattice

        root = InstanceLattice(talent_config).root()
        evaluated = evaluator.evaluate(root)
        # Root matches 2M+2F with c=1 each: penalty = 1·1 + 2·1 = 3 → f=0.
        assert evaluated.coverage == 0.0


class TestMaxMinDiversity:
    @pytest.fixture()
    def graph(self):
        b = GraphBuilder()
        b.node("m", x=0.0)
        b.node("m", x=5.0)
        b.node("m", x=10.0)
        b.node("m", x=10.0)  # Duplicate of node 2.
        return b.build()

    def test_min_pairwise(self, graph):
        # Distances (range 10): {0,2} → 1.0; {0,1,2} → 0.5.
        assert max_min_diversity(graph, "m", {0, 2}) == pytest.approx(1.0)
        assert max_min_diversity(graph, "m", {0, 1, 2}) == pytest.approx(0.5)

    def test_duplicates_zero(self, graph):
        assert max_min_diversity(graph, "m", {2, 3}) == 0.0

    def test_not_monotone_under_growth(self, graph):
        """The documented reason it cannot drive lattice pruning."""
        small = max_min_diversity(graph, "m", {0, 2})
        larger = max_min_diversity(graph, "m", {0, 1, 2})
        assert larger < small

    def test_small_sets(self, graph):
        assert max_min_diversity(graph, "m", set()) == 0.0
        assert max_min_diversity(graph, "m", {0}) == 0.0
