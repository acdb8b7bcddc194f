"""Unit tests for relevance scorers and the diversity/coverage measures."""

import pytest

from repro.core.distance import EditTupleDistance, GowerTupleDistance
from repro.core.measures import CoverageMeasure, DiversityMeasure
from repro.core.relevance import AttributeRelevance, ConstantRelevance, DegreeRelevance
from repro.errors import ConfigurationError
from repro.graph.builder import GraphBuilder
from repro.groups.groups import GroupSet, NodeGroup


@pytest.fixture(scope="module")
def graph():
    b = GraphBuilder()
    hub = b.node("m", rating=10.0, genre="Action")
    n1 = b.node("m", rating=5.0, genre="Drama")
    n2 = b.node("m", rating=0.0, genre="Action")
    n3 = b.node("m", rating=7.5, genre="Comedy")
    iso = b.node("m", rating=2.5, genre="Drama")
    for target in (n1, n2, n3):
        b.edge(hub, target, "rel")
    b.edge(n1, n2, "rel")
    return b.build()


class TestRelevance:
    def test_constant(self):
        assert ConstantRelevance(0.7)(123) == 0.7
        with pytest.raises(ValueError):
            ConstantRelevance(1.5)

    def test_degree_normalized(self, graph):
        r = DegreeRelevance(graph, "m")
        assert r(0) == 1.0  # The hub has max degree.
        assert r(4) == 0.0  # The isolated node.
        assert 0 < r(1) < 1

    def test_attribute_relevance(self, graph):
        r = AttributeRelevance(graph, "m", "rating")
        assert r(0) == 1.0
        assert r(2) == 0.0
        assert r(1) == pytest.approx(0.5)

    def test_attribute_relevance_missing(self, graph):
        r = AttributeRelevance(graph, "m", "nonexistent")
        assert r(0) == 0.0


class TestDiversityMeasure:
    def test_empty_answer_is_zero(self, graph):
        m = DiversityMeasure(graph, "m")
        assert m.of(set()) == 0.0

    def test_lambda_zero_is_pure_relevance(self, graph):
        m = DiversityMeasure(graph, "m", lam=0.0, relevance=ConstantRelevance(1.0))
        assert m.of({0, 1, 2}) == pytest.approx(3.0)

    def test_lambda_one_is_pure_dissimilarity(self, graph):
        m = DiversityMeasure(graph, "m", lam=1.0)
        singleton = m.of({0})
        assert singleton == 0.0  # No pairs, no relevance term.

    def test_monotone_in_answer_size(self, graph):
        m = DiversityMeasure(graph, "m", lam=0.5)
        assert m.of({0, 1}) <= m.of({0, 1, 2})

    def test_upper_bound_respected(self, graph):
        m = DiversityMeasure(graph, "m", lam=0.5)
        value = m.of(set(range(5)))
        assert 0.0 <= value <= m.upper_bound == 5.0

    def test_exact_and_decomposed_agree(self, graph):
        kernel = GowerTupleDistance(graph, "m")
        exact = DiversityMeasure(graph, "m", lam=0.7, distance=kernel, mode="exact")
        fast = DiversityMeasure(graph, "m", lam=0.7, mode="decomposed")
        answer = {0, 1, 2, 3, 4}
        assert exact.of(answer) == pytest.approx(fast.of(answer))

    def test_decomposed_requires_gower(self, graph):
        with pytest.raises(ConfigurationError):
            DiversityMeasure(
                graph, "m", distance=EditTupleDistance(graph, "m"), mode="decomposed"
            )

    def test_invalid_lambda(self, graph):
        with pytest.raises(ConfigurationError):
            DiversityMeasure(graph, "m", lam=1.5)

    def test_invalid_mode(self, graph):
        with pytest.raises(ConfigurationError):
            DiversityMeasure(graph, "m", mode="bogus")

    def test_duplicates_collapsed(self, graph):
        m = DiversityMeasure(graph, "m")
        assert m.of([0, 0, 1]) == m.of({0, 1})

    @pytest.mark.parametrize("vectorised", [True, False])
    def test_relevance_sum_is_left_to_right(self, graph, vectorised):
        # 1e16 + 1.0 rounds back to 1e16, so a running sum ends at 0.0;
        # a compensated sum (``sum()`` on Python >= 3.12) would give 1.0.
        scores = {0: 1e16, 1: 1.0, 2: -1e16}
        m = DiversityMeasure(graph, "m", lam=0.0, relevance=scores.get)
        if not vectorised:
            m._kernel = None
        assert m.of({0, 1, 2}) == 0.0


class TestCoverageMeasure:
    @pytest.fixture()
    def groups(self):
        return GroupSet(
            [
                NodeGroup("A", frozenset({0, 2}), 1),
                NodeGroup("B", frozenset({1, 4}), 1),
            ]
        )

    def test_perfect_coverage(self, groups):
        m = CoverageMeasure(groups)
        assert m.upper_bound == 2
        assert m.of({0, 1}) == 2.0
        assert m.is_feasible({0, 1})

    def test_overshoot_penalized(self, groups):
        m = CoverageMeasure(groups)
        assert m.of({0, 2, 1}) == 1.0  # |A∩|=2 (err 1), |B∩|=1 (err 0).

    def test_undershoot_infeasible_but_scored(self, groups):
        m = CoverageMeasure(groups)
        assert not m.is_feasible({0})
        assert m.of({0}) == 1.0  # err A=0, err B=1.

    def test_clamped_at_zero(self, groups):
        m = CoverageMeasure(groups)
        assert m.of({0, 2, 1, 4}) == 0.0  # Both groups overshoot by 1... err=2 → 0.

    def test_overlaps(self, groups):
        m = CoverageMeasure(groups)
        assert m.overlaps({0, 1, 2}) == {"A": 2, "B": 1}
