"""Unit tests for the instance evaluator, configuration, and lattice."""

from dataclasses import replace

import pytest

from repro.core.config import GenerationConfig
from repro.core.evaluator import InstanceEvaluator
from repro.core.lattice import InstanceLattice
from repro.core.measures import DiversityMeasure
from repro.errors import ConfigurationError
from repro.graph.attributed_graph import LabelEnumeration
from repro.query import Instantiation, QueryInstance
from repro.query.refinement import refines, strictly_refines


class TestConfig:
    def test_epsilon_positive(self, talent_graph, talent_template, talent_groups):
        with pytest.raises(ConfigurationError):
            GenerationConfig(talent_graph, talent_template, talent_groups, epsilon=0)

    def test_lambda_bounds(self, talent_graph, talent_template, talent_groups):
        with pytest.raises(ConfigurationError):
            GenerationConfig(
                talent_graph, talent_template, talent_groups, epsilon=0.1, lam=2.0
            )

    def test_output_label_must_exist(self, talent_graph, talent_groups):
        from repro.query import Op, QueryTemplate

        template = (
            QueryTemplate.builder("ghost")
            .node("u0", "alien")
            .range_var("x", "u0", "age", Op.GE)
            .output("u0")
            .build()
        )
        with pytest.raises(ConfigurationError):
            GenerationConfig(talent_graph, template, talent_groups, epsilon=0.1)

    def test_with_helpers(self, talent_config):
        assert talent_config.with_epsilon(0.9).epsilon == 0.9
        assert talent_config.with_epsilon(0.9) is not talent_config


class TestEvaluator:
    def test_coordinates_and_feasibility(self, talent_config, talent_template, talent_ids):
        evaluator = InstanceEvaluator(talent_config)
        q = QueryInstance(
            Instantiation(talent_template, {"xl1": 5, "xl2": 100, "xe1": 0})
        )
        evaluated = evaluator.evaluate(q)
        assert evaluated.matches == {
            talent_ids[d] for d in ("d1", "d2", "d3", "d4")
        }
        assert evaluated.feasible  # 2 M + 2 F covers c=1 each.
        assert evaluated.delta > 0
        # C=2, overshoot of 1 in each group: f = 2 - 2 = 0.
        assert evaluated.coverage == 0.0
        assert evaluated.cardinality == 4

    def test_memoized(self, talent_config, talent_template):
        evaluator = InstanceEvaluator(talent_config)
        q1 = QueryInstance(
            Instantiation(talent_template, {"xl1": 5, "xl2": 100, "xe1": 0})
        )
        q2 = QueryInstance(
            Instantiation(talent_template, {"xl1": 5, "xl2": 100, "xe1": 0})
        )
        assert evaluator.evaluate(q1) is evaluator.evaluate(q2)
        assert evaluator.verified_count == 1

    def test_exact_coverage_scores_max(self, talent_config, talent_template, talent_ids):
        evaluator = InstanceEvaluator(talent_config)
        # xl2=1000 narrows to {d2, d3}: exactly 1 M + 1 F → f = C = 2.
        q = QueryInstance(
            Instantiation(talent_template, {"xl1": 5, "xl2": 1000, "xe1": 0})
        )
        evaluated = evaluator.evaluate(q)
        assert evaluated.matches == {talent_ids["d2"], talent_ids["d3"]}
        assert evaluated.coverage == 2.0
        assert evaluated.feasible

    def test_reset_counters(self, talent_config, talent_template):
        evaluator = InstanceEvaluator(talent_config)
        q = QueryInstance(
            Instantiation(talent_template, {"xl1": 5, "xl2": 100, "xe1": 0})
        )
        evaluator.evaluate(q)
        evaluator.reset_counters()
        assert evaluator.verified_count == 0


class TestScoreMemo:
    """Scores are memoized by answer mask: δ and f depend only on it."""

    @pytest.fixture()
    def delta_calls(self, monkeypatch):
        calls = []
        of = DiversityMeasure.of

        def spy(measure, matches):
            calls.append(matches)
            return of(measure, matches)

        monkeypatch.setattr(DiversityMeasure, "of", spy)
        return calls

    def test_repeated_answer_scored_once(
        self, talent_config, talent_template, talent_ids, delta_calls
    ):
        # employees >= 50 and >= 100 keep both orgs: one answer, two instances.
        q1 = QueryInstance(Instantiation(talent_template, {"xl1": 5, "xl2": 100, "xe1": 0}))
        q2 = QueryInstance(Instantiation(talent_template, {"xl1": 5, "xl2": 50, "xe1": 0}))
        enumeration = talent_config.graph.enumeration("person")
        mask = enumeration.mask_of(talent_ids[d] for d in ("d1", "d2", "d3", "d4"))
        fresh_delta = talent_config.build_diversity().of(mask)
        fresh_f, fresh_feasible = talent_config.build_coverage().of_mask(enumeration, mask)
        evaluator = InstanceEvaluator(talent_config)
        delta_calls.clear()
        first, second = evaluator.evaluate(q1), evaluator.evaluate(q2)
        assert evaluator.verified_count == 2
        assert delta_calls == [mask]
        assert (first.instance, second.instance) == (q1, q2)
        for evaluated in (first, second):
            assert evaluated.mask == mask
            assert evaluated.delta.hex() == fresh_delta.hex()
            assert evaluated.coverage.hex() == fresh_f.hex()
            assert evaluated.feasible == fresh_feasible

    def test_memo_stays_within_the_verifier_bound(
        self, talent_config, talent_template, delta_calls
    ):
        evaluator = InstanceEvaluator(replace(talent_config, verifier_max_entries=2))
        enumeration = talent_config.graph.enumeration("person")
        q = QueryInstance(Instantiation(talent_template, {"xl1": 5, "xl2": 100, "xe1": 0}))
        for mask in (0b1, 0b10, 0b100, 0b1000):
            evaluator.score(q, mask, enumeration)
            assert len(evaluator._scored) <= 2
        evaluator.score(q, 0b1000, enumeration)  # most recent: kept
        evaluator.score(q, 0b1, enumeration)  # least recent: evicted
        assert delta_calls == [0b1, 0b10, 0b100, 0b1000, 0b1]

    def test_memo_cleared_when_the_enumeration_changes(
        self, talent_config, talent_template, delta_calls
    ):
        evaluator = InstanceEvaluator(talent_config)
        enumeration = talent_config.graph.enumeration("person")
        other = LabelEnumeration("person", enumeration.ids)
        q = QueryInstance(Instantiation(talent_template, {"xl1": 5, "xl2": 100, "xe1": 0}))
        evaluator.score(q, 0b11, enumeration)
        evaluator.score(q, 0b11, enumeration)
        evaluator.score(q, 0b11, other)
        assert len(evaluator._scored) == 1
        evaluator.score(q, 0b11, enumeration)
        assert delta_calls == [0b11, 0b11, 0b11]


class TestLattice:
    def test_root_is_most_relaxed(self, talent_config):
        lattice = InstanceLattice(talent_config)
        root = lattice.root()
        assert root.instantiation["xl1"] == 5  # Min yearsOfExp of persons.
        assert root.instantiation["xl2"] == 100
        assert root.instantiation["xe1"] == 0

    def test_bottom_is_most_refined(self, talent_config):
        lattice = InstanceLattice(talent_config)
        bottom = lattice.bottom()
        assert bottom.instantiation["xe1"] == 1
        root = lattice.root()
        assert strictly_refines(bottom, root)

    def test_children_refine_one_variable(self, talent_config):
        lattice = InstanceLattice(talent_config)
        root = lattice.root()
        children = lattice.refine_children(root, None)
        assert children  # At least one refinement exists.
        for variable, child in children:
            assert strictly_refines(child, root)
            differing = [
                name
                for name in child.instantiation
                if child.instantiation[name] != root.instantiation[name]
            ]
            assert differing == [variable]

    def test_relax_children_invert_refine(self, talent_config):
        lattice = InstanceLattice(talent_config)
        bottom = lattice.bottom()
        children = lattice.relax_children(bottom)
        assert children
        for _, child in children:
            assert strictly_refines(bottom, child)

    def test_root_has_no_relaxations(self, talent_config):
        lattice = InstanceLattice(talent_config)
        assert lattice.relax_children(lattice.root()) == []

    def test_bottom_has_no_refinements(self, talent_config):
        lattice = InstanceLattice(talent_config)
        assert lattice.refine_children(lattice.bottom(), None) == []

    def test_enumerate_matches_space_size(self, talent_config):
        lattice = InstanceLattice(talent_config)
        instances = lattice.enumerate_instances()
        assert len(instances) == lattice.instance_space_size()
        # All distinct.
        keys = {i.instantiation.key for i in instances}
        assert len(keys) == len(instances)

    def test_enumerated_all_refine_root(self, talent_config):
        lattice = InstanceLattice(talent_config)
        root = lattice.root()
        bottom = lattice.bottom()
        for instance in lattice.enumerate_instances():
            assert refines(instance, root)
            assert refines(bottom, instance)

    def test_template_refinement_restricts_domains(self, talent_config):
        from repro.core.evaluator import InstanceEvaluator

        lattice = InstanceLattice(talent_config)
        evaluator = InstanceEvaluator(talent_config)
        root = lattice.root()
        evaluated = evaluator.evaluate(root)
        with_ball = lattice.refine_children(root, evaluated)
        without_ball = lattice.refine_children(root, None)
        # Template refinement may prune children but never invents them.
        assert {v for v, _ in with_ball} <= {v for v, _ in without_ball}
