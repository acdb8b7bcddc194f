"""Integration tests: FairSQG over RPQs (RPQGen end-to-end)."""

import pytest

from repro.core.pareto import dominates, epsilon_dominates
from repro.groups import GroupRule, system_from_rules
from repro.query.predicates import Op
from repro.query.variables import RangeVariable
from repro.rpq import RPQGen, RPQTemplate


@pytest.fixture(scope="module")
def setup(small_lki_bundle):
    graph = small_lki_bundle.graph
    template = RPQTemplate(
        "influence",
        source_label="person",
        path="recommend+",
        range_variables=[
            RangeVariable("min_src_exp", "source", "yearsOfExp", Op.GE),
            RangeVariable("min_dst_exp", "target", "yearsOfExp", Op.GE),
        ],
    )
    groups = system_from_rules(
        graph,
        [GroupRule(value, {"gender": value}, 3, label="person") for value in ("M", "F")],
    )
    return graph, template, groups


class TestRPQGen:
    def test_returns_feasible_epsilon_pareto_set(self, setup):
        graph, template, groups = setup
        result = RPQGen(graph, template, groups, epsilon=0.2, max_domain_values=4).run()
        assert result.instances, "the RPQ config must admit feasible instances"
        for point in result.instances:
            assert groups.is_feasible(point.matches)

    def test_epsilon_dominates_universe(self, setup):
        graph, template, groups = setup
        gen = RPQGen(graph, template, groups, epsilon=0.2, max_domain_values=4)
        result = gen.run()
        # Rebuild the feasible universe by hand and check both conditions.
        universe = []
        for instance in template.enumerate_instances(graph, 4):
            matches = instance.answer(graph)
            if groups.is_feasible(matches):
                universe.append(
                    type(result.instances[0])(
                        instance=instance,  # type: ignore[arg-type]
                        matches=matches,
                        delta=gen.diversity.of(matches),
                        coverage=gen.coverage.of(matches),
                        feasible=True,
                    )
                )
        assert universe
        for point in universe:
            assert any(
                epsilon_dominates(kept, point, 0.2) for kept in result.instances
            )
        for kept in result.instances:
            assert not any(dominates(other, kept) for other in universe)

    def test_stats(self, setup):
        graph, template, groups = setup
        result = RPQGen(graph, template, groups, epsilon=0.2, max_domain_values=4).run()
        assert result.stats.generated >= result.stats.verified
        assert result.stats.feasible <= result.stats.verified
        assert result.stats.elapsed_seconds > 0

    def test_invalid_epsilon(self, setup):
        graph, template, groups = setup
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            RPQGen(graph, template, groups, epsilon=0)

    def test_deterministic(self, setup):
        graph, template, groups = setup
        a = RPQGen(graph, template, groups, epsilon=0.2, max_domain_values=4).run()
        b = RPQGen(graph, template, groups, epsilon=0.2, max_domain_values=4).run()
        assert [p.objectives for p in a.instances] == [
            p.objectives for p in b.instances
        ]


class TestRPQRfGen:
    """The lattice-based RPQ generator vs the exhaustive one."""

    def test_same_epsilon_pareto_quality(self, setup):
        from repro.core.pareto import epsilon_dominates
        from repro.rpq import RPQRfGen

        graph, template, groups = setup
        exhaustive = RPQGen(graph, template, groups, epsilon=0.2, max_domain_values=4).run()
        lattice = RPQRfGen(graph, template, groups, epsilon=0.2, max_domain_values=4).run()
        # The lattice variant must ε-dominate everything the exhaustive
        # archive kept (both are ε-Pareto sets of the same universe).
        for point in exhaustive.instances:
            assert any(
                epsilon_dominates(kept, point, 0.2) for kept in lattice.instances
            )

    def test_prunes_infeasible_subtrees(self, setup):
        from repro.rpq import RPQRfGen

        graph, template, groups = setup
        exhaustive = RPQGen(graph, template, groups, epsilon=0.2, max_domain_values=4).run()
        lattice = RPQRfGen(graph, template, groups, epsilon=0.2, max_domain_values=4).run()
        assert lattice.stats.verified <= exhaustive.stats.verified

    def test_all_returned_feasible(self, setup):
        from repro.rpq import RPQRfGen

        graph, template, groups = setup
        result = RPQRfGen(graph, template, groups, epsilon=0.2, max_domain_values=4).run()
        for point in result.instances:
            assert groups.is_feasible(point.matches)


class TestRPQBiGen:
    """Bi-directional RPQ generation vs the exhaustive baseline."""

    def test_epsilon_pareto_quality(self, setup):
        from repro.core.pareto import epsilon_dominates
        from repro.rpq import RPQBiGen

        graph, template, groups = setup
        exhaustive = RPQGen(graph, template, groups, epsilon=0.2, max_domain_values=4).run()
        bidirectional = RPQBiGen(
            graph, template, groups, epsilon=0.2, max_domain_values=4
        ).run()
        for point in exhaustive.instances:
            assert any(
                epsilon_dominates(kept, point, 0.2)
                for kept in bidirectional.instances
            )

    def test_never_more_work_than_exhaustive(self, setup):
        from repro.rpq import RPQBiGen

        graph, template, groups = setup
        exhaustive = RPQGen(graph, template, groups, epsilon=0.2, max_domain_values=4).run()
        bidirectional = RPQBiGen(
            graph, template, groups, epsilon=0.2, max_domain_values=4
        ).run()
        assert bidirectional.stats.verified <= exhaustive.stats.verified

    def test_all_returned_feasible(self, setup):
        from repro.rpq import RPQBiGen

        graph, template, groups = setup
        result = RPQBiGen(graph, template, groups, epsilon=0.2, max_domain_values=4).run()
        for point in result.instances:
            assert groups.is_feasible(point.matches)

    def test_deterministic(self, setup):
        from repro.rpq import RPQBiGen

        graph, template, groups = setup
        a = RPQBiGen(graph, template, groups, epsilon=0.2, max_domain_values=4).run()
        b = RPQBiGen(graph, template, groups, epsilon=0.2, max_domain_values=4).run()
        assert [p.objectives for p in a.instances] == [
            p.objectives for p in b.instances
        ]
