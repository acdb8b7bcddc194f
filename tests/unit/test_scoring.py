"""Unit tests for the delta-scoring subsystem (repro.scoring)."""

from __future__ import annotations

import pytest

from repro.core.config import GenerationConfig
from repro.core.lattice import InstanceLattice
from repro.core.measures import CoverageMeasure, DiversityMeasure
from repro.errors import ConfigurationError
from repro.graph.attributed_graph import AttributedGraph
from repro.groups import GroupRule, GroupSystem, system_from_rules
from repro.groups.groups import GroupSet, NodeGroup
from repro.obs.registry import MetricsRegistry
from repro.scoring import AttributeStats, ScoreEngine, ScoreState


def _mixed_graph(n=40):
    """One-label graph with numeric, categorical and missing attributes."""
    graph = AttributedGraph("scoring-toy")
    for i in range(n):
        attrs = {}
        if i % 3:
            attrs["num"] = (i * 7) % 23
        if i % 4:
            attrs["cat"] = ("r", "g", "b")[i % 3]
        if i % 5 == 0:
            attrs["mix"] = i if i % 2 else f"s{i}"
        graph.add_node(i, "m", attrs)
    return graph.freeze()


def _groups(n=40):
    return GroupSet(
        [
            NodeGroup("even", frozenset(range(0, n, 2)), 2),
            NodeGroup("odd", frozenset(range(1, n, 2)), 2),
        ]
    )


GRAPH = _mixed_graph()
GROUPS = _groups()
ATTRIBUTES = ("cat", "mix", "num")


class TestAttributeStats:
    def test_add_remove_roundtrip(self):
        st = AttributeStats()
        for v in (5, 2, 5, "x", 9, 2.0):
            st.add(v)
        assert st.present == 6
        assert st.non_numeric == 1
        assert st.numeric == [2, 2.0, 5, 5, 9]
        st.remove("x")
        st.remove(5)
        assert st.present == 4
        assert st.non_numeric == 0
        # 2 and 2.0 share one dict key — the from-scratch categorical
        # formula builds its counts the same way.
        assert st.counts == {5: 1, 2: 2, 9: 1}

    def test_int_float_key_collapse(self):
        # 5 and 5.0 are the same dict key — exactly the semantics of the
        # from-scratch pair_sum_categorical, which also builds a dict.
        st = AttributeStats()
        st.add(5)
        st.add(5.0)
        assert st.counts == {5: 2}
        st.remove(5.0)
        st.remove(5)
        assert st.counts == {} and st.numeric == []

    def test_clone_is_independent(self):
        st = AttributeStats()
        st.add(1)
        twin = st.clone()
        twin.add(2)
        assert st.numeric == [1] and twin.numeric == [1, 2]


class TestScoreState:
    def test_build_matches_manual_counts(self):
        state = ScoreState.build({0, 1, 2, 3}, GRAPH, ATTRIBUTES, GROUPS)
        assert state.nodes == [0, 1, 2, 3]
        assert state.overlaps == GROUPS.overlap_counts({0, 1, 2, 3})
        assert state.attrs["num"].present == 2  # nodes 0 and 3 lack "num"

    def test_derive_equals_build(self):
        parent = ScoreState.build(range(20), GRAPH, ATTRIBUTES, GROUPS)
        removed = frozenset({3, 7, 12})
        added = frozenset({25, 31})
        child = parent.derive(removed, added, GRAPH, GROUPS)
        target = (set(range(20)) - removed) | added
        rebuilt = ScoreState.build(target, GRAPH, ATTRIBUTES, GROUPS)
        assert child.signature() == rebuilt.signature()
        # The parent state is untouched (persistence-by-copying).
        assert parent.signature() == ScoreState.build(
            range(20), GRAPH, ATTRIBUTES, GROUPS
        ).signature()

    def test_derive_chain_equals_build(self):
        nodes = set(range(30))
        state = ScoreState.build(nodes, GRAPH, ATTRIBUTES, GROUPS)
        for step in range(8):
            removed = frozenset(sorted(nodes)[: 1 + step % 3])
            added = frozenset({30 + step}) if step % 2 else frozenset()
            nodes = (nodes - removed) | added
            state = state.derive(removed, added, GRAPH, GROUPS)
            assert state.signature() == ScoreState.build(
                nodes, GRAPH, ATTRIBUTES, GROUPS
            ).signature()

    def test_groups_none_skips_overlaps(self):
        state = ScoreState.build({1, 2}, GRAPH, ATTRIBUTES, None)
        child = state.derive(frozenset({1}), frozenset({5}), GRAPH, None)
        assert state.overlaps == {} and child.overlaps == {}


class TestScoreEngine:
    def _engine(self, **kwargs):
        diversity = DiversityMeasure(GRAPH, "m", lam=0.5)
        coverage = CoverageMeasure(GROUPS)
        metrics = MetricsRegistry()
        engine = ScoreEngine(GRAPH, diversity, coverage, metrics=metrics, **kwargs)
        return engine, diversity, coverage, metrics

    def test_root_score_equals_measures_exactly(self):
        engine, diversity, coverage, _ = self._engine()
        answer = frozenset(range(25))
        scored = engine.score(answer)
        assert scored.delta == diversity.of(answer)
        assert scored.coverage == coverage.of(answer)
        assert scored.feasible == coverage.is_feasible(answer)

    def test_delta_path_is_bitwise_exact(self):
        engine, diversity, coverage, metrics = self._engine()
        parent = frozenset(range(30))
        engine.score(parent)
        child = parent - {2, 9} | {33}
        scored = engine.score(child, parent)
        assert metrics.value("scoring.delta_updates") == 1
        assert scored.delta == diversity.of(child)
        assert scored.coverage == coverage.of(child)

    def test_fingerprint_cache_hit(self):
        engine, _, _, metrics = self._engine()
        answer = frozenset(range(10))
        first = engine.score(answer)
        second = engine.score(frozenset(range(10)))
        assert first == second
        assert metrics.value("scoring.cache_hits") == 1
        assert metrics.value("scoring.full_builds") == 1

    def test_large_delta_falls_back_to_build(self):
        engine, _, _, metrics = self._engine(max_delta_fraction=0.1)
        parent = frozenset(range(10))
        engine.score(parent)
        child = frozenset(range(5, 20))  # |Δ| = 15 > 0.1 · 10
        engine.score(child, parent)
        assert metrics.value("scoring.fallback_large_delta") == 1
        assert metrics.value("scoring.delta_updates") == 0
        assert metrics.value("scoring.full_builds") == 2

    def test_lru_bound_and_evictions(self):
        engine, _, _, metrics = self._engine(max_entries=4)
        for i in range(7):
            engine.score(frozenset({i, i + 1}))
        assert len(engine._scores) == 4
        assert metrics.value("scoring.cache_evictions") == 3
        assert metrics.value("scoring.state_evictions") == 3

    def test_subclassed_measure_disables_delta_but_stays_exact(self):
        class TwistedDiversity(DiversityMeasure):
            def of(self, matches):
                return super().of(matches) + 1.0

        diversity = TwistedDiversity(GRAPH, "m", lam=0.5)
        coverage = CoverageMeasure(GROUPS)
        metrics = MetricsRegistry()
        engine = ScoreEngine(GRAPH, diversity, coverage, metrics=metrics)
        parent = frozenset(range(12))
        engine.score(parent)
        child = parent - {3}
        scored = engine.score(child, parent)
        assert scored.delta == diversity.of(child)

    def test_weighted_coverage_delta_path(self):
        diversity = DiversityMeasure(GRAPH, "m", lam=0.5)
        coverage = CoverageMeasure(GroupSystem(list(GROUPS), "weighted", {"even": 2.0}))
        metrics = MetricsRegistry()
        engine = ScoreEngine(GRAPH, diversity, coverage, metrics=metrics)
        parent = frozenset(range(20))
        engine.score(parent)
        child = parent - {0, 2}
        scored = engine.score(child, parent)
        assert metrics.value("scoring.delta_updates") == 1
        assert scored.coverage == coverage.of(child)

    def test_clear_drops_states(self):
        engine, _, _, metrics = self._engine()
        engine.score(frozenset(range(5)))
        engine.clear()
        assert not engine._scores and not engine._states
        engine.score(frozenset(range(5)))
        assert metrics.value("scoring.full_builds") == 2


class TestScorePatching:
    """The streaming patch tier: in-place entry repair + the node index."""

    RULES = [
        GroupRule("red", {"cat": "r"}, 0, label="m"),
        GroupRule("warm", {"cat": ("r", "g")}, 0, label="m"),
    ]

    def _engine(self, **kwargs):
        # Fresh (mutable) graph per test — patching rewrites attributes
        # in place, so the shared module-level GRAPH must stay untouched.
        graph = _mixed_graph()
        groups = system_from_rules(graph, self.RULES)
        diversity = DiversityMeasure(graph, "m", lam=0.5)
        coverage = CoverageMeasure(groups)
        metrics = MetricsRegistry()
        engine = ScoreEngine(graph, diversity, coverage, metrics=metrics, **kwargs)
        return graph, groups, engine, metrics

    def _mutate(self, graph, groups, engine, *changes):
        """In-place churn + membership repair, mirroring the session."""
        from repro.matching.delta import GraphDelta

        patched = []
        for node, name, value in changes:
            old = graph._set_attribute_in_place(node, name, value)
            patched.append((node, name, old, value))
        diff = groups.repair_membership(
            GraphDelta(set_attributes=tuple(changes))
        )
        engine.diversity.distance.invalidate_nodes(
            [node for node, _, _ in changes]
        )
        return patched, diff

    def test_patched_scores_equal_fresh_rebuild(self):
        graph, groups, engine, metrics = self._engine()
        answers = [frozenset(range(12)), frozenset(range(8, 20)),
                   frozenset(range(30, 38))]
        for answer in answers:
            engine.score(answer)
        # Spread-safe churn: "num" stays inside its active range, "cat"
        # moves node 4 out of "red" (and node 9 into it).
        changes, diff = self._mutate(
            graph, groups, engine,
            (4, "cat", "b"), (9, "cat", "r"), (10, "num", 5),
        )
        patched, invalidated = engine.patch_nodes(changes, diff)
        assert patched == 2 and invalidated == 0  # third answer disjoint
        assert metrics.value("scoring.patched_entries") == 2
        fresh_div = DiversityMeasure(graph, "m", lam=0.5)
        fresh_cov = CoverageMeasure(system_from_rules(graph, self.RULES))
        for answer in answers:
            scored = engine.score(answer)
            assert scored.delta == fresh_div.of(answer)
            assert scored.coverage == fresh_cov.of(answer)
            assert scored.feasible == fresh_cov.is_feasible(answer)
        # All three still served from the fingerprint cache — warm.
        assert metrics.value("scoring.cache_hits") == 3

    def test_straddler_falls_back_to_invalidation(self):
        graph, groups, engine, metrics = self._engine()
        answer = frozenset(range(0, 40, 5))  # the "mix" carriers
        engine.score(answer)
        # node 10 has mix="s10" (string); a numeric rewrite straddles the
        # numeric/non-numeric boundary — drop, don't patch. 20 sits inside
        # the numeric mix range, so no normalizing spread moves (a spread
        # change is the session's full-rescore tier, not the engine's).
        changes, diff = self._mutate(graph, groups, engine, (10, "mix", 20))
        patched, invalidated = engine.patch_nodes(changes, diff)
        assert patched == 0 and invalidated == 2
        assert metrics.value("scoring.patched_entries") == 0
        assert metrics.value("scoring.invalidated_entries") == 2
        scored = engine.score(answer)  # rebuild, still exact
        assert metrics.value("scoring.full_builds") == 2
        assert scored.delta == DiversityMeasure(graph, "m", lam=0.5).of(answer)

    def test_large_patch_fraction_falls_back(self):
        graph, groups, engine, _ = self._engine(max_delta_fraction=0.1)
        answer = frozenset(range(5))
        engine.score(answer)
        changes, diff = self._mutate(graph, groups, engine, (1, "num", 3))
        patched, invalidated = engine.patch_nodes(changes, diff)
        # 1 touched node > 0.1 · 5 — past the threshold a rebuild wins.
        assert patched == 0 and invalidated == 2

    def test_invalidate_nodes_drops_only_intersecting(self):
        graph, groups, engine, metrics = self._engine()
        warm = frozenset(range(10))
        cold = frozenset(range(20, 30))
        engine.score(warm)
        engine.score(cold)
        dropped = engine.invalidate_nodes([25])
        assert dropped == 2  # cold's score + state entries
        assert metrics.value("scoring.invalidated_entries") == 2
        engine.score(warm)
        assert metrics.value("scoring.cache_hits") == 1
        engine.score(cold)
        assert metrics.value("scoring.full_builds") == 3

    def test_eviction_keeps_index_consistent(self):
        graph, groups, engine, _ = self._engine(max_entries=2)
        for i in range(6):
            engine.score(frozenset({i, i + 1}))
        live = set(engine._scores) | set(engine._states)
        indexed = set()
        for bucket in engine._by_node.values():
            indexed |= bucket
        assert indexed == live
        # Patching nodes of evicted entries is a clean no-op.
        changes, diff = self._mutate(graph, groups, engine, (0, "num", 5))
        assert engine.patch_nodes(changes, diff) == (0, 0)


class TestGroupIndex:
    def test_group_of_matches_membership(self):
        for node in range(45):
            name = GROUPS.group_of(node)
            if node < 40:
                assert name == ("even" if node % 2 == 0 else "odd")
            else:
                assert name is None

    def test_overlap_counts_equals_overlaps(self):
        answer = {1, 2, 3, 10, 41}
        assert GROUPS.overlap_counts(answer) == GROUPS.overlaps(answer)

    def test_overlap_set_fast_path(self):
        group = NodeGroup("g", frozenset({1, 2, 3}), 1)
        assert group.overlap({2, 3, 9}) == 2
        assert group.overlap(frozenset({2, 3, 9})) == 2
        assert group.overlap([2, 3, 9, 3]) == 3  # iterable fallback counts dups
        assert group.overlap(iter([1, 7])) == 1


class TestMeasuresMaintained:
    def test_of_overlaps_equals_of(self):
        coverage = CoverageMeasure(GROUPS)
        answer = set(range(7))
        assert coverage.of_overlaps(GROUPS.overlap_counts(answer)) == coverage.of(answer)
        assert coverage.feasible_overlaps(
            GROUPS.overlap_counts(answer)
        ) == coverage.is_feasible(answer)

    def test_weighted_upper_bound_cached_and_exact(self):
        weighted = GroupSystem(list(GROUPS), "weighted", {"even": 3.0, "odd": 0.5})
        coverage = CoverageMeasure(weighted)
        assert coverage.upper_bound == 3.0 * 2 + 0.5 * 2
        answer = set(range(5))
        assert coverage.of_overlaps(weighted.overlap_counts(answer)) == coverage.of(answer)

    def test_of_maintained_equals_of(self):
        for mode in ("auto", "exact", "decomposed"):
            diversity = DiversityMeasure(GRAPH, "m", lam=0.7, mode=mode)
            answer = set(range(18))
            state = ScoreState.build(answer, GRAPH, diversity.distance.attributes, None)
            stats = state.attrs if mode != "exact" else None
            assert diversity.of_maintained(state.nodes, stats) == diversity.of(answer)


class TestConfigKnobs:
    def test_defaults_off(self, talent_config):
        assert talent_config.use_delta_scoring is False
        assert talent_config.scoring_delta_max_fraction == 0.5
        assert talent_config.score_cache_max_entries == 4096

    def test_validation(self, talent_graph, talent_template, talent_groups):
        with pytest.raises(ConfigurationError):
            GenerationConfig(
                talent_graph, talent_template, talent_groups,
                scoring_delta_max_fraction=1.5,
            )
        with pytest.raises(ConfigurationError):
            GenerationConfig(
                talent_graph, talent_template, talent_groups,
                score_cache_max_entries=0,
            )


class TestBallCacheLRU:
    def test_eviction_is_bounded_and_counted(self, talent_config):
        lattice = InstanceLattice(talent_config)
        lattice._BALL_CACHE_MAX = 3
        for i in range(5):
            # Answer masks over the person enumeration.
            lattice._ball(1 << 4 | 1 << (1 + i % 3) | 1 << i)
        assert len(lattice._ball_cache) <= 3
        assert lattice.metrics.value("lattice.ball_cache_evictions") >= 1

    def test_hit_refreshes_recency(self, talent_config):
        lattice = InstanceLattice(talent_config)
        lattice._BALL_CACHE_MAX = 2
        a, b, c = 1 << 0, 1 << 1, 1 << 2
        lattice._ball(a)
        lattice._ball(b)
        lattice._ball(a)  # refresh a; b becomes the LRU entry
        lattice._ball(c)  # evicts b
        assert a in lattice._ball_cache and b not in lattice._ball_cache
