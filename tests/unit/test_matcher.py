"""Unit tests for candidate pruning and the backtracking matcher."""

import pytest

from repro.matching import (
    BitsetEngine,
    SubgraphMatcher,
    naive_match_set,
    nx_monomorphism_match_set,
)
from repro.matching.bitset import _Work
from repro.query import Instantiation, Literal, Op, QueryInstance, QueryTemplate


def talent_instance(template, **bindings):
    return QueryInstance(Instantiation(template, bindings))


def _as_ids(indexes, masks, labels):
    return {n: indexes.bitsets.to_ids(labels[n], m) for n, m in masks.items()}


def initial_candidates(graph, instance, restrict):
    """The engine's literal stage alone, as per-node id sets."""
    engine = BitsetEngine(graph)
    masks, labels = engine._initial_masks(instance, restrict, None, _Work())
    return _as_ids(engine.indexes, masks, labels)


def propagate(graph, instance, candidates):
    """The engine's arc-consistency stage over id-set pools."""
    engine = BitsetEngine(graph)
    masks, labels = engine._initial_masks(instance, candidates, None, _Work())
    masks, removed = engine._propagate(instance, masks, labels, _Work())
    return _as_ids(engine.indexes, masks, labels), removed


class TestInitialCandidates:
    def test_label_filtering(self, talent_graph, talent_template, talent_ids):
        q = talent_instance(talent_template, xl1=5, xl2=100, xe1=0)
        candidates = initial_candidates(talent_graph, q, None)
        directors = {talent_ids[d] for d in ("d1", "d2", "d3", "d4")}
        assert candidates["u0"] == directors

    def test_literal_filtering(self, talent_graph, talent_template, talent_ids):
        q = talent_instance(talent_template, xl1=12, xl2=100, xe1=0)
        candidates = initial_candidates(talent_graph, q, None)
        # Only r2 has yearsOfExp >= 12 among non-directors... r2 plus the
        # directors with yoe >= 12 (label pool is all persons).
        assert talent_ids["r1"] not in candidates["u1"]
        assert talent_ids["r2"] in candidates["u1"]

    def test_restrict_bounds_pool(self, talent_graph, talent_template, talent_ids):
        q = talent_instance(talent_template, xl1=5, xl2=100, xe1=0)
        restricted = initial_candidates(
            talent_graph, q, {"u0": {talent_ids["d1"], talent_ids["r1"]}}
        )
        # Restriction is re-filtered through the literals (r1 is no
        # director) and caps the pool.
        assert restricted["u0"] == {talent_ids["d1"]}


class TestPropagate:
    def test_prunes_unsupported(self, talent_graph, talent_template, talent_ids):
        q = talent_instance(talent_template, xl1=5, xl2=1000, xe1=0)
        candidates = initial_candidates(talent_graph, q, None)
        candidates, removed = propagate(talent_graph, q, candidates)
        # Only r2 works at the big org; only d2/d3 are recommended by r2.
        assert candidates["u1"] == {talent_ids["r2"]}
        assert candidates["u0"] == {talent_ids["d2"], talent_ids["d3"]}
        assert removed > 0

    def test_empty_propagates_everywhere(self, talent_graph, talent_template):
        q = talent_instance(talent_template, xl1=99, xl2=100, xe1=0)
        candidates = initial_candidates(talent_graph, q, None)
        candidates, _ = propagate(talent_graph, q, candidates)
        assert all(not pool for pool in candidates.values())


class TestMatcher:
    def test_relaxed_instance_matches_all_directors(
        self, talent_graph, talent_template, talent_ids
    ):
        matcher = SubgraphMatcher(talent_graph)
        q = talent_instance(talent_template, xl1=5, xl2=100, xe1=0)
        result = matcher.match(q)
        expected = {talent_ids[d] for d in ("d1", "d2", "d3", "d4")}
        assert result.matches == expected

    def test_refined_org_size(self, talent_graph, talent_template, talent_ids):
        matcher = SubgraphMatcher(talent_graph)
        q = talent_instance(talent_template, xl1=5, xl2=1000, xe1=0)
        assert matcher.match(q).matches == {talent_ids["d2"], talent_ids["d3"]}

    def test_refined_experience(self, talent_graph, talent_template, talent_ids):
        matcher = SubgraphMatcher(talent_graph)
        q = talent_instance(talent_template, xl1=12, xl2=100, xe1=0)
        assert matcher.match(q).matches == {talent_ids["d2"], talent_ids["d3"]}

    def test_edge_variable_adds_constraint(
        self, talent_graph, talent_template, talent_ids
    ):
        matcher = SubgraphMatcher(talent_graph)
        # u3 -recommend-> u0 is a second (non-injective) recommender; every
        # director with at least one recommender still matches.
        q = talent_instance(talent_template, xl1=5, xl2=100, xe1=1)
        expected = {talent_ids[d] for d in ("d1", "d2", "d3", "d4")}
        assert matcher.match(q).matches == expected

    def test_injective_mode_requires_distinct(self, talent_graph, talent_template, talent_ids):
        matcher = SubgraphMatcher(talent_graph, injective=True)
        q = talent_instance(talent_template, xl1=5, xl2=100, xe1=1)
        # Injective: u1 and u3 must be different recommenders; only d2 has
        # two distinct recommenders (r1 and r2).
        assert matcher.match(q).matches == {talent_ids["d2"]}

    def test_agrees_with_naive(self, talent_graph, talent_template):
        matcher = SubgraphMatcher(talent_graph)
        for xl1 in (5, 12):
            for xl2 in (100, 1000):
                for xe1 in (0, 1):
                    q = talent_instance(talent_template, xl1=xl1, xl2=xl2, xe1=xe1)
                    assert matcher.match(q).matches == naive_match_set(
                        talent_graph, q
                    ), (xl1, xl2, xe1)

    def test_injective_agrees_with_networkx(self, talent_graph, talent_template):
        matcher = SubgraphMatcher(talent_graph, injective=True)
        for xe1 in (0, 1):
            q = talent_instance(talent_template, xl1=5, xl2=100, xe1=xe1)
            assert matcher.match(q).matches == nx_monomorphism_match_set(
                talent_graph, q
            )

    def test_exists(self, talent_graph, talent_template):
        matcher = SubgraphMatcher(talent_graph)
        assert matcher.exists(talent_instance(talent_template, xl1=5, xl2=100, xe1=0))
        assert not matcher.exists(
            talent_instance(talent_template, xl1=99, xl2=100, xe1=0)
        )


class TestCyclicMatching:
    def test_triangle_pattern(self, triangle_graph):
        template = (
            QueryTemplate.builder("tri")
            .node("u0", "a")
            .node("u1", "a")
            .node("u2", "a")
            .fixed_edge("u0", "u1", "e")
            .fixed_edge("u1", "u2", "e")
            .fixed_edge("u2", "u0", "e")
            .output("u0")
            .build()
        )
        matcher = SubgraphMatcher(triangle_graph)
        q = QueryInstance(Instantiation(template))
        # Only the three triangle nodes close the cycle; node 3 does not.
        assert matcher.match(q).matches == {0, 1, 2}
        assert matcher.match(q).matches == naive_match_set(triangle_graph, q)

    def test_backtracking_counter_moves_on_cycles(self, triangle_graph):
        template = (
            QueryTemplate.builder("tri")
            .node("u0", "a")
            .node("u1", "a")
            .node("u2", "a")
            .fixed_edge("u0", "u1", "e")
            .fixed_edge("u1", "u2", "e")
            .fixed_edge("u2", "u0", "e")
            .output("u0")
            .build()
        )
        matcher = SubgraphMatcher(triangle_graph)
        result = matcher.match(QueryInstance(Instantiation(template)))
        assert result.backtrack_calls > 0

    def test_acyclic_skips_backtracking(self, talent_graph, talent_template):
        matcher = SubgraphMatcher(talent_graph)
        q = talent_instance(talent_template, xl1=5, xl2=100, xe1=0)
        assert matcher.match(q).backtrack_calls == 0


class TestSingleNodeQuery:
    def test_single_node(self, talent_graph, talent_ids):
        template = (
            QueryTemplate.builder("solo")
            .node("u0", "org")
            .range_var("xl", "u0", "employees", Op.GE)
            .output("u0")
            .build()
        )
        matcher = SubgraphMatcher(talent_graph)
        q = QueryInstance(Instantiation(template, {"xl": 500}))
        assert matcher.match(q).matches == {talent_ids["o_big"]}
