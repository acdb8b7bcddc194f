"""Differential testing: the matcher against the reference oracles.

The mask pipeline (and its columnar-store variant, which swaps the AC-3
inner loop for CSR support sweeps) must return exactly the answers of the
exponential oracles in ``matching/reference.py``: the naive match set for
homomorphisms and networkx VF2 for ``injective=True``. With and without a
columnar store the candidate masks and removal counts must coincide too.
The suite also covers the incremental parent-seeded path (mask
restriction must equal set restriction and a from-scratch match) and the
lazily materialized ``MatchResult.candidates``.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.graph.attributed_graph import AttributedGraph
from repro.graph.indexes import GraphIndexes
from repro.matching import (
    SubgraphMatcher,
    naive_match_set,
    nx_monomorphism_match_set,
)
from repro.matching.incremental import IncrementalVerifier
from repro.query import Instantiation, Op, QueryInstance, QueryTemplate

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def random_graphs(draw):
    """A random graph with ≤7 nodes, labels a/b, attribute x ∈ [0, 5]."""
    n = draw(st.integers(min_value=2, max_value=7))
    graph = AttributedGraph("random")
    for i in range(n):
        label = draw(st.sampled_from(["a", "b"]))
        x = draw(st.integers(min_value=0, max_value=5))
        graph.add_node(i, label, {"x": x})
    possible = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = draw(
        st.lists(st.sampled_from(possible), max_size=min(14, len(possible)), unique=True)
    )
    for source, target in chosen:
        graph.add_edge(source, target, "e")
    return graph.freeze()


def path_template():
    return (
        QueryTemplate.builder("path")
        .node("u0", "a")
        .node("u1", "b")
        .fixed_edge("u1", "u0", "e")
        .range_var("xl", "u1", "x", Op.GE)
        .output("u0")
        .build()
    )


def star_template():
    return (
        QueryTemplate.builder("star")
        .node("u0", "a")
        .node("u1", "b")
        .node("u2", "b")
        .fixed_edge("u1", "u0", "e")
        .edge_var("xe", "u2", "u0", "e")
        .range_var("xl", "u0", "x", Op.LE)
        .output("u0")
        .build()
    )


def triangle_template():
    return (
        QueryTemplate.builder("triangle")
        .node("u0", "a")
        .node("u1", "a")
        .node("u2", "a")
        .fixed_edge("u0", "u1", "e")
        .fixed_edge("u1", "u2", "e")
        .edge_var("xe", "u2", "u0", "e")
        .output("u0")
        .build()
    )


TEMPLATES = [path_template(), star_template(), triangle_template()]


def build_instance(template, bound, edge_bit):
    bindings = {}
    if "xl" in template.variable_names():
        bindings["xl"] = bound
    if "xe" in template.variable_names():
        bindings["xe"] = edge_bit
    return QueryInstance(Instantiation(template, bindings))


def matchers(graph, injective=False):
    """One matcher over plain indexes, one over a columnar store."""
    return [
        SubgraphMatcher(
            graph, GraphIndexes(graph, columnar=columnar), injective=injective
        )
        for columnar in (False, True)
    ]


def literal_pool(graph, instance, node_id):
    """Nodes of ``node_id``'s label satisfying all of its literals."""
    return {
        v
        for v in graph.nodes_with_label(instance.node_label(node_id))
        if all(
            literal.holds_for(graph.attribute(v, literal.attribute))
            for literal in instance.literals_on(node_id)
        )
    }


INSTANCES = dict(
    graph=random_graphs(),
    template_index=st.integers(min_value=0, max_value=2),
    bound=st.integers(min_value=0, max_value=5),
    edge_bit=st.integers(min_value=0, max_value=1),
)


class TestEngineAgreement:
    @SETTINGS
    @given(**INSTANCES)
    def test_match_and_candidates_identical(
        self, graph, template_index, bound, edge_bit
    ):
        instance = build_instance(TEMPLATES[template_index], bound, edge_bit)
        by_bit, by_col = (m.match(instance) for m in matchers(graph))
        assert by_bit.matches == naive_match_set(graph, instance)
        assert by_col.matches == by_bit.matches
        assert by_col.candidate_masks == by_bit.candidate_masks
        assert by_col.pruned_candidates == by_bit.pruned_candidates

    @SETTINGS
    @given(**INSTANCES)
    def test_injective_engines_agree(self, graph, template_index, bound, edge_bit):
        instance = build_instance(TEMPLATES[template_index], bound, edge_bit)
        by_bit, by_col = (m.match(instance) for m in matchers(graph, injective=True))
        assert by_bit.matches == nx_monomorphism_match_set(graph, instance)
        assert by_bit.matches == naive_match_set(graph, instance, injective=True)
        assert by_col.matches == by_bit.matches
        assert by_col.candidate_masks == by_bit.candidate_masks

    @SETTINGS
    @given(**INSTANCES)
    def test_exists_agrees(self, graph, template_index, bound, edge_bit):
        instance = build_instance(TEMPLATES[template_index], bound, edge_bit)
        expected = bool(naive_match_set(graph, instance))
        assert [m.exists(instance) for m in matchers(graph)] == [expected, expected]


class TestLazyCandidates:
    @SETTINGS
    @given(**INSTANCES)
    def test_candidates_bracket_exact_matches(
        self, graph, template_index, bound, edge_bit
    ):
        """Materialized on first read, ``candidates`` holds every node's
        exact matches (``match_outputs``) and lies inside its literal pool."""
        instance = build_instance(TEMPLATES[template_index], bound, edge_bit)
        matcher = SubgraphMatcher(graph)
        result = matcher.match(instance)
        assert result._candidates is None
        candidates = result.candidates
        assert result.candidates is candidates
        nodes = sorted(instance.active_nodes)
        exact = matcher.match_outputs(instance, nodes)
        for node_id in nodes:
            assert exact[node_id] <= candidates[node_id]
            assert candidates[node_id] <= literal_pool(graph, instance, node_id)
        assert exact[instance.output_node] == result.matches


class TestIncrementalParentSeeding:
    @SETTINGS
    @given(
        graph=random_graphs(),
        parent_bound=st.integers(min_value=0, max_value=3),
        child_extra=st.integers(min_value=0, max_value=2),
    )
    def test_mask_seeding_equals_set_seeding(self, graph, parent_bound, child_extra):
        """A child seeded from its parent's candidate masks must equal the
        same child seeded from the parent's candidate sets, a from-scratch
        match and the oracle."""
        template = path_template()
        parent = QueryInstance(Instantiation(template, {"xl": parent_bound}))
        child = QueryInstance(
            Instantiation(template, {"xl": parent_bound + child_extra})
        )
        expected = naive_match_set(graph, child)
        for matcher in matchers(graph):
            parent_result = matcher.match(parent)
            fresh = matcher.match(child)
            by_masks = matcher.match(
                child, restrict_masks=parent_result.candidate_masks
            )
            by_sets = matcher.match(child, restrict=parent_result.candidates)
            assert by_masks.matches == by_sets.matches == fresh.matches == expected
            assert by_masks.candidate_masks == by_sets.candidate_masks
            assert by_masks.candidates == fresh.candidates

    @SETTINGS
    @given(graph=random_graphs(), parent_bound=st.integers(min_value=0, max_value=3))
    def test_incremental_verifier_engines_agree(self, graph, parent_bound):
        """IncrementalVerifier seeds the child from the parent's masks, with
        and without a columnar store; both give the oracle's answer."""
        template = path_template()
        parent = QueryInstance(Instantiation(template, {"xl": parent_bound}))
        child = QueryInstance(Instantiation(template, {"xl": parent_bound + 1}))
        expected = naive_match_set(graph, child)
        for matcher in matchers(graph):
            verifier = IncrementalVerifier(matcher)
            verifier.verify(parent)
            assert verifier.verify(child, parent=parent).matches == expected
