"""Differential testing: the matcher against the reference oracles.

The mask pipeline must return exactly the answers of the exponential
oracles in ``matching/reference.py``: the naive match set for
homomorphisms and networkx VF2 for ``injective=True``, on both AC-3 paths
(every constraint's support swept over the ball kernel's edge arrays, or
every candidate probed row by row). The two paths must also agree on the
candidate masks and on ``matcher.ac_removed``. The suite also covers the incremental parent-seeded path (mask
restriction must equal set restriction and a from-scratch match) and the
lazily materialized ``MatchResult.candidates``.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.graph.attributed_graph import AttributedGraph
from repro.matching import (
    SubgraphMatcher,
    naive_match_set,
    nx_monomorphism_match_set,
)
from repro.matching.incremental import IncrementalVerifier
from repro.query import Instantiation, Op, QueryInstance, QueryTemplate
from tests.ac3 import forced

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


PATHS = ("probe", "sweep")


def on_paths(graph, call, injective=False):
    """``call(matcher)`` on a fresh matcher per AC-3 path (probe, sweep)."""
    results = []
    for path in PATHS:
        with forced(path):
            results.append(call(SubgraphMatcher(graph, injective=injective)))
    return results


def match_on_paths(graph, instance, injective=False):
    """The instance matched on each AC-3 path, with its ``ac_removed``."""

    def run(matcher):
        result = matcher.match(instance)
        return result, matcher.metrics.value("matcher.ac_removed")

    return on_paths(graph, run, injective)


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
        (probed, probe_removed), (swept, sweep_removed) = match_on_paths(graph, instance)
        assert probed.matches == naive_match_set(graph, instance)
        assert swept.matches == probed.matches
        assert swept.candidate_masks == probed.candidate_masks
        assert swept.pruned_candidates == probed.pruned_candidates
        assert sweep_removed == probe_removed

    @SETTINGS
    @given(**INSTANCES)
    def test_injective_engines_agree(self, graph, template_index, bound, edge_bit):
        instance = build_instance(TEMPLATES[template_index], bound, edge_bit)
        (probed, _), (swept, _) = match_on_paths(graph, instance, injective=True)
        assert probed.matches == nx_monomorphism_match_set(graph, instance)
        assert probed.matches == naive_match_set(graph, instance, injective=True)
        assert swept.matches == probed.matches
        assert swept.candidate_masks == probed.candidate_masks

    @SETTINGS
    @given(**INSTANCES)
    def test_exists_agrees(self, graph, template_index, bound, edge_bit):
        instance = build_instance(TEMPLATES[template_index], bound, edge_bit)
        expected = bool(naive_match_set(graph, instance))
        exists = on_paths(graph, lambda matcher: matcher.exists(instance))
        assert exists == [expected, expected]

    @SETTINGS
    @given(**INSTANCES)
    def test_match_outputs_agree(self, graph, template_index, bound, edge_bit):
        """Every query node's exact match set, on both paths, equals the
        oracle's with that node as output."""
        instance = build_instance(TEMPLATES[template_index], bound, edge_bit)
        nodes = sorted(instance.active_nodes)
        probed, swept = on_paths(
            graph, lambda matcher: matcher.match_outputs(instance, nodes)
        )
        assert swept == probed
        assert probed[instance.output_node] == naive_match_set(graph, instance)


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
        for path in PATHS:
            with forced(path):
                matcher = SubgraphMatcher(graph)
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
        """IncrementalVerifier seeds the child from the parent's masks, on
        both AC-3 paths; both give the oracle's answer."""
        template = path_template()
        parent = QueryInstance(Instantiation(template, {"xl": parent_bound}))
        child = QueryInstance(Instantiation(template, {"xl": parent_bound + 1}))
        expected = naive_match_set(graph, child)

        def verify(matcher):
            verifier = IncrementalVerifier(matcher)
            verifier.verify(parent)
            return verifier.verify(child, parent=parent).matches

        assert on_paths(graph, verify) == [expected, expected]


def dense_graph():
    """A dense one-label synthetic graph (~25 out-edges per node), large
    enough that full pools reach the default sweep crossover."""
    from repro.datasets.synthetic import (
        EdgePopulation,
        GaussInt,
        NodePopulation,
        SyntheticSpec,
        UniformInt,
        build_synthetic,
    )

    spec = SyntheticSpec(
        name="dense-siblings",
        nodes=[
            NodePopulation(
                "person",
                600,
                {"yearsOfExp": GaussInt(12, 6, 0, 40), "score": UniformInt(0, 100)},
            ),
        ],
        edges=[
            EdgePopulation(
                "person", "knows", "person",
                out_degree=UniformInt(15, 35), attachment="preferential",
            ),
        ],
    )
    return build_synthetic(spec, scale=1.0, seed=7)


def sibling_template():
    """Three nodes, two range variables and an optional closing edge."""
    return (
        QueryTemplate.builder("siblings")
        .node("u0", "person")
        .node("u1", "person")
        .node("u2", "person")
        .fixed_edge("u1", "u0", "knows")
        .fixed_edge("u2", "u1", "knows")
        .edge_var("xe", "u2", "u0", "knows")
        .range_var("xl1", "u1", "yearsOfExp", Op.GE)
        .range_var("xl2", "u2", "score", Op.GE)
        .output("u0")
        .build()
    )


def dense_siblings():
    """The dense graph and 18 lattice siblings of its template."""
    template = sibling_template()
    instances = [
        QueryInstance(Instantiation(template, {"xe": xe, "xl1": xl1, "xl2": xl2}))
        for xe in (0, 1)
        for xl1 in (0, 10, 20)
        for xl2 in (0, 50, 90)
    ]
    return dense_graph(), instances


class TestDenseSiblingSweep:
    def test_default_crossover_equals_row_probes(self):
        """A lattice-shaped sibling sweep over a dense graph, acyclic and
        triangle shapes: the default crossover (full pools swept, literal-
        restricted ones probed) gives the masks and answers of row probes
        on every instance."""
        graph, instances = dense_siblings()
        default = SubgraphMatcher(graph)
        with forced("probe"):
            probe = SubgraphMatcher(graph)
            probed = [probe.match(instance) for instance in instances]
        for instance, expected in zip(instances, probed):
            result = default.match(instance)
            assert result.matches == expected.matches
            assert result.candidate_masks == expected.candidate_masks
        assert default.metrics.value("matcher.ac_removed") == probe.metrics.value(
            "matcher.ac_removed"
        )
        assert default.metrics.value("matcher.bitset.support_sweeps") > 0
