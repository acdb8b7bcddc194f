"""Streaming differential suite: live archive ≡ cold rebuild, every step.

The streaming session's contract: after every applied delta, its graph,
ledger evaluations and ε-Pareto archive are *byte-identical* to what a
cold rebuild would produce — materialize ``G ⊕ Δ₁ ⊕ … ⊕ Δₜ`` from
scratch (through the builder, :func:`tests.rebuild.rebuild_with_delta`,
which shares no code with the in-place update path), build a fresh context/evaluator, evaluate the ledger instances
in order, offer the feasible ones. The suite pins that equality for
both AC-3 paths of the live session's matcher (every constraint swept over
the ball kernel's edge arrays, which the in-place edge hooks splice, or
every constraint probed row by row) × delta scoring on/off, for
structural, attribute and mixed deltas. The cold rebuild always probes.
A stream over a sparse 1,000-node graph also pins locality: entries
outside an update's influence ball are skipped, and a clean run never
falls back to the cold path.
"""

import itertools

import pytest

from repro.core.evaluator import InstanceEvaluator
from repro.core.update import EpsilonParetoArchive
from repro.datasets.synthetic import (
    EdgePopulation,
    GaussInt,
    NodePopulation,
    SyntheticSpec,
    UniformChoice,
    UniformInt,
    build_synthetic,
)
from repro.graph.builder import GraphBuilder
from repro.groups import GroupRule, GroupSet, NodeGroup, system_from_rules
from repro.matching.delta import GraphDelta, apply_delta
from repro.query import Literal, Op, QueryTemplate
from repro.service.context import GraphContext
from repro.streaming import StreamingSession, graph_signature
from repro.workload import random_delta_stream
from tests.ac3 import LAYOUT_IDS, forced
from tests.rebuild import rebuild_with_delta

#: (AC-3 path of the live session, delta scoring).
CONFIG_GRID = [
    pytest.param(path, scoring, id=f"{LAYOUT_IDS[path]}-{scoring}")
    for path, scoring in itertools.product(("probe", "sweep"), (False, True))
]


def build_graph():
    """Fresh talent-toy graph per call (streaming mutates in place)."""
    b = GraphBuilder("talent-toy")
    o_small = b.node("org", name="smallco", employees=100)
    o_big = b.node("org", name="bigco", employees=1000)
    r1 = b.node("person", name="r1", title="analyst", yearsOfExp=5,
                gender="M", major="CS")
    r2 = b.node("person", name="r2", title="analyst", yearsOfExp=12,
                gender="F", major="Business")
    d1 = b.node("person", name="d1", title="director", yearsOfExp=15,
                gender="M", major="CS")
    d2 = b.node("person", name="d2", title="director", yearsOfExp=18,
                gender="F", major="Business")
    d3 = b.node("person", name="d3", title="director", yearsOfExp=20,
                gender="M", major="CS")
    d4 = b.node("person", name="d4", title="director", yearsOfExp=9,
                gender="F", major="Design")
    b.edge(r1, o_small, "worksAt")
    b.edge(r2, o_big, "worksAt")
    b.edge(r1, d1, "recommend")
    b.edge(r1, d2, "recommend")
    b.edge(r1, d4, "recommend")
    b.edge(r2, d2, "recommend")
    b.edge(r2, d3, "recommend")
    return b.build()


def build_template():
    return (
        QueryTemplate.builder("toy-talent")
        .node("u0", "person", Literal("title", Op.EQ, "director"))
        .node("u1", "person")
        .node("u2", "org")
        .fixed_edge("u1", "u0", "recommend")
        .fixed_edge("u1", "u2", "worksAt")
        .range_var("xl1", "u1", "yearsOfExp", Op.GE)
        .range_var("xl2", "u2", "employees", Op.GE)
        .output("u0")
        .build()
    )


def build_groups():
    return GroupSet(
        [
            NodeGroup("M", frozenset({4, 6}), 1),
            NodeGroup("F", frozenset({5, 7}), 1),
        ]
    )


# Overlapping rule-built system: "gender" / "major" churn moves directors
# between M/F and in/out of the umbrella "tech" group.
MEMBERSHIP_RULES = (
    GroupRule("M", {"gender": "M"}, 1, label="person"),
    GroupRule("F", {"gender": "F"}, 1, label="person"),
    GroupRule("tech", {"major": ("CS", "Design")}, 1, label="person"),
)


def archive_fingerprint(archive):
    """Byte-comparable archive content: box → (instance, matches, δ, f)."""
    return sorted(
        (
            box,
            ev.instance.instantiation.key,
            tuple(sorted(ev.matches)),
            ev.delta,
            ev.coverage,
            ev.feasible,
        )
        for box, ev in archive.boxes().items()
    )


def cold_rebuild(graph, template, groups, instances, **options):
    """The reference: a from-scratch build on the materialized graph,
    verified by row probes."""
    context = GraphContext(graph)
    config = context.configure(template, groups, **options)
    evaluator = InstanceEvaluator(config)
    archive = EpsilonParetoArchive(config.epsilon)
    evaluations = []
    with forced("probe"):
        for instance in instances:
            evaluated = evaluator.evaluate(instance)
            evaluations.append(evaluated)
            if evaluated.feasible:
                archive.offer(evaluated)
    return archive, evaluations


@pytest.mark.parametrize("path,scoring", CONFIG_GRID)
class TestStreamingDifferential:
    @pytest.fixture(autouse=True)
    def _ac3_path(self, path):
        with forced(path):
            yield

    def _options(self, scoring):
        return dict(epsilon=0.15, use_delta_scoring=scoring, max_domain_values=4)

    def _run_stream(self, scoring, seed, edge_ops=2, attr_ops=1, count=8):
        options = self._options(scoring)
        graph = build_graph()
        template = build_template()
        groups = build_groups()
        session = StreamingSession(GraphContext(graph), template, groups, **options)
        session.generate(count=24, seed=3)
        reference = build_graph()
        deltas = list(
            random_delta_stream(
                graph, count=count, seed=seed, edge_ops=edge_ops, attr_ops=attr_ops
            )
        )
        for step, delta in enumerate(deltas):
            session.update(delta)
            reference = rebuild_with_delta(reference, delta)
            assert graph_signature(session.graph) == graph_signature(reference), (
                f"graph drifted from materialized reference at step {step}"
            )
            cold, evaluations = cold_rebuild(
                reference, template, groups, session.ledger_instances(), **options
            )
            assert archive_fingerprint(session.archive) == archive_fingerprint(
                cold
            ), f"archive drifted from cold rebuild at step {step}"
            maintained = [entry.evaluated for entry in session.ledger]
            for live, fresh in zip(maintained, evaluations):
                assert live.matches == fresh.matches
                assert live.delta == fresh.delta
                assert live.coverage == fresh.coverage
                assert live.feasible == fresh.feasible
        return session

    def test_structural_stream(self, path, scoring):
        """Edge-only deltas: the cheap tier (scores survive verbatim)."""
        session = self._run_stream(scoring, seed=5, attr_ops=0)
        counters = session.metrics.counters()
        assert counters["streaming.deltas_applied"] == 8
        assert counters["streaming.full_rescores"] == 0
        swept = counters.get("matcher.bitset.support_sweeps", 0)
        assert (swept > 0) == (path == "sweep")

    def test_attribute_stream(self, path, scoring):
        """Attribute-only deltas: scoped and full score-repair tiers."""
        session = self._run_stream(scoring, seed=13, edge_ops=0, attr_ops=2)
        assert session.metrics.counters()["streaming.deltas_applied"] == 8

    def test_mixed_stream_multiple_seeds(self, path, scoring):
        """Mixed structural + attribute churn across independent seeds."""
        for seed in (11, 29, 47):
            self._run_stream(scoring, seed=seed)

    def test_interleaved_generation(self, path, scoring):
        """Generation requests interleave with updates; equality holds
        for instances adopted *after* earlier deltas too."""
        options = self._options(scoring)
        graph = build_graph()
        template = build_template()
        groups = build_groups()
        session = StreamingSession(GraphContext(graph), template, groups, **options)
        session.generate(count=12, seed=3)
        reference = build_graph()
        deltas = list(
            random_delta_stream(graph, count=6, seed=17, edge_ops=2, attr_ops=1)
        )
        for step, delta in enumerate(deltas):
            session.update(delta)
            reference = rebuild_with_delta(reference, delta)
            session.generate(count=6, seed=100 + step)
            cold, _ = cold_rebuild(
                reference, template, groups, session.ledger_instances(), **options
            )
            assert archive_fingerprint(session.archive) == archive_fingerprint(cold)

    def test_membership_moving_stream(self, path, scoring):
        """Rule-built overlapping system under attribute churn that moves
        group memberships: the live archive still equals a cold rebuild
        whose system is re-materialized from the rules on the reference
        graph, at every step."""
        options = self._options(scoring)
        graph = build_graph()
        template = build_template()
        groups = system_from_rules(graph, MEMBERSHIP_RULES, clamp=True)
        session = StreamingSession(GraphContext(graph), template, groups, **options)
        session.generate(count=24, seed=3)
        reference = build_graph()
        deltas = list(
            random_delta_stream(
                graph, count=8, seed=7, edge_ops=1, attr_ops=2,
                attributes=["gender", "major"],
            )
        )
        moves = 0
        for step, delta in enumerate(deltas):
            report = session.update(delta)
            moves += report.membership_moves
            reference = rebuild_with_delta(reference, delta)
            assert graph_signature(session.graph) == graph_signature(reference)
            ref_groups = system_from_rules(reference, MEMBERSHIP_RULES, clamp=True)
            cold, evaluations = cold_rebuild(
                reference, template, ref_groups,
                session.ledger_instances(), **options
            )
            assert archive_fingerprint(session.archive) == archive_fingerprint(
                cold
            ), f"archive drifted from cold rebuild at step {step}"
            maintained = [entry.evaluated for entry in session.ledger]
            for live, fresh in zip(maintained, evaluations):
                assert live.matches == fresh.matches
                assert live.delta == fresh.delta
                assert live.coverage == fresh.coverage
                assert live.feasible == fresh.feasible
        counters = session.metrics.counters()
        assert counters["streaming.membership_moves"] == moves
        assert moves > 0, "stream never moved a membership — weak test"
        assert counters["groups.membership_repairs"] == 8

    def test_membership_patching_off_is_equivalent(self, path, scoring):
        """The invalidation fallback arm (membership_patching=False)
        produces the same archives — only the repair mechanism differs."""
        options = self._options(scoring)
        results = []
        for patching in (True, False):
            graph = build_graph()
            groups = system_from_rules(graph, MEMBERSHIP_RULES, clamp=True)
            session = StreamingSession(
                GraphContext(graph), build_template(), groups,
                membership_patching=patching, **options
            )
            session.generate(count=24, seed=3)
            fingerprints = []
            for delta in random_delta_stream(
                graph, count=8, seed=7, edge_ops=1, attr_ops=2,
                attributes=["gender", "major"],
            ):
                session.update(delta)
                fingerprints.append(archive_fingerprint(session.archive))
            results.append(fingerprints)
        assert results[0] == results[1]

    def test_graph_identity_preserved(self, path, scoring):
        """In-place updates never replace the pinned graph object."""
        graph = build_graph()
        session = StreamingSession(
            GraphContext(graph),
            build_template(),
            build_groups(),
            **self._options(scoring),
        )
        session.generate(count=8, seed=3)
        before = session.graph
        for delta in random_delta_stream(graph, count=4, seed=23):
            session.update(delta)
        assert session.graph is before
        assert session.context.revision == 4
        assert session.context.generation == 0


def build_sparse_bundle():
    """A sparse 1,000-node social graph (mean degree ≈ 1.5) whose d-hop
    balls stay local, a one-hop template and two striped groups."""
    spec = SyntheticSpec(
        name="stream-sparse",
        nodes=[
            NodePopulation(
                "person",
                1000,
                {
                    "yearsOfExp": GaussInt(12, 6, 0, 40),
                    "score": UniformInt(0, 100),
                    "major": UniformChoice(("CS", "EE", "Business", "Design", "Math", "Bio")),
                },
            ),
        ],
        edges=[EdgePopulation("person", "knows", "person", out_degree=UniformInt(1, 2))],
    )
    graph = build_synthetic(spec, seed=7)
    template = (
        QueryTemplate.builder("stream-knows")
        .node("u0", "person", Literal("major", Op.EQ, "CS"))
        .node("u1", "person")
        .fixed_edge("u1", "u0", "knows")
        .range_var("xl1", "u0", "yearsOfExp", Op.GE)
        .range_var("xl2", "u1", "score", Op.GE)
        .output("u0")
        .build()
    )
    groups = GroupSet(
        [NodeGroup(f"g{k}", frozenset(range(k, graph.num_nodes, 2)), 4) for k in range(2)]
    )
    return graph, template, groups


def test_sparse_stream_skips_entries_outside_the_ball():
    """On a sparse graph at sub-1% node churn, updates leave most ledger
    entries outside their influence ball: a clean run skips them, never
    falls back to the cold path, and still equals a cold rebuild."""
    options = dict(epsilon=0.1, max_domain_values=4)
    graph, template, groups = build_sparse_bundle()
    session = StreamingSession(graph, template, groups, **options)
    session.generate(count=16, seed=7)
    reference = apply_delta(graph, GraphDelta())
    deltas = list(random_delta_stream(graph, count=5, seed=19, edge_ops=3, attr_ops=1))
    for step, delta in enumerate(deltas):
        assert len(delta.touched_nodes) < 0.01 * graph.num_nodes
        session.update(delta)
        reference = rebuild_with_delta(reference, delta)
        cold, _ = cold_rebuild(
            reference, template, groups, session.ledger_instances(), **options
        )
        assert archive_fingerprint(session.archive) == archive_fingerprint(
            cold
        ), f"archive drifted from cold rebuild at step {step}"
    counters = session.metrics.counters()
    assert counters["streaming.deltas_applied"] == len(deltas)
    assert counters["streaming.instances_skipped"] > 0
    assert counters["streaming.fault_recoveries"] == 0
    assert counters["streaming.budget_fallbacks"] == 0


def test_sparse_stream_walks_each_witness_ball_once(monkeypatch):
    """Within one update the graph is fixed, so entries sharing an output
    pool and diameter share one witness ball: ``mask_ball`` walks each
    distinct ``(pool, diameter)`` once, the ledger's stored diameters
    stand in for ``instance_diameter``, and the archive still equals a
    cold rebuild."""
    from repro.streaming import reverify, session as session_module

    options = dict(epsilon=0.1, max_domain_values=4)
    graph, template, groups = build_sparse_bundle()
    session = StreamingSession(graph, template, groups, **options)
    session.generate(count=16, seed=7)
    reference = apply_delta(graph, GraphDelta())
    walks = []
    mask_ball = reverify.mask_ball

    def counting_mask_ball(graph, label, mask, d):
        walks.append((label, mask, d))
        return mask_ball(graph, label, mask, d)

    def no_diameter(instance):
        raise AssertionError("instance_diameter called during update")

    shared = 0
    deltas = list(random_delta_stream(graph, count=5, seed=19, edge_ops=3, attr_ops=1))
    for step, delta in enumerate(deltas):
        walks.clear()
        with monkeypatch.context() as patch:
            patch.setattr(reverify, "mask_ball", counting_mask_ball)
            patch.setattr(reverify, "instance_diameter", no_diameter)
            patch.setattr(session_module, "instance_diameter", no_diameter)
            report = session.update(delta)
        assert len(walks) == len(set(walks)), f"a witness ball was walked twice at step {step}"
        shared += report.rechecked - len(walks)
        reference = rebuild_with_delta(reference, delta)
        cold, _ = cold_rebuild(
            reference, template, groups, session.ledger_instances(), **options
        )
        assert archive_fingerprint(session.archive) == archive_fingerprint(
            cold
        ), f"archive drifted from cold rebuild at step {step}"
    # Some rechecked entries shared a walk, so the reuse was exercised.
    assert shared > 0
