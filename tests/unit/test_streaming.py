"""Unit tests for the streaming layer's building blocks.

The differential/property suites prove the end-to-end invariant; these
tests pin the pieces: in-place application and its receipt, influence
depths/balls, index repair hooks, session plumbing (events, duplicate
offers, relevance rejection), and the budget/fault fallbacks.
"""

import pytest

from repro.core.relevance import RelevanceScorer
from repro.errors import ConfigurationError, GraphError
from repro.graph.ball import ball_depths
from repro.graph.builder import GraphBuilder
from repro.groups import GroupSet, NodeGroup
from repro.matching.delta import GraphDelta
from repro.query import Instantiation, Op, QueryInstance, QueryTemplate
from repro.runtime.budget import Budget, TickingClock
from repro.runtime.faults import FaultInjector, FaultKind, FaultSpec
from repro.streaming import (
    GenerateEvent,
    OfferEvent,
    StreamingSession,
    UpdateEvent,
    apply_delta_in_place,
    graph_signature,
)
from repro.streaming.reverify import instance_diameter


def chain_graph(n=4):
    b = GraphBuilder()
    for i in range(n):
        b.node("a", x=i)
    for i in range(n - 1):
        b.edge(i, i + 1, "e")
    return b.build()


def two_hop_template():
    return (
        QueryTemplate.builder("two-hop")
        .node("u0", "a")
        .node("u1", "a")
        .node("u2", "a")
        .fixed_edge("u1", "u0", "e")
        .fixed_edge("u2", "u1", "e")
        .range_var("xl", "u2", "x", Op.GE)
        .output("u0")
        .build()
    )


def make_session(graph, **options):
    groups = GroupSet([NodeGroup("all", frozenset(graph.node_ids()), 1)])
    options.setdefault("epsilon", 0.2)
    options.setdefault("max_domain_values", 4)
    return StreamingSession(graph, two_hop_template(), groups, **options)


def instance(bound=0):
    return QueryInstance(Instantiation(two_hop_template(), {"xl": bound}))


class TestApplyInPlace:
    def test_mutates_same_object(self):
        graph = chain_graph()
        receipt = apply_delta_in_place(
            graph, GraphDelta(insert_edges=((3, 0, "e"),))
        )
        assert graph.has_edge(3, 0, "e")
        assert receipt.edges_inserted == 1
        assert receipt.touched_nodes == {0, 3}

    def test_duplicate_insert_is_idempotent(self):
        graph = chain_graph()
        receipt = apply_delta_in_place(
            graph, GraphDelta(insert_edges=((0, 1, "e"),))
        )
        assert receipt.edges_inserted == 0
        assert graph.num_edges == 3

    def test_invalid_delta_leaves_graph_untouched(self):
        graph = chain_graph()
        before = graph_signature(graph)
        with pytest.raises(GraphError):
            apply_delta_in_place(
                graph,
                GraphDelta(
                    insert_edges=((3, 0, "e"),), delete_edges=((0, 3, "e"),)
                ),
            )
        assert graph_signature(graph) == before

    def test_attribute_receipt_coalesces(self):
        graph = chain_graph()
        receipt = apply_delta_in_place(
            graph, GraphDelta(set_attributes=((1, "x", 5), (1, "x", 9)))
        )
        assert receipt.attributes_set == 1
        assert receipt.touched_attributes == (("a", "x"),)
        assert graph.attribute(1, "x") == 9


class TestInfluence:
    def test_depths_bounded(self):
        depths = ball_depths(chain_graph(6), {0}, limit=2)
        assert [depths.ball(d).ids() for d in range(4)] == [
            {0}, {0, 1}, {0, 1, 2}, {0, 1, 2}
        ]

    def test_ball_is_two_sided_union(self):
        graph = chain_graph(6)
        old = ball_depths(graph, {0}, limit=2)
        new = ball_depths(graph, {5}, limit=2)
        assert (old.ball(1) | new.ball(1)).ids() == {0, 1, 5, 4}
        assert (old.ball(0) | new.ball(0)).ids() == {0, 5}

    def test_instance_diameter(self):
        assert instance_diameter(instance()) == 2


class TestSessionPlumbing:
    def test_duplicate_offers_dropped(self):
        session = make_session(chain_graph())
        first = session.offer([instance(0)])
        second = session.offer([instance(0)])
        assert len(first) == 1
        assert second == []
        assert len(session.ledger) == 1
        assert session.metrics.value("streaming.duplicate_offers") == 1

    def test_custom_relevance_rejected(self):
        class Structural(RelevanceScorer):
            def __call__(self, node_id):
                return 1.0

        graph = chain_graph()
        groups = GroupSet([NodeGroup("all", frozenset(graph.node_ids()), 1)])
        with pytest.raises(ConfigurationError):
            StreamingSession(
                graph, two_hop_template(), groups,
                epsilon=0.2, relevance=Structural(),
            )

    def test_consume_dispatches_events(self):
        session = make_session(chain_graph())
        results = session.consume(
            [
                OfferEvent((instance(0),)),
                UpdateEvent(GraphDelta(insert_edges=((3, 0, "e"),))),
                GenerateEvent(count=4, seed=1),
            ]
        )
        assert len(results) == 3
        assert len(results[0]) == 1  # offered evaluations
        assert results[1].receipt is not None  # update report
        assert session.metrics.value("streaming.generated") == 4

    def test_unknown_event_rejected(self):
        session = make_session(chain_graph())
        with pytest.raises(ConfigurationError):
            session.consume([object()])

    def test_update_report_counts(self):
        session = make_session(chain_graph())
        session.offer([instance(0)])
        report = session.update(GraphDelta(insert_edges=((3, 0, "e"),)))
        assert report.rechecked + report.skipped == 1
        assert report.archive_size == len(session.archive)
        assert report.seconds > 0
        assert not report.is_empty


class TestBudgetFallback:
    def test_deadline_trip_falls_back_to_cold_rebuild(self):
        session = make_session(chain_graph())
        session.offer([instance(0), instance(1)])
        # A pre-expired deadline: the guard trips on the first ledger
        # checkpoint and the cold path repairs everything.
        budget = Budget(deadline_seconds=0.001, clock=TickingClock(tick=1.0))
        report = session.update(
            GraphDelta(insert_edges=((3, 0, "e"),)), budget=budget
        )
        assert report.recovered == "budget"
        assert session.metrics.value("streaming.budget_fallbacks") == 1
        # The mutation itself still landed before the fallback.
        assert session.graph.has_edge(3, 0, "e")
        assert graph_signature(session.graph) != graph_signature(chain_graph())

    def test_generous_budget_stays_incremental(self):
        session = make_session(chain_graph())
        session.offer([instance(0)])
        report = session.update(
            GraphDelta(insert_edges=((3, 0, "e"),)),
            budget=Budget(max_backtracks=10_000_000),
        )
        assert report.recovered is None
        assert session.metrics.value("streaming.budget_fallbacks") == 0


class TestFaultRecovery:
    def test_injected_fault_triggers_cold_recovery(self):
        faults = FaultInjector([FaultSpec(FaultKind.ERROR, batch_index=0)])
        session = make_session(chain_graph(), faults=faults)
        session.offer([instance(0), instance(1)])
        report = session.update(GraphDelta(insert_edges=((3, 0, "e"),)))
        assert report.recovered == "fault"
        assert session.metrics.value("streaming.fault_recoveries") == 1
        # Recovery re-evaluated the ledger on the mutated graph.
        assert report.rescored == 2

    def test_injected_crash_triggers_cold_recovery(self):
        # A CRASH fault raises WorkerCrashed, a FaultInjectionError: the
        # host process survives and the update takes the cold path.
        faults = FaultInjector([FaultSpec(FaultKind.CRASH, batch_index=0)])
        session = make_session(chain_graph(), faults=faults)
        session.offer([instance(0), instance(1)])
        report = session.update(GraphDelta(insert_edges=((3, 0, "e"),)))
        assert report.recovered == "fault"
        assert session.metrics.value("streaming.fault_recoveries") == 1
        assert report.rescored == 2

    def test_later_updates_unaffected(self):
        faults = FaultInjector([FaultSpec(FaultKind.ERROR, batch_index=0)])
        session = make_session(chain_graph(), faults=faults)
        session.offer([instance(0)])
        first = session.update(GraphDelta(insert_edges=((3, 0, "e"),)))
        second = session.update(GraphDelta(delete_edges=((3, 0, "e"),)))
        assert first.recovered == "fault"
        assert second.recovered is None


def _sorting_delta_stream(graph, count, seed, edge_ops, attr_ops, insert_ratio, attributes):
    """The delta stream as drawn by re-sorting the live edge set per pick
    (the reference the bisect-maintained generator must reproduce)."""
    import random

    rng = random.Random(seed)
    nodes = sorted(graph.node_ids())
    edge_labels = sorted(graph.edge_labels()) or [""]
    live = {edge.key for edge in graph.edges()}
    domains = {name: [v for v in graph.active_domain(name) if v is not None] for name in attributes}
    for _ in range(count):
        inserts, deletes, staged = [], [], set()
        for _ in range(edge_ops):
            want_insert = rng.random() < insert_ratio
            insert = None
            for _ in range(32):
                key = (rng.choice(nodes), rng.choice(nodes), rng.choice(edge_labels))
                if key not in live and key not in staged and key[0] != key[1]:
                    insert = key
                    break
            candidates = sorted(live - staged)
            delete = rng.choice(candidates) if candidates else None
            chosen = insert if want_insert else delete
            if chosen is None:
                chosen = delete if want_insert else insert
            if chosen is None:
                continue
            staged.add(chosen)
            if chosen in live:
                deletes.append(chosen)
                live.discard(chosen)
            else:
                inserts.append(chosen)
                live.add(chosen)
        updates = []
        for _ in range(attr_ops):
            name = rng.choice(list(attributes))
            updates.append((rng.choice(nodes), name, rng.choice(domains[name])))
        yield GraphDelta(
            insert_edges=tuple(inserts), delete_edges=tuple(deletes), set_attributes=tuple(updates)
        )


class TestDeltaStream:
    @pytest.mark.parametrize("seed", [0, 1, 7, 23])
    @pytest.mark.parametrize(
        "edge_ops,insert_ratio", [(1, 0.5), (3, 0.5), (4, 0.1), (5, 0.9), (6, 0.0)]
    )
    def test_matches_the_sorting_reference(self, seed, edge_ops, insert_ratio):
        from repro.workload import random_delta_stream

        b = GraphBuilder()
        for i in range(9):
            b.node("a", x=i % 3)
        for i in range(8):
            b.edge(i, i + 1, "e" if i % 2 else "f")
        graph = b.build()
        # Low insert ratios drain the 8 edges, so the empty-live path and
        # its insert fallback are drawn too.
        kwargs = dict(count=40, seed=seed, edge_ops=edge_ops, attr_ops=1,
                      insert_ratio=insert_ratio, attributes=["x"])
        assert list(random_delta_stream(graph, **kwargs)) == list(
            _sorting_delta_stream(graph, **kwargs)
        )
