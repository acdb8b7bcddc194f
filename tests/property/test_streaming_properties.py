"""Property-based tests for the streaming layer (hypothesis).

Three algebraic laws lock the update semantics down:

* **Inversion** — ``invert_delta(G, Δ)`` applied after ``Δ`` restores the
  graph byte-for-byte, and a streaming session driven through the
  round-trip returns to its original answer sets and archive.
* **Commutation** — two deltas touching disjoint node sets produce the
  same graph and the same archive in either order.
* **No-op** — the empty delta changes nothing and increments nothing.

Plus the foundational differential: in-place application is extensionally
equal (content and edge labels) to a rebuild through the builder
(:func:`tests.rebuild.rebuild_with_delta`, the reference implementation
that shares no code with the in-place path), for every generated delta — the
session's per-attribute carrier refcounts (the O(|Δ|) replacement for the
kernel-universe drift rescan) always equal a fresh full scan, and the
adjacency rows the shared bitset index keeps across deltas (repaired by
``drop_rows``) always equal those of a freshly built index.
"""

from hypothesis import given, settings, strategies as st

from repro.graph.attributed_graph import AttributedGraph
from repro.graph.indexes import GraphIndexes
from repro.groups import GroupSet, NodeGroup
from repro.matching.delta import GraphDelta, apply_delta, invert_delta
from repro.query import Instantiation, Op, QueryInstance, QueryTemplate
from repro.streaming import (
    StreamingSession,
    apply_delta_in_place,
    graph_signature,
)
from repro.workload import random_delta_stream
from tests.rebuild import rebuild_with_delta

SETTINGS = settings(max_examples=40, deadline=None)


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


def build_small_graph(node_values, edges):
    graph = AttributedGraph("g")
    for i, value in enumerate(node_values):
        graph.add_node(i, "a", {"x": value})
    for source, target, label in edges:
        graph.add_edge(source, target, label)
    return graph.freeze()


@st.composite
def graph_and_delta(draw, with_attrs=True, labels=("e",)):
    """A small frozen graph plus an applicable delta."""
    n = draw(st.integers(min_value=3, max_value=8))
    values = [draw(st.integers(min_value=0, max_value=4)) for _ in range(n)]
    possible = [(i, j, label) for i in range(n) for j in range(n) if i != j for label in labels]
    present = draw(st.lists(st.sampled_from(possible), max_size=14, unique=True))
    graph = build_small_graph(values, present)

    absent = [key for key in possible if key not in set(present)]
    inserts = tuple(
        draw(st.lists(st.sampled_from(absent), max_size=3, unique=True))
        if absent
        else []
    )
    deletes = tuple(
        draw(st.lists(st.sampled_from(present), max_size=3, unique=True))
        if present
        else []
    )
    attrs = ()
    if with_attrs:
        attrs = tuple(
            (
                draw(st.integers(min_value=0, max_value=n - 1)),
                "x",
                draw(st.integers(min_value=0, max_value=4)),
            )
            for _ in range(draw(st.integers(min_value=0, max_value=2)))
        )
    return graph, GraphDelta(
        insert_edges=inserts, delete_edges=deletes, set_attributes=attrs
    )


def make_session(graph, **options):
    groups = GroupSet(
        [NodeGroup("all", frozenset(graph.node_ids()), 1)]
    )
    options.setdefault("epsilon", 0.2)
    options.setdefault("max_domain_values", 4)
    return StreamingSession(graph, two_hop_template(), groups, **options)


def archive_fingerprint(archive):
    return sorted(
        (box, ev.instance.instantiation.key, tuple(sorted(ev.matches)),
         ev.delta, ev.coverage, ev.feasible)
        for box, ev in archive.boxes().items()
    )


class TestInPlaceEquivalence:
    @SETTINGS
    @given(setup=graph_and_delta(labels=("e", "f")))
    def test_in_place_equals_materializing(self, setup):
        graph, delta = setup
        rebuilt = rebuild_with_delta(graph, delta)
        receipt = apply_delta_in_place(graph, delta)
        assert graph_signature(graph) == graph_signature(rebuilt)
        assert graph.edge_labels() == rebuilt.edge_labels()
        assert receipt.touched_nodes == delta.touched_nodes


def cached_rows(bitsets):
    """Every materialized row: (relation, position) → encoded row."""
    return {
        (key, position): row
        for key, table in bitsets._rows.items()
        for position, row in enumerate(table)
        if row is not None
    }


class TestRowRepair:
    @SETTINGS
    @given(setup=graph_and_delta(), seed=st.integers(min_value=0, max_value=99))
    def test_repaired_rows_equal_fresh_index(self, setup, seed):
        graph, first = setup
        session = make_session(graph)
        session.generate(count=6, seed=seed)
        bitsets = session.graph.indexes().bitsets
        for outgoing in (True, False):
            # Cache every row, so every touched node has rows to drop.
            for position in range(graph.count_label("a")):
                bitsets.row(position, "a", "e", outgoing, "a")
        session.update(first)
        deltas = [first] + list(
            random_delta_stream(session.graph, count=3, seed=seed, attr_ops=1)
        )
        for step, delta in enumerate(deltas):
            if step:
                session.update(delta)
            fresh = GraphIndexes(session.graph).bitsets
            for (key, position), row in cached_rows(bitsets).items():
                assert row == fresh.row(position, *key), (step, key, position)


class TestInversion:
    @SETTINGS
    @given(setup=graph_and_delta())
    def test_inverse_restores_graph(self, setup):
        graph, delta = setup
        original = graph_signature(graph)
        inverse = invert_delta(graph, delta)
        apply_delta_in_place(graph, delta)
        apply_delta_in_place(graph, inverse)
        assert graph_signature(graph) == original

    @SETTINGS
    @given(setup=graph_and_delta(), bound=st.integers(min_value=0, max_value=4))
    def test_round_trip_restores_session_state(self, setup, bound):
        graph, delta = setup
        session = make_session(graph)
        session.offer(
            [QueryInstance(Instantiation(two_hop_template(), {"xl": bound}))]
        )
        matches_before = [e.evaluated.matches for e in session.ledger]
        archive_before = archive_fingerprint(session.archive)
        signature_before = graph_signature(session.graph)

        inverse = invert_delta(session.graph, delta)
        session.update(delta)
        session.update(inverse)

        assert graph_signature(session.graph) == signature_before
        assert [e.evaluated.matches for e in session.ledger] == matches_before
        assert archive_fingerprint(session.archive) == archive_before


@st.composite
def graph_and_disjoint_deltas(draw):
    """A graph plus two deltas over disjoint node halves (they commute)."""
    n = draw(st.integers(min_value=6, max_value=10))
    values = [draw(st.integers(min_value=0, max_value=4)) for _ in range(n)]
    half = n // 2
    low = list(range(half))
    high = list(range(half, n))

    def edges_within(ids):
        return [(i, j, "e") for i in ids for j in ids if i != j]

    present_low = draw(
        st.lists(st.sampled_from(edges_within(low)), max_size=6, unique=True)
    )
    present_high = draw(
        st.lists(st.sampled_from(edges_within(high)), max_size=6, unique=True)
    )
    graph = build_small_graph(values, present_low + present_high)

    def delta_for(ids, present):
        pool = edges_within(ids)
        absent = [key for key in pool if key not in set(present)]
        inserts = tuple(
            draw(st.lists(st.sampled_from(absent), max_size=2, unique=True))
            if absent
            else []
        )
        deletes = tuple(
            draw(st.lists(st.sampled_from(present), max_size=2, unique=True))
            if present
            else []
        )
        attrs = tuple(
            (draw(st.sampled_from(ids)), "x", draw(st.integers(0, 4)))
            for _ in range(draw(st.integers(min_value=0, max_value=1)))
        )
        return GraphDelta(
            insert_edges=inserts, delete_edges=deletes, set_attributes=attrs
        )

    return graph, delta_for(low, present_low), delta_for(high, present_high)


class TestCommutation:
    @SETTINGS
    @given(setup=graph_and_disjoint_deltas(), bound=st.integers(0, 4))
    def test_disjoint_deltas_commute(self, setup, bound):
        graph, first, second = setup
        assert not (first.touched_nodes & second.touched_nodes)
        instance = QueryInstance(Instantiation(two_hop_template(), {"xl": bound}))

        results = []
        for order in ((first, second), (second, first)):
            session = make_session(apply_delta(graph, GraphDelta()))
            session.offer([instance])
            for delta in order:
                session.update(delta)
            results.append(
                (
                    graph_signature(session.graph),
                    [e.evaluated.matches for e in session.ledger],
                    archive_fingerprint(session.archive),
                )
            )
        assert results[0] == results[1]


@st.composite
def attr_delta_stream(draw):
    """A graph plus attribute-only deltas that insert/rewrite/remove.

    Values of ``None`` remove the attribute and the fresh name ``"y"``
    can appear and vanish, so the stream exercises every carrier-count
    transition — including kernel-universe drift in both directions
    (a name gaining its first output-label carrier / losing its last).
    """
    n = draw(st.integers(min_value=3, max_value=6))
    values = [draw(st.integers(min_value=0, max_value=4)) for _ in range(n)]
    possible = [(i, j, "e") for i in range(n) for j in range(n) if i != j]
    present = draw(st.lists(st.sampled_from(possible), max_size=8, unique=True))
    graph = build_small_graph(values, present)
    deltas = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        attrs = tuple(
            (
                draw(st.integers(min_value=0, max_value=n - 1)),
                draw(st.sampled_from(("x", "y"))),
                draw(st.one_of(st.none(), st.integers(min_value=0, max_value=4))),
            )
            for _ in range(draw(st.integers(min_value=1, max_value=3)))
        )
        deltas.append(GraphDelta(set_attributes=attrs))
    return graph, deltas


class TestCarrierRefcounts:
    @SETTINGS
    @given(setup=attr_delta_stream(), bound=st.integers(min_value=0, max_value=4))
    def test_refcounts_equal_fresh_scan(self, setup, bound):
        """Receipt-maintained carrier counts ≡ a full-graph rescan —
        hence identical kernel-universe drift decisions — after every
        update, for both scoring modes."""
        graph, deltas = setup
        for scoring in (False, True):
            session = make_session(
                apply_delta(graph, GraphDelta()), use_delta_scoring=scoring
            )
            session.offer(
                [QueryInstance(Instantiation(two_hop_template(), {"xl": bound}))]
            )
            assert session._carrier_counts == session._scan_carrier_counts()
            for delta in deltas:
                session.update(delta)
                assert session._carrier_counts == session._scan_carrier_counts()


class TestEmptyDelta:
    @SETTINGS
    @given(setup=graph_and_delta(), bound=st.integers(0, 4))
    def test_empty_delta_is_total_noop(self, setup, bound):
        graph, _ = setup
        session = make_session(graph)
        session.offer(
            [QueryInstance(Instantiation(two_hop_template(), {"xl": bound}))]
        )
        signature = graph_signature(session.graph)
        archive = archive_fingerprint(session.archive)
        counters = dict(session.metrics.counters())

        report = session.update(GraphDelta())

        assert report.is_empty
        assert report.receipt is None
        assert graph_signature(session.graph) == signature
        assert archive_fingerprint(session.archive) == archive
        # Zero counter increments: the no-op touches no metric at all.
        assert dict(session.metrics.counters()) == counters
        assert session.context.revision == 0
