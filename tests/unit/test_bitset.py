"""Unit tests for the bitset matching engine and its index substrate."""

import sys
import threading

import pytest

from repro.core.evaluator import InstanceEvaluator
from repro.errors import MatchingError
from repro.graph import indexes as indexes_module
from repro.graph.builder import GraphBuilder
from repro.graph.indexes import SUPPORT_MEMO_ENTRIES, GraphIndexes, SupportMemo
from repro.matching import (
    BitsetEngine,
    LiteralPoolCache,
    SubgraphMatcher,
    naive_match_set,
)
from repro.matching.bitset import iter_bits
from repro.matching.delta import GraphDelta, apply_delta, apply_delta_in_place
from repro.obs import MetricsRegistry
from repro.query import Instantiation, Literal, Op, QueryInstance
from tests.ac3 import crossover, forced
from tests.property.test_engine_differential import dense_siblings


def talent_instance(template, **bindings):
    return QueryInstance(Instantiation(template, bindings))


class TestBitsetIndex:
    def test_enumeration_is_sorted_and_stable(self, talent_graph):
        bitsets = GraphIndexes(talent_graph).bitsets
        order = bitsets.order("person")
        assert list(order) == sorted(order)
        assert bitsets.order("person") is order  # cached
        positions = bitsets.positions("person")
        assert all(order[i] == v for v, i in positions.items())

    def test_full_mask_covers_label(self, talent_graph):
        bitsets = GraphIndexes(talent_graph).bitsets
        assert bitsets.full_mask("person").bit_count() == talent_graph.count_label(
            "person"
        )
        assert bitsets.full_mask("org").bit_count() == 2
        assert bitsets.full_mask("no-such-label") == 0

    def test_mask_roundtrip(self, talent_graph, talent_ids):
        bitsets = GraphIndexes(talent_graph).bitsets
        nodes = {talent_ids["d1"], talent_ids["r2"]}
        mask = bitsets.mask_of("person", nodes)
        assert bitsets.to_ids("person", mask) == nodes

    def test_mask_of_ignores_foreign_ids(self, talent_graph, talent_ids):
        bitsets = GraphIndexes(talent_graph).bitsets
        mask = bitsets.mask_of("org", {talent_ids["o_big"], talent_ids["d1"], 999})
        assert bitsets.to_ids("org", mask) == {talent_ids["o_big"]}

    def test_adjacency_row_directions(self, talent_graph, talent_ids):
        bitsets = GraphIndexes(talent_graph).bitsets
        r1 = talent_ids["r1"]
        out = bitsets.to_ids(
            "person", bitsets.adjacency_row(r1, "recommend", True, "person")
        )
        assert out == {talent_ids["d1"], talent_ids["d2"], talent_ids["d4"]}
        preds = bitsets.to_ids(
            "person",
            bitsets.adjacency_row(talent_ids["d2"], "recommend", False, "person"),
        )
        assert preds == {r1, talent_ids["r2"]}

    def test_adjacency_rows_cached(self, talent_graph, talent_ids):
        bitsets = GraphIndexes(talent_graph).bitsets
        assert bitsets.cached_rows == 0
        bitsets.adjacency_row(talent_ids["r1"], "recommend", True, "person")
        bitsets.adjacency_row(talent_ids["r1"], "recommend", True, "person")
        assert bitsets.cached_rows == 1


class TestIterBits:
    def test_yields_positions_low_first(self):
        assert list(iter_bits(0b101001)) == [0, 3, 5]
        assert list(iter_bits(0)) == []


class TestLiteralPoolCache:
    def test_hit_miss_counters(self, talent_graph):
        metrics = MetricsRegistry()
        cache = LiteralPoolCache(GraphIndexes(talent_graph), metrics)
        literal = Literal("yearsOfExp", Op.GE, 12)
        first = cache.mask("person", literal)
        second = cache.mask("person", literal)
        assert first == second
        assert metrics.value("matcher.bitset.literal_pool_misses") == 1
        assert metrics.value("matcher.bitset.literal_pool_hits") == 1
        assert len(cache) == 1

    def test_distinct_constants_are_distinct_entries(self, talent_graph):
        metrics = MetricsRegistry()
        cache = LiteralPoolCache(GraphIndexes(talent_graph), metrics)
        cache.mask("person", Literal("yearsOfExp", Op.GE, 5))
        cache.mask("person", Literal("yearsOfExp", Op.GE, 12))
        assert metrics.value("matcher.bitset.literal_pool_misses") == 2
        assert len(cache) == 2


class TestEngineSelection:
    def test_evaluator_threads_engine(self, talent_config):
        evaluator = InstanceEvaluator(talent_config)
        assert type(evaluator.matcher.engine) is BitsetEngine


class TestBitsetMatcher:
    def test_candidate_masks_mirror_candidates(self, talent_graph, talent_template):
        matcher = SubgraphMatcher(talent_graph)
        q = talent_instance(talent_template, xl1=5, xl2=100, xe1=0)
        result = matcher.match(q)
        bitsets = matcher.indexes.bitsets
        for node_id, mask in result.candidate_masks.items():
            label = q.node_label(node_id)
            assert bitsets.to_ids(label, mask) == result.candidates[node_id]

    def test_restrict_sets_accepted(self, talent_graph, talent_template, talent_ids):
        matcher = SubgraphMatcher(talent_graph)
        q = talent_instance(talent_template, xl1=5, xl2=100, xe1=0)
        full = matcher.match(q)
        restricted = matcher.match(q, restrict={"u0": {talent_ids["d2"]}})
        assert restricted.matches <= full.matches
        assert restricted.matches == {talent_ids["d2"]} & full.matches

    def test_restrict_masks_accepted(self, talent_graph, talent_template):
        matcher = SubgraphMatcher(talent_graph)
        q = talent_instance(talent_template, xl1=5, xl2=100, xe1=0)
        parent = matcher.match(q)
        child = talent_instance(talent_template, xl1=12, xl2=100, xe1=0)
        seeded = matcher.match(child, restrict_masks=parent.candidate_masks)
        fresh = matcher.match(child)
        assert seeded.matches == fresh.matches
        assert seeded.candidates == fresh.candidates

    def test_literal_pool_hits_across_siblings(self, talent_graph, talent_template):
        matcher = SubgraphMatcher(talent_graph)
        # Siblings share xl2/xe1 literals and vary xl1 — the shared
        # literal masks must be cache hits after the first instance.
        for xl1 in (5, 8, 12, 15):
            matcher.match(talent_instance(talent_template, xl1=xl1, xl2=100, xe1=0))
        assert matcher.metrics.value("matcher.bitset.literal_pool_hits") > 0
        assert matcher.metrics.value("matcher.bitset.mask_intersections") > 0

    def test_match_outputs_agrees(self, talent_graph, talent_template):
        q = talent_instance(talent_template, xl1=5, xl2=100, xe1=1)
        outputs = sorted(q.active_nodes)
        by_path = []
        for path in ("probe", "sweep"):
            with forced(path):
                by_path.append(SubgraphMatcher(talent_graph).match_outputs(q, outputs))
        assert by_path[0] == by_path[1]
        assert by_path[0][q.output_node] == naive_match_set(talent_graph, q)

    def test_match_outputs_validates(self, talent_graph, talent_template):
        q = talent_instance(talent_template, xl1=5, xl2=100, xe1=0)
        with pytest.raises(MatchingError):
            SubgraphMatcher(talent_graph).match_outputs(q, ["zz"])


class TestExistsEarlyExit:
    def test_exists_agrees_with_match(self, triangle_graph):
        from repro.query import QueryTemplate

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
        q = QueryInstance(Instantiation(template, {}))
        for path in ("probe", "sweep"):
            with forced(path):
                matcher = SubgraphMatcher(triangle_graph)
                assert matcher.exists(q) == bool(matcher.match(q).matches)

    def test_exists_does_less_backtracking(self, triangle_graph):
        from repro.query import QueryTemplate

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
        q = QueryInstance(Instantiation(template, {}))
        full = SubgraphMatcher(triangle_graph).match(q)
        assert len(full.matches) > 1  # several witnesses to skip
        early = SubgraphMatcher(triangle_graph).match(q, first_only=True)
        assert len(early.matches) == 1
        assert early.backtrack_calls < full.backtrack_calls


def support_graph():
    """Two node labels, a self-loop, parallel labels and an isolated node."""
    builder = GraphBuilder("support")
    for i in range(6):
        builder.node_with_id(i, "a" if i < 4 else "b")
    builder.node_with_id(6, "c")  # no edges at all
    for source, target, label in (
        (0, 0, "e"),  # self-loop
        (0, 1, "e"),
        (1, 2, "e"),
        (2, 4, "e"),
        (3, 4, "f"),
        (4, 5, "e"),
        (5, 0, "e"),
    ):
        builder.edge(source, target, label)
    return builder.build()


class TestSupportSweep:
    """``BallKernel.support`` against per-candidate row probes."""

    def probed(self, bitsets, label, edge_label, outgoing, other_label, other_mask):
        support = 0
        for position in range(len(bitsets.order(label))):
            row = bitsets.row(position, label, edge_label, outgoing, other_label)
            row = 1 << ~row if row < 0 else row
            if row & other_mask:
                support |= 1 << position
        return support

    def test_support_equals_row_probes(self):
        graph = support_graph()
        kernel = graph.ball_kernel()
        bitsets = GraphIndexes(graph).bitsets
        labels = ("a", "b", "c", "ghost")
        for label in labels:
            for other in labels:
                full = bitsets.full_mask(other)
                # Every sub-pool of the other label, the empty one included.
                for other_mask in range(full + 1):
                    if other_mask & ~full:
                        continue
                    for edge_label in ("e", "f", "absent"):
                        for outgoing in (True, False):
                            relation = (label, edge_label, outgoing, other)
                            assert kernel.support(*relation, other_mask) == self.probed(
                                bitsets, *relation, other_mask
                            ), (relation, other_mask)

    def test_support_tracks_in_place_deltas(self):
        """Sweeps over the spliced edge arrays equal row probes after
        in-place inserts and deletes (rows dropped by the graph's hooks)."""
        graph = support_graph()
        kernel = graph.ball_kernel()
        bitsets = graph.indexes().bitsets
        full_b = bitsets.full_mask("b")
        before = kernel.support("a", "e", True, "b", full_b)
        delta = GraphDelta(
            delete_edges=((2, 4, "e"),),
            insert_edges=((3, 5, "e"), (1, 1, "e")),
        )
        apply_delta_in_place(graph, delta)
        assert graph.ball_kernel() is kernel  # spliced, not rebuilt
        for other in ("a", "b"):
            for outgoing in (True, False):
                relation = ("a", "e", outgoing, other)
                full = bitsets.full_mask(other)
                assert kernel.support(*relation, full) == self.probed(
                    bitsets, *relation, full
                ), relation
        assert kernel.support("a", "e", True, "b", full_b) != before

    def test_self_loop_supports_itself(self):
        kernel = support_graph().ball_kernel()
        assert kernel.support("a", "e", True, "a", 0b0001) & 0b0001
        # Nodes 0 (the loop) and 1 have an ``e`` edge from node 0.
        assert kernel.support("a", "e", False, "a", 0b0001) == 0b0011

    def test_sweeps_are_counted_and_memoized(self, triangle_graph):
        from repro.query import QueryTemplate

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
        q = QueryInstance(Instantiation(template, {}))
        swept = []
        for path in ("probe", "sweep"):
            with forced(path):
                matcher = SubgraphMatcher(triangle_graph)
                result = matcher.match(q)
            swept.append(matcher.metrics.value("matcher.bitset.support_sweeps"))
            assert result.matches == naive_match_set(triangle_graph, q)
        assert swept[0] == 0
        # Forced, every constraint check sweeps: six checks on the first
        # pass over the three nodes, more as removals re-queue them.
        assert swept[1] > 6
        # With the graph's memo, one sweep per distinct (relation,
        # neighbor pool) at most: the six checks of the first pass share
        # two relations and one pool; a second match reads every support.
        graph = apply_delta(triangle_graph, GraphDelta())
        with crossover("sweep"):
            matcher = SubgraphMatcher(graph)
            assert matcher.match(q).matches == result.matches
            first = matcher.metrics.value("matcher.bitset.support_sweeps")
            assert 0 < first < swept[1]
            matcher.match(q)
        assert matcher.metrics.value("matcher.bitset.support_sweeps") == first
        assert matcher.metrics.value("matcher.bitset.support_memo_hits") > 0


class TestSupportMemo:
    """The graph-owned AC-3 support memo: its LRU bound, its per-edge-label
    drop, and engines on several threads sharing it."""

    @staticmethod
    def key(i, edge_label="e"):
        return ("a", edge_label, True, "a", i)

    def test_bound_evicts_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(indexes_module, "SUPPORT_MEMO_ENTRIES", 3)
        memo = SupportMemo()
        for i in range(3):
            memo.store(self.key(i), (-1, i))
        assert memo.lookup(self.key(0)) == (-1, 0)  # now most recent
        memo.store(self.key(3), (-1, 3))
        assert len(memo) == 3
        assert memo.lookup(self.key(1)) is None
        assert [memo.lookup(self.key(i)) for i in (0, 2, 3)] == [
            (-1, 0), (-1, 2), (-1, 3)
        ]
        memo.store(self.key(4, "f"), (0b1, 0b1))  # evicts 0
        assert memo.lookup(self.key(0)) is None
        # Evicted keys leave the per-edge-label index too.
        assert memo.drop_edge_label("e") == 2
        assert len(memo) == 1
        assert memo.lookup(self.key(4, "f")) == (0b1, 0b1)

    def test_default_bound(self):
        assert SUPPORT_MEMO_ENTRIES == 4096
        assert isinstance(GraphIndexes(support_graph()).supports, SupportMemo)

    def test_matching_never_exceeds_bound(self, monkeypatch):
        """A sibling sweep over a dense graph, sweeps and probes alike,
        stays within a bound far below its distinct supports and answers
        as a cold probed match does."""
        monkeypatch.setattr(indexes_module, "SUPPORT_MEMO_ENTRIES", 4)
        graph, instances = dense_siblings()
        memo = graph.indexes().supports
        matcher = SubgraphMatcher(graph)
        served = []
        for instance in instances + instances:
            served.append(matcher.match(instance))
            assert len(memo) <= 4
        assert matcher.metrics.value("matcher.bitset.support_sweeps") > 0
        with forced("probe"):
            probe = SubgraphMatcher(graph.copy())
            probed = [probe.match(instance) for instance in instances + instances]
        assert [r.candidate_masks for r in served] == [r.candidate_masks for r in probed]
        assert [r.mask for r in served] == [r.mask for r in probed]

    def test_threads_sharing_a_graph_agree_with_serial(self, monkeypatch):
        """Four engines matching on one graph from four threads, each in
        its own order, read, fill and evict one small memo; every answer
        equals a serial run's on a copy."""
        monkeypatch.setattr(indexes_module, "SUPPORT_MEMO_ENTRIES", 4)
        graph, instances = dense_siblings()
        serial = SubgraphMatcher(graph.copy())
        expected = {
            i: (r.mask, r.candidate_masks)
            for i, r in enumerate(serial.match(q) for q in instances)
        }
        order = list(range(len(instances)))
        orders = [order, order[::-1], order[5:] + order[:5], order[::2] + order[1::2]]
        results = [{} for _ in orders]
        errors = []

        def work(slot, order):
            try:
                matcher = SubgraphMatcher(graph)
                for _ in range(3):
                    for i in order:
                        result = matcher.match(instances[i])
                        results[slot][i] = (result.mask, result.candidate_masks)
                        assert results[slot][i] == expected[i], i
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=work, args=(slot, order))
                for slot, order in enumerate(orders)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert all(result == expected for result in results)
        assert len(graph.indexes().supports) > 0
