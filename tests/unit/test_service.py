"""Unit tests for the serving layer: caches, context, requests, admission."""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.errors import ServiceError
from repro.graph import indexes as indexes_module
from repro.graph.indexes import LITERAL_MASK_ENTRIES, GraphIndexes
from repro.matching.bitset import LiteralPoolCache
from repro.matching.delta import GraphDelta, apply_delta, apply_delta_in_place
from repro.obs.registry import MetricsRegistry
from repro.query.predicates import Literal, Op
from repro.service import (
    BatchScheduler,
    GenerationRequest,
    GraphContext,
    load_requests_jsonl,
    request_from_dict,
    round_robin_admission,
)


class TestWorkloadLiteralPools:
    """The graph-owned literal-mask memo (``GraphIndexes.literal_masks``)
    that serves every engine-local literal-cache miss across runs."""

    KEY = ("person", "yearsOfExp", Op.GE, 10)

    def test_lookup_miss_then_hit(self, talent_graph):
        memo = GraphIndexes(talent_graph).literal_masks
        assert memo.lookup(self.KEY) is None
        memo.store(self.KEY, 0b1011)
        assert memo.lookup(self.KEY) == 0b1011
        assert len(memo) == 1

    def test_lru_eviction_order(self, talent_graph, monkeypatch):
        monkeypatch.setattr(indexes_module, "LITERAL_MASK_ENTRIES", 2)
        memo = GraphIndexes(talent_graph).literal_masks
        a, b, c = (("person", "yearsOfExp", Op.EQ, i) for i in range(3))
        memo.store(a, 1)
        memo.store(b, 2)
        assert memo.lookup(a) == 1  # refresh "a"; "b" becomes LRU
        memo.store(c, 3)
        assert len(memo) == 2
        assert memo.lookup(b) is None  # evicted
        assert memo.lookup(a) == 1
        assert memo.lookup(c) == 3

    def test_store_existing_key_refreshes_not_evicts(self, talent_graph, monkeypatch):
        monkeypatch.setattr(indexes_module, "LITERAL_MASK_ENTRIES", 2)
        memo = GraphIndexes(talent_graph).literal_masks
        a, b = (("person", "yearsOfExp", Op.EQ, i) for i in range(2))
        memo.store(a, 1)
        memo.store(b, 2)
        memo.store(a, 10)  # overwrite, no growth
        assert len(memo) == 2
        assert memo.lookup(a) == 10

    def test_clear(self, talent_graph):
        graph = apply_delta(talent_graph, GraphDelta())
        graph.indexes().literal_masks.store(self.KEY, 1)
        graph.clear_caches()
        assert len(graph.indexes().literal_masks) == 0
        assert graph.indexes().literal_masks.lookup(self.KEY) is None

    def test_default_bound(self, talent_graph):
        memo = GraphIndexes(talent_graph).literal_masks
        for i in range(LITERAL_MASK_ENTRIES + 1):
            memo.store(("person", "yearsOfExp", Op.EQ, i), i)
        assert len(memo) == LITERAL_MASK_ENTRIES == 4096
        assert memo.lookup(("person", "yearsOfExp", Op.EQ, 0)) is None

    def test_hit_rate_zero_before_probes(self, talent_graph):
        """Engine-local misses served by the memo count as shared hits."""
        indexes = GraphIndexes(talent_graph)
        literal = Literal(*self.KEY[1:])
        first, second = MetricsRegistry(), MetricsRegistry()
        cold = LiteralPoolCache(indexes, first)
        warm = LiteralPoolCache(indexes, second)
        assert second.value("matcher.bitset.literal_pool_shared_hits") == 0
        assert cold.mask("person", literal) == warm.mask("person", literal)
        assert first.value("matcher.bitset.literal_pool_shared_hits") == 0
        assert second.value("matcher.bitset.literal_pool_misses") == 1
        assert second.value("matcher.bitset.literal_pool_shared_hits") == 1

    def test_attribute_update_repairs_masks(self, talent_graph, talent_ids):
        graph = apply_delta(talent_graph, GraphDelta())
        memo = graph.indexes().literal_masks
        literal = Literal(*self.KEY[1:])
        LiteralPoolCache(graph.indexes(), MetricsRegistry()).mask("person", literal)
        before = memo.lookup(self.KEY)
        apply_delta_in_place(
            graph, GraphDelta(set_attributes=((talent_ids["d4"], "yearsOfExp", 30),))
        )
        after = memo.lookup(self.KEY)
        position = graph.indexes().bitsets.positions("person")[talent_ids["d4"]]
        assert after == before | (1 << position) != before
        cold = LiteralPoolCache(GraphIndexes(graph), MetricsRegistry())
        assert after == cold.mask("person", literal)

    def test_concurrent_lookups_and_evictions(self, talent_graph, monkeypatch):
        """Threads racing lookups against evictions never lose the memo's
        bound or its per-pair key index."""
        monkeypatch.setattr(indexes_module, "LITERAL_MASK_ENTRIES", 2)
        memo = GraphIndexes(talent_graph).literal_masks
        keys = [("person", "yearsOfExp", Op.EQ, i) for i in range(6)]
        errors = []

        def churn(offset):
            try:
                for step in range(20000):
                    key = keys[(step + offset) % len(keys)]
                    if memo.lookup(key) is None:
                        memo.store(key, step)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(memo) == 2
        assert sum(len(keys) for keys in memo._groups.values()) == 2


class TestGraphContext:
    def test_bind_wires_shared_tiers(self, talent_config):
        context = GraphContext(talent_config.graph)
        bound = context.bind(talent_config)
        assert bound.build_indexes() is talent_config.graph.indexes()
        assert context.metrics.value("service.context.configs_bound") == 1

    def test_bind_rejects_foreign_graph(self, talent_config, triangle_graph):
        context = GraphContext(triangle_graph)
        with pytest.raises(ServiceError):
            context.bind(talent_config)

    def test_invalidate_bumps_generation_and_rebuilds(self, talent_graph):
        graph = apply_delta(talent_graph, GraphDelta())
        context = GraphContext(graph)
        indexes = graph.indexes()
        indexes.literal_masks.store(TestWorkloadLiteralPools.KEY, 1)
        graph.active_domain("yearsOfExp", "person")
        context.invalidate()
        assert context.generation == 1
        assert graph.indexes() is not indexes
        assert len(graph.indexes().literal_masks) == 0
        assert graph._domains == {}
        assert context.metrics.value("service.context.invalidations") == 1

    def test_apply_delta_swaps_graph(self, talent_graph, talent_ids):
        context = GraphContext(talent_graph)
        delta = GraphDelta(
            insert_edges=((talent_ids["r2"], talent_ids["d4"], "recommend"),)
        )
        new_graph = context.apply_delta(delta)
        assert context.graph is new_graph
        assert new_graph is not talent_graph
        assert new_graph.has_edge(talent_ids["r2"], talent_ids["d4"], "recommend")
        assert context.generation == 1

    def test_configure_builds_bound_config(
        self, talent_graph, talent_template, talent_groups
    ):
        context = GraphContext(talent_graph)
        config = context.configure(
            talent_template, talent_groups, epsilon=0.2, max_domain_values=4
        )
        assert config.epsilon == 0.2
        assert config.build_indexes() is context.graph.indexes()

    def test_warm_is_idempotent(self, talent_graph):
        context = GraphContext(talent_graph, warm=True)
        context.warm()
        assert context.graph.indexes().bitsets.full_mask("person")


class TestGenerationRequest:
    def test_unknown_option_rejected(self, talent_template):
        with pytest.raises(ServiceError):
            GenerationRequest("r1", talent_template, options={"graph": None})

    def test_budget_none_when_unbounded(self, talent_template):
        assert GenerationRequest("r1", talent_template).budget() is None

    def test_budget_built_from_fields(self, talent_template):
        request = GenerationRequest(
            "r1", talent_template, deadline_seconds=0.5, max_instances=10
        )
        budget = request.budget()
        assert budget.deadline_seconds == 0.5
        assert budget.max_instances == 10

    def test_signature_ignores_caller_identity(self, talent_template):
        a = GenerationRequest("r1", talent_template, client="alice")
        b = GenerationRequest("r2", talent_template, client="bob")
        assert a.canonical_signature() == b.canonical_signature()

    def test_signature_distinguishes_work(self, talent_template):
        a = GenerationRequest("r", talent_template, epsilon=0.1)
        b = GenerationRequest("r", talent_template, epsilon=0.2)
        c = GenerationRequest("r", talent_template, algorithm="rfqgen")
        assert len({a.canonical_signature(), b.canonical_signature(),
                    c.canonical_signature()}) == 3


class TestRequestWireFormat:
    def test_unknown_key_rejected(self, talent_template):
        with pytest.raises(ServiceError):
            request_from_dict({"id": "r", "templte": {}}, talent_template)

    def test_default_template_fills_in(self, talent_template):
        request = request_from_dict({"id": "r"}, talent_template)
        assert request.template is talent_template

    def test_missing_template_without_default(self):
        with pytest.raises(ServiceError):
            request_from_dict({"id": "r"})

    def test_jsonl_roundtrip(self, tmp_path, talent_template):
        path = tmp_path / "batch.jsonl"
        path.write_text(
            "# comment line\n"
            "\n"
            + json.dumps({"id": "a", "epsilon": 0.1, "client": "x"})
            + "\n"
            + json.dumps({"id": "b", "deadline": 0.25, "max_instances": 5})
            + "\n"
        )
        requests = load_requests_jsonl(path, talent_template)
        assert [r.request_id for r in requests] == ["a", "b"]
        assert requests[0].epsilon == 0.1
        assert requests[1].budget().max_instances == 5

    def test_jsonl_invalid_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(ServiceError):
            load_requests_jsonl(path)


class TestAdmission:
    def test_round_robin_interleaves_clients(self, talent_template):
        def req(i, client):
            return GenerationRequest(f"r{i}", talent_template, client=client)

        requests = [
            req(0, "bulk"), req(1, "bulk"), req(2, "bulk"), req(3, "bulk"),
            req(4, "small"), req(5, "other"),
        ]
        order = [r.request_id for r in round_robin_admission(requests)]
        # The small clients are admitted within round one despite arriving
        # after four bulk requests.
        assert order == ["r0", "r4", "r5", "r1", "r2", "r3"]

    def test_round_robin_preserves_within_client_order(self, talent_template):
        requests = [
            GenerationRequest(f"r{i}", talent_template, client="only")
            for i in range(5)
        ]
        assert round_robin_admission(requests) == requests


class TestBatchScheduler:
    def test_rejects_unknown_default(self, talent_graph, talent_groups):
        context = GraphContext(talent_graph)
        with pytest.raises(ServiceError):
            BatchScheduler(context, talent_groups, defaults={"nope": 1})

    def test_unknown_algorithm_fails_request_not_batch(
        self, talent_graph, talent_template, talent_groups
    ):
        context = GraphContext(talent_graph)
        scheduler = BatchScheduler(
            context, talent_groups, defaults={"max_domain_values": 4}
        )
        outcomes = scheduler.run(
            [
                GenerationRequest("bad", talent_template, algorithm="magic"),
                GenerationRequest("good", talent_template, epsilon=0.3),
            ]
        )
        assert [o.request.request_id for o in outcomes] == ["bad", "good"]
        assert not outcomes[0].ok and "unknown algorithm" in outcomes[0].error
        assert outcomes[1].ok
        assert context.metrics.value("service.failed") == 1
        assert context.metrics.value("service.completed") == 1
