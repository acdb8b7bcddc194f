"""Unit tests for the serving layer: caches, context, requests, admission."""

from __future__ import annotations

import json

import pytest

from repro.errors import ServiceError
from repro.matching.bitset import WorkloadLiteralPools
from repro.matching.delta import GraphDelta
from repro.obs.registry import MetricsRegistry
from repro.service import (
    BatchScheduler,
    GenerationRequest,
    GraphContext,
    load_requests_jsonl,
    request_from_dict,
    round_robin_admission,
)


class TestWorkloadLiteralPools:
    def test_lookup_miss_then_hit(self):
        metrics = MetricsRegistry()
        pools = WorkloadLiteralPools(metrics=metrics)
        key = ("person", "age", ">=", 30)
        assert pools.lookup(key) is None
        pools.store(key, 0b1011)
        assert pools.lookup(key) == 0b1011
        assert metrics.value("service.workload_pool.misses") == 1
        assert metrics.value("service.workload_pool.hits") == 1
        assert pools.hit_rate == 0.5

    def test_lru_eviction_order(self):
        metrics = MetricsRegistry()
        pools = WorkloadLiteralPools(metrics=metrics, max_entries=2)
        pools.store("a", 1)
        pools.store("b", 2)
        assert pools.lookup("a") == 1  # refresh "a"; "b" becomes LRU
        pools.store("c", 3)
        assert len(pools) == 2
        assert pools.lookup("b") is None  # evicted
        assert pools.lookup("a") == 1
        assert pools.lookup("c") == 3
        assert metrics.value("service.workload_pool.evictions") == 1

    def test_store_existing_key_refreshes_not_evicts(self):
        pools = WorkloadLiteralPools(max_entries=2)
        pools.store("a", 1)
        pools.store("b", 2)
        pools.store("a", 10)  # overwrite, no growth
        assert len(pools) == 2
        assert pools.lookup("a") == 10

    def test_clear(self):
        pools = WorkloadLiteralPools()
        pools.store("a", 1)
        pools.clear()
        assert len(pools) == 0
        assert pools.lookup("a") is None

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            WorkloadLiteralPools(max_entries=0)

    def test_unbounded(self):
        pools = WorkloadLiteralPools(max_entries=None)
        for i in range(100):
            pools.store(("k", i), i)
        assert len(pools) == 100
        assert pools.max_entries is None

    def test_hit_rate_zero_before_probes(self):
        assert WorkloadLiteralPools().hit_rate == 0.0


class TestGraphContext:
    def test_bind_wires_shared_tiers(self, talent_config):
        context = GraphContext(talent_config.graph)
        bound = context.bind(talent_config)
        assert bound.shared_indexes is context.indexes
        assert bound.shared_literal_pools is context.literal_pools
        assert bound.build_indexes() is context.indexes
        # The original config is untouched (bind returns a copy).
        assert talent_config.shared_indexes is None

    def test_bind_rejects_foreign_graph(self, talent_config, triangle_graph):
        context = GraphContext(triangle_graph)
        with pytest.raises(ServiceError):
            context.bind(talent_config)

    def test_invalidate_bumps_generation_and_rebuilds(self, talent_graph):
        context = GraphContext(talent_graph)
        indexes, pools = context.indexes, context.literal_pools
        pools.store("k", 1)
        context.invalidate()
        assert context.generation == 1
        assert context.indexes is not indexes
        assert context.literal_pools is not pools
        assert len(context.literal_pools) == 0
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
        assert config.shared_indexes is context.indexes

    def test_warm_is_idempotent(self, talent_graph):
        context = GraphContext(talent_graph, warm=True)
        context.warm()
        assert context.indexes.bitsets.full_mask("person")


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
