"""Chaos and differential harness for the serving daemon.

The daemon's correctness contract, pinned end-to-end:

* **Differential** — for any fault-free workload, outcomes are
  byte-identical (modulo wall-clock fields) to the synchronous
  :class:`~repro.session.BatchSession` path, on either AC-3 path of the
  workers' matcher.
* **Exactly-once under chaos** — with seeded CRASH/SLOW/ERROR faults
  injected mid-request, every submission still gets exactly one outcome,
  no queue entry is orphaned, and the returned ε-Pareto archives are
  identical to the fault-free run's.
* **Degradation** — overload sheds requests as empty truncated partials
  (never errors), and retry exhaustion fails only the poisoned request.
* **Shared caches** — worker threads racing to fill one cold graph's
  indexes, literal masks and domains still serve, per request id, what
  a batch session serves.

Faults are keyed by submission index via the same
:class:`~repro.runtime.faults.FaultInjector` schedule the streaming
session fires, so a failing seed reproduces exactly.
"""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.cli import main
from repro.datasets.lki import LKI_SCHEMA
from repro.matching.delta import GraphDelta, apply_delta
from repro.runtime.faults import FaultInjector, FaultKind, FaultSpec
from repro.service.daemon import ServingDaemon, replay_unix
from repro.service.requests import outcome_to_dict
from repro.session import BatchSession, DaemonSession
from repro.workload import TemplateGenerator, TemplateSpec, requests_from_templates
from tests.ac3 import BOTH_PATHS, forced

OPTIONS = {"max_domain_values": 4}


def workload(bundle, k=4, clients=("alice", "bob")):
    """k generated templates + the bundle's canonical one, as requests."""
    generator = TemplateGenerator(LKI_SCHEMA, seed=9)
    templates = generator.generate_many(
        TemplateSpec("person", size=3, num_range_vars=2, num_edge_vars=1), k
    )
    requests = requests_from_templates(
        templates, epsilon=0.15, clients=list(clients)
    )
    requests.append(requests_from_templates([bundle.template], epsilon=0.1)[0])
    return requests


def fingerprint(outcome):
    """Wire rendering minus wall-clock noise."""
    payload = outcome_to_dict(outcome)
    payload.pop("elapsed_seconds", None)
    return payload


def by_id(outcomes):
    table = {}
    for outcome in outcomes:
        payload = fingerprint(outcome)
        assert payload["id"] not in table, "duplicate outcome id"
        table[payload["id"]] = payload
    return table


def make_daemon(bundle, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("defaults", dict(OPTIONS))
    return ServingDaemon(bundle.graph, bundle.groups, **kwargs)


def serve(bundle, requests, **kwargs):
    daemon = make_daemon(bundle, **kwargs)
    try:
        outcomes = daemon.serve(requests)
    finally:
        daemon.shutdown()
    return daemon, outcomes


class TestDifferential:
    @BOTH_PATHS
    def test_daemon_identical_to_batch_session(self, small_lki_bundle, ac3_path):
        """The daemon serves what a batch session does, whichever AC-3
        path its worker threads take."""
        bundle = small_lki_bundle
        requests = workload(bundle)
        batch = BatchSession(bundle.graph, bundle.groups, **OPTIONS)
        sync_outcomes = batch.run(requests)
        with forced(ac3_path):
            _, daemon_outcomes = serve(bundle, requests, workers=3)
        assert len(daemon_outcomes) == len(requests)
        # Daemon outcomes come back in submission order.
        assert [o.request.request_id for o in daemon_outcomes] == [
            r.request_id for r in requests
        ]
        assert by_id(daemon_outcomes) == by_id(sync_outcomes)

    def test_dedup_matches_sync_semantics(self, small_lki_bundle):
        bundle = small_lki_bundle
        base = workload(bundle, k=2)
        # Identical work resubmitted under fresh ids, same tenant.
        dupes = [
            r.__class__(
                f"{r.request_id}-dup", r.template, r.algorithm, r.epsilon,
                r.client, r.deadline_seconds, r.max_instances,
                r.max_backtracks, r.slo, r.options,
            )
            for r in base
        ]
        requests = base + dupes
        daemon, outcomes = serve(bundle, requests, workers=2)
        table = by_id(outcomes)
        for r in base:
            original = dict(table[r.request_id])
            duplicate = dict(table[f"{r.request_id}-dup"])
            assert duplicate.pop("deduplicated") or True  # may be parked or replayed
            original.pop("deduplicated")
            original["id"] = duplicate["id"]
            assert original == duplicate
        assert daemon.metrics.value("service.daemon.deduplicated") >= 1

    def test_mixed_wire_submissions_keep_order(self, small_lki_bundle):
        bundle = small_lki_bundle
        requests = workload(bundle, k=2)
        submissions = [
            requests[0],
            "not json",
            requests[1],
            "",            # skipped entirely
            "# comment",   # skipped entirely
            requests[2],
        ]
        daemon, outcomes = serve(bundle, submissions)
        assert len(outcomes) == 4
        assert [outcome_to_dict(o)["id"] for o in outcomes] == [
            requests[0].request_id,
            "line-2",
            requests[1].request_id,
            requests[2].request_id,
        ]
        assert outcome_to_dict(outcomes[1])["rejected"] is True
        assert daemon.metrics.value("service.requests.rejected") == 1


class TestChaos:
    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_chaos_outcomes_identical_to_fault_free(self, small_lki_bundle, seed):
        bundle = small_lki_bundle
        requests = workload(bundle)
        _, clean = serve(bundle, requests)
        faults = FaultInjector.random(
            num_batches=len(requests), rate=0.5, seed=seed,
            kinds=(FaultKind.CRASH, FaultKind.ERROR),
        )
        daemon, chaotic = serve(
            bundle, requests, faults=faults, max_retries=2, workers=3
        )
        assert by_id(chaotic) == by_id(clean)
        assert all(o.ok for o in chaotic)
        if len(faults):
            assert daemon.metrics.value("service.daemon.retries") >= len(faults)
        assert len(daemon.admission) == 0

    def test_crash_after_work_is_still_exactly_once(self, small_lki_bundle):
        """A worker that dies *after* computing its result must not
        publish twice when the retry also completes."""
        bundle = small_lki_bundle
        requests = workload(bundle, k=2)
        faults = FaultInjector(
            [FaultSpec(kind=FaultKind.CRASH, batch_index=1, call_index=1)]
        )
        _, clean = serve(bundle, requests)
        daemon, chaotic = serve(bundle, requests, faults=faults)
        assert by_id(chaotic) == by_id(clean)
        assert daemon.metrics.value("service.daemon.worker_crashes") == 1
        assert daemon.metrics.value("service.daemon.worker_restarts") == 1

    def test_retry_exhaustion_fails_only_the_poisoned_request(
        self, small_lki_bundle
    ):
        bundle = small_lki_bundle
        requests = workload(bundle)
        poisoned = 2
        faults = FaultInjector(
            [FaultSpec(kind=FaultKind.ERROR, batch_index=poisoned, times=99)]
        )
        daemon, outcomes = serve(
            bundle, requests, faults=faults, max_retries=1
        )
        assert len(outcomes) == len(requests)
        for index, outcome in enumerate(outcomes):
            if index == poisoned:
                assert not outcome.ok
                assert "injected" in outcome.error
            else:
                assert outcome.ok, outcome.error
        assert daemon.metrics.value("service.daemon.failed") == 1
        assert daemon.metrics.value("service.daemon.completed") == len(requests) - 1

    def test_straggler_is_abandoned_and_retried(self, small_lki_bundle):
        bundle = small_lki_bundle
        requests = workload(bundle, k=2)
        faults = FaultInjector(
            [
                FaultSpec(
                    kind=FaultKind.SLOW, batch_index=0, delay_seconds=1.5
                )
            ]
        )
        _, clean = serve(bundle, requests)
        daemon, outcomes = serve(
            bundle, requests, faults=faults, attempt_timeout=0.25,
            max_retries=2, workers=3,
        )
        assert by_id(outcomes) == by_id(clean)
        assert daemon.metrics.value("service.daemon.stragglers_abandoned") >= 1

    def test_queue_overload_sheds_truncated_partials(self, small_lki_bundle):
        bundle = small_lki_bundle
        generator = TemplateGenerator(LKI_SCHEMA, seed=9)
        templates = generator.generate_many(
            TemplateSpec("person", size=3, num_range_vars=2, num_edge_vars=1), 5
        )
        requests = requests_from_templates(
            templates, epsilon=0.15, clients=["solo"]
        )
        daemon, outcomes = serve(bundle, requests, queue_depth=2)
        assert len(outcomes) == len(requests)
        shed = [o for o in outcomes if o.shed]
        assert len(shed) == len(requests) - 2
        for outcome in shed:
            assert outcome.ok  # shedding degrades, it does not error
            assert outcome.result.truncated
            assert outcome.result.stats.truncation_reason == "shed_queue_full"
            assert outcome.result.instances == []
        assert daemon.metrics.value("service.daemon.shed") == len(shed)


class TestSharedGraphCaches:
    @pytest.mark.parametrize("chaos_seed", [None, 7], ids=["clean", "chaos"])
    def test_four_workers_on_one_cold_graph_match_batch_session(
        self, small_lki_bundle, chaos_seed
    ):
        bundle = small_lki_bundle
        requests = workload(
            bundle, k=7, clients=("alice", "bob", "carol", "dave")
        )
        expected = by_id(
            BatchSession(
                apply_delta(bundle.graph, GraphDelta()), bundle.groups, **OPTIONS
            ).run(requests)
        )
        faults = None
        if chaos_seed is not None:
            faults = FaultInjector.random(
                num_batches=len(requests), rate=0.5, seed=chaos_seed,
                kinds=(FaultKind.CRASH, FaultKind.ERROR),
            )
        # A cold copy, not warmed up front: the first requests of all four
        # workers build the graph's tables, rows and masks concurrently.
        graph = apply_delta(bundle.graph, GraphDelta())
        daemon = ServingDaemon(
            graph, bundle.groups, workers=4, defaults=dict(OPTIONS),
            warm=False, faults=faults, max_retries=2,
        )
        try:
            outcomes = daemon.serve(requests)
        finally:
            daemon.shutdown()
        assert by_id(outcomes) == expected
        assert all(o.ok for o in outcomes)
        assert len(graph.indexes().literal_masks) > 0


class TestWireFrontends:
    def test_unix_socket_roundtrip_matches_direct_serve(
        self, small_lki_bundle, tmp_path
    ):
        bundle = small_lki_bundle
        lines = [
            json.dumps({"id": "w1", "client": "alice", "epsilon": 0.15}),
            json.dumps({"id": "w2", "client": "bob", "epsilon": 0.1}),
            "garbage line",
            json.dumps({"id": "w1", "client": "mallory", "epsilon": 0.3}),
        ]
        _, direct = serve(
            bundle, lines, default_template=bundle.template
        )
        daemon = make_daemon(bundle, default_template=bundle.template)
        path = str(tmp_path / "daemon.sock")
        started = threading.Event()
        box = {}

        def run_server():
            async def server_main():
                ready = asyncio.Event()
                stop = asyncio.Event()
                box["loop"] = asyncio.get_running_loop()
                box["stop"] = stop
                task = asyncio.create_task(daemon.serve_unix(path, ready=ready))
                await ready.wait()
                started.set()
                await stop.wait()
                task.cancel()
                try:
                    await task
                except asyncio.CancelledError:
                    pass

            asyncio.run(server_main())

        thread = threading.Thread(target=run_server, daemon=True)
        thread.start()
        try:
            assert started.wait(30)
            results = replay_unix(path, lines)
        finally:
            box["loop"].call_soon_threadsafe(box["stop"].set)
            thread.join(30)
            daemon.shutdown()
        for payload in results:
            payload.pop("elapsed_seconds", None)
        expected = [fingerprint(o) for o in direct]
        assert results == expected
        assert results[2]["rejected"] is True
        # Wire batches reject duplicate ids (first line wins).
        assert results[3]["rejected"] is True
        assert "duplicate request id" in results[3]["error"]

    def test_cli_one_shot_and_outputs(self, tmp_path):
        requests_file = tmp_path / "requests.jsonl"
        requests_file.write_text(
            '{"id": "a", "client": "t1", "epsilon": 0.2, "slo": "standard"}\n'
            '{"id": "b", "client": "t2", "epsilon": 0.2, "slo": "batch"}\n'
            "broken\n"
        )
        out = tmp_path / "out.jsonl"
        metrics = tmp_path / "metrics.json"
        code = main(
            [
                "daemon", "--requests", str(requests_file),
                "--dataset", "lki", "--scale", "0.08",
                "--workers", "2",
                "--out", str(out), "--metrics", str(metrics),
            ]
        )
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["id"] for r in rows] == ["a", "b", "line-3"]
        assert rows[0]["ok"] and rows[1]["ok"]
        assert rows[2]["rejected"] is True
        snapshot = json.loads(metrics.read_text())
        counters = snapshot.get("counters", snapshot)
        assert counters["service.daemon.completed"] == 2
        assert counters["service.requests.rejected"] == 1

    def test_cli_client_requires_socket_and_requests(self):
        assert main(["daemon", "--client"]) == 2
        assert main(["daemon"]) == 2


class TestDaemonSessionFacade:
    def test_facade_serves_and_exposes_metrics(self, small_lki_bundle):
        bundle = small_lki_bundle
        session = DaemonSession(
            bundle.graph, bundle.groups, workers=2, **OPTIONS
        )
        try:
            requests = [
                session.request(bundle.template, epsilon=0.15),
                session.request(bundle.template, epsilon=0.15),
            ]
            outcomes = session.serve(requests)
        finally:
            session.shutdown()
        assert [o.request.request_id for o in outcomes] == ["req-1", "req-2"]
        assert all(o.ok for o in outcomes)
        assert session.metrics.value("service.daemon.deduplicated") == 1
