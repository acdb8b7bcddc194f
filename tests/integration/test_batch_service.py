"""Differential tests for the batch serving layer.

The serving contract: the graph-owned caches (indexes, literal masks,
domains) change *cost only*, never results. Each test runs a workload
through :class:`repro.session.BatchSession` and compares every outcome
element-wise against an independent standalone run of the same
configuration — on both AC-3 paths of the matcher — plus invalidation
behaviour after graph mutations and a CLI smoke.
"""

from __future__ import annotations

import json

from repro.core.config import GenerationConfig
from repro.datasets.lki import LKI_SCHEMA
from repro.matching.delta import GraphDelta, apply_delta
from repro.query.serialization import template_to_dict
from repro.service.scheduler import ALGORITHMS
from repro.session import BatchSession
from repro.workload import TemplateGenerator, TemplateSpec, requests_from_templates
from tests.ac3 import forced


def _front(result):
    """Comparable rendering of a result's ε-Pareto set, element-wise."""
    return [
        (
            dict(point.instance.instantiation),
            point.delta,
            point.coverage,
            point.cardinality,
            sorted(point.matches),
        )
        for point in result.instances
    ]


def _standalone(bundle, request):
    """Run one request exactly as a fresh, shares-nothing session would."""
    config = GenerationConfig(
        bundle.graph,
        request.template,
        bundle.groups,
        epsilon=request.epsilon,
        budget=request.budget(),
        max_domain_values=4,
    )
    return ALGORITHMS[request.algorithm](config).run()


def _workload(bundle, k=4):
    """k generated templates + the bundle's canonical one, as requests."""
    generator = TemplateGenerator(LKI_SCHEMA, seed=9)
    templates = generator.generate_many(
        TemplateSpec("person", size=3, num_range_vars=2, num_edge_vars=1), k
    )
    requests = requests_from_templates(
        templates, epsilon=0.15, clients=["alice", "bob"]
    )
    requests.append(
        requests_from_templates([bundle.template], epsilon=0.1)[0]
    )
    return requests


class TestBatchMatchesStandalone:
    def test_batch_identical_to_sequential_runs(self, small_lki_bundle):
        bundle = small_lki_bundle
        requests = _workload(bundle)
        batch = BatchSession(bundle.graph, bundle.groups, max_domain_values=4)
        outcomes = batch.run(requests)
        assert len(outcomes) == len(requests)
        for outcome in outcomes:
            assert outcome.ok, outcome.error
            expected = _standalone(bundle, outcome.request)
            assert _front(outcome.result) == _front(expected)
            assert outcome.result.epsilon == expected.epsilon

    def test_engines_agree_through_the_service(self, small_lki_bundle):
        """Both AC-3 paths of the matcher (every constraint swept, every
        constraint probed) serve the same fronts."""
        bundle = small_lki_bundle
        requests = _workload(bundle)
        fronts = []
        for path in ("probe", "sweep"):
            with forced(path):
                batch = BatchSession(bundle.graph, bundle.groups, max_domain_values=4)
                fronts.append([_front(o.result) for o in batch.run(requests)])
        assert fronts[0] == fronts[1]

    def test_warm_reuse_hits_workload_pools(self, small_lki_bundle):
        """Every engine-local literal miss of a repeated workload is served
        by the graph's literal-mask memo."""
        bundle = small_lki_bundle
        graph = apply_delta(bundle.graph, GraphDelta())  # cold copy
        requests = _workload(bundle)
        batch = BatchSession(graph, bundle.groups, max_domain_values=4)

        def counts():
            value = batch.metrics.value
            return (
                value("matcher.bitset.literal_pool_misses"),
                value("matcher.bitset.literal_pool_shared_hits"),
            )

        batch.run(requests)
        misses, shared = counts()
        assert 0 < shared < misses  # the cold pass computes some masks
        batch.run(requests)  # second pass over the same workload
        warm_misses, warm_shared = counts()
        assert warm_misses - misses == warm_shared - shared > 0


class TestDeduplication:
    def test_identical_requests_replay_shared_result(self, small_lki_bundle):
        bundle = small_lki_bundle
        batch = BatchSession(bundle.graph, bundle.groups, max_domain_values=4)
        twins = [
            batch.request(bundle.template, epsilon=0.1, client="a"),
            batch.request(bundle.template, epsilon=0.1, client="b"),
            batch.request(bundle.template, epsilon=0.3, client="a"),
        ]
        outcomes = batch.run(twins)
        executed = [o for o in outcomes if not o.deduplicated]
        replayed = [o for o in outcomes if o.deduplicated]
        assert len(replayed) == 1
        assert replayed[0].result is executed[0].result  # same archive object
        assert batch.metrics.value("service.deduplicated") == 1


class TestInvalidation:
    def test_results_track_graph_mutations(self, small_lki_bundle):
        bundle = small_lki_bundle
        batch = BatchSession(bundle.graph, bundle.groups, max_domain_values=4)
        request = batch.request(bundle.template, epsilon=0.1)
        before = batch.run([request])[0]
        assert before.ok

        # Mutate the served graph: drop one existing edge.
        edge = next(iter(bundle.graph.edges()))
        batch.apply_delta(GraphDelta(delete_edges=(edge.key,)))
        assert batch.context.generation == 1
        assert batch.context.graph is not bundle.graph
        assert len(batch.context.graph.indexes().literal_masks) == 0

        # Served results now describe the mutated graph, matching a
        # standalone run against that graph exactly.
        after = batch.run([batch.request(bundle.template, epsilon=0.1)])[0]
        assert after.ok
        standalone = ALGORITHMS["biqgen"](
            GenerationConfig(
                batch.context.graph,
                bundle.template,
                bundle.groups,
                epsilon=0.1,
                max_domain_values=4,
            )
        ).run()
        assert _front(after.result) == _front(standalone)

    def test_stale_dedup_cannot_cross_invalidation(self, small_lki_bundle):
        bundle = small_lki_bundle
        batch = BatchSession(bundle.graph, bundle.groups, max_domain_values=4)
        batch.run([batch.request(bundle.template, epsilon=0.1)])
        edge = next(iter(bundle.graph.edges()))
        batch.apply_delta(GraphDelta(delete_edges=(edge.key,)))
        outcome = batch.run([batch.request(bundle.template, epsilon=0.1)])[0]
        # Same signature as the pre-mutation batch, but dedup is per
        # batch, so this re-executed against the new graph.
        assert not outcome.deduplicated


class TestSessionSharing:
    def test_single_sessions_share_context(self, small_lki_bundle):
        bundle = small_lki_bundle
        batch = BatchSession(bundle.graph, bundle.groups, max_domain_values=4)
        session = batch.session(bundle.template, epsilon=0.1)
        assert session.config.build_indexes() is batch.context.graph.indexes()
        result = session.suggest()
        standalone = ALGORITHMS["biqgen"](
            GenerationConfig(
                bundle.graph,
                bundle.template,
                bundle.groups,
                epsilon=0.1,
                max_domain_values=4,
            )
        ).run()
        assert _front(result) == _front(standalone)


class TestCliBatch:
    def test_batch_smoke(self, tmp_path, capsys):
        from repro.cli import main

        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            "# default-template request plus one explicit duplicate\n"
            + json.dumps({"id": "r1", "epsilon": 0.2, "client": "alice"})
            + "\n"
            + json.dumps({"id": "r2", "epsilon": 0.2, "client": "bob"})
            + "\n"
        )
        out = tmp_path / "outcomes.jsonl"
        code = main(
            [
                "batch",
                str(requests),
                "--dataset",
                "lki",
                "--scale",
                "0.1",
                "--coverage",
                "6",
                "--domain-cap",
                "4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "r1" in printed and "r2" in printed
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert [l["id"] for l in lines] == ["r1", "r2"]
        assert all(l["ok"] for l in lines)
        assert sum(l["deduplicated"] for l in lines) == 1

    def test_batch_with_explicit_template(self, tmp_path, small_lki_bundle):
        from repro.cli import main

        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            json.dumps(
                {
                    "id": "explicit",
                    "template": template_to_dict(small_lki_bundle.template),
                    "epsilon": 0.2,
                    "max_instances": 8,
                }
            )
            + "\n"
        )
        assert main(
            [
                "batch",
                str(requests),
                "--scale",
                "0.1",
                "--coverage",
                "6",
                "--domain-cap",
                "4",
            ]
        ) == 0
