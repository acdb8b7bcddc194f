"""Graph-owned caches: lifetime, and warm runs equal cold runs.

A graph owns its indexes, literal-mask memo, active domains and label
attribute names; every run on the graph reads them. Two contracts:

* **Lifetime** — the cached state holds the graph's containers, never
  the graph, so a graph is freed by reference counting alone once its
  last name is gone, and cached state kept on its own still answers.
* **Warm ≡ cold** — a run on a graph warmed by other templates' requests
  and by in-place deltas equals the same run on a cold copy of the
  graph, by archive and by work counters. Only how the work was served
  from the graph's memos differs: literal-pool misses served by the
  literal-mask memo (``literal_pool_shared_hits``), and AC-3 supports read
  from the support memo (``support_memo_hits``) instead of computed (the
  ``mask_intersections`` row probes and ``support_sweeps``). A memo entry
  holds a support a sweep or probes computed, so which of the two fills a
  later check depends on what the memo already knew.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core.biqgen import BiQGen
from repro.core.config import GenerationConfig
from repro.core.online import OnlineQGen
from repro.core.rfqgen import RfQGen
from repro.datasets.lki import LKI_SCHEMA
from repro.graph.indexes import GraphIndexes
from repro.matching.bitset import LiteralPoolCache
from repro.matching.delta import GraphDelta, apply_delta
from repro.obs.registry import MetricsRegistry
from repro.query import Literal, Op
from repro.streaming import StreamingSession, apply_delta_in_place
from repro.workload import TemplateGenerator, TemplateSpec, random_delta_stream
from repro.workload.stream import random_instance_stream
from tests.regression.test_streaming_counters import (
    build_graph,
    build_groups,
    build_template,
)

OPTIONS = {"epsilon": 0.1, "max_domain_values": 4}

#: Counters that split the run's work between the graph-owned memos and
#: fresh computation, so they depend on what the memos held beforehand.
SERVED = (
    "matcher.bitset.literal_pool_shared_hits",
    "matcher.bitset.support_memo_hits",
    "matcher.bitset.mask_intersections",
    "matcher.bitset.support_sweeps",
)


class TestLifetime:
    def test_graph_freed_without_cycle_collector(self):
        gc.collect()
        gc.disable()
        try:
            graph = build_graph()
            template, groups = build_template(), build_groups()
            config = GenerationConfig(graph, template, groups, **OPTIONS)
            RfQGen(config).run()
            BiQGen(config).run()
            session = StreamingSession(graph, template, groups, **OPTIONS)
            session.generate(count=8, seed=1)
            session.update(
                GraphDelta(
                    insert_edges=((3, 7, "recommend"),),
                    set_attributes=((7, "yearsOfExp", 30),),
                )
            )
            indexes = graph.indexes()
            alive = weakref.ref(graph)
            del graph, config, session
            assert alive() is None
            assert indexes.bitsets.full_mask("person")
        finally:
            gc.enable()

    def test_indexes_answer_after_graph_is_gone(self):
        indexes = GraphIndexes(build_graph())
        pools = LiteralPoolCache(indexes, MetricsRegistry())
        directors = pools.mask("person", Literal("title", Op.EQ, "director"))
        assert indexes.bitsets.to_ids("person", directors) == {4, 5, 6, 7}
        assert indexes.attributes.matching_nodes("org", "employees", Op.GE, 500) == {1}
        assert indexes.bitsets.adjacency_row(2, "recommend", True, "person")


def _other_templates():
    return TemplateGenerator(LKI_SCHEMA, seed=9).generate_many(
        TemplateSpec("person", size=3, num_range_vars=2, num_edge_vars=1), 3
    )


@pytest.fixture(scope="module")
def warmed(small_lki_bundle):
    """A private copy of the bundle graph, warmed by other templates'
    runs before and after in-place deltas."""
    bundle = small_lki_bundle
    graph = apply_delta(bundle.graph, GraphDelta())
    others = _other_templates()
    for template in others:
        BiQGen(GenerationConfig(graph, template, bundle.groups, **OPTIONS)).run()
    for delta in random_delta_stream(graph, count=4, seed=3, edge_ops=3, attr_ops=2):
        apply_delta_in_place(graph, delta)
    RfQGen(GenerationConfig(graph, others[0], bundle.groups, **OPTIONS)).run()
    return graph


def _fingerprint(result):
    return [
        (e.instance.instantiation.key, frozenset(e.matches), e.delta, e.coverage,
         e.feasible)
        for e in result.instances
    ]


def _run(algorithm, graph, bundle):
    metrics = MetricsRegistry()
    config = GenerationConfig(
        graph, bundle.template, bundle.groups, metrics=metrics, **OPTIONS
    )
    if algorithm is OnlineQGen:
        online = OnlineQGen(config, k=4, window=10)
        stream = random_instance_stream(config.template, online.lattice.domains, 40, seed=5)
        result = online.run(stream)
    else:
        result = algorithm(config).run()
    counters = {
        name: value
        for name, value in metrics.counters().items()
        if name.startswith(("matcher.", "lattice.", "evaluator."))
        and name not in SERVED
    }
    return _fingerprint(result), counters, metrics


@pytest.mark.parametrize(
    "algorithm", [RfQGen, BiQGen, OnlineQGen], ids=lambda a: a.__name__
)
def test_warm_graph_equals_cold_copy(warmed, small_lki_bundle, algorithm):
    cold_graph = apply_delta(warmed, GraphDelta())
    warm_front, warm_counters, warm_metrics = _run(algorithm, warmed, small_lki_bundle)
    cold_front, cold_counters, cold_metrics = _run(algorithm, cold_graph, small_lki_bundle)
    assert warm_front == cold_front
    assert warm_counters == cold_counters
    for name in ("matcher.bitset.literal_pool_shared_hits",
                 "matcher.bitset.support_memo_hits"):
        assert cold_metrics.value(name) <= warm_metrics.value(name), name
