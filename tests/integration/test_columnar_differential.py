"""Columnar differential suite: byte-identical archives, columnar on or off.

The columnar core replaces *representations* — CSR slices for adjacency
dicts, compiled column masks for attribute-table scans, interned codes
for raw values — never semantics. These tests run the full generators,
the delta-scoring engine and the serving context over store-carrying
indexes (which select the columnar engine, or — for a store enabled
after the matcher was built — back the bitset engine) and compare
archives exactly: instantiation keys, match sets and the float δ/f
coordinates with ``==``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import CBM, BiQGen, EnumQGen, GenerationConfig, Kungs, RfQGen
from repro.graph.indexes import GraphIndexes
from repro.matching import BitsetEngine
from repro.obs import MetricsRegistry
from repro.service.context import GraphContext

ALGORITHMS = [EnumQGen, Kungs, CBM, RfQGen, BiQGen]


def _fingerprint(result):
    """Order-sensitive, exact archive fingerprint (floats compared by ==)."""
    return [
        (e.instance.instantiation.key, frozenset(e.matches), e.delta, e.coverage,
         e.feasible)
        for e in result.instances
    ]


def _with_store(config, **overrides):
    """``config`` over fresh store-carrying indexes (the columnar engine)."""
    indexes = GraphIndexes(config.graph, columnar=True)
    return replace(config, shared_indexes=indexes, **overrides)


@pytest.mark.parametrize("algo_cls", ALGORITHMS)
def test_columnar_engine_is_bit_identical(algo_cls, talent_config):
    baseline = algo_cls(talent_config).run()
    columnar = algo_cls(_with_store(talent_config)).run()
    assert _fingerprint(columnar) == _fingerprint(baseline)
    assert columnar.epsilon == baseline.epsilon


@pytest.mark.parametrize("algo_cls", [RfQGen, BiQGen])
def test_columnar_with_delta_scoring(algo_cls, talent_config):
    baseline = algo_cls(talent_config).run()
    fast = algo_cls(_with_store(talent_config, use_delta_scoring=True)).run()
    assert _fingerprint(fast) == _fingerprint(baseline)


def test_store_under_default_engine_is_inert(talent_config):
    """A store enabled after the matcher was built leaves the bitset
    engine in place; it only reroutes row and literal-mask lookups, so
    results are unchanged bit-for-bit."""
    baseline = RfQGen(talent_config).run()
    indexes = GraphIndexes(talent_config.graph)
    generator = RfQGen(replace(talent_config, shared_indexes=indexes))
    assert type(generator.evaluator.matcher.engine) is BitsetEngine
    indexes.enable_columnar()
    with_store = generator.run()
    assert _fingerprint(with_store) == _fingerprint(baseline)


def test_columnar_context_serves_identical_results(
    talent_graph, talent_template, talent_groups
):
    plain = GraphContext(talent_graph)
    columnar = GraphContext(talent_graph, columnar=True, warm=True)
    assert columnar.indexes.columnar is not None
    # Warming pre-built every (edge label, direction) CSR plus undirected.
    expected = 2 * len(talent_graph.edge_labels())
    assert columnar.indexes.columnar.num_csrs == expected
    for context in (plain, columnar):
        config = context.configure(
            talent_template, talent_groups, epsilon=0.25, max_domain_values=6
        )
        result = RfQGen(config).run()
        context.result = _fingerprint(result)
    assert columnar.result == plain.result


def test_columnar_engine_counters(talent_config):
    """The engine surfaces its own matcher counters plus the store's
    build/patch counters on the run registry."""
    registry = MetricsRegistry()
    RfQGen(_with_store(talent_config, metrics=registry)).run()
    counters = registry.counters()
    assert counters["graph.columnar.builds"] == 1
    assert counters["graph.columnar.csr_builds"] >= 0
    assert "matcher.columnar.support_sweeps" in counters
    assert "matcher.columnar.fallback_propagations" in counters


def test_default_runs_see_no_columnar_counters(talent_config):
    """Baseline safety: without opting in, no ``graph.columnar.*`` or
    ``matcher.columnar.*`` counter may appear in a run snapshot."""
    registry = MetricsRegistry()
    RfQGen(replace(talent_config, metrics=registry)).run()
    leaked = [
        name for name in registry.counters() if "columnar" in name
    ]
    assert leaked == []

