"""Differential guarantee: delta scoring must never change results.

``use_delta_scoring`` flips *how* (δ, f) are computed — state maintenance
along lattice edges plus a fingerprint cache — but the contract is bitwise
equality with from-scratch scoring. These tests run full generator runs
with the knob on and off, the delta-scored run on either AC-3 path of
the matcher (row probes or support sweeps), and compare the archives exactly
(instantiation keys, match sets, and the float δ/f coordinates with
``==``). They also pin the baseline-safety property: with the knob off,
no ``scoring.*`` counter may appear in a run snapshot.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import (
    CBM,
    BiQGen,
    EnumQGen,
    GenerationConfig,
    GroupSet,
    Kungs,
    NodeGroup,
    OnlineQGen,
    RfQGen,
)
from repro.obs import MetricsRegistry
from tests.ac3 import BOTH_PATHS, forced

ALGORITHMS = [EnumQGen, Kungs, CBM, RfQGen, BiQGen]


def _fingerprint(result):
    """Order-sensitive, exact archive fingerprint (floats compared by ==)."""
    return [
        (e.instance.instantiation.key, frozenset(e.matches), e.delta, e.coverage,
         e.feasible)
        for e in result.instances
    ]


@pytest.mark.parametrize("algo_cls", ALGORITHMS)
@BOTH_PATHS
def test_delta_scoring_is_bit_identical(algo_cls, ac3_path, talent_config):
    registry = MetricsRegistry()
    baseline_config = talent_config
    delta_config = replace(talent_config, use_delta_scoring=True, metrics=registry)
    baseline = algo_cls(baseline_config).run()
    with forced(ac3_path):
        delta = algo_cls(delta_config).run()
    swept = registry.value("matcher.bitset.support_sweeps")
    assert (swept > 0) == (ac3_path == "sweep")
    assert _fingerprint(delta) == _fingerprint(baseline)
    assert delta.epsilon == baseline.epsilon


@pytest.mark.parametrize("algo_cls", ALGORITHMS)
def test_no_scoring_counters_when_off(algo_cls, talent_config):
    registry = MetricsRegistry()
    talent_config.metrics = registry
    try:
        algo_cls(talent_config).run()
    finally:
        talent_config.metrics = None
    scoring = [name for name in registry.counters() if name.startswith("scoring.")]
    assert scoring == []


@pytest.mark.parametrize("algo_cls", [RfQGen, BiQGen])
def test_delta_path_engages(algo_cls, talent_config):
    """The lattice generators thread parents, so deltas must actually fire."""
    registry = MetricsRegistry()
    config = replace(talent_config, use_delta_scoring=True, metrics=registry)
    result = algo_cls(config).run()
    assert registry.value("scoring.score_calls") > 0
    assert registry.value("scoring.delta_updates") > 0
    # The stats view surfaces the same counters.
    assert result.stats.delta_scored == registry.value("scoring.delta_updates")
    assert result.stats.score_cache_hits == registry.value("scoring.cache_hits")


def test_differential_on_larger_answers(small_lki_bundle):
    """Same contract on a non-toy graph whose answers exceed the
    decomposition threshold (exercising the maintained Gower stats)."""
    b = small_lki_bundle
    base = GenerationConfig(
        b.graph, b.template, b.groups, epsilon=0.1, max_domain_values=4
    )
    baseline = RfQGen(base).run()
    delta = RfQGen(replace(base, use_delta_scoring=True)).run()
    assert _fingerprint(delta) == _fingerprint(baseline)


def test_online_stream_differential(talent_graph, talent_template, talent_groups):
    """OnlineQGen evaluates streamed instances with no parent threading;
    the fingerprint cache must absorb repeats without changing results."""
    from repro.workload import shuffled_space_stream

    def run(use_delta):
        config = GenerationConfig(
            talent_graph,
            talent_template,
            talent_groups,
            epsilon=0.3,
            max_domain_values=8,
            use_delta_scoring=use_delta,
        )
        online = OnlineQGen(config, k=4, window=8)
        stream = shuffled_space_stream(config.template, config.build_domains(), seed=3)
        return _fingerprint(online.run(stream))

    assert run(True) == run(False)


def test_small_delta_fraction_still_exact(talent_config):
    """A tiny delta budget forces constant rebuilds — values unchanged."""
    baseline = BiQGen(talent_config).run()
    strict = BiQGen(
        replace(
            talent_config,
            use_delta_scoring=True,
            scoring_delta_max_fraction=0.0,
            score_cache_max_entries=2,
        )
    ).run()
    assert _fingerprint(strict) == _fingerprint(baseline)
