"""Oracles for two spawn-side memos.

* BiQGen keeps its infeasibility witnesses an antichain: recording a
  witness drops every stored witness that refines it. A subclass that
  also keeps every witness ever recorded checks, on every call, that
  ``_known_infeasible`` agrees with a linear scan over all of them, and a
  run that never drops a witness must end with the same archive and
  counters.
* ``InstanceLattice`` memoizes the snapped domains on each ball-cache
  entry. ``refine_children`` with a warm entry must return what a lattice
  whose snap memo is cleared before every call returns, also after the
  domain index is swapped for one with other domains.
"""

import pytest

from repro import BiQGen, GenerationConfig
from repro.core.evaluator import InstanceEvaluator
from repro.core.lattice import InstanceLattice
from repro.datasets import dbp_bundle
from repro.query.refinement import refines


class KeepEveryWitness(BiQGen):
    """BiQGen that checks its witness antichain against every witness."""

    def run(self):
        self.every = []
        self.calls = self.known = self.dropped = 0
        return super().run()

    def _record_infeasible(self, instance):
        before = len(self._infeasible)
        super()._record_infeasible(instance)
        self.dropped += before + 1 - len(self._infeasible)
        self.every.append(instance)

    def _known_infeasible(self, instance):
        answer = super()._known_infeasible(instance)
        assert answer == any(refines(instance, w) for w in self.every)
        self.calls += 1
        self.known += answer
        return answer


class NeverDrop(BiQGen):
    """BiQGen whose witness list keeps every recorded witness."""

    def _record_infeasible(self, instance):
        self._infeasible.append(instance)


@pytest.fixture(scope="module")
def dbp_config():
    b = dbp_bundle(scale=0.05, coverage_total=6)
    return GenerationConfig(b.graph, b.template, b.groups, epsilon=0.1, max_domain_values=8)


@pytest.fixture(params=["talent", "lki", "dbp"])
def config(request, talent_config, small_lki_config, dbp_config):
    return {"talent": talent_config, "lki": small_lki_config, "dbp": dbp_config}[request.param]


def outcome(algorithm):
    """The archive and the generator's and spawner's counters. (The
    ``matcher.bitset`` counters depend on how warm the graph's memos are.)"""
    result = algorithm.run()
    keys = sorted(repr(e.instance.instantiation.key) for e in result.instances)
    counters = {
        name: value
        for name, value in algorithm.metrics.counters().items()
        if name.startswith(("gen.", "lattice.", "evaluator."))
    }
    return keys, counters


def test_witness_antichain_answers_like_every_witness(config):
    algorithm = KeepEveryWitness(config)
    keys, counters = outcome(algorithm)
    assert algorithm.calls > 0
    # The antichain holds no witness that refines another.
    kept = algorithm._infeasible
    assert not any(a is not b and refines(a, b) for a in kept for b in kept)
    assert outcome(NeverDrop(config)) == (keys, counters)


def test_witness_fixtures_exercise_drops_and_hits(talent_config, small_lki_config, dbp_config):
    # Over the three fixtures the antichain both drops witnesses and
    # answers some checks with "known infeasible".
    dropped = known = 0
    for config in (talent_config, small_lki_config, dbp_config):
        algorithm = KeepEveryWitness(config)
        algorithm.run()
        dropped += algorithm.dropped
        known += algorithm.known
    assert dropped > 0 and known > 0


def typed(children):
    return [
        (name, [(n, type(v), v) for n, v in child.instantiation.key])
        for name, child in children
    ]


def spawn_against_cold(config, warm, cold, limit):
    """Walk refinements from the root, comparing each warm spawn with a
    cold-snap spawn; returns the number of parents compared."""
    evaluator = InstanceEvaluator(config)
    queue, seen, compared = [warm.root()], set(), 0
    while queue and compared < limit:
        instance = queue.pop(0)
        if instance.instantiation.key in seen:
            continue
        seen.add(instance.instantiation.key)
        evaluated = evaluator.evaluate(instance)
        if not evaluated.mask:
            continue
        for _ in range(2):  # the second call reads a warm ball entry
            children = warm.refine_children(instance, evaluated)
            for entry in cold._ball_cache.values():
                entry.snaps.clear()
            assert typed(children) == typed(cold.refine_children(instance, evaluated))
        compared += 1
        queue.extend(child for _, child in children)
    return compared


def test_warm_snap_memo_equals_cleared_memo(config):
    warm, cold = InstanceLattice(config), InstanceLattice(config)
    assert spawn_against_cold(config, warm, cold, limit=40) > 0
    assert warm.metrics.value("lattice.ball_cache_hits") > 0
    assert any(entry.snaps for entry in warm._ball_cache.values())
    # New domain tuples (another quantization) invalidate the memo: the
    # warm entries must re-snap rather than serve the old domains' sets.
    for cap in (3, None):
        domains = GenerationConfig(
            config.graph, config.template, config.groups,
            epsilon=config.epsilon, max_domain_values=cap,
        ).build_domains()
        warm.domains = cold.domains = domains
        assert spawn_against_cold(config, warm, cold, limit=40) > 0
