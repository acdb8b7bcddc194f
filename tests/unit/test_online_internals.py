"""Unit tests for OnlineQGen's internal helpers (distance, nearest, refill)."""

from collections import deque

import pytest

from repro.core.online import OnlineQGen, OnlineSnapshot
from repro.core.update import EpsilonParetoArchive


class FakePoint:
    def __init__(self, delta, coverage, tag):
        self.delta = delta
        self.coverage = coverage
        self.instance = tag
        self.feasible = True

    def __repr__(self):
        return f"F({self.delta},{self.coverage})"


@pytest.fixture()
def online(small_lki_config):
    return OnlineQGen(small_lki_config, k=3, window=5)


class TestGeometry:
    def test_distance_normalized_symmetric(self, online):
        a = FakePoint(online._delta_scale, 0.0, "a")
        b = FakePoint(0.0, online._coverage_scale, "b")
        d = online._distance(a, b)
        assert d == pytest.approx(2**0.5)
        assert online._distance(b, a) == pytest.approx(d)
        assert online._distance(a, a) == 0.0

    def test_nearest(self, online):
        archive = EpsilonParetoArchive(0.1)
        far = FakePoint(online._delta_scale, 0.0, "far")
        near = FakePoint(0.2, online._coverage_scale, "near")
        archive.offer(far)
        archive.offer(near)
        probe = FakePoint(0.0, online._coverage_scale, "probe")
        assert online._nearest(probe, archive) is near

    def test_nearest_empty_archive(self, online):
        archive = EpsilonParetoArchive(0.1)
        assert online._nearest(FakePoint(1, 1, "x"), archive) is None


class TestRefill:
    def test_refill_admits_cached_points(self, online):
        archive = EpsilonParetoArchive(0.1)
        archive.offer(FakePoint(10.0, 1.0, "kept"))
        cache = deque(
            [(1, FakePoint(1.0, 10.0, "cached-good")), (2, FakePoint(0.1, 0.1, "cached-bad"))]
        )
        online._refill(archive, cache)
        tags = {p.instance for p in archive}
        assert "cached-good" in tags
        # The dominated cached point stays cached (or is dropped), never added.
        assert "cached-bad" not in tags

    def test_refill_respects_k(self, online):
        archive = EpsilonParetoArchive(0.1)
        # Fill to k with an antichain.
        for i in range(online.k):
            archive.offer(FakePoint(10.0 - i, 1.0 + i, f"p{i}"))
        cache = deque([(1, FakePoint(0.5, 50.0, "extra"))])
        online._refill(archive, cache)
        assert len(archive) <= online.k


class TestSnapshotDataclass:
    def test_fields(self):
        snap = OnlineSnapshot(5, 0.2, [], 0.001)
        assert snap.timestamp == 5
        assert snap.epsilon == 0.2
        assert snap.delay_seconds == 0.001


class TestEvaluatorMemoBound:
    def test_bounded_run_keeps_memo_small_and_archive_equal(self, small_lki_config):
        from dataclasses import replace

        from repro.workload.stream import random_instance_stream

        def run(config):
            online = OnlineQGen(config, k=3, window=5)
            stream = list(random_instance_stream(
                config.template, online.lattice.domains, 30, seed=5
            ))
            # The second pass re-evaluates instances the bound evicted.
            result = online.run(stream + stream)
            return online, [
                (p.instance.instantiation.key, p.matches, p.delta, p.coverage)
                for p in result.instances
            ]

        bounded, bounded_front = run(replace(small_lki_config, verifier_max_entries=4))
        unbounded, unbounded_front = run(small_lki_config)
        assert len(bounded.evaluator._evaluated) <= 4
        assert len(unbounded.evaluator._evaluated) > 4
        assert bounded_front == unbounded_front
