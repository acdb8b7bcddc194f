"""Integration tests for ParallelQGen (the paper's future-work topic)."""

import pytest

from repro.core import EnumQGen
from repro.core.parallel import ParallelQGen, _fork_available


def objective_set(result):
    return sorted((round(p.delta, 9), round(p.coverage, 9)) for p in result.instances)


class TestParallelQGen:
    def test_serial_fallback_matches_enum(self, talent_config):
        enum = EnumQGen(talent_config).run()
        parallel = ParallelQGen(talent_config, workers=1).run()
        assert objective_set(parallel) == objective_set(enum)

    @pytest.mark.skipif(not _fork_available(), reason="requires fork start method")
    def test_parallel_matches_enum_toy(self, talent_config):
        enum = EnumQGen(talent_config).run()
        parallel = ParallelQGen(talent_config, workers=2, batch_size=4).run()
        assert objective_set(parallel) == objective_set(enum)

    @pytest.mark.skipif(not _fork_available(), reason="requires fork start method")
    def test_parallel_matches_enum_lki(self, small_lki_config):
        enum = EnumQGen(small_lki_config).run()
        parallel = ParallelQGen(small_lki_config, workers=3, batch_size=8).run()
        assert objective_set(parallel) == objective_set(enum)

    @pytest.mark.skipif(not _fork_available(), reason="requires fork start method")
    def test_batch_size_irrelevant_to_result(self, talent_config):
        small = ParallelQGen(talent_config, workers=2, batch_size=1).run()
        large = ParallelQGen(talent_config, workers=2, batch_size=1000).run()
        assert objective_set(small) == objective_set(large)

    def test_stats_populated(self, talent_config):
        result = ParallelQGen(talent_config, workers=1).run()
        assert result.stats.generated > 0
        assert result.stats.verified == result.stats.generated
        assert result.stats.feasible > 0

    def test_serial_run_publishes_counters(self, talent_config):
        algo = ParallelQGen(talent_config, workers=1)
        algo.run()
        counters = algo.metrics.counters()
        assert counters.get("gen.parallelqgen.generated", 0) > 0
        assert counters.get("gen.parallelqgen.feasible", 0) > 0
        assert counters.get("matcher.match_calls", 0) > 0
        assert algo.metrics.spans, "parallel.run trace span missing"

    @pytest.mark.skipif(not _fork_available(), reason="requires fork start method")
    def test_parallel_run_aggregates_worker_counters(self, talent_config):
        """Worker-side matcher/evaluator work must land in the parent
        registry, matching the serial fallback's counter values."""
        serial = ParallelQGen(talent_config, workers=1)
        serial.run()
        forked = ParallelQGen(talent_config, workers=2, batch_size=4)
        forked.run()
        serial_counters = serial.metrics.counters()
        forked_counters = forked.metrics.counters()
        for name in (
            "matcher.match_calls",
            "matcher.backtrack_calls",
            "matcher.ac_removed",
            "evaluator.cache_misses",
        ):
            assert forked_counters.get(name) == serial_counters.get(name), name
        assert forked_counters.get("gen.parallelqgen.verified") == serial_counters.get(
            "gen.parallelqgen.verified"
        )
