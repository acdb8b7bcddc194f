"""Pytest wrapper around the standalone engine-comparison benchmark.

Runs the smoke-mode sweep (one dense ≥1k-node graph, reduced instance
count) and enforces the engine-comparison acceptance bar on the
propagation-bound ``path`` workload: the literal-pool cache must be
doing real work, and — when numpy is available — the columnar engine must be
reported and at least hold the bitset engine's pace on the smoke tier
(the ≥3× columnar bar applies to the full-mode ≥12k-node tiers, which
CI uploads but does not gate on). The search-bound ``triangle``
workload is only checked for presence and engine agreement — its cost
is the shared backtracking search, so no speedup floor applies. The
JSON artifact lands in ``benchmarks/results`` next to the figure
tables; the canonical ``BENCH_matching.json`` at the repo root is
written by running the script directly (as CI does).
"""

import json

from engine_comparison import run

from repro.graph.columnar import HAVE_NUMPY


def test_engine_comparison_smoke(results_dir):
    report = run(smoke=True)
    (results_dir / "engine_comparison.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )
    assert report["numpy"] == HAVE_NUMPY
    assert len(report["sizes"]) == 1
    tier = report["sizes"][0]
    assert tier["graph"]["nodes"] >= 1000
    path = tier["workloads"]["path"]
    triangle = tier["workloads"]["triangle"]
    assert triangle["instances"] >= 1
    bitset = path["engines"]["bitset"]
    assert bitset["literal_pool_hits"] > 0
    assert bitset["literal_pool_hit_rate"] > 0.5
    if HAVE_NUMPY:
        assert "columnar" in path["engines"]
        assert "columnar" in triangle["engines"]
        assert path["speedup_columnar_over_bitset"] is not None
        # Smoke tier is small; the vectorized sweeps must at least not
        # regress throughput (the 3x bar is a full-mode, ≥12k property).
        assert path["speedup_columnar_over_bitset"] >= 0.9
        headline = report["columnar_headline"]
        assert headline["nodes"] == tier["graph"]["nodes"]
        assert headline["workload"] == "path"
    else:
        assert "columnar" not in path["engines"]
