"""Pytest wrapper around the standalone delta-scoring benchmark.

Runs the smoke-mode chain workload (full-size answers, shorter chains)
and enforces the scoring acceptance bar: delta-maintained evaluation
must be at least 2x faster than from-scratch for every answer size
≥ 64, with the fingerprint cache absorbing the sibling repeats. The
bitwise-equality assertions live inside ``run`` itself — it raises if a
single delta-scored triple deviates. The JSON artifact lands in
``benchmarks/results``; the canonical ``BENCH_scoring.json`` at the repo
root is written by running the script directly (as CI does).
"""

import json

from scoring_delta import run


def test_scoring_delta_smoke(results_dir):
    report = run(smoke=True)
    (results_dir / "scoring_delta.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )
    for size, entry in report["chains"]["sizes"].items():
        assert entry["answer_size"] >= 64
        assert entry["speedup"] >= 2.0, f"size {size}: only {entry['speedup']}x"
        assert entry["score_cache_hit_rate"] > 0.3
        assert entry["delta_updates"] > 0
    entry = report["end_to_end"]["rfqgen"]
    assert entry["delta"]["delta_updates"] > 0
    assert entry["delta"]["score_cache_hits"] > 0
    assert entry["delta"]["archive_size"] == entry["scratch"]["archive_size"]
