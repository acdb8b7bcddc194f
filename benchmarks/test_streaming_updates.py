"""Pytest wrapper around the standalone streaming-updates benchmark.

Runs the smoke-mode stream (smaller graph, shorter delta stream) and
enforces the streaming acceptance bar: incremental archive maintenance
must beat the per-update full rebuild by at least 2x at
sub-1% node churn (the full-size run reported in ``BENCH_streaming.json``
clears 5x). The byte-identity assertions live inside ``run`` itself — it
raises if the incremental archive deviates from the cold rebuild at any
step. The JSON artifact lands in ``benchmarks/results``; the canonical
``BENCH_streaming.json`` at the repo root is written by running the
script directly (as CI does).
"""

import json

from streaming_updates import run


def test_streaming_updates_smoke(results_dir):
    report = run(smoke=True)
    (results_dir / "streaming_updates.json").write_text(
        json.dumps(report, indent=2) + "\n"
    )
    entry = report["stream"]
    assert entry["mean_touched_fraction"] < 0.01
    assert entry["speedup"] >= 2.0, f"only {entry['speedup']}x"
    counters = entry["counters"]
    assert counters["streaming.deltas_applied"] == entry["updates"]
    # Locality at work: most per-entry rechecks are skipped outright.
    assert counters["streaming.instances_skipped"] > 0
    # Nothing fell back to the cold path in a clean run.
    assert counters["streaming.fault_recoveries"] == 0
    assert counters["streaming.budget_fallbacks"] == 0
