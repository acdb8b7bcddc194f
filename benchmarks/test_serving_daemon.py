"""Pytest wrapper around the standalone serving-daemon soak benchmark.

Runs the smoke-mode soak (full-size dense graph, ~120 requests on a
pool of worker threads) and enforces the daemon acceptance bar: every
sustained-phase request completes, the latency histogram yields real
quantiles, and overload degrades by shedding valid truncated partials —
never by erroring. The JSON artifact lands in ``benchmarks/results``;
the canonical ``BENCH_serving.json`` is written by running the script
directly (as CI does).
"""

import json

from serving_daemon import run


def test_serving_daemon_smoke(results_dir):
    section = run(smoke=True)
    (results_dir / "serving_daemon.json").write_text(
        json.dumps(section, indent=2) + "\n"
    )
    sustained = section["sustained"]
    assert sustained["completed"] == sustained["requests"] >= 120
    latency = sustained["latency"]
    assert 0 < latency["p50_ms"] <= latency["p90_ms"] <= latency["p99_ms"]
    assert sustained["throughput_rps"] > 0
    overload = section["overload"]
    # Tiny queues must shed — and only shed, never error (run() asserts
    # every shed answer is an empty truncated partial internally).
    assert overload["shed"] > 0
    assert 0 < overload["shed_rate"] < 1
    assert overload["shed"] == (
        overload["shed_queue_full"] + overload["shed_deadline"]
    )
    assert overload["completed"] + overload["shed"] == overload["requests"]
