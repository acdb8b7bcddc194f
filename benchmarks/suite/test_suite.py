"""Self-tests of the benchmark suite.

Run with ``PYTHONPATH=src python -m pytest benchmarks/suite -q``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from suite import compare, run
from suite.trace import Tracer
from suite.workloads import WORKLOADS

RUN = Path(run.__file__).resolve()
BENCHMARK = run.ROOT / "BENCHMARK.json"


def _suite(tmp_path: Path, *flags: str):
    out = tmp_path / "suite.json"
    completed = subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--out", str(out), *flags],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout, json.loads(out.read_text())


class TestSmoke:
    def test_every_metric_prints_with_its_unit(self, tmp_path):
        stdout, report = _suite(tmp_path)
        for name in WORKLOADS:
            for metric, unit in run.END_TO_END.items():
                assert any(
                    line.startswith(f"{name} {metric} ") and line.split()[3] == unit
                    for line in stdout.splitlines()
                ), (name, metric)
            assert f"{name} error_rate 0 ratio" in stdout
            assert report["workloads"][name]["failed"] == 0
            assert report["workloads"][name]["correct"]
        last = json.loads(stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0

    def test_traced_run_reports_layers_and_keeps_the_invariant(self, tmp_path):
        stdout, report = _suite(tmp_path, "--trace")
        units = run.per_layer_units()
        for name in WORKLOADS:
            result = report["workloads"][name]
            assert result["trace_invariant"]["invariant_ok"], name
            assert result["missing_hooks"] == []
            assert set(result["metrics"]) == set(units)
            for metric, unit in units.items():
                assert result["metrics"][metric]["unit"] == unit
            assert Path(result["trace_file"]).exists()
        assert report["workloads"]["serve-mix"]["metrics"]["queue.share"]["value"] > 0


class Toy:
    def outer(self, n):
        return sum(self.inner(i) for i in range(n))

    def inner(self, i):
        return i


class TestTracer:
    def test_self_times_add_up_and_missing_hooks_are_tolerated(self):
        hooks = (
            ("gen", f"{__name__}:Toy.outer"),
            ("match", f"{__name__}:Toy.inner"),
            ("match", f"{__name__}:Toy.vanished"),
            ("groups", "repro.no_such_module:function"),
        )
        original = Toy.outer
        tracer = Tracer(hooks)
        tracer.install()
        try:
            toy = Toy()
            toy.outer(3)  # no unit open: not recorded
            tracer.open("op-1")
            assert toy.outer(5) == 10
            tracer.close()
            tracer.open("side-1", kind="side")
            toy.inner(1)
            tracer.close()
        finally:
            tracer.uninstall()
        assert Toy.outer is original
        assert tracer.missing_hooks == [hooks[2][1], hooks[3][1]]
        summary = tracer.summary(ops=1)
        assert summary["invariant_ok"]
        assert summary["layers"]["gen"]["calls_per_op"] == 1
        assert summary["layers"]["match"]["calls_per_op"] == 6
        assert sum(layer["share"] for layer in summary["layers"].values()) == pytest.approx(1.0)

    def test_queue_time_is_the_wait_before_a_unit_became_active(self):
        tracer = Tracer(())
        tracer.open("served", queued=0.5)
        tracer.close(factor=2.0)
        summary = tracer.summary(ops=1)
        assert summary["layers"]["queue"]["self_ms_per_op"] == pytest.approx(500.0)
        assert summary["layers"]["queue"]["share"] > 0.99
        assert summary["invariant_ok"]


def _write_result(path: Path, workload: str, metric: str, value: float,
                  seconds: float = run.DEFAULT_SECONDS) -> Path:
    path.write_text(json.dumps({
        "workload": workload, "trace": False, "seconds": seconds, "smoke": False,
        "metrics": {metric: {"value": value, "unit": "ms"}},
    }))
    return path


class TestComparator:
    BOUNDS = {"latency_p50_ms": {"name": "latency_p50_ms", "unit": "ms",
                                 "better": "lower", "bound": 0.1}}

    def _compare(self, tmp_path, parent, change):
        a = [_write_result(tmp_path / f"a{i}.json", "w", "latency_p50_ms", v)
             for i, v in enumerate(parent)]
        b = [_write_result(tmp_path / f"b{i}.json", "w", "latency_p50_ms", v)
             for i, v in enumerate(change)]
        (row,) = compare.compare(a, b, self.BOUNDS)
        return row["verdict"]

    def test_flags_a_regression(self, tmp_path):
        assert self._compare(tmp_path, [100, 101, 99, 100, 100], [125, 124, 126, 125, 125]) == "regression"

    def test_passes_a_tie(self, tmp_path):
        assert self._compare(tmp_path, [100, 101, 99, 100, 100], [101, 100, 99, 102, 100]) == "ok"

    def test_marks_unresolved_when_the_parent_spread_exceeds_the_bound(self, tmp_path):
        noisy = [70, 100, 130, 85, 115]
        assert self._compare(tmp_path, noisy, [125, 124, 126, 125, 125]) == "unresolved"
        assert self._compare(tmp_path, noisy, [60, 61, 62, 63, 64]) == "ok"

    def test_refuses_runs_of_different_length(self, tmp_path):
        a = [_write_result(tmp_path / "a.json", "w", "latency_p50_ms", 100)]
        b = [_write_result(tmp_path / "b.json", "w", "latency_p50_ms", 100, seconds=5)]
        with pytest.raises(ValueError):
            compare.compare(a, b, self.BOUNDS)
        assert compare.main([str(a[0]), "--", str(b[0])]) == 2


class TestSeeds:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_seeds_change_the_inputs_and_equal_seeds_reproduce_them(self, name):
        def inputs(seed):
            workload = WORKLOADS[name](seed, smoke=True)
            workload.setup()
            return json.dumps([workload.describe_round(i) for i in range(4)], default=str)

        assert inputs(1) == inputs(1)
        assert inputs(1) != inputs(2)


class TestBenchmarkJson:
    def test_declares_what_the_harness_reports(self):
        spec = json.loads(BENCHMARK.read_text())
        assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
        assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
        assert spec["run_seconds"] == run.DEFAULT_SECONDS
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
