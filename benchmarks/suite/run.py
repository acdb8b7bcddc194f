"""End-to-end benchmark: four workloads over generation, serving and streaming.

Usage (from the repository root)::

    python benchmarks/suite/run.py                      # all four workloads
    python benchmarks/suite/run.py --workload paper-small --seed 3
    python benchmarks/suite/run.py --trace              # per-layer numbers
    python benchmarks/suite/run.py --smoke              # tiny, for tests
    python benchmarks/suite/run.py --record-golden      # refresh goldens

Without ``--workload`` every workload runs in its own fresh subprocess,
one after another. With ``--workload`` the workload runs in this process
and the last line printed is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Every metric is also printed
as ``<workload> <metric> <value> <unit>``.

An untraced run reports the end-to-end metrics; ``--trace`` reports the
per-layer metrics instead. Every reported time is scaled to a reference
interpreter speed measured by :func:`speed_probe` (see ``README.md``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

# One process, one thread of numeric work: numpy's BLAS pools are
# capped before anything can import numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
sys.path[:0] = [str(SRC), str(HERE.parent)]

from suite.trace import LAYERS, NullTracer, Tracer  # noqa: E402  (after the path set-up)

DEFAULT_SEED = 0
DEFAULT_SECONDS = 18
#: Probe time that defines the reference speed every time is scaled to.
REFERENCE_PROBE_SECONDS = 0.004
#: A probe younger than this still describes the current speed.
PROBE_REUSE_SECONDS = 0.05
#: Interval between speed probes inside a timed block.
SAMPLE_INTERVAL = 0.05
#: Set-up is repeated until this many seconds were spent (at least
#: SETUP_MIN_REPS, at most SETUP_MAX_REPS times); setup_s is the median.
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_TARGET_SECONDS = 3, 7, 1.0
SLICES = 5

#: End-to-end metrics: name → unit.
END_TO_END = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "throughput_ops": "ops/s",
    "peak_rss_mb": "MB",
}

#: Ratios read from the program's own counters: name → unit.
RATIOS = {
    "evaluator.memo_hit_rate": "ratio",
    "verify.incremental_rate": "ratio",
    "matcher.backtracks_per_match": "count",
    "spawn.ball_cache_hit_rate": "ratio",
    "gen.prune_rate": "ratio",
    "gen.verified_per_op": "count",
    "archive.accept_rate": "ratio",
    "scoring.cache_hit_rate": "ratio",
    "literal_pool.hit_rate": "ratio",
    "service.dedup_rate": "ratio",
    "queue.wait_p50_ms": "ms",
    "stream.full_rescore_rate": "ratio",
    "stream.membership_moves_per_update": "count",
    "tracing.overhead": "ratio",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric a traced run reports: name → unit."""
    units: Dict[str, str] = {}
    for layer in LAYERS:
        # queue and unattributed are derived times, not calls.
        if layer not in ("queue", "unattributed"):
            units[f"{layer}.calls_per_op"] = "count"
        units[f"{layer}.self_ms_per_op"] = "ms"
        units[f"{layer}.share"] = "ratio"
    units.update(RATIOS)
    return units


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def split_slices(rounds: list, count: int = SLICES) -> List[list]:
    """``rounds`` split into ``count`` consecutive, near-equal slices."""
    k = min(count, len(rounds))
    bounds = [round(i * len(rounds) / k) for i in range(k + 1)]
    return [rounds[bounds[i]:bounds[i + 1]] for i in range(k)]


def end_to_end(rounds: list, setup_times: List[float], tail_pct: int) -> Dict[str, float]:
    """The end-to-end metrics of one untraced run (see README)."""
    latencies = [op.latency for r in rounds for op in r.ops]
    p50s, rates = [], []
    for chunk in split_slices(rounds):
        ops = [op for r in chunk for op in r.ops]
        p50s.append(statistics.median(op.latency for op in ops))
        rates.append(len(ops) / sum(r.wall for r in chunk))
    return {
        "setup_s": statistics.median(setup_times),
        "latency_p50_ms": 1000.0 * statistics.median(p50s),
        "latency_tail_ms": 1000.0 * percentile(latencies, tail_pct),
        "throughput_ops": statistics.median(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def counter_ratios(counters: Dict[str, int], ops: list) -> Dict[str, float]:
    """Work ratios from counter deltas over the measured rounds."""
    c = counters.get

    def gen_total(suffix: str) -> int:
        return sum(
            value for name, value in counters.items()
            if name.startswith("gen.") and name.count(".") == 2
            and name.endswith("." + suffix)
        )

    waits = [op.queued for op in ops if op.queued is not None]
    pool_hits = c("matcher.bitset.literal_pool_hits", 0) + c("service.workload_pool.hits", 0)
    pool_misses = c("matcher.bitset.literal_pool_misses", 0) + c("service.workload_pool.misses", 0)
    ball_hits = c("lattice.ball_cache_hits", 0)
    deltas = c("streaming.deltas_applied", 0)
    return {
        "evaluator.memo_hit_rate": _ratio(c("evaluator.memo_hits", 0), c("evaluator.eval_calls", 0)),
        "verify.incremental_rate": _ratio(c("evaluator.incremental", 0), c("evaluator.cache_misses", 0)),
        "matcher.backtracks_per_match": _ratio(
            c("matcher.backtrack_calls", 0),
            c("matcher.match_calls", 0) + c("matcher.match_outputs_calls", 0),
        ),
        "spawn.ball_cache_hit_rate": _ratio(ball_hits, ball_hits + c("lattice.ball_cache_misses", 0)),
        "gen.prune_rate": _ratio(gen_total("pruned"), gen_total("generated")),
        "gen.verified_per_op": _ratio(c("evaluator.cache_misses", 0), len(ops)),
        "archive.accept_rate": _ratio(gen_total("archive_updates"), gen_total("archive_offers")),
        "scoring.cache_hit_rate": _ratio(c("scoring.cache_hits", 0), c("scoring.score_calls", 0)),
        "literal_pool.hit_rate": _ratio(pool_hits, pool_hits + pool_misses),
        "service.dedup_rate": _ratio(c("service.deduplicated", 0), c("service.requests", 0)),
        "queue.wait_p50_ms": 1000.0 * statistics.median(waits) if waits else 0.0,
        "stream.full_rescore_rate": _ratio(c("streaming.full_rescores", 0), deltas),
        "stream.membership_moves_per_update": _ratio(c("streaming.membership_moves", 0), deltas),
    }


# ---------------------------------------------------------------------- #
# One workload, in this process
# ---------------------------------------------------------------------- #


def speed_probe() -> int:
    """Fixed pure-Python work that does not touch the library under test.

    Timing it next to each operation measures how fast the interpreter
    currently runs on the host.
    """
    table: Dict[int, int] = {}
    members = set()
    rows = []
    acc = 0.0
    for i in range(4000):
        key = (i * 2654435761) % 4093
        table[key] = table.get(key, 0) + 1
        if key & 1:
            members.add(key)
        rows.append((key, i, str(key)))
        acc += (i % 7) * 0.5
    rows.sort()
    chunks = [frozenset(k for k, _, _ in rows[j:j + 50]) for j in range(0, len(rows), 50)]
    return len(members) + len(table) + int(acc) + sum(len(c) for c in chunks)


def probe_seconds() -> float:
    """How long one :func:`speed_probe` takes right now.

    The garbage collector is off during the probe: its allocations would
    otherwise trigger collections over the library's heap, and a probe
    that paid for one would both steal that time from the block and
    shrink the block's speed factor. The probe's objects are freed by
    reference counting when it returns, so it leaves the collector's
    allocation counts where they were.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        speed_probe()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedSampler:
    """Probes the interpreter's speed every SAMPLE_INTERVAL inside blocks.

    On a shared virtual machine the speed can drift within a single
    operation, so probes only at its boundaries misjudge long
    operations. SIGALRM runs the probe between bytecodes of the main
    thread. The time the probes take accumulates in ``stolen``, and
    :meth:`clock` leaves it out, so every duration measured with it
    (blocks and trace spans alike) excludes the probes.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.stolen = 0.0
        self._active = False

    def clock(self) -> float:
        """``perf_counter()`` minus the time the probes took."""
        return time.perf_counter() - self.stolen

    def _handler(self, signum, frame) -> None:
        if self._active:
            took = probe_seconds()
            self.samples.append(took)
            self.stolen += took

    @contextlib.contextmanager
    def sampling(self):
        """Probe periodically while the block runs."""
        self._active = True
        previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            self._active = False
            signal.signal(signal.SIGALRM, previous)


class Timing:
    """One timed block: probe-free seconds, speed factor, scaled seconds."""

    raw = 0.0
    factor = 1.0
    seconds = 0.0
    end = 0.0  # the sampler's clock when the block ended
    after = 0.0  # the probe time taken right after it


@contextlib.contextmanager
def scaled_block(sampler: SpeedSampler, before: float):
    """Time the block and scale it to the reference speed.

    ``before`` is a probe time taken just before the block; another is
    taken after it and more inside it. The block's speed factor is
    ``REFERENCE_PROBE_SECONDS / mean(probes)``. Yields a :class:`Timing`
    that is filled in when the block ends.
    """
    timing = Timing()
    first = len(sampler.samples)
    try:
        with sampler.sampling():
            start = sampler.clock()
            try:
                yield timing
            finally:
                timing.end = sampler.clock()
    finally:
        timing.after = probe_seconds()
        probes = [before, timing.after] + sampler.samples[first:]
        timing.raw = timing.end - start
        timing.factor = REFERENCE_PROBE_SECONDS / statistics.mean(probes)
        timing.seconds = timing.raw * timing.factor


class Round:
    def __init__(self, ops, wall: float, raw: float, traced: bool) -> None:
        self.ops = ops
        self.wall = wall  # speed-scaled seconds of timed work
        self.raw = raw  # wall-clock seconds of the same work, probes excluded
        self.traced = traced


class RunContext:
    """What a workload's round sees of the harness.

    Only the blocks a workload wraps in :meth:`timed` are timed;
    correctness checks and input generation run between them.
    """

    def __init__(self, trace: bool, tracer, sampler: SpeedSampler) -> None:
        self.trace = trace
        self.tracer = tracer
        self.sampler = sampler
        self.timed_seconds = 0.0
        self.raw_seconds = 0.0
        self._probe = (0.0, float("-inf"))  # (seconds, taken at)

    @contextlib.contextmanager
    def timed(self, unit: str, kind: str = "op", queued: float = 0.0):
        """Time the block as trace unit ``unit``; yields its :class:`Timing`."""
        seconds, taken = self._probe
        if time.perf_counter() - taken >= PROBE_REUSE_SECONDS:
            seconds = probe_seconds()
        self.tracer.open(unit, kind, queued)
        try:
            with scaled_block(self.sampler, seconds) as timing:
                yield timing
        finally:
            self.tracer.close(end=timing.end, factor=timing.factor)
            self._probe = (timing.after, time.perf_counter())
            self.timed_seconds += timing.seconds
            self.raw_seconds += timing.raw


def environment() -> Dict[str, object]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def timed_setups(workload, smoke: bool, sampler: SpeedSampler) -> List[float]:
    """Set the workload up repeatedly from scratch; keep the last one.

    Returns each set-up's speed-scaled duration.
    """
    times: List[float] = []
    while True:
        gc.collect()
        with scaled_block(sampler, probe_seconds()) as timing:
            workload.setup()
        times.append(timing.seconds)
        if smoke or len(times) >= SETUP_MAX_REPS or (
            len(times) >= SETUP_MIN_REPS and sum(times) >= SETUP_TARGET_SECONDS
        ):
            return times
        workload.teardown()


def measure(workload, seconds: float, trace: bool, smoke: bool, tracer,
            sampler: SpeedSampler) -> List[Round]:
    """Run whole rounds until about ``seconds`` of timed work is done.

    A traced run alternates untraced and traced rounds, so it measures
    the tracing overhead on the same workload state.
    """
    null = NullTracer()
    min_rounds = (4 if trace else 3) if not smoke else (2 if trace else 1)
    rounds: List[Round] = []
    elapsed = 0.0
    while True:
        traced = trace and len(rounds) % 2 == 1
        ctx = RunContext(trace, tracer if traced else null, sampler)
        if traced:
            tracer.install()
        try:
            ops = workload.run_round(len(rounds), ctx)
        finally:
            if traced:
                tracer.uninstall()
        rounds.append(Round(ops, ctx.timed_seconds, ctx.raw_seconds, traced))
        elapsed += ctx.timed_seconds
        if len(rounds) >= min_rounds and (
            smoke or elapsed + 0.5 * elapsed / len(rounds) >= seconds
        ):
            return rounds


def run_workload(args) -> int:
    from suite import gate
    from suite.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    name = workload.name
    out = args.out or OUT_DIR / f"{name}-s{args.seed}{'-trace' if args.trace else ''}.json"
    sampler = SpeedSampler()
    setup_times = timed_setups(workload, args.smoke, sampler)
    tracer = Tracer(clock=sampler.clock) if args.trace else None
    before = workload.counters() if args.trace else {}
    rounds = measure(workload, args.seconds, bool(args.trace), args.smoke, tracer, sampler)
    ops = [op for r in rounds for op in r.ops]
    failed = [op for op in ops if not op.ok]
    digests = {op.key: op.digest for op in ops if op.digest is not None}
    report: Dict[str, object] = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "environment": environment(),
        "setup_runs": setup_times,
        "rounds": [
            {"wall": r.wall, "raw": r.raw, "traced": r.traced,
             "ops": [[op.key, op.label, op.latency, op.factor] for op in r.ops]}
            for r in rounds
        ],
        "attempted": len(ops),
        "failed": len(failed),
        "failures": [[op.key, op.error] for op in failed[:20]],
        "front_digest": gate.combined_digest(digests),
    }
    correct = not failed

    golden_status = None
    if args.record_golden and not args.smoke:
        gate.record_golden(name, args.seed, digests)
        golden_status = "recorded"
    elif args.seed == DEFAULT_SEED and not args.smoke:
        golden = gate.load_golden(name)
        if golden is None:
            golden_status = "missing"
        else:
            mismatched = gate.compare_golden(digests, golden)
            golden_status = "ok" if not mismatched else f"mismatch: {mismatched[:5]}"
            correct = correct and not mismatched
    report["golden"] = golden_status

    if args.trace:
        counters = workload.counters()
        delta = {k: v - before.get(k, 0) for k, v in counters.items()}
        traced_ops = sum(len(r.ops) for r in rounds if r.traced)
        summary = tracer.summary(traced_ops)
        metrics = {}
        for layer, values in summary["layers"].items():
            for stat, value in values.items():
                metrics[f"{layer}.{stat}"] = value
        metrics.update(counter_ratios(delta, ops))
        rates = {
            traced: statistics.median(
                len(r.ops) / r.wall for r in rounds if r.traced == traced
            )
            for traced in (False, True)
        }
        metrics["tracing.overhead"] = rates[True] / rates[False] - 1.0
        units = per_layer_units()
        metrics = {key: metrics.get(key, 0.0) for key in units}
        report["trace_invariant"] = {
            key: summary[key]
            for key in ("total_seconds", "accounted_seconds", "invariant_gap", "invariant_ok", "spans")
        }
        report["missing_hooks"] = summary["missing_hooks"]
        correct = correct and summary["invariant_ok"]
        trace_path = out.with_name(f"trace-{name}.jsonl")
        tracer.write(trace_path)
        report["trace_file"] = str(trace_path)
    else:
        metrics = end_to_end(rounds, setup_times, workload.tail_pct)
        units = END_TO_END
    report["correct"] = correct
    report["metrics"] = {key: {"value": metrics[key], "unit": units[key]} for key in units}
    report["tail_pct"] = workload.tail_pct

    for key, unit in units.items():
        extra = ""
        if key == "latency_tail_ms":
            extra = f"  (p{workload.tail_pct} of {len(ops)} ops)"
        print(f"{name} {key} {metrics[key]:.6g} {unit}{extra}")
    print(f"{name} error_rate {_ratio(len(failed), len(ops)):.6g} ratio  ({len(failed)}/{len(ops)} ops failed)")
    for key, error in report["failures"]:
        print(f"{name} FAILED {key}: {error}")
    if args.trace:
        inv = report["trace_invariant"]
        print(f"{name} trace invariant gap {inv['invariant_gap']:.4%} "
              f"({'ok' if inv['invariant_ok'] else 'VIOLATED'}), {inv['spans']} spans")
        if report["missing_hooks"]:
            print(f"{name} missing_hooks {' '.join(report['missing_hooks'])}")
    print(f"{name} front_digest {report['front_digest']} ({len(digests)} ops)"
          + (f" golden {golden_status}" if golden_status else ""))

    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": report["metrics"],
    }))
    return 0


# ---------------------------------------------------------------------- #
# The whole suite, one subprocess per workload
# ---------------------------------------------------------------------- #


def run_suite(args) -> int:
    from suite.workloads import WORKLOADS

    tag = f"s{args.seed}{'-trace' if args.trace else ''}{'-smoke' if args.smoke else ''}"
    out = args.out or OUT_DIR / f"suite-{tag}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    report = {"seed": args.seed, "trace": bool(args.trace), "smoke": args.smoke,
              "environment": environment(), "workloads": {}}
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        part = out.parent / f"{name}-{tag}.json"
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--out", str(part),
        ]
        command += ["--trace"] * bool(args.trace) + ["--smoke"] * args.smoke
        command += ["--record-golden"] * args.record_golden
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = completed.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if completed.returncode != 0 or not lines:
            print(f"{name} exited with code {completed.returncode}", file=sys.stderr)
            return 1
        result = json.loads(part.read_text())
        report["workloads"][name] = result
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for key, value in result["metrics"].items():
            metrics[f"{name}.{key}"] = value
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    # BENCHMARK.json's command is run as `--workload W --seed N --seconds S
    # --trace 0|1`. compare.py refuses to mix results measured with
    # different --seconds.
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="timed work per workload in whole rounds "
                             "(default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1), help="report per-layer metrics "
                                             "(bare --trace or --trace 1)")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one or two rounds")
    parser.add_argument("--out", type=Path, help="result JSON path")
    parser.add_argument("--record-golden", action="store_true",
                        help="store this run's front digests as the goldens")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the library from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"repro imported from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_suite(args)
    from suite.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
