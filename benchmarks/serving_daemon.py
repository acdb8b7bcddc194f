"""Serving-daemon soak benchmark: sustained-load latency + shed behavior.

Drives the persistent multi-tenant daemon (:mod:`repro.service.daemon`)
over a dense synthetic graph (~4k nodes, ~70k edges), in two phases:

* **sustained** — hundreds of distinct requests (four templates × an ε
  sweep) from four tenants against a deadline-free SLO mix, on a pool
  of worker threads. Reports throughput and the p50/p90/p99 of the
  daemon's own per-request latency histogram.
* **overload** — the same workload squeezed through tiny per-tenant
  admission queues under an SLO mix with real deadlines, measuring the
  shed rate and the split between queue-full and deadline sheds. Every
  shed answer must be a *valid* empty truncated partial, never an error.

Results are written to ``BENCH_serving.json`` at the repository root as
its ``"daemon"`` section.

Standalone on purpose: CI installs only pytest + hypothesis, so this
script depends on nothing beyond the library and the standard library.

Usage::

    PYTHONPATH=src python benchmarks/serving_daemon.py           # full
    PYTHONPATH=src python benchmarks/serving_daemon.py --smoke   # CI

Smoke mode shrinks the request count (~120) but keeps the graph at full
size and the worker count, so the latency distribution stays
representative.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List

from repro.datasets.synthetic import (
    EdgePopulation,
    GaussInt,
    NodePopulation,
    SyntheticSpec,
    UniformChoice,
    UniformInt,
    ZipfChoice,
    build_synthetic,
)
from repro.groups.groups import groups_from_attribute
from repro.query import Literal, Op, QueryTemplate
from repro.service.daemon import ServingDaemon
from repro.service.requests import GenerationRequest

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_FILE = REPO_ROOT / "BENCH_serving.json"

#: Graph size is NOT reduced in smoke mode, so the latency distribution
#: stays representative.
GRAPH_NODES = 4000
GRAPH_SEED = 11

#: Per-request configuration of every served request.
REQUEST_OPTIONS = dict(
    max_domain_values=3,
    use_template_refinement=False,
)

def serving_graph():
    """A dense one-component synthetic graph (~4k nodes, ~70k edges)."""
    spec = SyntheticSpec(
        name="serving-bench",
        nodes=[
            NodePopulation(
                "person",
                GRAPH_NODES,
                {
                    "yearsOfExp": GaussInt(12, 6, 0, 40),
                    "score": UniformInt(0, 100),
                    "major": UniformChoice(("CS", "EE", "Business", "Design")),
                    "seniority": ZipfChoice(("junior", "mid", "senior", "staff")),
                },
            ),
        ],
        edges=[
            EdgePopulation(
                "person",
                "knows",
                "person",
                out_degree=UniformInt(10, 25),
                attachment="preferential",
            ),
        ],
    )
    return build_synthetic(spec, scale=1.0, seed=GRAPH_SEED)


def serving_groups(graph):
    return groups_from_attribute(
        graph, "major", {"CS": 2, "Business": 2}, label="person"
    )


def _template(name, sel_attr, sel_val, attr1, attr2) -> QueryTemplate:
    """A selective 2-node pattern: recommender above a score/experience bar."""
    return (
        QueryTemplate.builder(name)
        .node("u0", "person")
        .node("u1", "person", Literal(sel_attr, Op.GE, sel_val))
        .fixed_edge("u1", "u0", "knows")
        .range_var("xl1", "u1", attr1, Op.GE)
        .range_var("xl2", "u0", attr2, Op.GE)
        .output("u0")
        .build()
    )


def workload_templates() -> List[QueryTemplate]:
    """Four templates sharing attributes, so literal masks recur across
    requests the way a real workload's predicates do."""
    return [
        _template("t1", "score", 92, "yearsOfExp", "score"),
        _template("t2", "score", 94, "score", "yearsOfExp"),
        _template("t3", "yearsOfExp", 26, "yearsOfExp", "yearsOfExp"),
        _template("t4", "yearsOfExp", 28, "score", "score"),
    ]


WORKERS = 4
TENANTS = ("alice", "bob", "carol", "dave")

#: Deadline-free class mix for the sustained phase (pure serving cost);
#: the overload phase swaps in the deadline-carrying classes.
SUSTAINED_SLOS = (None, "batch")
OVERLOAD_SLOS = ("interactive", "standard", "batch", None)


def build_requests(count: int, slos) -> List[GenerationRequest]:
    """``count`` distinct requests: template × unique ε, tenants and SLO
    classes assigned round-robin (distinct ε defeats dedup, so every
    request costs real work)."""
    templates = workload_templates()
    options = dict(REQUEST_OPTIONS)
    requests = []
    for i in range(count):
        requests.append(
            GenerationRequest(
                request_id=f"r{i}",
                template=templates[i % len(templates)],
                epsilon=round(0.08 + 0.4 * i / count, 6),
                client=TENANTS[i % len(TENANTS)],
                slo=slos[i % len(slos)],
                options=options,
            )
        )
    return requests


def quantiles(daemon: ServingDaemon, name: str) -> Dict[str, float]:
    histogram = daemon.metrics.histogram(name)
    return {
        "p50_ms": round(histogram.quantile(0.5) * 1000, 3),
        "p90_ms": round(histogram.quantile(0.9) * 1000, 3),
        "p99_ms": round(histogram.quantile(0.99) * 1000, 3),
    }


def run_sustained(graph, groups, count: int) -> Dict:
    daemon = ServingDaemon(
        graph, groups, workers=WORKERS,
        queue_depth=count,  # admission never the bottleneck here
    )
    requests = build_requests(count, SUSTAINED_SLOS)
    start = time.perf_counter()
    outcomes = daemon.serve(requests)
    elapsed = time.perf_counter() - start
    daemon.shutdown()
    failed = [o for o in outcomes if not o.ok]
    if failed:
        raise AssertionError(f"sustained phase failed: {failed[0].error}")
    metrics = daemon.metrics
    return {
        "requests": len(requests),
        "workers": WORKERS,
        "tenants": len(TENANTS),
        "seconds": round(elapsed, 4),
        "throughput_rps": round(len(requests) / elapsed, 2),
        "completed": metrics.value("service.daemon.completed"),
        "deduplicated": metrics.value("service.daemon.deduplicated"),
        "latency": quantiles(daemon, "service.daemon.request_seconds"),
        "queue_wait": quantiles(daemon, "service.daemon.queue_wait_seconds"),
    }


def run_overload(graph, groups, count: int, queue_depth: int) -> Dict:
    daemon = ServingDaemon(
        graph, groups, workers=WORKERS,
        queue_depth=queue_depth,
    )
    requests = build_requests(count, OVERLOAD_SLOS)
    start = time.perf_counter()
    outcomes = daemon.serve(requests)
    elapsed = time.perf_counter() - start
    daemon.shutdown()
    shed = [o for o in outcomes if o.shed]
    errors = [o for o in outcomes if not o.ok]
    if errors:
        raise AssertionError(
            f"overload must shed, not error: {errors[0].error}"
        )
    for outcome in shed:
        if not (outcome.result.truncated and outcome.result.instances == []):
            raise AssertionError("shed answer is not an empty truncated partial")
    metrics = daemon.metrics
    return {
        "requests": len(requests),
        "queue_depth": queue_depth,
        "seconds": round(elapsed, 4),
        "shed": len(shed),
        "shed_rate": round(len(shed) / len(requests), 4),
        "shed_queue_full": metrics.value("service.admission.shed.queue_full"),
        "shed_deadline": metrics.value("service.admission.shed.deadline"),
        "completed": metrics.value("service.daemon.completed"),
    }


def run(smoke: bool = False) -> Dict:
    graph = serving_graph()
    groups = serving_groups(graph)
    count = 120 if smoke else 600
    section = {
        "benchmark": "serving_daemon",
        "mode": "smoke" if smoke else "full",
        "graph": {"nodes": graph.num_nodes, "edges": graph.num_edges},
        "sustained": run_sustained(graph, groups, count),
        "overload": run_overload(
            graph, groups, count, queue_depth=max(2, count // (8 * len(TENANTS)))
        ),
    }
    return section


def write_results(section: Dict, path: Path) -> None:
    """Write the serving benchmark artifact (its ``"daemon"`` section)."""
    path.write_text(json.dumps({"daemon": section}, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="reduced sweep for CI smoke runs"
    )
    parser.add_argument(
        "--output", type=Path, default=RESULT_FILE, help="result JSON path"
    )
    args = parser.parse_args(argv)
    section = run(smoke=args.smoke)
    write_results(section, args.output)
    sustained = section["sustained"]
    overload = section["overload"]
    print(
        f"sustained: {sustained['requests']} requests on "
        f"{sustained['workers']} workers in {sustained['seconds']}s "
        f"({sustained['throughput_rps']} rps)"
    )
    print(
        f"  latency p50/p90/p99: {sustained['latency']['p50_ms']} / "
        f"{sustained['latency']['p90_ms']} / "
        f"{sustained['latency']['p99_ms']} ms"
    )
    print(
        f"overload: queue depth {overload['queue_depth']} -> shed rate "
        f"{overload['shed_rate']} ({overload['shed_queue_full']} queue-full, "
        f"{overload['shed_deadline']} deadline)"
    )
    print(f"wrote daemon section into {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
