"""Engine comparison benchmark: bitset vs columnar throughput.

Runs the ablation-matcher workload — a lattice-style sweep of sibling
instances (shared literals, one varying bound) — over dense synthetic
graphs at several sizes and reports instances/sec per engine and size,
and the columnar engine's speedup over the bitset engine (the columnar
core's acceptance metric: CSR support sweeps + compiled literal masks vs
per-candidate row probing). The matcher runs the columnar engine when its
indexes carry a columnar store, so the two arms differ only in
``GraphIndexes(graph, columnar=...)``. Results are written to
``BENCH_matching.json`` at the repository root so the perf trajectory is
tracked in-tree.

Standalone on purpose: it depends on nothing beyond the library and the
standard library. Without numpy the columnar engine falls back to the
bitset propagation loop; the report records ``numpy: false`` and skips
the columnar rows (measuring the fallback would just measure the bitset
engine twice).

Usage::

    PYTHONPATH=src python benchmarks/engine_comparison.py           # full
    PYTHONPATH=src python benchmarks/engine_comparison.py --smoke   # CI

Full mode sweeps ~4k/16k/64k-node graphs. Smoke mode keeps one ≥1k-node
graph and a reduced sweep so the reported speedup is still measured in
the dense-graph regime the columnar engine targets.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

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
from repro.graph.columnar import HAVE_NUMPY
from repro.graph.indexes import GraphIndexes
from repro.matching import SubgraphMatcher
from repro.query import Instantiation, Op, QueryInstance, QueryTemplate

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_FILE = REPO_ROOT / "BENCH_matching.json"

GRAPH_SEED = 7

#: (nodes, xl1 step, xl2 step) per full-mode size tier. Steps thin the
#: instance sweep as graphs grow so each tier stays minutes-bounded.
FULL_SIZES = ((4_000, 4, 25), (16_000, 5, 50), (64_000, 10, 100))
SMOKE_SIZES = ((1_200, 5, 35),)


def dense_graph(num_nodes: int):
    """A dense one-component synthetic graph (~25 out-edges per node)."""
    spec = SyntheticSpec(
        name=f"engine-bench-{num_nodes}",
        nodes=[
            NodePopulation(
                "person",
                num_nodes,
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
                out_degree=UniformInt(15, 35),
                attachment="preferential",
            ),
        ],
    )
    return build_synthetic(spec, scale=1.0, seed=GRAPH_SEED)


def sweep_template():
    """A 3-node pattern with two range variables and one edge variable."""
    return (
        QueryTemplate.builder("engine-bench")
        .node("u0", "person")
        .node("u1", "person")
        .node("u2", "person")
        .fixed_edge("u1", "u0", "knows")
        .fixed_edge("u2", "u1", "knows")
        .edge_var("xe", "u2", "u0", "knows")
        .range_var("xl1", "u1", "yearsOfExp", Op.GE)
        .range_var("xl2", "u2", "score", Op.GE)
        .output("u0")
        .build()
    )


def sibling_workload(template, xe, xl1_values, xl2_values) -> List[QueryInstance]:
    """The lattice-shaped sweep: siblings share all literals but one.

    ``xe = 0`` leaves the optional closing edge off — an acyclic pattern
    whose answer AC-3 alone pins down (propagation-bound, the columnar
    core's target regime). ``xe = 1`` closes the triangle, making the
    per-candidate backtracking search (shared by both engines) the
    dominant cost. The two shapes are benchmarked as separate workloads
    because they measure different parts of the pipeline.
    """
    return [
        QueryInstance(Instantiation(template, {"xe": xe, "xl1": xl1, "xl2": xl2}))
        for xl1 in xl1_values
        for xl2 in xl2_values
    ]


def run_engine(graph, instances, engine: str, repeats: int) -> Dict:
    """Best-of-N wall-clock over the full instance sweep for one engine."""
    indexes = GraphIndexes(graph, columnar=engine == "columnar")
    matcher = SubgraphMatcher(graph, indexes)
    matcher.match(instances[0])  # Warm lazy indexes outside the timed region.
    best = float("inf")
    match_counts = None
    for _ in range(repeats):
        start = time.perf_counter()
        match_counts = [len(matcher.match(instance).matches) for instance in instances]
        best = min(best, time.perf_counter() - start)
    counters = matcher.metrics.counters()
    hits = counters.get("matcher.bitset.literal_pool_hits", 0)
    misses = counters.get("matcher.bitset.literal_pool_misses", 0)
    return {
        "engine": engine,
        "seconds": round(best, 4),
        "instances": len(instances),
        "instances_per_sec": round(len(instances) / best, 2),
        "match_counts": match_counts,
        "literal_pool_hits": hits,
        "literal_pool_misses": misses,
        "literal_pool_hit_rate": round(hits / (hits + misses), 4)
        if hits + misses
        else None,
    }


def _speedup(slow: Optional[Dict], fast: Optional[Dict]) -> Optional[float]:
    if slow is None or fast is None:
        return None
    return round(slow["seconds"] / fast["seconds"], 2)


def run_workload(graph, instances, engines, repeats: int, name: str) -> Dict:
    """One (size, shape) cell: every applicable engine over one sweep."""
    results = {
        engine: run_engine(graph, instances, engine, repeats)
        for engine in engines
    }
    reference = results[engines[0]]["match_counts"]
    for engine in engines[1:]:
        if results[engine]["match_counts"] != reference:
            raise AssertionError(
                f"engines disagree on the {name} workload "
                f"({graph.num_nodes} nodes)"
            )
    for entry in results.values():
        del entry["match_counts"]
    return {
        "instances": len(instances),
        "repeats": repeats,
        "engines": results,
        "speedup_columnar_over_bitset": _speedup(
            results.get("bitset"), results.get("columnar")
        ),
    }


def run_size(num_nodes: int, xl1_step: int, xl2_step: int, repeats: int) -> Dict:
    """One size tier: the acyclic and triangle sweeps, every engine."""
    graph = dense_graph(num_nodes)
    template = sweep_template()
    xl1_values = range(0, 20, xl1_step)
    xl2_values = range(0, 100, xl2_step)

    engines = ["bitset", "columnar"] if HAVE_NUMPY else ["bitset"]

    # The triangle shape is search-bound (cost shared by both engines), so
    # its sweep stays small; the acyclic shape is the propagation benchmark.
    path = sibling_workload(template, 0, xl1_values, xl2_values)
    triangle = sibling_workload(
        template, 1, list(xl1_values)[:2], list(xl2_values)[:2]
    )
    return {
        "graph": {
            "nodes": graph.num_nodes,
            "edges": graph.num_edges,
            "seed": GRAPH_SEED,
        },
        "template": template.name,
        "workloads": {
            "path": run_workload(graph, path, engines, repeats, "path"),
            "triangle": run_workload(
                graph, triangle, engines, repeats, "triangle"
            ),
        },
    }


def run(smoke: bool = False) -> Dict:
    sizes = SMOKE_SIZES if smoke else FULL_SIZES
    repeats = 1 if smoke else 2
    tiers = [
        run_size(num_nodes, xl1_step, xl2_step, repeats)
        for num_nodes, xl1_step, xl2_step in sizes
    ]

    report = {
        "benchmark": "engine_comparison",
        "mode": "smoke" if smoke else "full",
        "numpy": HAVE_NUMPY,
        "sizes": tiers,
    }
    # Flat convenience: the columnar headline from the largest tier where
    # both engines ran.
    for tier in reversed(tiers):
        speedup = tier["workloads"]["path"]["speedup_columnar_over_bitset"]
        if speedup is not None:
            report["columnar_headline"] = {
                "nodes": tier["graph"]["nodes"],
                "workload": "path",
                "speedup_columnar_over_bitset": speedup,
            }
            break
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="reduced sweep for CI smoke runs"
    )
    parser.add_argument(
        "--output", type=Path, default=RESULT_FILE, help="result JSON path"
    )
    args = parser.parse_args(argv)
    report = run(smoke=args.smoke)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    for tier in report["sizes"]:
        graph = tier["graph"]
        print(f"graph: {graph['nodes']} nodes / {graph['edges']} edges")
        for shape, cell in tier["workloads"].items():
            print(
                f"  [{shape}] {cell['instances']} instances "
                f"x{cell['repeats']}"
            )
            for name, entry in cell["engines"].items():
                print(
                    f"    {name:>8}: {entry['seconds']:.3f}s "
                    f"({entry['instances_per_sec']:.1f} instances/sec)"
                )
            speedup = cell["speedup_columnar_over_bitset"]
            if speedup is not None:
                print(f"    speedup_columnar_over_bitset: {speedup}x")
    if report.get("columnar_headline"):
        headline = report["columnar_headline"]
        print(
            f"columnar headline: {headline['speedup_columnar_over_bitset']}x "
            f"over bitset at {headline['nodes']} nodes "
            f"({headline['workload']} workload)"
        )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
