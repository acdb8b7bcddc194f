"""Scoring benchmark: from-scratch vs delta-maintained (δ, f) evaluation.

Replays lattice-shaped answer-set chains — each answer differing from its
parent by a few nodes, with sibling repeats (distinct instances sharing
one answer set, exactly what refinement lattices produce) — over a dense
synthetic graph, and times the quality-evaluation phase three ways:

* ``scratch`` — ``DiversityMeasure.of`` + ``CoverageMeasure.of`` +
  ``is_feasible`` per answer (what every generator did before the
  scoring subsystem);
* ``delta`` — ``ScoreEngine.score(answer, parent)`` with state
  maintenance along the chain and the answer-fingerprint LRU.

Every delta-scored triple is asserted **bitwise equal** to the
from-scratch one before any timing is reported. A second section runs
RfQGen end-to-end on a small LKI bundle with the knob on and off,
asserting archive equality and reporting wall-clock.

Results land in ``BENCH_scoring.json`` at the repository root.

Usage::

    PYTHONPATH=src python benchmarks/scoring_delta.py           # full
    PYTHONPATH=src python benchmarks/scoring_delta.py --smoke   # CI
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Tuple

from repro.core.config import GenerationConfig
from repro.core.measures import CoverageMeasure, DiversityMeasure
from repro.core.rfqgen import RfQGen
from repro.datasets import lki_bundle
from repro.datasets.synthetic import (
    GaussInt,
    NodePopulation,
    SyntheticSpec,
    UniformChoice,
    UniformInt,
    ZipfChoice,
    build_synthetic,
)
from repro.groups.groups import GroupSet, NodeGroup
from repro.obs.registry import MetricsRegistry
from repro.scoring import ScoreEngine

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_FILE = REPO_ROOT / "BENCH_scoring.json"

#: Graph size is NOT reduced in smoke mode — delta scoring's advantage is
#: an answer-size property, so the chains must stay at full size.
GRAPH_NODES = 1200
GRAPH_SEED = 11

#: Answer-set sizes for the chain workload (|q(G)| at the chain root).
ANSWER_SIZES = (64, 128, 256, 512)

#: Each chain step removes this many nodes (lattice refinement shrinks
#: answers); siblings repeat the same answer under another instantiation.
STEP_REMOVALS = (1, 2, 3, 4)
SIBLINGS_PER_STEP = 2


def attribute_graph():
    """A dense-attribute synthetic graph (no edges — scoring is answer-side)."""
    spec = SyntheticSpec(
        name="scoring-bench",
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
        edges=[],
    )
    return build_synthetic(spec, scale=1.0, seed=GRAPH_SEED)


def benchmark_groups(num_nodes: int) -> GroupSet:
    """Four disjoint groups striping the id space, c_i = 8 each."""
    return GroupSet(
        [
            NodeGroup(f"g{k}", frozenset(range(k, num_nodes, 4)), 8)
            for k in range(4)
        ]
    )


def answer_chain(size: int, steps: int) -> List[Tuple[frozenset, frozenset]]:
    """(answer, parent) pairs of one refinement chain with sibling repeats.

    Deterministic: node ids are drawn with a fixed multiplicative hash so
    every run replays the identical workload.
    """
    universe = sorted((i * 2654435761 + size) % GRAPH_NODES for i in range(size * 2))
    answer = frozenset(dict.fromkeys(universe))  # dedup, keep ≥ size nodes
    pairs: List[Tuple[frozenset, frozenset]] = [(answer, None)]
    for step in range(steps):
        ordered = sorted(answer)
        k = STEP_REMOVALS[step % len(STEP_REMOVALS)]
        removed = {ordered[(step * 7 + j * 13) % len(ordered)] for j in range(k)}
        child = frozenset(answer - removed)
        if len(child) < 2:
            break
        for _ in range(SIBLINGS_PER_STEP):
            pairs.append((child, answer))
        answer = child
    return pairs


def time_scratch(diversity, coverage, pairs, repeats: int):
    """From-scratch evaluation of every (answer, parent) pair."""
    best = float("inf")
    triples = None
    for _ in range(repeats):
        start = time.perf_counter()
        triples = [
            (diversity.of(answer), coverage.of(answer), coverage.is_feasible(answer))
            for answer, _ in pairs
        ]
        best = min(best, time.perf_counter() - start)
    return best, triples


def time_delta(graph, diversity, coverage, pairs, repeats: int):
    """Delta-engine evaluation; a fresh engine per repeat (cold caches)."""
    best = float("inf")
    triples = None
    metrics = None
    for _ in range(repeats):
        metrics = MetricsRegistry()
        engine = ScoreEngine(graph, diversity, coverage, metrics=metrics)
        start = time.perf_counter()
        triples = [
            tuple(engine.score(answer, parent)) for answer, parent in pairs
        ]
        best = min(best, time.perf_counter() - start)
    return best, triples, metrics.counters()


def run_chain_section(graph, smoke: bool) -> Dict:
    groups = benchmark_groups(graph.num_nodes)
    diversity = DiversityMeasure(graph, "person", lam=0.5)
    coverage = CoverageMeasure(groups)
    steps = 20 if smoke else 60
    repeats = 1 if smoke else 3
    sizes = {}
    for size in ANSWER_SIZES:
        pairs = answer_chain(size, steps)
        scratch_s, scratch_triples = time_scratch(diversity, coverage, pairs, repeats)
        delta_s, delta_triples, counters = time_delta(
            graph, diversity, coverage, pairs, repeats
        )
        if delta_triples != scratch_triples:
            raise AssertionError(
                f"delta scoring diverged from from-scratch at size {size}"
            )
        calls = counters.get("scoring.score_calls", 0)
        hits = counters.get("scoring.cache_hits", 0)
        sizes[str(size)] = {
            "answer_size": size,
            "evaluations": len(pairs),
            "scratch_seconds": round(scratch_s, 5),
            "delta_seconds": round(delta_s, 5),
            "speedup": round(scratch_s / delta_s, 2) if delta_s else None,
            "delta_updates": counters.get("scoring.delta_updates", 0),
            "full_builds": counters.get("scoring.full_builds", 0),
            "score_cache_hit_rate": round(hits / calls, 4) if calls else None,
        }
    return {
        "graph": {"nodes": graph.num_nodes, "seed": GRAPH_SEED},
        "chain": {
            "steps": steps,
            "siblings_per_step": SIBLINGS_PER_STEP,
            "repeats": repeats,
        },
        "sizes": sizes,
    }


def _fingerprint(result):
    return [
        (e.instance.instantiation.key, frozenset(e.matches), e.delta, e.coverage)
        for e in result.instances
    ]


def run_end_to_end_section(smoke: bool) -> Dict:
    """RfQGen end-to-end: delta scoring on/off."""
    bundle = lki_bundle(scale=0.1 if smoke else 0.15, coverage_total=6)
    base = GenerationConfig(
        bundle.graph, bundle.template, bundle.groups,
        epsilon=0.1, max_domain_values=4,
    )
    out: Dict[str, Dict] = {}
    baseline_fp = None
    for use_delta in (False, True):
        registry = MetricsRegistry()
        config = replace(base, use_delta_scoring=use_delta, metrics=registry)
        start = time.perf_counter()
        result = RfQGen(config).run()
        elapsed = time.perf_counter() - start
        fp = _fingerprint(result)
        if baseline_fp is None:
            baseline_fp = fp
        elif fp != baseline_fp:
            raise AssertionError("delta scoring changed the archive")
        out["delta" if use_delta else "scratch"] = {
            "seconds": round(elapsed, 4),
            "archive_size": len(result.instances),
            "delta_updates": registry.value("scoring.delta_updates"),
            "score_cache_hits": registry.value("scoring.cache_hits"),
        }
    return {
        "dataset": "lki",
        "graph": {"nodes": bundle.graph.num_nodes, "edges": bundle.graph.num_edges},
        "rfqgen": out,
    }


def run(smoke: bool = False) -> Dict:
    graph = attribute_graph()
    chains = run_chain_section(graph, smoke)
    end_to_end = run_end_to_end_section(smoke)
    return {
        "benchmark": "scoring_delta",
        "mode": "smoke" if smoke else "full",
        "chains": chains,
        "end_to_end": end_to_end,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true", help="reduced chains for CI smoke runs"
    )
    parser.add_argument(
        "--output", type=Path, default=RESULT_FILE, help="result JSON path"
    )
    args = parser.parse_args(argv)
    report = run(smoke=args.smoke)
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"chain workload over {report['chains']['graph']['nodes']}-node graph:")
    for size, entry in report["chains"]["sizes"].items():
        print(
            f"  |q(G)|={size:>4}: scratch {entry['scratch_seconds']:.4f}s, "
            f"delta {entry['delta_seconds']:.4f}s "
            f"({entry['speedup']}x, cache hit rate "
            f"{entry['score_cache_hit_rate']})"
        )
    entry = report["end_to_end"]["rfqgen"]
    print(
        f"  rfqgen: scratch {entry['scratch']['seconds']:.3f}s, "
        f"delta {entry['delta']['seconds']:.3f}s "
        f"({entry['delta']['delta_updates']} delta updates, "
        f"{entry['delta']['score_cache_hits']} cache hits)"
    )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
