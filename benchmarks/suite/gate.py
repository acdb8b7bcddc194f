"""Correctness gate: every check runs outside the timed regions.

* :func:`check_front` — structural checks on one returned ε-Pareto front
  (feasibility, no box dominance between members, Theorem 2's size bound
  or OnlineQGen's ``k``, ``cardinality == len(matches)``).
* :func:`reevaluate` — recompute every member with a fresh
  :class:`~repro.core.evaluator.InstanceEvaluator` on a freshly built
  configuration and require identical ``(matches, δ, f, feasible)``.
* :func:`digest` / :func:`compare_golden` — a stable fingerprint of each
  operation's output and the comparison against committed goldens.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Dict, Iterable, List, Optional

from repro.core.config import GenerationConfig
from repro.core.evaluator import InstanceEvaluator
from repro.core.pareto import box_of
from repro.core.update import EpsilonParetoArchive

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: Share of operations whose fronts are re-evaluated from scratch.
SAMPLE_RATE = 0.1


def sampled(seed: int, key: str) -> bool:
    """Seeded, order-independent 10% sample of operation keys."""
    return random.Random(f"{seed}:gate:{key}").random() < SAMPLE_RATE


def check_front(members, epsilon: float, size_limit: int) -> List[str]:
    """Problems with one returned front (empty list when it is valid)."""
    problems = []
    if len(members) > size_limit:
        problems.append(f"front size {len(members)} exceeds bound {size_limit}")
    boxes = [box_of(point, epsilon) for point in members]
    for i, point in enumerate(members):
        if not point.feasible:
            problems.append(f"member {i} is infeasible")
        if point.cardinality != len(point.matches):
            problems.append(f"member {i} cardinality != |matches|")
        for j, other in enumerate(boxes):
            if i != j and boxes[i].dominates(other):
                problems.append(f"member {i}'s box dominates member {j}'s")
    return problems


def theorem2_bound(config, epsilon: float) -> int:
    """Theorem 2's archive-size bound for ``config`` at ``epsilon``.

    The objective maxima are the measures' upper bounds: ``|V_{u_o}|``
    for δ and the group system's quality bound for f.
    """
    output_label = config.template.node(config.template.output_node).label
    return EpsilonParetoArchive(epsilon).size_bound(
        float(config.graph.count_label(output_label)),
        float(config.groups.quality_bound),
    )


def reevaluate(members, config) -> List[str]:
    """Re-verify ``members`` with a fresh evaluator over ``config``.

    ``config`` must be freshly built (no shared context), so nothing the
    timed run cached can leak into the reference values.
    """
    evaluator = InstanceEvaluator(config)
    problems = []
    for i, point in enumerate(members):
        fresh = evaluator.evaluate(point.instance)
        if (fresh.matches, fresh.delta, fresh.coverage, fresh.feasible) != (
            point.matches, point.delta, point.coverage, point.feasible
        ):
            problems.append(f"member {i} differs from a fresh evaluation")
    return problems


def _number(value: float) -> str:
    return format(value, ".12g")


def digest(members, epsilon: float) -> str:
    """Stable fingerprint of a front and its ε (floats at 12 significant digits)."""
    rows = [
        [
            repr(point.instance.instantiation.key),
            sorted(point.matches),
            _number(point.delta),
            _number(point.coverage),
            point.feasible,
        ]
        for point in members
    ]
    payload = json.dumps([_number(epsilon), rows], default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def combined_digest(digests: Dict[str, str]) -> str:
    """One fingerprint over every operation's digest."""
    payload = json.dumps(sorted(digests.items()))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load_golden(workload: str) -> Optional[Dict[str, str]]:
    path = golden_path(workload)
    if not path.exists():
        return None
    return json.loads(path.read_text())["digests"]


def record_golden(workload: str, seed: int, digests: Dict[str, str]) -> None:
    path = golden_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps({"seed": seed, "digests": dict(sorted(digests.items()))},
                   indent=1) + "\n"
    )


def compare_golden(digests: Dict[str, str], golden: Dict[str, str]) -> List[str]:
    """Operation keys whose digest differs from the golden one.

    Runs are time-bounded, so a run and its golden may cover different
    numbers of rounds; only keys present in both are compared, and at
    least one must be.
    """
    shared = sorted(set(digests) & set(golden))
    if not shared:
        return ["no operation in common with the golden digests"]
    return [key for key in shared if digests[key] != golden[key]]


# archive_fingerprint and cold_rebuild follow the per-step identity check
# of benchmarks/streaming_updates.py; the suite keeps its own copy so the
# gate does not change when that runner does (see MEMBERSHIP_RULES in
# workloads.py).


def archive_fingerprint(archive) -> list:
    """Box-level identity of a live archive (cold-rebuild comparison)."""
    return sorted(
        (box, ev.instance.instantiation.key, tuple(sorted(ev.matches)),
         ev.delta, ev.coverage, ev.feasible)
        for box, ev in archive.boxes().items()
    )


def cold_rebuild(graph, template, groups, instances: Iterable, **options):
    """The reference archive: everything rebuilt from scratch on ``graph``."""
    config = GenerationConfig(graph, template, groups, **options)
    evaluator = InstanceEvaluator(config)
    archive = EpsilonParetoArchive(config.epsilon)
    for instance in instances:
        evaluated = evaluator.evaluate(instance)
        if evaluated.feasible:
            archive.offer(evaluated)
    return archive
