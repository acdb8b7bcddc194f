"""Compare two sets of benchmark results, metric by metric.

Usage (from the repository root)::

    python benchmarks/suite/compare.py parent-1.json parent-2.json ... -- \\
        change-1.json change-2.json ...

Each file is a result written by ``run.py`` (one workload, or the whole
suite). For every workload and end-to-end metric the comparator prints
each side's median and quartiles and a verdict:

* ``regression`` — the change's median is worse than the parent's by
  more than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` — the parent's own quartile spread (as a share of its
  median) exceeds the bound, so the runs cannot tell a regression from
  noise, unless every run of the change reads better than every run of
  the parent;
* ``ok`` otherwise.

The exit code is 1 when any metric regressed, and 2 when the result files
were measured with different ``--seconds`` or ``--smoke``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[2]


def load_bounds(path: Path = ROOT / "BENCHMARK.json") -> Dict[str, dict]:
    """End-to-end metric name → {"bound", "better", "unit"}."""
    spec = json.loads(path.read_text())
    return {metric["name"]: metric for metric in spec["end_to_end"]}


def load_results(paths: Sequence[Path], settings: Optional[set] = None
                 ) -> Dict[str, Dict[str, List[float]]]:
    """workload → metric → values, over every given result file.

    Each untraced run's ``(seconds, smoke)`` is added to ``settings``.
    """
    values: Dict[str, Dict[str, List[float]]] = {}
    for path in paths:
        data = json.loads(Path(path).read_text())
        runs = data["workloads"].values() if "workloads" in data else [data]
        for run in runs:
            if run.get("trace"):
                continue
            if settings is not None:
                settings.add((run.get("seconds"), run.get("smoke", False)))
            per_metric = values.setdefault(run["workload"], {})
            for name, metric in run["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
    return values


def quartiles(values: Sequence[float]):
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: Sequence[float], change: Sequence[float], bound: float, better: str) -> str:
    """``ok``, ``regression`` or ``unresolved`` for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_median, p_q3 = quartiles(parent)
    c_median = quartiles(change)[1]
    worse_by = sign * (c_median - p_median) / abs(p_median) if p_median else 0.0
    spread = (p_q3 - p_q1) / abs(p_median) if p_median else 0.0
    if spread > bound:
        all_better = all(sign * (c - p) < 0 for c in change for p in parent)
        return "ok" if all_better else "unresolved"
    return "regression" if worse_by > bound else "ok"


def compare(parent_paths, change_paths, bounds=None) -> List[dict]:
    """One row per (workload, metric) present on both sides.

    Raises ValueError when the runs differ in ``--seconds`` or
    ``--smoke``: their metrics are not comparable.
    """
    bounds = bounds or load_bounds()
    settings: set = set()
    parent = load_results(parent_paths, settings)
    change = load_results(change_paths, settings)
    if len(settings) > 1:
        raise ValueError(f"results mix run settings (seconds, smoke): {sorted(settings, key=str)}")
    rows = []
    for workload in sorted(set(parent) & set(change)):
        for name, spec in bounds.items():
            a = parent[workload].get(name)
            b = change[workload].get(name)
            if not a or not b:
                continue
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": spec["unit"],
                "bound": spec["bound"],
                "parent": quartiles(a),
                "change": quartiles(b),
                "verdict": verdict(a, b, spec["bound"], spec["better"]),
            })
    return rows


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    parent_paths, change_paths = argv[:split], argv[split + 1:]
    if not parent_paths or not change_paths:
        print("need result files on both sides of --", file=sys.stderr)
        return 2
    try:
        rows = compare(parent_paths, change_paths)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    print(f"{'workload':14} {'metric':16} {'parent q1/median/q3':>30} "
          f"{'change q1/median/q3':>30}  bound  verdict")
    for row in rows:
        fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
        print(f"{row['workload']:14} {row['metric']:16} {fmt(row['parent']):>30} "
              f"{fmt(row['change']):>30}  {row['bound']:.0%}  {row['verdict']}")
    return 1 if any(row["verdict"] == "regression" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
