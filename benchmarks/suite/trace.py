"""Outside-in layer tracer for the benchmark suite.

The tracer wraps the public callables of each library layer with
class-attribute (or module-attribute) wrappers installed in the benchmark
process; nothing in ``src/`` knows it exists. Every wrapped call made
while a trace *unit* is open records a span ``(layer, start, end, parent,
unit)``. Spans stay in memory and are written as JSON lines at the end.

A unit is one benchmark operation (``kind="op"``) or side work that
still belongs to the workload (``kind="side"``, e.g. the periodic
``generate`` of ``stream-churn``). Calls made with no unit open (set-up,
correctness checks) are passed through untraced.

Layer accounting: a span's self time is its duration minus the time its
direct child spans cover. Per unit, ``queue`` is the time the unit waited
before it became active (a served request waiting behind the batch's
earlier requests), and ``unattributed`` is the active time no top-level
span covers. Each unit carries the speed factor the harness measured
around it, and every time of the unit is scaled by it (see ``run.py``).
The invariant checked by :meth:`Tracer.summary` is that the layers' self
times plus ``queue`` and ``unattributed`` add up to the units' total time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: (layer, "module:attribute path") for every hooked public callable.
HOOKS: Tuple[Tuple[str, str], ...] = (
    ("config", "repro.core.config:GenerationConfig.build_indexes"),
    ("config", "repro.core.config:GenerationConfig.build_domains"),
    ("config", "repro.core.config:GenerationConfig.build_diversity"),
    ("config", "repro.core.config:GenerationConfig.build_coverage"),
    ("config", "repro.service.context:GraphContext.configure"),
    ("config", "repro.service.context:GraphContext.warm"),
    ("gen", "repro.core.rfqgen:RfQGen.run"),
    ("gen", "repro.core.biqgen:BiQGen.run"),
    ("gen", "repro.core.online:OnlineQGen.run"),
    ("spawn", "repro.core.lattice:InstanceLattice.root"),
    ("spawn", "repro.core.lattice:InstanceLattice.bottom"),
    ("spawn", "repro.core.lattice:InstanceLattice.refine_children"),
    ("spawn", "repro.core.lattice:InstanceLattice.relax_children"),
    ("evaluate", "repro.core.evaluator:InstanceEvaluator.evaluate"),
    ("verify", "repro.matching.incremental:IncrementalVerifier.verify"),
    ("match", "repro.matching.matcher:SubgraphMatcher.match"),
    ("match", "repro.matching.matcher:SubgraphMatcher.match_outputs"),
    ("score", "repro.scoring.engine:ScoreEngine.score"),
    ("score", "repro.core.measures:DiversityMeasure.of"),
    ("score", "repro.core.measures:CoverageMeasure.of"),
    ("score", "repro.core.measures:CoverageMeasure.is_feasible"),
    ("archive", "repro.core.update:EpsilonParetoArchive.offer"),
    ("groups", "repro.groups.system:system_from_dict"),
    ("groups", "repro.groups.system:system_from_rules"),
    ("groups", "repro.groups.system:GroupSystem.repair_membership"),
    ("service", "repro.service.scheduler:BatchScheduler.stream"),
    ("stream.apply", "repro.service.context:GraphContext.apply_delta_in_place"),
    ("stream.repair", "repro.streaming.session:StreamingSession.update"),
    ("stream.offer", "repro.streaming.session:StreamingSession.generate"),
    ("stream.offer", "repro.streaming.session:StreamingSession.offer"),
)

#: Every layer a summary reports, in display order. ``queue`` and
#: ``unattributed`` are derived per unit rather than hooked.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _ in HOOKS)) + (
    "queue",
    "unattributed",
)

#: Allowed relative gap between the accounted time and the units' time.
INVARIANT_TOLERANCE = 0.01


def _resolve(target: str):
    """(owner, attribute name, original) for ``module:dotted.path``.

    Raises AttributeError/ImportError when the target no longer exists.
    """
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    if isinstance(owner, type):
        # Look through the MRO so an inherited method can still be hooked;
        # the wrapper is installed on ``owner`` itself either way.
        for klass in owner.__mro__:
            if name in vars(klass):
                return owner, name, vars(klass)[name]
        raise AttributeError(f"{owner.__name__} has no attribute {name!r}")
    return owner, name, getattr(owner, name)


class Tracer:
    """Span recorder plus the hook installer for :data:`HOOKS`."""

    def __init__(
        self,
        hooks: Sequence[Tuple[str, str]] = HOOKS,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.hooks = tuple(hooks)
        self.clock = clock
        self.spans: List[tuple] = []  # (layer, start, end, parent, unit)
        self.units: List[tuple] = []  # (unit, kind, queued, active, end, factor)
        self.missing_hooks: List[str] = []
        self._patches: List[tuple] = []  # (owner, name, original, owned)
        self._stack: List[int] = []
        self._unit: Optional[str] = None
        self._unit_kind = "op"
        self._unit_queued = 0.0
        self._unit_active = 0.0

    # ------------------------------------------------------------------ #
    # Units
    # ------------------------------------------------------------------ #

    def open(self, unit: str, kind: str = "op", queued: float = 0.0) -> None:
        """Start attributing spans to ``unit``.

        ``queued`` is how long the unit already waited before becoming
        active (in speed-scaled seconds); it is reported as ``queue``.
        """
        self._unit = unit
        self._unit_kind = kind
        self._unit_queued = queued
        self._unit_active = self.clock()

    def close(self, end: Optional[float] = None, factor: float = 1.0) -> None:
        """Finish the open unit; ``end`` defaults to now."""
        if self._unit is None:
            return
        self.units.append((
            self._unit, self._unit_kind, self._unit_queued, self._unit_active,
            self.clock() if end is None else end, factor,
        ))
        self._unit = None

    # ------------------------------------------------------------------ #
    # Hook installation
    # ------------------------------------------------------------------ #

    def install(self) -> None:
        """Wrap every resolvable hook; record the rest as missing."""
        if self._patches:
            return
        for layer, target in self.hooks:
            try:
                owner, name, original = _resolve(target)
            except (ImportError, AttributeError):
                if target not in self.missing_hooks:
                    self.missing_hooks.append(target)
                continue
            if isinstance(owner, type):
                owned = name in vars(owner)
                setattr(owner, name, self._wrap(layer, original))
                self._patches.append((owner, name, original, owned))
            else:
                # A module-level function is also bound under its name in
                # every module that imported it; patch each binding.
                wrapper = self._wrap(layer, original)
                for module in list(sys.modules.values()):
                    try:
                        bound = getattr(module, name, None)
                    except Exception:  # lazy modules may fail on lookup
                        continue
                    if bound is original:
                        setattr(module, name, wrapper)
                        self._patches.append((module, name, original, True))

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, name, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._patches.clear()

    def _wrap(self, layer: str, original):
        spans = self.spans
        stack = self._stack
        clock = self.clock
        tracer = self

        def call(function, *args, **kwargs):
            if tracer._unit is None:
                return function(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserves the index children refer to
            stack.append(index)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                stack.pop()
                spans[index] = (layer, start, clock(), parent, tracer._unit)

        if inspect.isgeneratorfunction(original):
            # One span per resume: the work a generator does before it
            # yields an item belongs to that item's unit.
            @functools.wraps(original)
            def generator_wrapper(*args, **kwargs):
                inner = original(*args, **kwargs)
                try:
                    while True:
                        try:
                            item = call(next, inner)
                        except StopIteration:
                            return
                        yield item
                finally:
                    inner.close()

            return generator_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return call(original, *args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #

    def summary(self, ops: int) -> Dict[str, object]:
        """Per-layer calls, self time and share over the recorded units.

        ``ops`` is the number of primary operations the per-op figures
        divide by; shares divide by the total time of every unit (side
        units included), so they sum to 1.
        """
        factors = {unit[0]: unit[5] for unit in self.units}
        self_time: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        child_time = [0.0] * len(self.spans)
        top_level: Dict[str, float] = defaultdict(float)
        for layer, start, end, parent, unit in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
            else:
                top_level[unit] += end - start
        for index, (layer, start, end, parent, unit) in enumerate(self.spans):
            calls[layer] += 1
            self_time[layer] += ((end - start) - child_time[index]) * factors.get(unit, 1.0)
        total = 0.0
        for unit, kind, queued, active, end, factor in self.units:
            total += queued + (end - active) * factor
            self_time["queue"] += queued
            self_time["unattributed"] += ((end - active) - top_level.get(unit, 0.0)) * factor
        accounted = sum(self_time.values())
        layers = {}
        for layer in LAYERS:
            layers[layer] = {
                "calls_per_op": calls.get(layer, 0) / ops if ops else 0.0,
                "self_ms_per_op": 1000.0 * self_time.get(layer, 0.0) / ops if ops else 0.0,
                "share": self_time.get(layer, 0.0) / total if total else 0.0,
            }
        gap = abs(accounted - total) / total if total else 0.0
        return {
            "layers": layers,
            "total_seconds": total,
            "accounted_seconds": accounted,
            "invariant_gap": gap,
            "invariant_ok": gap <= INVARIANT_TOLERANCE
            and self_time["unattributed"] >= -INVARIANT_TOLERANCE * total,
            "missing_hooks": list(self.missing_hooks),
            "spans": len(self.spans),
        }

    def write(self, path: Path) -> None:
        """Write every span, then every unit, as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for layer, start, end, parent, unit in self.spans:
                handle.write(json.dumps(
                    {"name": layer, "start": start, "end": end,
                     "parent": parent, "op": unit}
                ) + "\n")
            for unit, kind, queued, active, end, factor in self.units:
                handle.write(json.dumps(
                    {"unit": unit, "kind": kind, "queued": queued,
                     "active": active, "end": end, "factor": factor}
                ) + "\n")


class NullTracer:
    """The untraced stand-in: accepts the unit calls and records nothing."""

    def open(self, unit: str, kind: str = "op", queued: float = 0.0) -> None:
        pass

    def close(self, end: Optional[float] = None, factor: float = 1.0) -> None:
        pass
