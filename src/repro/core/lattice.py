"""The instance lattice ``L = (I(Q), ≺_I)`` and its spawners.

The lattice is never materialized: the spawner constructs neighbors
on-the-fly (paper Section IV — "constructs a front set of instances ... a
fraction of the lattice on-the-fly"). An edge of the lattice changes a
single variable to its *next closest* active-domain value.

``refine_children`` (the forward spawner, Spawn/SpawnF) steps each variable
one notch toward selectivity; ``relax_children`` (SpawnB) steps the other
way. Given the parent's verified match set, the forward spawner applies the
paper's *template refinement*: range-variable domains are restricted to
attribute values occurring inside the d-hop neighborhood ``G_q^d`` of the
matches, and an edge variable is never raised to 1 when no edge with its
label exists inside that neighborhood.
"""

from __future__ import annotations

import bisect
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from repro.core.config import GenerationConfig
from repro.core.evaluator import EvaluatedInstance
from repro.graph.active_domain import ActiveDomainIndex
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.ball import Ball, mask_ball
from repro.obs.registry import MetricsRegistry
from repro.query.instance import QueryInstance
from repro.query.instantiation import Instantiation
from repro.query.variables import RangeVariable, WILDCARD, _value_key


def _snap_ball(graph: AttributedGraph, ball: Ball, label: str, var: RangeVariable, domain) -> set:
    """:func:`_snap_to_domain` of the ball's ``label`` values of
    ``var.attribute``.

    The ball's cells of the attribute's Gower column are snapped through
    the column's code table (:meth:`~repro.graph.gower_columns.CodeTable.snap`)
    without reading a node. The per-value path remains for ``EXOTIC``
    cells and for the cases the table declines (codes whose ``==`` values
    differ in sort key).
    """
    codes = ball.codes(graph, label, var.attribute)
    if codes is not None:
        table = graph.code_table(label, var.attribute)
        allowed = table.snap(codes, domain, var.op.refine_direction)
        if allowed is not None:
            return allowed
    return _snap_to_domain(var, domain, ball.attribute_values(graph, label, var.attribute))


def _snap_to_domain(var: RangeVariable, domain, ball_values) -> set:
    """Representatives of in-ball attribute values within a value domain.

    For a ``≥``/``>`` literal every in-ball value ``w`` is represented by
    the largest domain value ``v ≤ w`` (setting the bound to ``v`` still
    admits ``w``); for ``≤``/``<`` by the smallest ``v ≥ w``; equality by
    exact membership. Bounds with no representative admit no in-ball node
    and are rightly pruned.
    """
    direction = var.op.refine_direction
    if direction == 0:
        members = set(domain)
        return {w for w in ball_values if w in members}
    ordered = sorted(domain, key=_value_key)
    keys = [_value_key(v) for v in ordered]
    allowed = set()
    for w in ball_values:
        key = _value_key(w)
        if direction > 0:
            index = bisect.bisect_right(keys, key) - 1
        else:
            index = bisect.bisect_left(keys, key)
            if index == len(ordered):
                index = -1
        if 0 <= index < len(ordered):
            allowed.add(ordered[index])
    return allowed


class InstanceLattice:
    """Lazy view of the instance space ordered by refinement.

    Args:
        config: The generation configuration.
        domains: Shared active-domain index (owns quantization and the
            temporary restrictions of template refinement).
        metrics: Registry receiving the ``lattice.*`` spawner counters
            (children spawned, balls built, edges fixed by template
            refinement). Private registry when omitted.
    """

    def __init__(
        self,
        config: GenerationConfig,
        domains: Optional[ActiveDomainIndex] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config
        self.template = config.template
        self.domains = domains or config.build_domains()
        self.metrics = metrics or MetricsRegistry()
        self._diameter = self.template.diameter()
        self._output_label = self.template.node(self.template.output_node).label
        self._ball_cache: "OrderedDict[int, _BallEntry]" = OrderedDict()

    # ------------------------------------------------------------------ #
    # Extremes
    # ------------------------------------------------------------------ #

    def root(self) -> QueryInstance:
        """``q_r`` — the most relaxed instance (edge vars 0, loosest bounds)."""
        bindings = {}
        for name in self.template.range_variables:
            value = self.domains.most_relaxed(name)
            bindings[name] = value if value is not None else WILDCARD
        for name in self.template.edge_variables:
            bindings[name] = 0
        return QueryInstance(Instantiation(self.template, bindings))

    def bottom(self) -> QueryInstance:
        """``q_b`` — the most refined instance (edge vars 1, tightest bounds)."""
        bindings = {}
        for name in self.template.range_variables:
            value = self.domains.most_refined(name)
            bindings[name] = value if value is not None else WILDCARD
        for name in self.template.edge_variables:
            bindings[name] = 1
        return QueryInstance(Instantiation(self.template, bindings))

    # ------------------------------------------------------------------ #
    # Spawners
    # ------------------------------------------------------------------ #

    def refine_children(
        self,
        instance: QueryInstance,
        evaluated: Optional[EvaluatedInstance] = None,
    ) -> List[Tuple[str, QueryInstance]]:
        """One-step refinements of ``instance`` (the forward front set).

        Returns ``(variable, child)`` pairs. When ``evaluated`` carries a
        non-empty answer mask and template refinement is enabled, domains
        are restricted to the d-hop neighborhood of the matches before
        stepping.
        """
        entry: Optional[_BallEntry] = None
        if self.config.use_template_refinement and evaluated is not None and evaluated.mask:
            entry = self._ball(evaluated.mask)

        children: List[Tuple[str, QueryInstance]] = []
        inst = instance.instantiation
        for name, var in self.template.range_variables.items():
            restricted = False
            if entry is not None:
                # Snap each in-ball value to its representative in the
                # (possibly quantized) domain. The paper restricts to the
                # in-ball values themselves, which is sound over the full
                # active domain; with a quantized domain a plain
                # intersection can skip a bound that still distinguishes
                # match sets (found by the end-to-end property test), so
                # we keep every quantized value that is the tightest bound
                # satisfied by some in-ball value.
                self.domains.restrict(name, self._snapped(entry, name, var))
                restricted = True
            try:
                next_value = self.domains.next_refined(name, inst[name])
            finally:
                if restricted:
                    self.domains.release(name)
            if next_value is not None:
                children.append((name, QueryInstance(inst.with_value(name, next_value))))
        for name, var in self.template.edge_variables.items():
            current = inst[name]
            if current != WILDCARD and int(current) == 1:
                continue
            if entry is not None and not entry.ball.has_labeled_edge(var.label):
                # Template refinement "fixes" the variable to 0: no edge with
                # this label exists near any match, so raising it can only
                # produce empty answers.
                self.metrics.inc("lattice.edges_fixed")
                continue
            children.append((name, QueryInstance(inst.with_value(name, 1))))
        self.metrics.inc("lattice.refine_calls")
        self.metrics.inc("lattice.children_spawned", len(children))
        return children

    def relax_children(self, instance: QueryInstance) -> List[Tuple[str, QueryInstance]]:
        """One-step relaxations of ``instance`` (the backward front set)."""
        children: List[Tuple[str, QueryInstance]] = []
        inst = instance.instantiation
        for name in self.template.range_variables:
            next_value = self.domains.next_relaxed(name, inst[name])
            if next_value is not None:
                children.append((name, QueryInstance(inst.with_value(name, next_value))))
        for name in self.template.edge_variables:
            current = inst[name]
            if current != WILDCARD and int(current) == 1:
                children.append((name, QueryInstance(inst.with_value(name, 0))))
        self.metrics.inc("lattice.relax_calls")
        self.metrics.inc("lattice.children_spawned", len(children))
        return children

    # ------------------------------------------------------------------ #
    # Enumeration (the naive algorithms' instance space)
    # ------------------------------------------------------------------ #

    def enumerate_instances(self) -> List[QueryInstance]:
        """All total instances of ``I(Q)`` under the current domains.

        Deterministic order: range-variable domains in refinement order,
        edge variables cycling 0 then 1, lexicographically by the
        template's variable ordering.
        """
        names = list(self.template.variable_names())
        value_lists: List[List[object]] = []
        for name in names:
            if name in self.template.range_variables:
                domain = list(self.domains.domain(name))
                value_lists.append(domain if domain else [WILDCARD])
            else:
                value_lists.append([0, 1])
        instances: List[QueryInstance] = []
        assignment: Dict[str, object] = {}

        def recurse(position: int) -> None:
            if position == len(names):
                instances.append(
                    QueryInstance(Instantiation(self.template, dict(assignment)))
                )
                return
            for value in value_lists[position]:
                assignment[names[position]] = value
                recurse(position + 1)

        recurse(0)
        self.metrics.inc("lattice.enumerated", len(instances))
        return instances

    def instance_space_size(self) -> int:
        """``|I(Q)|`` under the current (possibly quantized) domains."""
        return self.domains.instance_space_size()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    #: Bound on the ball cache; beyond it the least-recently-used entry
    #: is evicted (one at a time — no wholesale flush of warm entries).
    _BALL_CACHE_MAX = 256

    def _ball(self, mask: int) -> _BallEntry:
        """LRU-cached d-hop ball ``G_q^d`` of an answer mask (over the
        output label's enumeration), with its snapped domains."""
        entry = self._ball_cache.get(mask)
        if entry is None:
            self.metrics.inc("lattice.ball_cache_misses")
            entry = _BallEntry(
                mask_ball(self.config.graph, self._output_label, mask, self._diameter)
            )
            while len(self._ball_cache) >= self._BALL_CACHE_MAX:
                self._ball_cache.popitem(last=False)
                self.metrics.inc("lattice.ball_cache_evictions")
            self._ball_cache[mask] = entry
        else:
            self.metrics.inc("lattice.ball_cache_hits")
            self._ball_cache.move_to_end(mask)
        return entry

    def _snapped(self, entry: _BallEntry, name: str, var: RangeVariable) -> set:
        """The ball's values of ``var`` snapped to its current domain,
        memoized on the ball-cache entry."""
        domain = self.domains.domain(name)
        memo = entry.snaps.get(name)
        if memo is None or memo[0] is not domain:
            label = self.template.node(var.node).label
            memo = (domain, _snap_ball(self.config.graph, entry.ball, label, var, domain))
            entry.snaps[name] = memo
        return memo[1]


class _BallEntry:
    """A ball-cache entry: one answer mask's ball and its snapped domains.

    ``snaps`` maps a range variable's name to ``(domain, allowed)``, the
    :func:`_snap_ball` of the ball over that domain tuple. The ball is
    fixed for the lattice's run, so an entry is reused while
    ``domains.domain(name)`` returns the same tuple (checked by
    identity: a changed domain is a new tuple).
    """

    __slots__ = ("ball", "snaps")

    def __init__(self, ball: Ball) -> None:
        self.ball = ball
        self.snaps: Dict[str, Tuple[Tuple, set]] = {}
