"""Suggestion explanations: what changed between two query instances.

The paper's motivating narrative (Example 1) *explains* a suggestion:
"q2 suggests that a relaxed condition on recommendation (removing the edge
from u1 to u3) and a relaxation that also recommends candidates from
smaller businesses (reducing '1000' employees to '500') help to achieve the
desired answer". This module computes exactly that: a structured,
human-readable diff between a baseline instance (e.g. the user's initial
query) and a suggested one, plus the effect on the answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.core.evaluator import EvaluatedInstance
from repro.errors import QueryError
from repro.groups.system import GroupSystem
from repro.query.instance import QueryInstance
from repro.query.variables import EdgeVariable, RangeVariable, WILDCARD


@dataclass(frozen=True)
class VariableChange:
    """One variable's binding change between baseline and suggestion.

    ``direction`` is ``"refined"`` (more selective), ``"relaxed"`` (less
    selective) or ``"incomparable"`` (e.g. an equality rebinding).
    """

    variable: str
    before: Any
    after: Any
    direction: str
    description: str


def _direction(variable, before: Any, after: Any) -> str:
    if variable.refines_value(after, before) and before != after:
        return "refined"
    if variable.refines_value(before, after) and before != after:
        return "relaxed"
    return "incomparable"


def _describe_range(var: RangeVariable, before: Any, after: Any, direction: str) -> str:
    condition = f"{var.node}.{var.attribute} {var.op}"
    if before == WILDCARD:
        return f"added condition {condition} {after!r}"
    if after == WILDCARD:
        return f"dropped condition {condition} {before!r}"
    verb = "tightened" if direction == "refined" else "relaxed"
    return f"{verb} {condition} from {before!r} to {after!r}"


def _describe_edge(var: EdgeVariable, before: Any, after: Any) -> str:
    edge = f"({var.source})-[{var.label}]->({var.target})"
    after_on = after != WILDCARD and int(after) == 1
    return f"added edge {edge}" if after_on else f"removed edge {edge}"


def diff_instances(
    baseline: QueryInstance, suggestion: QueryInstance
) -> List[VariableChange]:
    """Per-variable changes from ``baseline`` to ``suggestion``.

    Both must instantiate the same template; unchanged variables are
    omitted.
    """
    if baseline.template is not suggestion.template:
        raise QueryError("can only diff instances of the same template")
    template = baseline.template
    changes: List[VariableChange] = []
    for name in template.variable_names():
        before = baseline.instantiation[name]
        after = suggestion.instantiation[name]
        if before == after:
            continue
        variable = template.variable(name)
        direction = _direction(variable, before, after)
        if isinstance(variable, RangeVariable):
            description = _describe_range(variable, before, after, direction)
        else:
            description = _describe_edge(variable, before, after)
        changes.append(VariableChange(name, before, after, direction, description))
    return changes


def explain_suggestion(
    baseline: EvaluatedInstance,
    suggestion: EvaluatedInstance,
    groups: Optional[GroupSystem] = None,
) -> str:
    """A multi-line narrative: the edits plus their effect on the answer.

    Mirrors the paper's Example 1 phrasing: which conditions were relaxed
    or tightened, how the answer size and per-group coverage moved, and
    how the objectives changed.
    """
    changes = diff_instances(baseline.instance, suggestion.instance)
    lines: List[str] = []
    if not changes:
        lines.append("suggestion is identical to the baseline query")
    else:
        lines.append("suggested edits:")
        for change in changes:
            lines.append(f"  - {change.description}")
    lines.append(
        f"answer size: {baseline.cardinality} -> {suggestion.cardinality}"
    )
    if groups is not None:
        before = groups.overlaps(baseline.matches)
        after = groups.overlaps(suggestion.matches)
        per_group = ", ".join(
            f"{name}: {before[name]} -> {after[name]}" for name in groups.names
        )
        lines.append(f"group coverage: {per_group}")
    lines.append(
        f"diversity δ: {baseline.delta:.3f} -> {suggestion.delta:.3f}; "
        f"coverage quality f: {baseline.coverage:.1f} -> {suggestion.coverage:.1f}"
    )
    return "\n".join(lines)
