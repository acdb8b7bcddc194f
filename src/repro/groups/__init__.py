"""Node groups and fairness constraint helpers.

A :class:`GroupSystem` is the paper's ``P``: ``m`` node groups, each with
a coverage constraint ``c_i ≤ |P_i|``, generalized to overlapping groups,
relaxed per-group thresholds and a pluggable aggregate error ``f`` (see
``docs/fairness.md``). Groups defined by attribute values are declared as
:class:`GroupRule` predicates and materialized by
:func:`system_from_rules` (or :func:`system_from_dict` from the JSON wire
shape); a multi-key ``where`` declares an intersection. :class:`GroupSet`
holds static, disjoint member sets. Helpers express the two fairness
policies the paper calls out — Equal Opportunity (same ``c`` per group)
and the disparate-impact "80% rule".
"""

from repro.groups.groups import GroupSet, NodeGroup
from repro.groups.system import (
    AGGREGATES,
    EMPTY_MEMBERSHIP_DIFF,
    GroupRule,
    GroupSystem,
    MembershipDiff,
    MembershipMove,
    canonical_spec,
    rules_from_spec,
    system_from_dict,
    system_from_rules,
    validate_system_spec,
)
from repro.groups.fairness import (
    disparate_impact_ratio,
    equal_opportunity_constraints,
    satisfies_eighty_percent_rule,
)
from repro.groups.auditing import FairnessAudit, audit_answer

__all__ = [
    "AGGREGATES",
    "EMPTY_MEMBERSHIP_DIFF",
    "MembershipDiff",
    "MembershipMove",
    "NodeGroup",
    "GroupRule",
    "GroupSet",
    "GroupSystem",
    "canonical_spec",
    "rules_from_spec",
    "system_from_dict",
    "system_from_rules",
    "validate_system_spec",
    "equal_opportunity_constraints",
    "disparate_impact_ratio",
    "satisfies_eighty_percent_rule",
    "FairnessAudit",
    "audit_answer",
]
