"""Generalized group systems: overlap, relaxed thresholds, pluggable ``f``.

The paper fixes ``m`` pairwise-disjoint groups over one sensitive
attribute and scores coverage with the L1 aggregate
``f = C − Σ_i | |q(G) ∩ P_i| − c_i |``. A :class:`GroupSystem` relaxes
all three assumptions at once, following the multi-attribute /
relaxed-threshold fairness literature (see ``docs/fairness.md``):

* **Overlap** — groups may share members; a node belongs to ``0..k``
  groups (``k`` = :attr:`GroupSystem.max_memberships`). The node→groups
  inverted index returns a *tuple* of names instead of at most one.
* **Relaxed thresholds** — each group carries a slack ``relax ≥ 0``;
  feasibility asks for ``|q(G) ∩ P_i| ≥ c_i − relax_i`` instead of the
  hard lower bound (``relax = 0`` recovers the paper's constraint).
* **Pluggable aggregate** — the coverage error combines per-group
  deviations ``dev_i = | |q(G) ∩ P_i| − c_i |`` as ``"l1"`` (the paper's
  sum), ``"max"`` (worst group only) or ``"weighted"`` (``Σ w_i·dev_i``).

Groups defined by attribute values are *declared*, not enumerated: a
:class:`GroupRule` names an attribute-combination predicate (a
conjunction of equality / membership tests, optionally label-scoped) and
:func:`system_from_rules` materializes the member sets in one graph scan.
This is the one way to build a group from attributes: the dataset
builders, scenario generators, the serving layer and the CLI all use it.
A multi-key ``where`` is an intersection (``{"gender": "F", "band":
"senior"}``); a membership list is a band (``{"yearsOfExp":
list(range(5))}``).

The disjoint :class:`~repro.groups.groups.GroupSet` subclasses this with
disjointness validation and the L1 aggregate; it holds static member sets
(the paper's exact setting, the hardness reduction and hand-built test
systems). Its integer L1 arithmetic equals a disjoint :class:`GroupSystem`
bit for bit (pinned by ``tests/property/test_group_system_properties``).
:func:`system_from_dict` accepts the JSON wire shape the serving layer
and the ``--group-system`` CLI flag use::

    {"aggregate": "l1",
     "groups": [{"name": "senior-F", "label": "person",
                 "where": {"gender": "F", "title": ["director", "vp"]},
                 "coverage": 3, "relax": 1}]}
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import GroupError
from repro.graph.attributed_graph import AttributedGraph
from repro.obs.registry import MetricsRegistry

#: Supported aggregate error modes for the coverage measure ``f``.
AGGREGATES = ("l1", "max", "weighted")


@dataclass(frozen=True)
class MembershipMove:
    """One node whose group membership changed under an attribute delta.

    Attributes:
        node: The node id that moved.
        removed: Group names the node left (declaration order).
        added: Group names the node joined (declaration order).
    """

    node: int
    removed: Tuple[str, ...]
    added: Tuple[str, ...]


@dataclass(frozen=True)
class MembershipDiff:
    """What :meth:`GroupSystem.repair_membership` actually changed.

    Attributes:
        moves: Per-node membership changes. Empty for static (non-rule)
            systems — declared member sets cannot move under attribute
            churn — and for deltas that did not flip any rule predicate.
        coverage_changes: ``(group, old_coverage, new_coverage)`` triples
            emitted when clamp-mode re-clamping adjusted a coverage
            target because a group shrank below (or grew back toward) its
            declared target. Non-empty diffs here invalidate *every*
            cached score, not just those touching moved nodes — the
            streaming session escalates to a full measure rebuild.
    """

    moves: Tuple[MembershipMove, ...] = ()
    coverage_changes: Tuple[Tuple[str, int, int], ...] = ()

    @property
    def is_empty(self) -> bool:
        return not self.moves and not self.coverage_changes

    @property
    def nodes(self) -> FrozenSet[int]:
        """The moved node ids (the score-repair seed set)."""
        return frozenset(move.node for move in self.moves)


#: The shared no-op diff (static systems, membership-neutral deltas).
EMPTY_MEMBERSHIP_DIFF = MembershipDiff()


@dataclass(frozen=True)
class NodeGroup:
    """One node group ``P_i`` with its coverage constraint ``c_i``.

    Attributes:
        name: Human-readable group name (e.g. ``"female"``, ``"Action"``).
        members: Node ids belonging to the group.
        coverage: Required coverage ``c_i`` — a feasible query answer must
            contain at least this many members; the coverage error counts
            the deviation from exactly this many.
        relax: Feasibility slack — the answer is feasible for this group
            with ``max(0, coverage − relax)`` members already (the
            relaxed-threshold model; 0 keeps the paper's hard bound).
            The *error* term still measures the deviation from
            ``coverage``; relax only softens the feasibility predicate.
    """

    name: str
    members: FrozenSet[int]
    coverage: int
    relax: int = 0

    def __post_init__(self) -> None:
        if self.coverage < 0:
            raise GroupError(f"group {self.name!r}: coverage must be non-negative")
        if self.coverage > len(self.members):
            raise GroupError(
                f"group {self.name!r}: coverage {self.coverage} exceeds size {len(self.members)}"
            )
        if self.relax < 0:
            raise GroupError(f"group {self.name!r}: relax must be non-negative")

    @property
    def required(self) -> int:
        """The effective feasibility lower bound ``max(0, c_i − relax_i)``."""
        return max(0, self.coverage - self.relax)

    def overlap(self, nodes: Iterable[int]) -> int:
        """``|nodes ∩ P_i|``."""
        members = self.members
        if isinstance(nodes, (set, frozenset)):
            # Callers overwhelmingly pass (frozen)sets — answer sets from
            # EvaluatedInstance.matches — where set intersection beats a
            # per-element membership scan.
            return len(members & nodes)
        return sum(1 for node in nodes if node in members)

    def __len__(self) -> int:
        return len(self.members)


class GroupSystem:
    """Groups with coverage constraints; overlap allowed, aggregate pluggable.

    Args:
        groups: The member groups (at least one, unique names). Overlap
            between groups is allowed — a node may belong to any number.
        aggregate: How per-group deviations combine into the coverage
            error: ``"l1"`` (sum — the paper's ``f``), ``"max"`` (worst
            group) or ``"weighted"`` (weighted sum).
        weights: Per-group weights for ``"weighted"`` (missing names
            default to 1.0). Rejected for the other aggregates.

    Example:
        >>> senior = NodeGroup("senior", frozenset({1, 2, 3}), 2)
        >>> female = NodeGroup("F", frozenset({2, 3, 4}), 1, relax=1)
        >>> system = GroupSystem([senior, female])
        >>> system.groups_of(3)
        ('senior', 'F')
        >>> system.coverage_error({1, 2})
        1
    """

    def __init__(
        self,
        groups: Sequence[NodeGroup],
        aggregate: str = "l1",
        weights: Optional[Mapping[str, float]] = None,
    ) -> None:
        if not groups:
            raise GroupError("at least one group is required")
        names = [g.name for g in groups]
        if len(set(names)) != len(names):
            raise GroupError(f"duplicate group names: {names}")
        if aggregate not in AGGREGATES:
            raise GroupError(
                f"unknown aggregate {aggregate!r} (expected one of {AGGREGATES})"
            )
        self._groups: Tuple[NodeGroup, ...] = tuple(groups)
        self._by_name: Dict[str, NodeGroup] = {g.name: g for g in groups}
        self.aggregate = aggregate
        self._weights: Optional[Dict[str, float]] = None
        if aggregate == "weighted":
            weights = weights or {}
            for name in weights:
                if name not in self._by_name:
                    raise GroupError(f"weight for unknown group {name!r}")
                if weights[name] < 0:
                    raise GroupError(f"negative weight for group {name!r}")
            self._weights = {
                g.name: float(weights.get(g.name, 1.0)) for g in self._groups
            }
        elif weights:
            raise GroupError(
                f"weights are only meaningful with aggregate='weighted', "
                f"not {aggregate!r}"
            )
        # node -> tuple-of-group-names inverted index (declaration order);
        # built lazily on first membership query and reused by the
        # delta-scoring engine's O(|Δ|·k) overlap maintenance.
        self._membership: Optional[Dict[int, Tuple[str, ...]]] = None
        # label -> (enumeration, member mask per group): member_masks().
        self._masks: Dict[str, Tuple[Any, List[int]]] = {}
        # Declarative provenance, set by system_from_rules(): the rules
        # that materialized each group, the clamp mode, and the source
        # graph. Only rule-built systems can repair membership under
        # attribute churn — statically declared member sets never move.
        self._rules: Optional[Tuple["GroupRule", ...]] = None
        self._clamp: bool = False
        self._graph: Optional[AttributedGraph] = None

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    def __iter__(self) -> Iterator[NodeGroup]:
        return iter(self._groups)

    def __len__(self) -> int:
        return len(self._groups)

    def __getitem__(self, name: str) -> NodeGroup:
        try:
            return self._by_name[name]
        except KeyError:
            raise GroupError(f"unknown group {name!r}") from None

    @property
    def names(self) -> Tuple[str, ...]:
        """Group names in declaration order."""
        return tuple(g.name for g in self._groups)

    @property
    def total_coverage(self) -> int:
        """``C = Σ c_i`` — the normalizer of the L1 coverage measure."""
        return sum(g.coverage for g in self._groups)

    @property
    def weights(self) -> Dict[str, float]:
        """Per-group weights (all 1.0 unless ``aggregate="weighted"``)."""
        if self._weights is not None:
            return dict(self._weights)
        return {g.name: 1.0 for g in self._groups}

    def constraints(self) -> Dict[str, int]:
        """Mapping group name -> ``c_i``."""
        return {g.name: g.coverage for g in self._groups}

    # ------------------------------------------------------------------ #
    # Membership index
    # ------------------------------------------------------------------ #

    def _membership_index(self) -> Dict[int, Tuple[str, ...]]:
        index = self._membership
        if index is None:
            raw: Dict[int, List[str]] = {}
            for group in self._groups:
                for node in group.members:
                    raw.setdefault(node, []).append(group.name)
            index = self._membership = {
                node: tuple(names) for node, names in raw.items()
            }
        return index

    def groups_of(self, node_id: int) -> Tuple[str, ...]:
        """Names of every group containing ``node_id`` (declaration order).

        Backed by the lazily-built node→groups inverted index, so a
        lookup is O(1) after the first call. The empty tuple means the
        node belongs to no group.
        """
        return self._membership_index().get(node_id, ())

    @property
    def max_memberships(self) -> int:
        """``k`` — the largest number of groups any single node joins."""
        index = self._membership_index()
        return max(map(len, index.values()), default=0)

    @property
    def is_disjoint(self) -> bool:
        """True iff no node belongs to more than one group."""
        return self.max_memberships <= 1

    @property
    def has_rules(self) -> bool:
        """True iff this system was materialized from attribute rules
        (and can therefore repair its membership under attribute churn)."""
        return self._rules is not None

    @property
    def rules(self) -> Tuple["GroupRule", ...]:
        """The materializing rules (empty for statically declared systems)."""
        return self._rules or ()

    def repair_membership(
        self,
        receipt: Any,
        graph: Optional[AttributedGraph] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> MembershipDiff:
        """Re-evaluate membership of the nodes an in-place delta touched.

        The surgical counterpart of rebuilding the system from scratch
        with :func:`system_from_rules` on the mutated graph: only the
        attribute-updated nodes of ``receipt`` (a streaming
        :class:`~repro.matching.delta.DeltaReceipt`) have their rule
        predicates re-tested, the node→groups inverted index and the
        member sets are patched in place, and the returned
        :class:`MembershipDiff` names exactly which nodes moved where —
        O(|Δ| · rules) instead of O(|V| · rules).

        Static (non-rule) systems return the exact diff against their
        declared member sets, which is always empty: declared membership
        is a set of node ids, and attribute churn cannot move it.

        Clamp-mode systems re-clamp coverage targets exactly as a cold
        :func:`system_from_rules` rebuild would (``min(declared, |P_i|)``);
        without clamp, a group shrinking below its declared target raises
        :class:`~repro.errors.GroupError` — the same error the cold
        rebuild would raise, so the two paths never silently diverge.

        ``metrics`` (when given, rules path only) counts the pass under
        ``groups.membership_repairs``.
        """
        rules = self._rules
        if rules is None:
            return EMPTY_MEMBERSHIP_DIFF
        if graph is None:
            graph = self._graph
        if graph is None:
            raise GroupError(
                "repair_membership needs a graph (rule-built system "
                "detached from its source graph)"
            )
        delta = getattr(receipt, "delta", receipt)
        touched = sorted({node for node, _, _ in delta.set_attributes})
        if metrics is not None:
            metrics.inc("groups.membership_repairs")
        if not touched:
            return EMPTY_MEMBERSHIP_DIFF
        index = self._membership_index()
        moves: List[MembershipMove] = []
        removed_by_group: Dict[str, Set[int]] = {}
        added_by_group: Dict[str, Set[int]] = {}
        for node in touched:
            old_names = index.get(node, ())
            label = graph.label(node)
            attributes = graph.attributes(node)
            new_names = tuple(
                rule.name for rule in rules if rule.matches(label, attributes)
            )
            if metrics is not None:
                metrics.inc("groups.rules_evaluated", len(rules))
            if new_names == old_names:
                continue
            removed = tuple(n for n in old_names if n not in new_names)
            added = tuple(n for n in new_names if n not in old_names)
            if new_names:
                index[node] = new_names
            else:
                index.pop(node, None)
            for name in removed:
                removed_by_group.setdefault(name, set()).add(node)
            for name in added:
                added_by_group.setdefault(name, set()).add(node)
            moves.append(MembershipMove(node, removed, added))
        if not moves:
            return EMPTY_MEMBERSHIP_DIFF
        coverage_changes: List[Tuple[str, int, int]] = []
        declared = {rule.name: rule.coverage for rule in rules}
        for index, group in enumerate(self._groups):
            name = group.name
            removed_nodes = removed_by_group.get(name)
            added_nodes = added_by_group.get(name)
            if not removed_nodes and not added_nodes:
                continue
            members = group.members
            if removed_nodes:
                members = members - removed_nodes
            if added_nodes:
                members = members | added_nodes
            # NodeGroup is frozen; membership repair is the one sanctioned
            # in-place mutation (every holder — measures, score states,
            # configs — must observe the same patched container).
            object.__setattr__(group, "members", members)
            for enumeration, masks in self._masks.values():
                masks[index] &= ~enumeration.mask_of(removed_nodes or ())
                masks[index] |= enumeration.mask_of(added_nodes or ())
            target = declared[name]
            coverage = min(target, len(members)) if self._clamp else target
            if coverage > len(members):
                raise GroupError(
                    f"group {name!r}: membership churn left {len(members)} "
                    f"members, below the declared coverage {coverage} "
                    "(a cold rebuild would be unsatisfiable; declare the "
                    "system with clamp=True to auto-lower targets)"
                )
            if coverage != group.coverage:
                coverage_changes.append((name, group.coverage, coverage))
                object.__setattr__(group, "coverage", coverage)
        return MembershipDiff(tuple(moves), tuple(coverage_changes))

    # ------------------------------------------------------------------ #
    # Coverage computations
    # ------------------------------------------------------------------ #

    def overlap_counts(self, nodes: Iterable[int]) -> Dict[str, int]:
        """Per-group overlap counters computed in O(|nodes|·k) via the
        inverted index (one lookup per node instead of one scan per group).

        Equals :meth:`overlaps` on any input; this is the construction the
        delta-scoring engine maintains incrementally.
        """
        counts = {name: 0 for name in self.names}
        for node in nodes:
            for name in self.groups_of(node):
                counts[name] += 1
        return counts

    def member_masks(self, enumeration: Any) -> List[int]:
        """Each group's members as a mask over a label's
        :class:`~repro.graph.attributed_graph.LabelEnumeration` (members
        of other labels have no bit), in declaration order. Built on first
        use; :meth:`repair_membership` repairs them."""
        cached = self._masks.get(enumeration.label)
        if cached is None or cached[0] is not enumeration:
            cached = (enumeration, [enumeration.mask_of(g.members) for g in self._groups])
            self._masks[enumeration.label] = cached
        return cached[1]

    def mask_overlaps(self, enumeration: Any, mask: int) -> Dict[str, int]:
        """:meth:`overlaps` of the answer ``mask`` over ``enumeration``:
        one popcount per group."""
        return {
            g.name: (mask & members).bit_count()
            for g, members in zip(self._groups, self.member_masks(enumeration))
        }

    def overlaps(self, nodes: Iterable[int]) -> Dict[str, int]:
        """Per-group overlap counts ``|nodes ∩ P_i|`` for an answer set."""
        if not isinstance(nodes, (set, frozenset)):
            nodes = set(nodes)  # a one-shot iterable would serve one group
        return {g.name: g.overlap(nodes) for g in self._groups}

    def is_feasible(self, nodes: Iterable[int]) -> bool:
        """Feasibility: every group covered with ≥ ``c_i − relax_i`` nodes."""
        return self.feasible_overlaps(self.overlaps(nodes))

    def feasible_overlaps(self, overlaps: Mapping[str, int]) -> bool:
        """:meth:`is_feasible` from per-group overlap counts."""
        return all(overlaps[g.name] >= g.required for g in self._groups)

    def coverage_error(self, nodes: Iterable[int]) -> Any:
        """The aggregate deviation of an answer set's overlaps.

        ``"l1"``: ``Σ_i | |nodes ∩ P_i| − c_i |`` (an int — the paper's
        error term, kept all-integer so the L1 path is bitwise-stable);
        ``"max"``: the single worst deviation (int); ``"weighted"``:
        ``Σ_i w_i · dev_i`` (float).
        """
        return self.error_of_overlaps(self.overlaps(nodes))

    def error_of_overlaps(self, overlaps: Mapping[str, int]) -> Any:
        """:meth:`coverage_error` from per-group overlap counts."""
        if self.aggregate == "l1":
            return sum(abs(overlaps[g.name] - g.coverage) for g in self._groups)
        if self.aggregate == "max":
            return max(abs(overlaps[g.name] - g.coverage) for g in self._groups)
        weights = self._weights or {}
        return sum(
            weights[g.name] * abs(overlaps[g.name] - g.coverage)
            for g in self._groups
        )

    @property
    def quality_bound(self) -> Any:
        """The maximum possible coverage quality under this aggregate.

        ``"l1"``: ``C = Σ c_i`` (the paper's normalizer); ``"max"``:
        ``max c_i`` (the error can reach at most the largest target
        before clamping matters); ``"weighted"``: ``Σ w_i·c_i``.
        """
        if self.aggregate == "l1":
            return sum(g.coverage for g in self._groups)
        if self.aggregate == "max":
            return max(g.coverage for g in self._groups)
        weights = self._weights or {}
        return sum(weights[g.name] * g.coverage for g in self._groups)

    def with_constraints(self, constraints: Mapping[str, int]) -> "GroupSystem":
        """A copy with some coverage constraints replaced.

        The copy keeps the receiver's class, aggregate, weights and relax
        slacks. A rule-built copy keeps its rules (each carrying its new
        coverage, which :meth:`repair_membership` re-clamps from), the
        clamp mode and the source graph, so it equals
        :func:`system_from_rules` with the new coverages and still repairs
        membership under attribute churn. Clamp mode lowers a target above
        its group's population, as that rebuild would.
        """
        groups: List[NodeGroup] = []
        for group in self._groups:
            coverage = constraints.get(group.name, group.coverage)
            if self._clamp:
                coverage = min(coverage, len(group.members))
            groups.append(
                NodeGroup(group.name, group.members, coverage, group.relax)
            )
        # Subclass constructors take other arguments (GroupSet: the groups
        # only); the member sets, and so any validated property, are the
        # receiver's.
        copy = object.__new__(type(self))
        GroupSystem.__init__(copy, groups, self.aggregate, self._weights)
        if self._rules is not None:
            copy._rules = tuple(
                replace(rule, coverage=constraints.get(rule.name, rule.coverage))
                for rule in self._rules
            )
            copy._clamp = self._clamp
            copy._graph = self._graph
        return copy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{g.name}(|P|={len(g)}, c={g.coverage}"
            + (f", relax={g.relax}" if g.relax else "")
            + ")"
            for g in self._groups
        )
        return f"{type(self).__name__}({parts}, aggregate={self.aggregate!r})"


# ---------------------------------------------------------------------- #
# Declarative construction: attribute-combination rules
# ---------------------------------------------------------------------- #


@dataclass(frozen=True)
class GroupRule:
    """One declared group: an attribute-combination predicate + constraint.

    A node matches when its label equals ``label`` (if given) and, for
    every ``(attribute, expected)`` pair of ``where``, its attribute value
    equals ``expected`` — or is *one of* ``expected`` when that is a
    list/tuple/set (membership test). Conjunctions over several
    attributes express intersectional groups; two rules whose predicates
    are not mutually exclusive produce overlapping groups.
    """

    name: str
    where: Mapping[str, Any]
    coverage: int
    relax: int = 0
    weight: float = 1.0
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.where:
            raise GroupError(f"rule {self.name!r}: empty where-predicate")
        if self.weight < 0:
            raise GroupError(f"rule {self.name!r}: negative weight")

    def matches(self, label: str, attributes: Mapping[str, Any]) -> bool:
        """Whether a node with this label/attribute map joins the group."""
        if self.label is not None and label != self.label:
            return False
        for attribute, expected in self.where.items():
            value = attributes.get(attribute)
            if isinstance(expected, (list, tuple, set, frozenset)):
                if value not in expected:
                    return False
            elif value != expected:
                return False
        return True


def system_from_rules(
    graph: AttributedGraph,
    rules: Sequence[GroupRule],
    aggregate: str = "l1",
    clamp: bool = False,
    metrics: Optional[MetricsRegistry] = None,
) -> GroupSystem:
    """Materialize a :class:`GroupSystem` from predicate rules in one scan.

    Each rule's member set is every graph node matching its predicate.
    ``clamp=True`` lowers a rule's coverage to its matched population when
    the declared target exceeds it (scenario generators and CLI specs use
    this so a constraint can never be unsatisfiable by construction);
    without it an oversized target raises :class:`~repro.errors.GroupError`.

    Construction work is published under ``groups.*`` only when
    ``metrics`` is given; the dataset builders pass none, so their runs
    publish no construction counters.
    """
    if not rules:
        raise GroupError("at least one group rule is required")
    members: List[set] = [set() for _ in rules]
    for node in graph.nodes():
        for i, rule in enumerate(rules):
            if rule.matches(node.label, node.attributes):
                members[i].add(node.node_id)
    groups: List[NodeGroup] = []
    for rule, nodes in zip(rules, members):
        coverage = min(rule.coverage, len(nodes)) if clamp else rule.coverage
        groups.append(NodeGroup(rule.name, frozenset(nodes), coverage, rule.relax))
    weights = (
        {rule.name: rule.weight for rule in rules}
        if aggregate == "weighted"
        else None
    )
    system = GroupSystem(groups, aggregate, weights)
    system._rules = tuple(rules)
    system._clamp = clamp
    system._graph = graph
    if metrics is not None:
        membership = system._membership_index()
        metrics.inc("groups.systems_built")
        metrics.inc("groups.rules_evaluated", len(rules))
        metrics.inc("groups.members_indexed", sum(len(g.members) for g in groups))
        metrics.inc(
            "groups.multi_membership_nodes",
            sum(1 for names in membership.values() if len(names) > 1),
        )
    return system


# ---------------------------------------------------------------------- #
# JSON wire shape (serving requests, --group-system files)
# ---------------------------------------------------------------------- #

_SPEC_KEYS = frozenset({"aggregate", "groups"})
_RULE_KEYS = frozenset({"name", "label", "where", "coverage", "relax", "weight"})


def validate_system_spec(data: Any) -> None:
    """Structural validation of the wire shape; raises :class:`GroupError`.

    Graph-independent, so the serving front-end can reject malformed
    specs at parse time (structured :class:`RequestRejection`) without
    touching the shared graph.
    """
    if not isinstance(data, Mapping):
        raise GroupError("group system spec must be a JSON object")
    unknown = set(data) - _SPEC_KEYS
    if unknown:
        raise GroupError(
            f"group system spec has unknown key(s) {sorted(unknown)}; "
            f"allowed: {sorted(_SPEC_KEYS)}"
        )
    aggregate = data.get("aggregate", "l1")
    if aggregate not in AGGREGATES:
        raise GroupError(
            f"unknown aggregate {aggregate!r} (expected one of {AGGREGATES})"
        )
    rules = data.get("groups")
    if not isinstance(rules, list) or not rules:
        raise GroupError("group system spec needs a non-empty 'groups' list")
    seen: set = set()
    for i, rule in enumerate(rules):
        if not isinstance(rule, Mapping):
            raise GroupError(f"group #{i} must be a JSON object")
        unknown = set(rule) - _RULE_KEYS
        if unknown:
            raise GroupError(
                f"group #{i} has unknown key(s) {sorted(unknown)}; "
                f"allowed: {sorted(_RULE_KEYS)}"
            )
        name = rule.get("name")
        if not isinstance(name, str) or not name:
            raise GroupError(f"group #{i} needs a non-empty string 'name'")
        if name in seen:
            raise GroupError(f"duplicate group name {name!r}")
        seen.add(name)
        where = rule.get("where")
        if not isinstance(where, Mapping) or not where:
            raise GroupError(f"group {name!r} needs a non-empty 'where' object")
        coverage = rule.get("coverage")
        if not isinstance(coverage, int) or isinstance(coverage, bool) or coverage < 0:
            raise GroupError(f"group {name!r}: coverage must be an int ≥ 0")
        relax = rule.get("relax", 0)
        if not isinstance(relax, int) or isinstance(relax, bool) or relax < 0:
            raise GroupError(f"group {name!r}: relax must be an int ≥ 0")
        weight = rule.get("weight", 1.0)
        if not isinstance(weight, (int, float)) or isinstance(weight, bool) or weight < 0:
            raise GroupError(f"group {name!r}: weight must be a number ≥ 0")


def rules_from_spec(data: Mapping[str, Any]) -> List[GroupRule]:
    """The validated wire shape's rules as :class:`GroupRule` objects."""
    validate_system_spec(data)
    return [
        GroupRule(
            name=rule["name"],
            where=dict(rule["where"]),
            coverage=rule["coverage"],
            relax=rule.get("relax", 0),
            weight=float(rule.get("weight", 1.0)),
            label=rule.get("label"),
        )
        for rule in data["groups"]
    ]


def system_from_dict(
    data: Mapping[str, Any],
    graph: AttributedGraph,
    clamp: bool = False,
    metrics: Optional[MetricsRegistry] = None,
) -> GroupSystem:
    """Build a :class:`GroupSystem` over ``graph`` from the JSON wire shape."""
    rules = rules_from_spec(data)
    return system_from_rules(
        graph,
        rules,
        aggregate=data.get("aggregate", "l1"),
        clamp=clamp,
        metrics=metrics,
    )


def canonical_spec(data: Mapping[str, Any]) -> Dict[str, Any]:
    """Order-insensitive rendering of a spec (dedup signature component).

    Two specs with the same canonical form declare the same system:
    group order, where-key order and membership-list order are all
    construction noise, not semantics.
    """
    groups = []
    for rule in data.get("groups", ()):
        where = {
            key: sorted(value, key=repr)
            if isinstance(value, (list, tuple, set, frozenset))
            else value
            for key, value in sorted(rule.get("where", {}).items())
        }
        groups.append(
            {
                "name": rule.get("name"),
                "label": rule.get("label"),
                "where": where,
                "coverage": rule.get("coverage"),
                "relax": rule.get("relax", 0),
                "weight": float(rule.get("weight", 1.0)),
            }
        )
    groups.sort(key=lambda g: str(g["name"]))
    return {"aggregate": data.get("aggregate", "l1"), "groups": groups}
