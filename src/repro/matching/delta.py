"""Graph updates and match maintenance (the paper's ref [17] substrate).

RfQGen's incVerify handles *query* refinement; this module handles *data*
change. :class:`GraphDelta` is a batch of edge insertions, deletions and
attribute writes, and :func:`apply_delta_in_place` is the one code path
that applies it: it mutates the graph through the ``_*_in_place`` hooks of
:class:`~repro.graph.attributed_graph.AttributedGraph`, which repair the
graph-owned derived state as they go, and returns a :class:`DeltaReceipt`.
:func:`apply_delta` materializes ``G ⊕ Δ`` as ``graph.copy()`` followed
by that same path, leaving ``G`` untouched.

Given a verified answer ``q(G)``, :class:`IncrementalMatchMaintainer`
computes ``q(G ⊕ Δ)`` re-verifying only the region the delta can
influence.

Locality argument: a node ``v`` matches ``u_o`` through some homomorphism
whose entire image lies within ``d`` hops of ``v``, where ``d`` is the
instance's diameter. Hence ``v``'s status can only change if some touched
endpoint lies within ``d`` hops of ``v`` — in the old graph (an influence
that was lost) or the new one (an influence that appeared). Everything
outside that two-sided ball keeps its old status verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Dict, FrozenSet, List, Set, Tuple

from repro.errors import GraphError
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.ball import d_hop_ball
from repro.matching.matcher import SubgraphMatcher
from repro.query.instance import QueryInstance

#: An edge as a (source, target, label) triple.
EdgeKey = Tuple[int, int, str]

#: An attribute update as a (node_id, attribute, value) triple; a value of
#: ``None`` removes the attribute (literals on missing attributes never
#: match, so removal is the natural inverse of a first assignment).
AttrKey = Tuple[int, str, Any]


@dataclass(frozen=True)
class GraphDelta:
    """A batch of edge insertions/deletions and node attribute updates.

    Node sets and labels are immutable here — the paper's incremental
    matching concerns structural (edge) updates, which is also the case
    with the interesting locality structure; attribute updates ride along
    for the streaming layer (they have trivial locality: only the updated
    node's literal membership can change).
    """

    insert_edges: Tuple[EdgeKey, ...] = ()
    delete_edges: Tuple[EdgeKey, ...] = ()
    set_attributes: Tuple[AttrKey, ...] = ()

    @cached_property
    def touched_nodes(self) -> FrozenSet[int]:
        """All endpoints of inserted/deleted edges plus attr-updated nodes.

        Computed once per delta — this sits on the hot locality path
        (every maintained instance reads it on every update), and deltas
        are frozen, so the frozenset never changes after construction.
        """
        nodes: Set[int] = set()
        for source, target, _ in self.insert_edges + self.delete_edges:
            nodes.add(source)
            nodes.add(target)
        for node, _, _ in self.set_attributes:
            nodes.add(node)
        return frozenset(nodes)

    @property
    def is_empty(self) -> bool:
        return (
            not self.insert_edges
            and not self.delete_edges
            and not self.set_attributes
        )


def validate_delta(graph: AttributedGraph, delta: GraphDelta) -> None:
    """Raise :class:`GraphError` unless ``delta`` is applicable to ``graph``.

    Checks every deleted edge exists and every inserted edge / attribute
    update references known nodes (silently ignoring either would mask
    test bugs), so a bad delta is rejected *before* any state changes.
    """
    for key in delta.delete_edges:
        if not graph.has_edge(*key):
            raise GraphError(f"cannot delete missing edge {key}")
    for source, target, _ in delta.insert_edges:
        if source not in graph or target not in graph:
            raise GraphError(f"insert references unknown node: {source}->{target}")
    for node, _, _ in delta.set_attributes:
        if node not in graph:
            raise GraphError(f"attribute update references unknown node {node}")


@dataclass(frozen=True)
class DeltaReceipt:
    """What an in-place application actually changed.

    The repair substrate consumes this: touched nodes drive adjacency-row
    and score invalidation, touched (label, attribute) pairs drive
    attribute-table and literal-mask invalidation.

    Attributes:
        delta: The delta that was applied.
        touched_nodes: Endpoints of inserted/deleted edges plus
            attribute-updated nodes.
        touched_attributes: Distinct (node label, attribute name) pairs
            whose values changed.
        edges_inserted: Edges actually added (an insert of a present edge
            is idempotent and not counted).
        edges_deleted: Edges removed.
        attributes_set: Attribute triples applied (post-coalescing count).
    """

    delta: GraphDelta
    touched_nodes: FrozenSet[int]
    touched_attributes: Tuple[Tuple[str, str], ...]
    edges_inserted: int
    edges_deleted: int
    attributes_set: int


def apply_delta_in_place(graph: AttributedGraph, delta: GraphDelta) -> DeltaReceipt:
    """Mutate ``graph`` into ``G ⊕ Δ``; return the :class:`DeltaReceipt`.

    Validates first (:func:`validate_delta` — no partial application on a
    bad delta), then applies deletions before insertions (an edge listed
    in both ends up present) and attribute updates last-wins per (node,
    attribute). Each hook call also repairs the graph-owned derived state
    in place (ball kernel, Gower columns, indexes, literal-mask memo,
    active domains, label attribute names), so no separate invalidation
    step exists — or is needed — here.
    """
    validate_delta(graph, delta)

    deleted = 0
    for source, target, label in delta.delete_edges:
        graph._delete_edge_in_place(source, target, label)
        deleted += 1
    inserted = 0
    for source, target, label in delta.insert_edges:
        if graph._insert_edge_in_place(source, target, label):
            inserted += 1

    # Coalesce duplicate (node, attribute) triples to their last value so
    # the graph sees one write per pair — same result, and the receipt's
    # attributes_set matches what actually changed.
    final_values: Dict[Tuple[int, str], Any] = {}
    for node, name, value in delta.set_attributes:
        final_values[(node, name)] = value
    pairs: List[Tuple[str, str]] = []
    seen_pairs: Set[Tuple[str, str]] = set()
    for (node, name), value in final_values.items():
        graph._set_attribute_in_place(node, name, value)
        pair = (graph.label(node), name)
        if pair not in seen_pairs:
            seen_pairs.add(pair)
            pairs.append(pair)

    return DeltaReceipt(
        delta=delta,
        touched_nodes=delta.touched_nodes,
        touched_attributes=tuple(pairs),
        edges_inserted=inserted,
        edges_deleted=deleted,
        attributes_set=len(final_values),
    )


def apply_delta(graph: AttributedGraph, delta: GraphDelta) -> AttributedGraph:
    """Materialize ``G ⊕ Δ`` as a new frozen graph; ``graph`` is untouched.

    A :meth:`~repro.graph.attributed_graph.AttributedGraph.copy` (which
    carries no derived state) mutated by :func:`apply_delta_in_place`.
    Raises :class:`GraphError` on an inapplicable delta.
    """
    copy = graph.copy()
    apply_delta_in_place(copy, delta)
    return copy


def graph_signature(graph: AttributedGraph) -> Tuple[Any, ...]:
    """A canonical, order-independent fingerprint of a graph's content.

    Two graphs have equal signatures iff they agree on nodes (id, label,
    attribute map) and edges (source, target, label). Attribute maps and
    edge multisets are sorted, so insertion order never leaks in.
    """
    nodes = tuple(
        (node.node_id, node.label, tuple(sorted(node.attributes.items())))
        for node in sorted(graph.nodes(), key=lambda n: n.node_id)
    )
    edges = tuple(sorted(edge.key for edge in graph.edges()))
    return (nodes, edges)


def invert_delta(graph: AttributedGraph, delta: GraphDelta) -> GraphDelta:
    """The delta that undoes ``delta``, computed against the pre-state.

    Must be called *before* ``delta`` is applied to ``graph`` (old
    attribute values and edge existence are read from it). Edges listed
    as both deleted and inserted are net no-ops and drop out; inserting
    an already-present edge is idempotent and likewise contributes
    nothing to the inverse. For attribute updates the inverse restores
    the first-seen old value per (node, attribute) — ``None`` when the
    attribute was absent.
    """
    validate_delta(graph, delta)
    insert_set = set(delta.insert_edges)
    delete_set = set(delta.delete_edges)
    undo_inserts = tuple(
        key for key in delta.delete_edges if key not in insert_set
    )
    undo_deletes = tuple(
        key
        for key in delta.insert_edges
        if key not in delete_set and not graph.has_edge(*key)
    )
    old_values = {}
    for node, name, _ in delta.set_attributes:
        if (node, name) not in old_values:
            old_values[(node, name)] = graph.attribute(node, name)
    undo_attrs = tuple(
        (node, name, value) for (node, name), value in old_values.items()
    )
    return GraphDelta(
        insert_edges=undo_inserts,
        delete_edges=undo_deletes,
        set_attributes=undo_attrs,
    )


class IncrementalMatchMaintainer:
    """Maintains ``q(G)`` across deltas for one query instance.

    Each :meth:`apply` materializes ``G ⊕ Δ`` with :func:`apply_delta`
    (a copy updated by the in-place path, so the old graph stays intact
    for the old-side ball) and repairs the answer with
    :func:`~repro.streaming.reverify.reverify_matches` over the two-sided
    ball of the touched nodes — the streaming session's repair, for one
    instance and without scoring. An empty delta returns the current
    graph object.

    Example:
        >>> maintainer = IncrementalMatchMaintainer(graph, instance)
        >>> matches = maintainer.matches  # Initial full verification.
        >>> new_graph = maintainer.apply(delta)  # Localized re-verification.
        >>> maintainer.matches  # Now equals a fresh full match on new_graph.
    """

    def __init__(self, graph: AttributedGraph, instance: QueryInstance) -> None:
        # repro.streaming imports this module (GraphDelta): import lazily.
        from repro.streaming.reverify import instance_diameter

        self.graph = graph
        self.instance = instance
        self._diameter = instance_diameter(instance)
        self._mask = SubgraphMatcher(graph).match(instance).mask
        #: Re-verified candidates on the last apply (work metric for tests).
        self.last_rechecked = 0

    @property
    def matches(self) -> FrozenSet[int]:
        """The maintained ``q(G)`` on the current graph."""
        label = self.instance.node_label(self.instance.output_node)
        return self.graph.enumeration(label).to_ids(self._mask)

    def apply(self, delta: GraphDelta) -> AttributedGraph:
        """Apply a delta; updates :attr:`matches` with localized work.

        Returns the new graph (which becomes the maintainer's current one).
        The old and new graphs share their node set, so the old-side and
        new-side balls share one enumeration and union bit by bit.
        """
        from repro.streaming.reverify import reverify_matches

        if delta.is_empty:
            self.last_rechecked = 0
            return self.graph
        new_graph = apply_delta(self.graph, delta)
        touched = delta.touched_nodes
        # Two-sided influence ball: old-graph reachability covers lost
        # support, new-graph reachability covers gained support.
        ball = d_hop_ball(self.graph, touched, self._diameter) | d_hop_ball(
            new_graph, touched, self._diameter
        )
        self._mask, self.last_rechecked = reverify_matches(
            SubgraphMatcher(new_graph), new_graph, self.instance, self._mask, ball,
            self._diameter,
        )
        self.graph = new_graph
        return new_graph
