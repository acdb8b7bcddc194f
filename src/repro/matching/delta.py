"""Match maintenance under graph updates (the paper's ref [17] substrate).

RfQGen's incVerify handles *query* refinement; this module handles *data*
change: given a verified answer ``q(G)`` and a batch of edge insertions
and deletions, compute ``q(G ⊕ Δ)`` re-verifying only the region the
delta can influence.

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
from typing import Any, FrozenSet, Set, Tuple

from repro.errors import GraphError
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.builder import GraphBuilder
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
    test bugs). Shared by the materializing and in-place apply paths so
    both reject a delta *before* any state changes.
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


def apply_delta(graph: AttributedGraph, delta: GraphDelta) -> AttributedGraph:
    """Materialize ``G ⊕ Δ`` as a new frozen graph.

    Deletions are applied before insertions (an edge listed in both ends
    up present), then attribute updates with last-wins semantics per
    (node, attribute). Raises :class:`GraphError` on an inapplicable
    delta — see :func:`validate_delta`.
    """
    validate_delta(graph, delta)
    deletions = set(delta.delete_edges)
    attrs = {node: None for node, _, _ in delta.set_attributes}
    for node in attrs:
        attrs[node] = dict(graph.attributes(node))
    for node, name, value in delta.set_attributes:
        if value is None:
            attrs[node].pop(name, None)
        else:
            attrs[node][name] = value

    builder = GraphBuilder(graph.name)
    for node in graph.nodes():
        attributes = attrs.get(node.node_id, node.attributes)
        builder.node_with_id(node.node_id, node.label, **dict(attributes))
    for edge in graph.edges():
        if edge.key not in deletions:
            builder.edge(edge.source, edge.target, edge.label)
    for source, target, label in delta.insert_edges:
        builder.edge(source, target, label)
    return builder.build()


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

    Each :meth:`apply` materializes ``G ⊕ Δ`` and repairs the answer with
    :func:`~repro.streaming.reverify.reverify_matches` over the two-sided
    ball of the touched nodes — the streaming session's repair, for one
    instance and without scoring.

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
