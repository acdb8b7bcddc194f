"""Core attributed directed graph store.

Implements ``G = (V, E, L, T)`` from Section II of the paper:

* ``V`` — a finite set of nodes, each identified by an integer id;
* ``E ⊆ V × V`` — directed edges, each carrying a label;
* ``L`` — a labeling assigning each node and edge a label;
* ``T`` — a tuple ``⟨(A_1, a_1), ..., (A_n, a_n)⟩`` of attribute/value
  pairs per node.

The store is optimized for the access patterns of subgraph matching and
query generation: adjacency is kept both forward and backward, grouped by
edge label, and node lookup by label is O(1) through an internal index.

The class is deliberately dependency-free (no networkx) so that matching
performance is predictable; a conversion helper to networkx exists for the
reference matcher used in tests (:mod:`repro.matching.nx_reference`).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

import numpy as np

from repro.errors import GraphError
from repro.graph.ball import BallKernel, bits_from_mask, mask_positions
from repro.graph.gower_columns import EXOTIC, CodeTable, GowerColumn

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (indexes → here)
    from repro.graph.indexes import GraphIndexes

#: Type alias for attribute values stored on nodes.
AttrValue = Any


@dataclass(frozen=True)
class Node:
    """A node of an attributed graph.

    Attributes:
        node_id: Integer identifier, unique within the graph.
        label: Node label (e.g. ``"person"``, ``"movie"``).
        attributes: Immutable mapping from attribute name to value.
    """

    node_id: int
    label: str
    attributes: Mapping[str, AttrValue] = field(default_factory=dict)

    def get(self, attribute: str, default: AttrValue = None) -> AttrValue:
        """Return the value of ``attribute`` or ``default`` if absent."""
        return self.attributes.get(attribute, default)

    def __contains__(self, attribute: str) -> bool:
        return attribute in self.attributes


class LabelEnumeration:
    """One label's nodes in bit-position order.

    Bit ``i`` of every mask over the label (answers, candidate pools,
    literal and group member masks), row ``i`` of every Gower column and
    position ``i`` of the ball kernel's label slice all stand for
    ``ids[i]``: every layer reads this one object.

    Attributes:
        label: The node label.
        ids: The label's node ids, ascending.
        position: The inverse map, node id → bit position.
        full: The mask of every node of the label.
    """

    __slots__ = ("label", "ids", "position", "full")

    def __init__(self, label: str, ids: Iterable[int]) -> None:
        self.label = label
        self.ids: Tuple[int, ...] = tuple(sorted(ids))
        self.position: Dict[int, int] = dict(zip(self.ids, range(len(self.ids))))
        self.full = (1 << len(self.ids)) - 1

    def positions(self, mask: int):
        """The set bit positions of ``mask``, an int64 array."""
        return np.flatnonzero(bits_from_mask(mask, len(self.ids)))

    def mask_of(self, nodes: Iterable[int]) -> int:
        """The mask of the ids among ``nodes`` that carry this label."""
        position = self.position
        mask = 0
        for v in nodes:
            bit = position.get(v)
            if bit is not None:
                mask |= 1 << bit
        return mask

    def to_ids(self, mask: int) -> FrozenSet[int]:
        """The ids behind ``mask`` (the graph's own id objects)."""
        ids = self.ids
        if mask.bit_count() >= VECTOR_TO_IDS_BITS:
            return frozenset([ids[i] for i in mask_positions(mask, len(ids))])
        out = []
        while mask:
            low = mask & -mask
            out.append(ids[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)


#: Masks with at least this many set bits materialize ids in one numpy
#: pass; sparser ones walk their bits, since the pass has a fixed cost of
#: about 16 bit steps on a 4k-node label.
VECTOR_TO_IDS_BITS = 16


class Enumerations(dict):
    """A graph's :class:`LabelEnumeration` per label, built on first
    lookup (``enumerations[label]``). In-place updates never change the
    node set; ``add_node`` replaces the whole store."""

    def __init__(self, by_label: Mapping[str, Iterable[int]]) -> None:
        super().__init__()
        self.by_label = by_label

    def __missing__(self, label: str) -> LabelEnumeration:
        # setdefault: threads racing on one label keep one object.
        return self.setdefault(label, LabelEnumeration(label, self.by_label.get(label, ())))


@dataclass(frozen=True)
class Edge:
    """A directed labeled edge ``source --label--> target``."""

    source: int
    target: int
    label: str

    @property
    def key(self) -> Tuple[int, int, str]:
        """The (source, target, label) triple identifying this edge."""
        return (self.source, self.target, self.label)


class AttributedGraph:
    """Directed graph with labeled nodes/edges and node attribute tuples.

    The graph is mutable while being built (see :class:`GraphBuilder` for a
    fluent construction API) and is treated as immutable by all algorithms;
    ``freeze()`` makes that contract explicit by rejecting later mutation.

    Example:
        >>> g = AttributedGraph()
        >>> _ = g.add_node(0, "person", {"age": 31})
        >>> _ = g.add_node(1, "org", {"employees": 1200})
        >>> _ = g.add_edge(0, 1, "worksAt")
        >>> sorted(g.nodes_with_label("person"))
        [0]
        >>> [e.target for e in g.out_edges(0)]
        [1]
    """

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self._nodes: Dict[int, Node] = {}
        self._out: Dict[int, Dict[str, Set[int]]] = {}
        self._in: Dict[int, Dict[str, Set[int]]] = {}
        self._by_label: Dict[str, Set[int]] = {}
        self._edge_count = 0
        #: edge label → number of edges carrying it (a label leaves with
        #: its last edge).
        self._edge_label_counts: Dict[str, int] = {}
        self._frozen = False
        self._enumerations = Enumerations(self._by_label)
        self._columns: Dict[Tuple[str, str], "GowerColumn"] = {}
        self._ball: Optional[BallKernel] = None
        self._indexes: Optional["GraphIndexes"] = None
        self._domains: Dict[Tuple[str, Optional[str]], List[AttrValue]] = {}
        self._label_attributes: Dict[str, Tuple[str, ...]] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def add_node(
        self,
        node_id: int,
        label: str,
        attributes: Optional[Mapping[str, AttrValue]] = None,
    ) -> Node:
        """Add a node; raises :class:`GraphError` on duplicate ids."""
        self._check_mutable()
        if node_id in self._nodes:
            raise GraphError(f"duplicate node id {node_id}")
        node = Node(node_id, label, dict(attributes or {}))
        self._nodes[node_id] = node
        self.clear_caches()  # label orders and domains changed
        self._out[node_id] = {}
        self._in[node_id] = {}
        self._by_label.setdefault(label, set()).add(node_id)
        return node

    def add_edge(self, source: int, target: int, label: str = "") -> Edge:
        """Add a directed edge; both endpoints must already exist.

        Parallel edges with the same label are collapsed (the store is a
        set of (source, target, label) triples, matching the paper's
        ``E ⊆ V × V`` model with labels).
        """
        self._check_mutable()
        if source not in self._nodes:
            raise GraphError(f"unknown source node {source}")
        if target not in self._nodes:
            raise GraphError(f"unknown target node {target}")
        out_by_label = self._out[source].setdefault(label, set())
        if target not in out_by_label:
            out_by_label.add(target)
            self._in[target].setdefault(label, set()).add(source)
            self._edge_count += 1
            self._edge_label_counts[label] = self._edge_label_counts.get(label, 0) + 1
            self._ball = None
            self._indexes = None
        return Edge(source, target, label)

    def copy(self) -> "AttributedGraph":
        """A frozen graph with this graph's name, nodes, edges and
        attributes, and none of its derived state (each piece rebuilds on
        first use).

        The copy shares the :class:`Node` objects, which the in-place
        hooks replace rather than mutate, and nothing mutable: in-place
        updates on either graph leave the other untouched.
        """
        graph = AttributedGraph(self.name)
        graph._nodes = dict(self._nodes)
        graph._out = {v: {k: set(e) for k, e in by.items()} for v, by in self._out.items()}
        graph._in = {v: {k: set(e) for k, e in by.items()} for v, by in self._in.items()}
        graph._by_label = {label: set(ids) for label, ids in self._by_label.items()}
        graph._enumerations = Enumerations(graph._by_label)
        graph._edge_count = self._edge_count
        graph._edge_label_counts = dict(self._edge_label_counts)
        return graph.freeze()

    def freeze(self) -> "AttributedGraph":
        """Mark the graph immutable; further mutation raises GraphError."""
        self._frozen = True
        return self

    def _check_mutable(self) -> None:
        if self._frozen:
            raise GraphError("graph is frozen; build a new graph instead")

    # ------------------------------------------------------------------ #
    # Derived state
    # ------------------------------------------------------------------ #
    #
    # Everything below is a pure function of the graph, built on first
    # use and shared by every config, matcher, measure and serving context
    # on this graph: the per-label enumerations, the indexes (attribute
    # tables, adjacency rows, literal masks, AC-3 supports), active
    # domains, per-label attribute names, the Gower columns and the ball
    # kernel.
    # ``add_node`` drops all of it, ``add_edge`` what depends on edges,
    # and the in-place hooks below repair it. None of it refers back to
    # the graph object itself.

    def clear_caches(self) -> None:
        """Drop every piece of derived state; each rebuilds on next use."""
        if self._enumerations:  # an empty store already follows the node set
            self._enumerations = Enumerations(self._by_label)
        self._columns = {}
        self._ball = None
        self._indexes = None
        self._domains.clear()
        self._label_attributes.clear()

    def indexes(self) -> "GraphIndexes":
        """The graph's :class:`~repro.graph.indexes.GraphIndexes` (built on
        first use, repaired by the in-place hooks)."""
        if self._indexes is None:
            from repro.graph.indexes import GraphIndexes

            self._indexes = GraphIndexes(self)
        return self._indexes

    def enumeration(self, label: str) -> LabelEnumeration:
        """The :class:`LabelEnumeration` of ``label`` (built on first use)."""
        return self._enumerations[label]

    # ------------------------------------------------------------------ #
    # Gower columns (the vectorised δ kernel's input)
    # ------------------------------------------------------------------ #

    def gower_column(self, label: str, attribute: str) -> "GowerColumn":
        """The ``(label, attribute)`` Gower column, row ``i`` for the label
        enumeration's ``ids[i]``. Built on first use,
        patched by ``_set_attribute_in_place``, dropped by ``add_node``."""
        column = self._columns.get((label, attribute))
        if column is None:
            column = GowerColumn(self._column_values(label, attribute))
            self._columns[(label, attribute)] = column
        return column

    def _column_values(self, label: str, attribute: str) -> List[AttrValue]:
        return [self._nodes[v].attributes.get(attribute) for v in self.enumeration(label).ids]

    def code_table(self, label: str, attribute: str) -> "CodeTable":
        """The :class:`~repro.graph.gower_columns.CodeTable` of
        :meth:`gower_column`."""
        ids = self.enumeration(label).ids
        return self.gower_column(label, attribute).code_table(
            lambda positions: [self._nodes[ids[i]].attributes.get(attribute) for i in positions]
        )

    # ------------------------------------------------------------------ #
    # d-hop ball kernel
    # ------------------------------------------------------------------ #

    def ball_kernel(self) -> BallKernel:
        """The graph's :class:`~repro.graph.ball.BallKernel` (built on
        first use). ``add_node``/``add_edge`` drop it, the in-place edge
        hooks splice it."""
        if self._ball is None:
            self._ball = BallKernel(self._enumerations, self._out)
        return self._ball

    # ------------------------------------------------------------------ #
    # In-place maintenance (repro.matching.delta.apply_delta_in_place only)
    # ------------------------------------------------------------------ #
    #
    # These three methods deliberately bypass the freeze contract: their
    # one caller mutates either the graph a streaming session owns or a
    # fresh copy (``apply_delta``). Each repairs the graph-owned derived
    # state it touches before returning, so that state never goes stale;
    # caches the caller keeps itself (verifier memos, engine-local literal
    # pools, scores) are the caller's to repair. Nothing else should call
    # them — algorithms keep treating graphs as immutable.

    def _insert_edge_in_place(self, source: int, target: int, label: str) -> bool:
        """Add one edge on a frozen graph; returns False if it existed."""
        if source not in self._nodes:
            raise GraphError(f"unknown source node {source}")
        if target not in self._nodes:
            raise GraphError(f"unknown target node {target}")
        out_by_label = self._out[source].setdefault(label, set())
        if target in out_by_label:
            return False
        out_by_label.add(target)
        self._in[target].setdefault(label, set()).add(source)
        self._edge_count += 1
        self._edge_label_counts[label] = self._edge_label_counts.get(label, 0) + 1
        self._edge_changed(source, target, label, inserted=True)
        return True

    def _delete_edge_in_place(self, source: int, target: int, label: str) -> None:
        """Remove one edge on a frozen graph; raises if it does not exist.
        A label whose last edge goes leaves ``edge_labels()``."""
        targets = self._out.get(source, {}).get(label)
        if targets is None or target not in targets:
            raise GraphError(f"cannot delete missing edge {(source, target, label)}")
        targets.discard(target)
        if not targets:
            del self._out[source][label]
        sources = self._in[target][label]
        sources.discard(source)
        if not sources:
            del self._in[target][label]
        self._edge_count -= 1
        if self._edge_label_counts[label] == 1:
            del self._edge_label_counts[label]
        else:
            self._edge_label_counts[label] -= 1
        self._edge_changed(source, target, label, inserted=False)

    def _edge_changed(self, source: int, target: int, label: str, inserted: bool) -> None:
        """Repair the edge-derived state: splice the ball kernel, drop the
        endpoints' adjacency rows and the AC-3 supports over ``label``."""
        if self._ball is not None:
            self._ball.splice_edge(source, target, label, inserted, self.neighbors)
        if self._indexes is not None:
            self._indexes.bitsets.drop_rows((source, target))
            self._indexes.supports.drop_edge_label(label)

    def _set_attribute_in_place(
        self, node_id: int, name: str, value: Optional[AttrValue]
    ) -> AttrValue:
        """Set (or, with ``None``, remove) one attribute; returns the old value.

        Nodes are frozen dataclasses, so the node object is replaced
        wholesale — existing Node references keep describing the
        pre-update state.
        """
        node = self.node(node_id)
        attributes = dict(node.attributes)
        old = attributes.get(name)
        if value is None:
            attributes.pop(name, None)
        else:
            attributes[name] = value
        label = node.label
        self._domains.pop((name, None), None)
        domain = self._domains.pop((name, label), None)
        repair = None
        # A stored None sits in the domain but not in the column: rescan.
        if domain is not None and (old is not None or name not in node.attributes):
            repair = self._domain_repair(label, name, node_id, old)
        self._nodes[node_id] = Node(node_id, label, attributes)
        column = self._columns.get((label, name))
        if column is not None:
            column.patch(
                self.enumeration(label).position[node_id], value,
                lambda: self._column_values(label, name),
            )
        if repair is not None and repair(domain, value):
            self._domains[(name, label)] = domain
        if self._indexes is not None:
            self._indexes.attributes.drop_tables(((label, name),))
            self._indexes.literal_masks.repair(label, name, node_id, value)
        if (name in node.attributes) != (name in attributes):
            self._label_attributes.pop(label, None)
        return old

    def _domain_repair(self, label: str, name: str, node_id: int, old: Optional[AttrValue]):
        """Prepare to repair the memoized ``(name, label)`` active domain
        across one cell rewrite.

        Called before the rewrite: it builds the Gower column if need be
        and notes the old value's ``==`` class (its code's positions).
        The returned ``repair(domain, value)``, called after the column is
        patched, edits ``domain`` in place — each class keeps the value on
        its lowest-id node, as :meth:`active_domain` scans them — and
        returns False when it cannot (the domain is then rebuilt on the
        next read).
        """
        column = self.gower_column(label, name)
        ids = self.enumeration(label).ids
        position = self.enumeration(label).position[node_id]
        old_code = int(column.codes[position])
        before = np.flatnonzero(column.codes == old_code) if old_code >= 0 else None

        def read(p: int) -> AttrValue:
            return self._nodes[ids[p]].attributes[name]

        def repair(domain: List[AttrValue], value: Optional[AttrValue]) -> bool:
            if column.exotic or old_code == EXOTIC:
                return False
            new_code = int(column.codes[position])
            drop: List[AttrValue] = []
            add: List[AttrValue] = []
            stayed = False
            if before is not None:
                rest = before[before != position]
                stayed = new_code == old_code and rest.size > 0
                if before[0] == position:  # the node held the class's entry
                    drop.append(old)
                    if stayed:
                        add.append(value)
                    elif rest.size:
                        add.append(read(rest[0]))
            if new_code >= 0 and not stayed:
                after = np.flatnonzero(column.codes == new_code)
                if after[0] == position:
                    if after.size > 1:
                        drop.append(read(after[1]))
                    add.append(value)
            return all(_remove_sorted(domain, v) for v in drop) and all(
                _insert_sorted(domain, v) for v in add
            )

        return repair

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #

    @property
    def num_nodes(self) -> int:
        """Number of nodes ``|V|``."""
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        """Number of distinct labeled edges ``|E|``."""
        return self._edge_count

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._nodes

    def node(self, node_id: int) -> Node:
        """Return the :class:`Node` with ``node_id``; raises if unknown."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise GraphError(f"unknown node {node_id}") from None

    def has_node(self, node_id: int) -> bool:
        """True if ``node_id`` exists in the graph."""
        return node_id in self._nodes

    def label(self, node_id: int) -> str:
        """The label ``L(v)`` of the node."""
        return self.node(node_id).label

    def attributes(self, node_id: int) -> Mapping[str, AttrValue]:
        """The attribute tuple ``T(v)`` of the node."""
        return self.node(node_id).attributes

    def attribute(self, node_id: int, name: str, default: AttrValue = None) -> AttrValue:
        """Single attribute value lookup with default."""
        return self.node(node_id).attributes.get(name, default)

    def nodes(self) -> Iterator[Node]:
        """Iterate over all nodes."""
        return iter(self._nodes.values())

    def node_ids(self) -> Iterator[int]:
        """Iterate over all node ids."""
        return iter(self._nodes.keys())

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges."""
        for source, by_label in self._out.items():
            for label, targets in by_label.items():
                for target in targets:
                    yield Edge(source, target, label)

    # ------------------------------------------------------------------ #
    # Label / adjacency queries
    # ------------------------------------------------------------------ #

    def node_labels(self) -> FrozenSet[str]:
        """The set of all node labels used in the graph."""
        return frozenset(self._by_label.keys())

    def edge_labels(self) -> FrozenSet[str]:
        """The set of all edge labels used in the graph."""
        return frozenset(self._edge_label_counts)

    def nodes_with_label(self, label: str) -> FrozenSet[int]:
        """All node ids whose label is ``label`` (the paper's ``V(u)``)."""
        return frozenset(self._by_label.get(label, frozenset()))

    def count_label(self, label: str) -> int:
        """``|V(u)|`` — number of nodes carrying ``label``."""
        return len(self._by_label.get(label, ()))

    def has_edge(self, source: int, target: int, label: str = "") -> bool:
        """True iff the labeled edge exists."""
        return target in self._out.get(source, {}).get(label, ())

    def successors(self, node_id: int, label: Optional[str] = None) -> Set[int]:
        """Targets of out-edges, optionally restricted to one edge label."""
        by_label = self._out.get(node_id, {})
        if label is not None:
            return set(by_label.get(label, ()))
        result: Set[int] = set()
        for targets in by_label.values():
            result.update(targets)
        return result

    def predecessors(self, node_id: int, label: Optional[str] = None) -> Set[int]:
        """Sources of in-edges, optionally restricted to one edge label."""
        by_label = self._in.get(node_id, {})
        if label is not None:
            return set(by_label.get(label, ()))
        result: Set[int] = set()
        for sources in by_label.values():
            result.update(sources)
        return result

    def neighbors(self, node_id: int) -> Set[int]:
        """Union of successors and predecessors (undirected neighborhood)."""
        return self.successors(node_id) | self.predecessors(node_id)

    def out_edges(self, node_id: int) -> Iterator[Edge]:
        """Iterate over the out-edges of a node."""
        for label, targets in self._out.get(node_id, {}).items():
            for target in targets:
                yield Edge(node_id, target, label)

    def in_edges(self, node_id: int) -> Iterator[Edge]:
        """Iterate over the in-edges of a node."""
        for label, sources in self._in.get(node_id, {}).items():
            for source in sources:
                yield Edge(source, node_id, label)

    def out_degree(self, node_id: int) -> int:
        """Number of out-edges of the node."""
        return sum(len(t) for t in self._out.get(node_id, {}).values())

    def in_degree(self, node_id: int) -> int:
        """Number of in-edges of the node."""
        return sum(len(s) for s in self._in.get(node_id, {}).values())

    def degree(self, node_id: int) -> int:
        """Total degree (in + out)."""
        return self.out_degree(node_id) + self.in_degree(node_id)

    # ------------------------------------------------------------------ #
    # Attribute queries
    # ------------------------------------------------------------------ #

    def attribute_names(self) -> FrozenSet[str]:
        """The set ``A`` of all attribute names appearing on any node."""
        names: Set[str] = set()
        for node in self._nodes.values():
            names.update(node.attributes.keys())
        return frozenset(names)

    def label_attribute_names(self, label: str) -> Tuple[str, ...]:
        """Sorted names of the attributes some node with ``label`` carries
        (memoized; dropped when a name appears on or leaves a node)."""
        names = self._label_attributes.get(label)
        if names is None:
            found: Set[str] = set()
            for node_id in self._by_label.get(label, ()):
                found.update(self._nodes[node_id].attributes)
            names = self._label_attributes[label] = tuple(sorted(found))
        return names

    def active_domain(self, attribute: str, label: Optional[str] = None) -> List[AttrValue]:
        """``adom(A)`` — sorted distinct values of ``attribute``.

        When ``label`` is given, only nodes with that label contribute,
        which is the domain the spawner actually enumerates (predicates are
        anchored at a labeled query node). Memoized per
        ``(attribute, label)``; every call returns a fresh list.
        """
        key = (attribute, label)
        domain = self._domains.get(key)
        if domain is None:
            ids: Iterable[int]
            if label is None:
                ids = self._nodes.keys()
            else:
                ids = self._by_label.get(label, ())
            # Ascending ids: each ``==`` class keeps its lowest-id node's
            # value, the one ``_set_attribute_in_place`` repairs toward.
            values = {
                self._nodes[i].attributes[attribute]
                for i in sorted(ids)
                if attribute in self._nodes[i].attributes
            }
            domain = self._domains[key] = sorted(values, key=_sort_key)
        return list(domain)

    # ------------------------------------------------------------------ #
    # Interop
    # ------------------------------------------------------------------ #

    def to_networkx(self):
        """Convert to a ``networkx.MultiDiGraph`` (for the reference matcher)."""
        import networkx as nx

        g = nx.MultiDiGraph(name=self.name)
        for node in self._nodes.values():
            g.add_node(node.node_id, label=node.label, **dict(node.attributes))
        for edge in self.edges():
            g.add_edge(edge.source, edge.target, label=edge.label)
        return g

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AttributedGraph(name={self.name!r}, |V|={self.num_nodes}, "
            f"|E|={self.num_edges}, labels={len(self._by_label)})"
        )


def _remove_sorted(domain: List[AttrValue], value: AttrValue) -> bool:
    """Delete ``value`` (that very object) from a ``_sort_key``-sorted list."""
    key = _sort_key(value)
    start = bisect.bisect_left(domain, key, key=_sort_key)
    for i in range(start, bisect.bisect_right(domain, key, key=_sort_key)):
        if domain[i] is value:
            del domain[i]
            return True
    return False


def _insert_sorted(domain: List[AttrValue], value: AttrValue) -> bool:
    """Insert ``value`` into a ``_sort_key``-sorted list; False when an
    entry shares its key (their order would depend on the scan)."""
    key = _sort_key(value)
    start = bisect.bisect_left(domain, key, key=_sort_key)
    if start < len(domain) and _sort_key(domain[start]) == key:
        return False
    domain.insert(start, value)
    return True


def _sort_key(value: AttrValue) -> Tuple[int, str, Any]:
    """Total order over mixed-type attribute values (numbers before strings).

    The middle component is the type name for non-numeric values, so two
    distinct types whose ``str()`` collide (say ``(1, 2)`` the tuple and
    ``"(1, 2)"`` the string) cannot be conflated by indexes keyed on sort
    keys. Numbers share one bucket (``5`` and ``5.0`` compare equal and
    must sort together); within the homogeneous columns the generators
    produce, the relative order is unchanged from the historical
    ``(bucket, value)`` form.
    """
    if isinstance(value, bool):
        return (0, "", int(value))
    if isinstance(value, (int, float)):
        return (0, "", value)
    return (1, type(value).__name__, str(value))
