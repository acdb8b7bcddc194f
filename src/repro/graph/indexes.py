"""Secondary indexes over an attributed graph.

The matching engine evaluates literal predicates ``u.A op c`` over all nodes
with a given label; a naive scan is O(|V(label)|) per evaluation. The
:class:`AttributeIndex` keeps, per (label, attribute), node ids sorted by
attribute value, so a range predicate resolves with two binary searches.

The :class:`BitsetIndex` additionally reads, per node label, the graph's
*dense enumeration* of the label's nodes (bit position ↔ node id,
:class:`~repro.graph.attributed_graph.LabelEnumeration`) and owns lazily
materialized adjacency rows — one Python integer per data node in a
table per ``(label, edge label, direction, neighbor label)`` relation —
which is the substrate of the bitset matching engine
(:mod:`repro.matching.bitset`): candidate pools become integer bitmasks
and support checks become single AND operations. :class:`LiteralMasks`
memoizes literal masks over those enumerations, and :class:`SupportMemo`
the AC-3 supports of query-edge constraints.

Every graph owns one :class:`GraphIndexes`
(:meth:`~repro.graph.attributed_graph.AttributedGraph.indexes`), which its
in-place hooks repair. The indexes hold the graph's node, label and
adjacency containers, never the graph itself, so a graph and its indexes
form no reference cycle.
"""

from __future__ import annotations

import bisect
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.graph.attributed_graph import _sort_key
from repro.query.predicates import Op

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.graph.attributed_graph import AttributedGraph

#: LRU bound of a graph's :class:`LiteralMasks` memo.
LITERAL_MASK_ENTRIES = 4096
#: LRU bound of a graph's :class:`SupportMemo`.
SUPPORT_MEMO_ENTRIES = 4096


class AttributeIndex:
    """Sorted per-(label, attribute) index supporting range predicates.

    For each (label, attribute) pair accessed, lazily builds a list of
    ``(value, node_id)`` entries sorted by value, plus the parallel list of
    sort keys for binary search. Nodes lacking the attribute are excluded —
    a literal on a missing attribute never matches, mirroring SQL-like
    three-valued semantics collapsed to False.
    """

    def __init__(self, graph: "AttributedGraph") -> None:
        self._nodes = graph._nodes
        self._by_label = graph._by_label
        self._sorted: Dict[Tuple[str, str], Tuple[List[Any], List[int]]] = {}

    def _value(self, node_id: int, attribute: str) -> Any:
        return self._nodes[node_id].attributes.get(attribute)

    def _table(self, label: str, attribute: str) -> Tuple[List[Any], List[int]]:
        key = (label, attribute)
        table = self._sorted.get(key)
        if table is None:
            nodes = self._nodes
            entries: List[Tuple[Tuple[int, Any], int]] = []
            for node_id in self._by_label.get(label, ()):
                value = nodes[node_id].attributes.get(attribute)
                if value is not None:
                    entries.append((_sort_key(value), node_id))
            entries.sort()
            table = ([item[0] for item in entries], [item[1] for item in entries])
            self._sorted[key] = table
        return table

    def drop_tables(self, pairs: Iterable[Tuple[str, str]]) -> int:
        """Invalidate the sorted tables of the given (label, attribute) pairs.

        The streaming repair path calls this after in-place attribute
        updates — only the touched pairs rebuild on next access; every
        other table stays warm. Returns how many live tables were dropped.
        """
        dropped = 0
        for key in pairs:
            if self._sorted.pop(key, None) is not None:
                dropped += 1
        return dropped

    def _bounds(self, keys: List[Any], op: Op, constant: Any) -> Tuple[int, int, bool]:
        """``[lo, hi)`` of the sorted ``keys`` where ``value op constant``
        can hold, plus whether that slice must still be filtered.

        A literal only holds between values of the constant's type group
        (numbers and bools form one group, each other type its own; see
        :meth:`~repro.query.predicates.Op.evaluate`), so the slice never
        leaves the group. Within the number and ``str`` groups the sort
        keys follow native order and the slice is exact; for any other
        constant (or NaN) it is the whole group, to be filtered with the
        literal itself, since ``str()`` order is not native order.
        """
        pivot = _sort_key(constant)
        start = bisect.bisect_left(keys, pivot[:2])
        stop = bisect.bisect_left(keys, (pivot[0], pivot[1] + "\0"))
        if not isinstance(constant, (int, float, str)) or constant != constant:
            return start, stop, True
        if op is Op.GE:
            return bisect.bisect_left(keys, pivot, start, stop), stop, False
        if op is Op.GT:
            return bisect.bisect_right(keys, pivot, start, stop), stop, False
        if op is Op.LE:
            return start, bisect.bisect_right(keys, pivot, start, stop), False
        if op is Op.LT:
            return start, bisect.bisect_left(keys, pivot, start, stop), False
        if op is Op.EQ:
            return (
                bisect.bisect_left(keys, pivot, start, stop),
                bisect.bisect_right(keys, pivot, start, stop),
                False,
            )
        raise ValueError(f"unsupported operator {op}")  # pragma: no cover

    def _matching(self, label: str, attribute: str, op: Op, constant: Any) -> List[int]:
        keys, ids = self._table(label, attribute)
        lo, hi, filtered = self._bounds(keys, op, constant)
        if not filtered:
            return ids[lo:hi]
        value = self._value
        return [v for v in ids[lo:hi] if op.evaluate(value(v, attribute), constant)]

    def matching_nodes(self, label: str, attribute: str, op: Op, constant: Any) -> Set[int]:
        """Node ids with ``label`` whose ``attribute op constant`` holds
        (exactly the nodes :meth:`~repro.query.predicates.Literal.holds_for`
        accepts)."""
        return set(self._matching(label, attribute, op, constant))

    def count_matching(self, label: str, attribute: str, op: Op, constant: Any) -> int:
        """Selectivity counter: how many nodes satisfy the literal."""
        return len(self._matching(label, attribute, op, constant))

    def values(self, label: str, attribute: str) -> List[Any]:
        """Sorted distinct values of ``attribute`` over nodes with ``label``."""
        keys, ids = self._table(label, attribute)
        out: List[Any] = []
        previous: Optional[Tuple[int, Any]] = None
        for key, node_id in zip(keys, ids):
            if key != previous:
                out.append(self._value(node_id, attribute))
                previous = key
        return out


class BitsetIndex:
    """Adjacency-row bitmasks over the graph's per-label enumerations.

    Each label has one stable enumeration — node ids sorted ascending, bit
    ``i`` of a mask standing for the i-th id, owned by the graph
    (:meth:`~repro.graph.attributed_graph.AttributedGraph.enumeration`) —
    so every candidate pool of a query node with that label is one
    arbitrary-precision integer.
    Adjacency rows answer "which nodes of label ``L`` are successors
    (resp. predecessors) of data node ``v`` under edge label ``l``" as a
    mask over ``L``'s enumeration; rows are built on first touch and
    cached for the lifetime of the index, which one generation run shares
    across thousands of lattice siblings.
    """

    def __init__(self, graph: "AttributedGraph") -> None:
        self._nodes = graph._nodes
        self._enumeration = graph._enumerations
        self._out = graph._out
        self._in = graph._in
        self._rows: Dict[Tuple[str, str, bool, str], List[Optional[int]]] = {}

    # -- Enumeration ----------------------------------------------------- #

    def order(self, label: str) -> Tuple[int, ...]:
        """Node ids of ``label`` in bit-position order (ascending ids)."""
        return self._enumeration[label].ids

    def positions(self, label: str) -> Dict[int, int]:
        """Inverse enumeration: node id → bit position."""
        return self._enumeration[label].position

    def full_mask(self, label: str) -> int:
        """Mask with one bit set per node of ``label`` (the label pool)."""
        return self._enumeration[label].full

    def mask_of(self, label: str, nodes: Iterable[int]) -> int:
        """Mask over ``label``'s enumeration for an id collection.

        Ids not carrying ``label`` are ignored (a restrict set may be an
        arbitrary superset bound).
        """
        return self._enumeration[label].mask_of(nodes)

    def to_ids(self, label: str, mask: int) -> FrozenSet[int]:
        """Materialize a mask back into a node-id set (the graph's own id
        objects)."""
        return self._enumeration[label].to_ids(mask)

    # -- Adjacency rows --------------------------------------------------- #
    #
    # Rows live in one table per relation ``(label, edge label, direction,
    # neighbor label)``: a list indexed by the anchor's bit position in
    # ``label``'s enumeration. A row is stored *encoded*: a node with
    # exactly one neighbor, at bit position p, stores ``~p`` (negative)
    # instead of the dense ``1 << p``, which would cost ~p/8 bytes; on
    # sparse graphs such rows are the plurality. Every other row is its
    # dense mask (0 without neighbors). Unbuilt rows are ``None``.

    def relation(
        self, label: str, edge_label: str, outgoing: bool, neighbor_label: str
    ) -> List[Optional[int]]:
        """The encoded row table of one relation, indexed by bit position.

        The matcher fetches a query edge's table once and then reads
        ``table[position]`` per candidate, building missing rows with
        :meth:`row`.
        """
        key = (label, edge_label, outgoing, neighbor_label)
        table = self._rows.get(key)
        if table is None:
            table = self._rows[key] = [None] * len(self.order(label))
        return table

    def row(
        self,
        position: int,
        label: str,
        edge_label: str,
        outgoing: bool,
        neighbor_label: str,
    ) -> int:
        """The encoded row of the ``position``-th ``label`` node.

        ``outgoing=True`` reads successors (edges ``node → ·``), ``False``
        predecessors. Built on first touch and cached.
        """
        table = self.relation(label, edge_label, outgoing, neighbor_label)
        row = table[position]
        if row is None:
            node_id = self.order(label)[position]
            adjacency = self._out if outgoing else self._in
            row = self.mask_of(neighbor_label, adjacency[node_id].get(edge_label, ()))
            if row and not row & (row - 1):
                row = ~(row.bit_length() - 1)
            table[position] = row
        return row

    def adjacency_row(
        self, node_id: int, edge_label: str, outgoing: bool, neighbor_label: str
    ) -> int:
        """Dense mask of ``neighbor_label`` nodes adjacent to ``node_id``.

        ``outgoing=True`` reads successors (edges ``node_id → ·``),
        ``False`` predecessors.
        """
        label = self._nodes[node_id].label
        position = self.positions(label)[node_id]
        row = self.row(position, label, edge_label, outgoing, neighbor_label)
        return 1 << ~row if row < 0 else row

    def drop_rows(self, nodes: Iterable[int]) -> int:
        """Invalidate the cached adjacency rows of the given data nodes.

        An edge delta only changes rows anchored at a touched endpoint;
        the per-label enumerations, inverse positions and full masks are
        node-set properties and survive every edge/attribute update, so
        this is the *whole* bitset repair for an in-place delta. Costs
        O(touched nodes × relations). Returns how many rows were dropped.
        """
        touched = set(nodes)
        dropped = 0
        for (label, _, _, _), table in list(self._rows.items()):
            positions = self.positions(label)
            for node in touched:
                position = positions.get(node)
                if position is not None and table[position] is not None:
                    table[position] = None
                    dropped += 1
        return dropped

    @property
    def cached_rows(self) -> int:
        """Number of adjacency rows materialized so far (observability)."""
        return sum(len(table) - table.count(None) for table in self._rows.values())


class _GroupedLRU:
    """An LRU memo behind one lock, its keys grouped for bulk repair.

    Engines on several threads share a graph's memos, so every read and
    write holds the lock. ``_group(key)`` names the group a key belongs
    to, so a graph hook can reach exactly the keys an update touches.
    A group maps ``id(key)`` to the stored key object: a key can hold a
    mask of thousands of bits, which Python hashes anew on every dict
    operation, so the group index never hashes one, and a store hashes
    its key once.
    """

    def __init__(self, max_entries: int) -> None:
        self._max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple, Any]" = OrderedDict()
        self._groups: Dict[Any, Dict[int, Tuple]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def _group(key: Tuple) -> Any:  # pragma: no cover - overridden
        raise NotImplementedError

    def lookup(self, key: Tuple) -> Any:
        """The memoized value of ``key`` (None when absent), refreshed as
        most recently used."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def store(self, key: Tuple, value: Any) -> None:
        """Memoize ``value``, evicting the least recently used key when full."""
        with self._lock:
            entries = self._entries
            size = len(entries)
            entries[key] = value
            if len(entries) == size:
                entries.move_to_end(key)
                return
            self._groups.setdefault(self._group(key), {})[id(key)] = key
            if len(entries) > self._max_entries:
                evicted, _ = entries.popitem(last=False)
                name = self._group(evicted)
                group = self._groups[name]
                del group[id(evicted)]
                if not group:
                    del self._groups[name]


class LiteralMasks(_GroupedLRU):
    """Bounded memo ``(label, attribute, op, constant) → candidate mask``.

    Masks are over the :class:`BitsetIndex` enumerations of the same
    :class:`GraphIndexes`, so every engine verifying against one graph can
    reuse them: an engine-local
    :class:`~repro.matching.bitset.LiteralPoolCache` miss is served from
    here before it computes. The key space is open-ended (every template
    and domain value ever served), so the memo is an LRU bounded by
    :data:`LITERAL_MASK_ENTRIES`. An in-place attribute update
    repairs the touched node's bit in the masks of the touched pair
    (:meth:`repair`); edge updates never change a literal mask.
    """

    def __init__(self, bitsets: BitsetIndex) -> None:
        super().__init__(LITERAL_MASK_ENTRIES)
        self._bitsets = bitsets

    @staticmethod
    def _group(key: Tuple) -> Tuple[str, str]:
        return key[:2]

    def repair(self, label: str, attribute: str, node_id: int, value: Any) -> int:
        """Re-test ``node_id``'s bit in every memoized mask over
        ``(label, attribute)`` against its new ``value`` (None = removed).

        Costs one literal test per memoized mask of the pair. Returns how
        many masks were repaired.
        """
        with self._lock:
            keys = self._groups.get((label, attribute))
            if not keys:
                return 0
            bit = 1 << self._bitsets.positions(label)[node_id]
            for key in keys.values():
                if key[2].evaluate(value, key[3]):
                    self._entries[key] |= bit
                else:
                    self._entries[key] &= ~bit
            return len(keys)


class SupportMemo(_GroupedLRU):
    """Bounded memo of AC-3 supports, ``relation + (neighbor pool,) →
    (known, support)``.

    A relation is ``(label, edge label, outgoing, neighbor label)`` and the
    neighbor pool a mask over the neighbor label's enumeration. Its
    support — the ``label`` nodes with an ``edge label`` edge to
    (``outgoing``) or from a node of the pool — depends only on the
    graph's edges of that label, so every engine matching against one
    graph reuses it. ``known`` masks the candidates whose support bit is
    settled (``-1`` after a whole-support sweep, the probed candidates
    after row probes) and ``support`` is exact on ``known`` and 0 outside
    it; the matcher fills a partial entry's unknown bits as candidates
    reach them (:meth:`~repro.matching.bitset.BitsetEngine._propagate`).
    The LRU bound is :data:`SUPPORT_MEMO_ENTRIES`. An in-place edge update
    drops the entries over its edge label (:meth:`drop_edge_label`);
    attribute updates never change a support.
    """

    def __init__(self) -> None:
        super().__init__(SUPPORT_MEMO_ENTRIES)

    @staticmethod
    def _group(key: Tuple) -> str:
        return key[1]

    def drop_edge_label(self, edge_label: str) -> int:
        """Drop every entry over ``edge_label``; returns the drop count."""
        with self._lock:
            keys = self._groups.pop(edge_label, {})
            for key in keys.values():
                del self._entries[key]
            return len(keys)


class GraphIndexes:
    """Bundle of all per-graph indexes, built lazily and shared.

    A graph's own bundle (:meth:`AttributedGraph.indexes
    <repro.graph.attributed_graph.AttributedGraph.indexes>`) is shared by
    every config, matcher and serving context on that graph, so index
    construction is paid once per graph, not once per run. The graph's
    in-place hooks repair it: an edge update drops the endpoints'
    adjacency rows and the supports over its edge label, an attribute
    update drops the pair's sorted table and repairs its literal masks.
    The label enumerations it reads are the graph's and describe the node
    set, which in-place updates never change. A bundle built directly
    with ``GraphIndexes(graph)`` is private to its caller and is not
    repaired.
    """

    def __init__(self, graph: "AttributedGraph") -> None:
        self._by_label = graph._by_label
        self.attributes = AttributeIndex(graph)
        self.bitsets = BitsetIndex(graph)
        self.literal_masks = LiteralMasks(self.bitsets)
        self.supports = SupportMemo()

    def warm(self, labels: Optional[Iterable[str]] = None) -> None:
        """Pre-build the cheap per-label state (serving cold-start cut).

        Materializes the label enumerations for ``labels`` (default: every
        node label), so the first request served does not pay them. Adjacency rows and attribute
        tables stay lazy — their key space is workload-dependent and
        pre-building all of them would dwarf a request.
        """
        for label in labels if labels is not None else list(self._by_label):
            self.bitsets.order(label)
