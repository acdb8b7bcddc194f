"""The d-hop ball kernel: ``G_q^d`` as label masks.

Template refinement (paper §IV, Spawn) restricts a child's range domains
and edge variables to the d-hop ball ``G_q^d`` around the parent's
matches; the streaming layer repairs answers inside the two-sided ball of
an update (the locality lemma, :mod:`repro.streaming.reverify`). Both read
the ball through one walk:

* :class:`BallKernel` — an undirected CSR (in- plus out-neighbours over
  every edge label, int32 targets) whose enumeration is label-grouped:
  labels sorted, each label's slice its
  :class:`~repro.graph.attributed_graph.LabelEnumeration`, so a slice
  position is a bit of that label's masks and a row of its Gower
  columns. Per edge label it also keeps the edges'
  endpoint positions, which the matcher's AC-3 support sweeps read
  (:meth:`BallKernel.support`). The kernel belongs to one graph
  (``graph.ball_kernel()``: built lazily, dropped by ``add_node`` /
  ``add_edge``, spliced in place by the streaming edge hooks) and holds no
  reference back to it.
* :class:`Ball` — the result of one level-synchronous walk: a boolean
  vector over the enumeration, read as per-label masks (matcher
  restricts), per-label vectors (Gower column reads) or an id set.
* :class:`BallDepths` — the depth variant: one walk to the largest
  ledger diameter yields the ball of every smaller one.

Without numpy the same API walks ``graph.neighbors`` level by level, a
ball is an id set, and masks come from the caller's ``BitsetIndex``.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

try:  # numpy-free installs walk graph.neighbors instead
    import numpy as np

    from repro.graph.gower_columns import EXOTIC, MISSING
except ImportError:  # pragma: no cover - exercised by the numpy-free CI matrix
    np = None

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.graph.attributed_graph import AttributedGraph, Enumerations
    from repro.graph.indexes import BitsetIndex

#: True when numpy is importable (graphs then own a :class:`BallKernel`).
HAVE_NUMPY = np is not None


def bits_from_mask(mask: int, size: int):
    """Arbitrary-precision mask → numpy bool array of length ``size``."""
    buf = mask.to_bytes((size + 7) // 8 or 1, "little")
    bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8), bitorder="little", count=size)
    return bits.astype(bool, copy=False)


def mask_from_bits(bits) -> int:
    """Numpy bool array → arbitrary-precision mask (bit i ↔ bits[i])."""
    if bits.size == 0:
        return 0
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def mask_positions(mask: int, size: int) -> List[int]:
    """The set bit positions of ``mask`` (< ``size``), ascending."""
    return np.flatnonzero(bits_from_mask(mask, size)).tolist()


def _id_array(ids) -> "np.ndarray":
    """Node ids as int64; ids int64 cannot hold are dropped (never nodes
    of a graph that has a kernel)."""
    if not isinstance(ids, (list, tuple, set, frozenset)):
        ids = list(ids)
    try:
        return np.fromiter(ids, dtype=np.int64, count=len(ids))
    except (OverflowError, TypeError, ValueError):
        return np.array(
            [v for v in ids if isinstance(v, int) and -(2**63) <= v < 2**63], dtype=np.int64
        )


class BallKernel:
    """Label-grouped undirected CSR of one graph (see the module docstring).

    Built from the graph's label enumerations
    (:class:`~repro.graph.attributed_graph.Enumerations`) and
    out-adjacency; raises ``TypeError``/``ValueError``/``OverflowError``
    when the node ids are not int64-representable (the graph then keeps
    walking in Python).
    """

    __slots__ = ("spans", "order", "offsets", "targets", "edges", "_sorted_ids", "_sorted_pos")

    def __init__(
        self,
        enumerations: "Enumerations",
        out: Mapping[int, Mapping[str, Iterable[int]]],
    ) -> None:
        slices = []
        position: Dict[int, int] = {}
        #: label → (start, stop) of its slice of the enumeration.
        self.spans: Dict[str, Tuple[int, int]] = {}
        for label in sorted(enumerations.by_label):
            enumeration = enumerations[label]
            start = len(position)
            slices.append(enumeration.array)
            position.update(zip(enumeration.ids, range(start, start + len(enumeration.ids))))
            self.spans[label] = (start, len(position))
        self.order = np.concatenate([np.empty(0, np.int64)] + slices)
        self._sorted_pos = np.argsort(self.order, kind="stable").astype(np.int32)
        self._sorted_ids = self.order[self._sorted_pos]
        sources: Dict[str, List[int]] = {}
        targets: Dict[str, List[int]] = {}
        for node, by_edge_label in out.items():
            anchor = position[node]
            for edge_label, ends in by_edge_label.items():
                sources.setdefault(edge_label, []).extend([anchor] * len(ends))
                targets.setdefault(edge_label, []).extend(position[t] for t in ends)
        #: edge label → (source positions, target positions), int32.
        self.edges: Dict[str, Tuple["np.ndarray", "np.ndarray"]] = {
            label: (np.array(sources[label], np.int32), np.array(targets[label], np.int32))
            for label in sources
        }
        size = len(self.order)
        empty = [np.empty(0, np.int32)]
        src = np.concatenate(empty + [pair[0] for pair in self.edges.values()])
        dst = np.concatenate(empty + [pair[1] for pair in self.edges.values()])
        # Both directions, deduplicated by sorting (row, column) keys.
        keys = np.concatenate((src, dst)).astype(np.int64) * size + np.concatenate((dst, src))
        keys.sort()
        if keys.size:
            keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        self.offsets = np.zeros(size + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // max(size, 1), minlength=size), out=self.offsets[1:])
        self.targets = (keys % max(size, 1)).astype(np.int32)

    def __len__(self) -> int:
        return len(self.order)

    def positions(self, ids) -> "np.ndarray":
        """Enumeration positions of the known ids among ``ids`` (unknown
        ids are dropped)."""
        wanted = _id_array(ids)
        if not len(self.order) or not wanted.size:
            return np.empty(0, dtype=np.int64)
        index = np.searchsorted(self._sorted_ids, wanted)
        np.minimum(index, len(self.order) - 1, out=index)
        index = index[self._sorted_ids[index] == wanted]
        return self._sorted_pos[index].astype(np.int64)

    def walk(
        self, seen: "np.ndarray", d: int, depth: Optional["np.ndarray"] = None
    ) -> "np.ndarray":
        """Expand ``seen`` (modified in place and returned) by ``d``
        undirected hops, level by level; ``depth`` records each newly
        reached node's level."""
        offsets, targets = self.offsets, self.targets
        frontier = np.flatnonzero(seen)
        for level in range(1, d + 1):
            starts = offsets[frontier]
            lengths = offsets[frontier + 1] - starts
            total = int(lengths.sum())
            if not total:
                break
            # Concatenated CSR rows of the frontier.
            index = np.arange(total) + np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
            reached = np.zeros(len(seen), dtype=bool)
            reached[targets[index]] = True
            reached &= ~seen
            frontier = np.flatnonzero(reached)
            if not frontier.size:
                break
            seen |= reached
            if depth is not None:
                depth[frontier] = level
        return seen

    def seeds(self, ids) -> "np.ndarray":
        """The seed vector of ``ids`` (unknown ids ignored)."""
        seen = np.zeros(len(self.order), dtype=bool)
        seen[self.positions(ids)] = True
        return seen

    def edge_count(self, edge_label: str) -> int:
        """Number of ``edge_label`` edges."""
        ends = self.edges.get(edge_label)
        return 0 if ends is None else len(ends[0])

    def support(
        self, label: str, edge_label: str, outgoing: bool, other_label: str, other_mask: int
    ) -> int:
        """AC-3 support of one query-edge constraint in one pass over the
        ``edge_label`` edges: the mask (over ``label``'s slice) of the nodes
        with an ``edge_label`` edge to (``outgoing``) or from a node of
        ``other_mask`` (over ``other_label``'s slice)."""
        span = self.spans.get(label)
        other = self.spans.get(other_label)
        ends = self.edges.get(edge_label)
        if span is None or other is None or ends is None:
            return 0
        mine, theirs = ends if outgoing else ends[::-1]
        member = np.zeros(len(self.order), dtype=bool)
        member[other[0] : other[1]] = bits_from_mask(other_mask, other[1] - other[0])
        support = np.zeros(len(self.order), dtype=bool)
        support[mine[member[theirs]]] = True
        return mask_from_bits(support[span[0] : span[1]])

    # -- In-place repair (streaming edge hooks) ------------------------- #

    def splice_edge(
        self,
        source: int,
        target: int,
        label: str,
        inserted: bool,
        neighbors: Callable[[int], Iterable[int]],
    ) -> None:
        """Repair the kernel after one edge insert/delete: recompute both
        endpoints' rows from ``neighbors`` (the mutated graph's undirected
        neighbourhood) and add or drop the edge's endpoint pair."""
        s, t = self.positions((source, target)).tolist()
        for anchor, node in {s: source, t: target}.items():
            row = np.sort(self.positions(neighbors(node))).astype(np.int32)
            lo, hi = int(self.offsets[anchor]), int(self.offsets[anchor + 1])
            self.targets = np.concatenate((self.targets[:lo], row, self.targets[hi:]))
            self.offsets[anchor + 1 :] += len(row) - (hi - lo)
        src, dst = self.edges.get(label, (np.empty(0, np.int32), np.empty(0, np.int32)))
        if inserted:
            self.edges[label] = (np.append(src, np.int32(s)), np.append(dst, np.int32(t)))
        else:
            keep = (src != s) | (dst != t)
            self.edges[label] = (src[keep], dst[keep])


class Ball:
    """A d-hop ball: a bool vector over a :class:`BallKernel`'s
    enumeration, or (numpy-free) a frozenset of node ids."""

    __slots__ = ("_kernel", "members", "_masks")

    def __init__(self, kernel: Optional[BallKernel], members) -> None:
        self._kernel = kernel
        self.members = members
        self._masks: Dict[str, int] = {}

    def __or__(self, other: "Ball") -> "Ball":
        return Ball(self._kernel, self.members | other.members)

    def ids(self) -> FrozenSet[int]:
        """The ball's node ids."""
        if self._kernel is None:
            return self.members
        return frozenset(self._kernel.order[self.members].tolist())

    def vector(self, label: str):
        """The ball's slice over ``label`` (aligned with
        ``graph.enumeration(label)``); None for unknown labels."""
        span = self._kernel.spans.get(label)
        return None if span is None else self.members[span[0] : span[1]]

    def _ids_at(self, label: str, positions) -> List[int]:
        """Node ids at ``positions`` of ``label``'s slice."""
        return self._kernel.order[positions + self._kernel.spans[label][0]].tolist()

    def mask(self, label: str, bitsets: "BitsetIndex") -> int:
        """The ball's ``label`` nodes as a mask over ``bitsets``' positions
        (``bitsets`` resolves them only on the numpy-free path)."""
        mask = self._masks.get(label)
        if mask is None:
            if self._kernel is None:
                mask = bitsets.mask_of(label, self.members)
            else:
                vector = self.vector(label)
                mask = 0 if vector is None else mask_from_bits(vector)
            self._masks[label] = mask
        return mask

    def codes(self, graph: "AttributedGraph", label: str, attribute: str):
        """Gower codes of the ball's ``label`` nodes carrying ``attribute``
        (``graph.gower_column``), or None when they cannot stand for the
        values: on the numpy-free path and when a cell is ``EXOTIC``."""
        if self._kernel is None:
            return None
        vector = self.vector(label)
        if vector is None:
            return np.zeros(0, dtype=np.int32)
        codes = graph.gower_column(label, attribute).codes[vector]
        codes = codes[codes != MISSING]
        return None if (codes == EXOTIC).any() else codes

    def attribute_values(
        self, graph: "AttributedGraph", label: str, attribute: str
    ) -> Set[object]:
        """Distinct values of ``attribute`` over the ball's ``label`` nodes,
        read node by node in ascending id order (the set, repr included,
        is the one that scan builds)."""
        if self._kernel is None:
            nodes = sorted(v for v in self.members if graph.label(v) == label)
        else:
            vector = self.vector(label)
            nodes = [] if vector is None else self._ids_at(label, np.flatnonzero(vector))
        values: Set[object] = set()
        for node in nodes:
            value = graph.attribute(node, attribute)
            if value is not None:
                values.add(value)
        return values

    def has_labeled_edge(self, graph: "AttributedGraph", edge_label: str) -> bool:
        """True iff some ``edge_label`` edge has both endpoints in the ball."""
        if self._kernel is None:
            return any(
                target in self.members
                for node in self.members
                for target in graph.successors(node, edge_label)
            )
        ends = self._kernel.edges.get(edge_label)
        return ends is not None and bool((self.members[ends[0]] & self.members[ends[1]]).any())


class BallDepths:
    """Undirected hop depths from a seed set, up to a limit: the ball of
    every diameter ``d`` ≤ the limit from one walk."""

    __slots__ = ("_kernel", "_depths")

    def __init__(self, kernel: Optional[BallKernel], depths) -> None:
        self._kernel = kernel
        self._depths = depths

    def ball(self, d: int) -> Ball:
        """Nodes within ``d`` hops of a seed."""
        if self._kernel is None:
            return Ball(None, frozenset(v for v, depth in self._depths.items() if depth <= d))
        return Ball(self._kernel, self._depths <= d)


def _bfs_depths(graph: "AttributedGraph", seeds: Iterable[int], limit: int) -> Dict[int, int]:
    """The numpy-free walk: depths of the nodes within ``limit`` hops."""
    depths = {node: 0 for node in seeds if node in graph}
    frontier = list(depths)
    for level in range(1, limit + 1):
        reached = []
        for node in frontier:
            for neighbor in graph.neighbors(node):
                if neighbor not in depths:
                    depths[neighbor] = level
                    reached.append(neighbor)
        if not reached:
            break
        frontier = reached
    return depths


def d_hop_ball(graph: "AttributedGraph", seeds: Iterable[int], d: int) -> Ball:
    """The nodes within ``d`` undirected hops of ``seeds`` (seeds that are
    not nodes of ``graph`` are ignored)."""
    kernel = graph.ball_kernel()
    if kernel is None:
        return Ball(None, frozenset(_bfs_depths(graph, seeds, d)))
    return Ball(kernel, kernel.walk(kernel.seeds(seeds), d))


def mask_ball(graph: "AttributedGraph", label: str, mask: int, d: int) -> Ball:
    """:func:`d_hop_ball` seeded by a mask over ``label``'s enumeration."""
    kernel = graph.ball_kernel()
    if kernel is None:
        return d_hop_ball(graph, graph.enumeration(label).to_ids(mask), d)
    seen = np.zeros(len(kernel), dtype=bool)
    span = kernel.spans.get(label)
    if span is not None:
        seen[span[0] : span[1]] = bits_from_mask(mask, span[1] - span[0])
    return Ball(kernel, kernel.walk(seen, d))


def ball_depths(graph: "AttributedGraph", seeds: Iterable[int], limit: int) -> BallDepths:
    """Hop depths from ``seeds`` up to ``limit`` (see :class:`BallDepths`)."""
    kernel = graph.ball_kernel()
    if kernel is None:
        return BallDepths(None, _bfs_depths(graph, seeds, limit))
    seen = kernel.seeds(seeds)
    depth = np.full(len(kernel), np.iinfo(np.int32).max, dtype=np.int32)
    depth[seen] = 0
    kernel.walk(seen, limit, depth)
    return BallDepths(kernel, depth)
