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

A node id's kernel position is its label's span start plus its position
in the label's enumeration, so ids are looked up through the per-label
dicts alone and every graph gets a kernel, ids int64 cannot hold included.
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

import numpy as np

from repro.graph.gower_columns import EXOTIC, MISSING

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.graph.attributed_graph import AttributedGraph, Enumerations


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


class BallKernel:
    """Label-grouped undirected CSR of one graph (see the module docstring).

    Built from the graph's label enumerations
    (:class:`~repro.graph.attributed_graph.Enumerations`) and
    out-adjacency.
    """

    __slots__ = ("spans", "order", "_enumerations", "offsets", "targets", "edges")

    def __init__(
        self,
        enumerations: "Enumerations",
        out: Mapping[int, Mapping[str, Iterable[int]]],
    ) -> None:
        ids: List[int] = []
        #: label → (start, stop) of its slice of the enumeration.
        self.spans: Dict[str, Tuple[int, int]] = {}
        for label in sorted(enumerations.by_label):
            start = len(ids)
            ids.extend(enumerations[label].ids)
            self.spans[label] = (start, len(ids))
        #: Node ids in enumeration order (an object array: the graph's own
        #: id objects, whatever their size).
        self.order = np.empty(len(ids), dtype=object)
        self.order[:] = ids
        #: The graph's enumerations: their per-label id → position maps
        #: are the kernel's inverse map (see :meth:`positions`).
        self._enumerations = enumerations
        position = dict(zip(ids, range(len(ids))))  # for this build only
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
        """Enumeration positions of the known ids among ``ids``, grouped by
        label (unknown ids are dropped)."""
        ids = list(ids)
        found: List[int] = []
        for label, (start, _) in self.spans.items():
            lookup = self._enumerations[label].position.get
            found.extend(start + p for p in map(lookup, ids) if p is not None)
        return np.array(found, dtype=np.int64)

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
        s, t = (int(self.positions((node,))[0]) for node in (source, target))
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
    enumeration."""

    __slots__ = ("_kernel", "members", "_masks")

    def __init__(self, kernel: BallKernel, members: "np.ndarray") -> None:
        self._kernel = kernel
        self.members = members
        self._masks: Dict[str, int] = {}

    def __or__(self, other: "Ball") -> "Ball":
        return Ball(self._kernel, self.members | other.members)

    def ids(self) -> FrozenSet[int]:
        """The ball's node ids."""
        return frozenset(self._kernel.order[self.members].tolist())

    def vector(self, label: str):
        """The ball's slice over ``label`` (aligned with
        ``graph.enumeration(label)``); None for unknown labels."""
        span = self._kernel.spans.get(label)
        return None if span is None else self.members[span[0] : span[1]]

    def mask(self, label: str) -> int:
        """The ball's ``label`` nodes as a mask over
        ``graph.enumeration(label)``."""
        mask = self._masks.get(label)
        if mask is None:
            vector = self.vector(label)
            mask = self._masks[label] = 0 if vector is None else mask_from_bits(vector)
        return mask

    def codes(self, graph: "AttributedGraph", label: str, attribute: str):
        """Gower codes of the ball's ``label`` nodes carrying ``attribute``
        (``graph.gower_column``), or None when a cell is ``EXOTIC`` and the
        codes cannot stand for the values."""
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
        vector = self.vector(label)
        values: Set[object] = set()
        if vector is None:
            return values
        ids = graph.enumeration(label).ids
        for position in np.flatnonzero(vector).tolist():
            value = graph.attribute(ids[position], attribute)
            if value is not None:
                values.add(value)
        return values

    def has_labeled_edge(self, edge_label: str) -> bool:
        """True iff some ``edge_label`` edge has both endpoints in the ball."""
        ends = self._kernel.edges.get(edge_label)
        return ends is not None and bool((self.members[ends[0]] & self.members[ends[1]]).any())


class BallDepths:
    """Undirected hop depths from a seed set, up to a limit: the ball of
    every diameter ``d`` ≤ the limit from one walk."""

    __slots__ = ("_kernel", "_depths")

    def __init__(self, kernel: BallKernel, depths: "np.ndarray") -> None:
        self._kernel = kernel
        self._depths = depths

    def ball(self, d: int) -> Ball:
        """Nodes within ``d`` hops of a seed."""
        return Ball(self._kernel, self._depths <= d)


def d_hop_ball(graph: "AttributedGraph", seeds: Iterable[int], d: int) -> Ball:
    """The nodes within ``d`` undirected hops of ``seeds`` (seeds that are
    not nodes of ``graph`` are ignored)."""
    kernel = graph.ball_kernel()
    return Ball(kernel, kernel.walk(kernel.seeds(seeds), d))


def mask_ball(graph: "AttributedGraph", label: str, mask: int, d: int) -> Ball:
    """:func:`d_hop_ball` seeded by a mask over ``label``'s enumeration."""
    kernel = graph.ball_kernel()
    seen = np.zeros(len(kernel), dtype=bool)
    span = kernel.spans.get(label)
    if span is not None:
        seen[span[0] : span[1]] = bits_from_mask(mask, span[1] - span[0])
    return Ball(kernel, kernel.walk(seen, d))


def ball_depths(graph: "AttributedGraph", seeds: Iterable[int], limit: int) -> BallDepths:
    """Hop depths from ``seeds`` up to ``limit`` (see :class:`BallDepths`)."""
    kernel = graph.ball_kernel()
    seen = kernel.seeds(seeds)
    depth = np.full(len(kernel), np.iinfo(np.int32).max, dtype=np.int32)
    depth[seen] = 0
    kernel.walk(seen, limit, depth)
    return BallDepths(kernel, depth)
