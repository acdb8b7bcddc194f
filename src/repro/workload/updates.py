"""Random graph-update streams for the streaming layer.

The streaming experiments need *applicable* delta sequences: every deleted
edge must exist and every inserted edge's endpoints must be known **at the
moment the delta is applied**, which depends on all earlier deltas. The
generator therefore tracks the evolving edge set as it emits, so a
produced stream can be applied in order to the seed graph (in place or
materializing) without ever tripping
:func:`~repro.matching.delta.validate_delta`.
"""

from __future__ import annotations

import bisect
import random
from typing import Iterator, List, Optional, Sequence, Set

from repro.graph.attributed_graph import AttributedGraph
from repro.matching.delta import AttrKey, EdgeKey, GraphDelta


def random_delta_stream(
    graph: AttributedGraph,
    count: int,
    seed: int = 0,
    edge_ops: int = 2,
    attr_ops: int = 0,
    insert_ratio: float = 0.5,
    attributes: Optional[Sequence[str]] = None,
) -> Iterator[GraphDelta]:
    """Yield ``count`` deltas, each applicable after its predecessors.

    Args:
        graph: The seed graph (only read, never mutated).
        count: Number of deltas to yield.
        seed: RNG seed — streams are fully deterministic.
        edge_ops: Edge insertions/deletions per delta.
        attr_ops: Attribute updates per delta.
        insert_ratio: Probability an edge op is an insertion (falls back
            to the other kind when the chosen one is impossible — no edge
            left to delete, or no absent edge to insert).
        attributes: Attribute names eligible for updates; defaults to
            every attribute name in the graph. New values are drawn from
            the attribute's current active domain, so updates shuffle
            values rather than invent out-of-range ones.
    """
    rng = random.Random(seed)
    nodes = sorted(graph.node_ids())
    edge_labels = sorted(graph.edge_labels()) or [""]
    live: Set[EdgeKey] = {edge.key for edge in graph.edges()}
    ordered = sorted(live)  # ``live`` in sort order, repaired per op
    if attributes is None:
        attributes = sorted(graph.attribute_names())
    domains = {
        name: [v for v in graph.active_domain(name) if v is not None]
        for name in attributes
    }

    for _ in range(count):
        inserts: List[EdgeKey] = []
        deletes: List[EdgeKey] = []
        staged: Set[EdgeKey] = set()
        for _ in range(edge_ops):
            if not nodes:
                break
            want_insert = rng.random() < insert_ratio
            insert = _pick_insert(rng, nodes, edge_labels, live, staged)
            delete = _pick_delete(rng, ordered, inserts)
            chosen = insert if want_insert else delete
            if chosen is None:
                chosen = delete if want_insert else insert
            if chosen is None:
                continue
            staged.add(chosen)
            if chosen in live:
                deletes.append(chosen)
                live.discard(chosen)
                del ordered[bisect.bisect_left(ordered, chosen)]
            else:
                inserts.append(chosen)
                live.add(chosen)
                bisect.insort(ordered, chosen)
        attr_updates: List[AttrKey] = []
        if attr_ops and nodes and attributes:
            for _ in range(attr_ops):
                name = rng.choice(list(attributes))
                values = domains.get(name)
                if not values:
                    continue
                attr_updates.append(
                    (rng.choice(nodes), name, rng.choice(values))
                )
        yield GraphDelta(
            insert_edges=tuple(inserts),
            delete_edges=tuple(deletes),
            set_attributes=tuple(attr_updates),
        )


def _pick_insert(
    rng: random.Random,
    nodes: Sequence[int],
    edge_labels: Sequence[str],
    live: Set[EdgeKey],
    staged: Set[EdgeKey],
    attempts: int = 32,
) -> Optional[EdgeKey]:
    """A uniformly sampled absent edge, or None when none is found."""
    for _ in range(attempts):
        key: EdgeKey = (
            rng.choice(nodes),
            rng.choice(nodes),
            rng.choice(edge_labels),
        )
        if key not in live and key not in staged and key[0] != key[1]:
            return key
    return None


def _pick_delete(
    rng: random.Random, ordered: List[EdgeKey], inserts: List[EdgeKey]
) -> Optional[EdgeKey]:
    """A uniformly sampled live edge not already staged this delta: the
    pick (and random draw) of ``rng.choice(sorted(live - staged))``, read
    off the sorted live edges, of which this delta's ``inserts`` are the
    staged ones."""
    count = len(ordered) - len(inserts)
    if count <= 0:
        return None
    index = rng.choice(range(count))
    for skipped in sorted(bisect.bisect_left(ordered, key) for key in inserts):
        if skipped > index:
            break
        index += 1
    return ordered[index]
