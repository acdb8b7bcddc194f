"""In-place delta application with a machine-readable receipt.

The materializing path (:func:`repro.matching.delta.apply_delta`) rebuilds
the whole frozen graph for every update — O(|V| + |E|) no matter how small
the delta. The streaming layer instead mutates the graph object itself
through the ``_*_in_place`` maintenance hooks of
:class:`~repro.graph.attributed_graph.AttributedGraph`, preserving object
identity (so every bound config, shared index and literal-pool cache keeps
pointing at the *same* graph) and paying O(|Δ|).

Both paths validate with the same :func:`~repro.matching.delta.validate_delta`
and apply in the same order — deletions, insertions, then attribute updates
with last-wins semantics — so for any applicable delta,

    ``apply_delta_in_place(G, Δ)`` mutates ``G`` into a graph with exactly
    the node set, edge set and attribute maps of ``apply_delta(G, Δ)``.

That equivalence is what the streaming differential suite pins down via
:func:`graph_signature`.

The maintenance hooks also repair the graph-owned structures in place:
edge hooks splice the ball kernel (its CSR rows and the per-edge-label
endpoint arrays the matcher's AC-3 sweeps read) and attribute hooks patch
the Gower columns, so nothing graph-owned is rebuilt.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, List, Set, Tuple

from repro.graph.attributed_graph import AttributedGraph
from repro.matching.delta import GraphDelta, validate_delta


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

    Validates first (:func:`~repro.matching.delta.validate_delta` — no
    partial application on a bad delta), then applies deletions before
    insertions (an edge listed in both ends up present) and attribute
    updates last-wins per (node, attribute), mirroring the materializing
    path exactly. Each hook call also repairs the graph-owned derived
    state in place (ball kernel, Gower columns, indexes, literal-mask
    memo, active domains, label attribute names), so no separate
    invalidation step exists — or is needed — here.
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


def graph_signature(graph: AttributedGraph) -> Tuple[Any, ...]:
    """A canonical, order-independent fingerprint of a graph's content.

    Two graphs have equal signatures iff they agree on nodes (id, label,
    attribute map) and edges (source, target, label) — exactly the
    equivalence the in-place/materializing differential asserts. Attribute
    maps and edge multisets are sorted, so insertion order never leaks in.
    """
    nodes = tuple(
        (node.node_id, node.label, tuple(sorted(node.attributes.items())))
        for node in sorted(graph.nodes(), key=lambda n: n.node_id)
    )
    edges = tuple(sorted(edge.key for edge in graph.edges()))
    return (nodes, edges)
