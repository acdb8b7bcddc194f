"""Reference implementation of ``G ⊕ Δ``: a full rebuild through the builder.

:func:`repro.matching.delta.apply_delta` copies the graph and runs the
in-place update path on the copy. This rebuild shares none of that code —
no ``copy()``, no in-place hooks — so the tests compare the in-place path
against it rather than against itself.
"""

from repro.graph.attributed_graph import AttributedGraph
from repro.graph.builder import GraphBuilder
from repro.matching.delta import GraphDelta, validate_delta


def rebuild_with_delta(graph: AttributedGraph, delta: GraphDelta) -> AttributedGraph:
    """``G ⊕ Δ`` as a new frozen graph built node by node and edge by edge.

    Deletions are applied before insertions (an edge listed in both ends
    up present), then attribute updates with last-wins semantics per
    (node, attribute); a ``None`` value removes the attribute.
    """
    validate_delta(graph, delta)
    deletions = set(delta.delete_edges)
    attrs = {node: dict(graph.attributes(node)) for node, _, _ in delta.set_attributes}
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
