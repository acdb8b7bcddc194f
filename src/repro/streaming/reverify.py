"""Delta-seeded re-verification: localized answer-set repair.

The locality lemma (see :mod:`repro.matching.delta`): an output node ``v``
matches an instance of diameter ``d`` through a homomorphism whose image
lies within ``d`` hops of ``v``, so an update can only change ``v``'s
status if a touched endpoint sits within ``d`` hops of ``v`` — in the
*old* graph (support that was lost) or the *new* one (support that
appeared). The streaming session therefore:

1. walks the graph's ball kernel once from the touched nodes before the
   in-place mutation and once after, each to the maximum diameter across
   the ledger (:func:`~repro.graph.ball.ball_depths`);
2. reads the two-sided ball of *each* distinct diameter off the two
   depth vectors — one walk pair serving every entry;
3. repairs each maintained answer mask with
   ``new = (old & ~ball) | match(instance, restrict=ball & pool)`` —
   :func:`reverify_matches` — re-running the matcher only over the ball.
   Entries sharing an ``(output label, pool, diameter)`` triple share one
   witness ball per update (the ``witnesses`` map).

Attribute updates ride the same machinery: their influence is the updated
node itself (literal membership), which the ball at any diameter ≥ 0
contains by construction (touched seeds are depth 0).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional, Tuple

from repro.graph.attributed_graph import AttributedGraph
from repro.graph.ball import Ball, mask_ball
from repro.matching.matcher import SubgraphMatcher
from repro.query.instance import QueryInstance


def instance_diameter(instance: QueryInstance) -> int:
    """Diameter of the instance's active query graph (locality radius)."""
    adjacency = instance.adjacency()
    best = 0
    for start in instance.active_nodes:
        depth = {start: 0}
        frontier = deque([start])
        while frontier:
            current = frontier.popleft()
            for neighbor, _, _ in adjacency[current]:
                if neighbor not in depth:
                    depth[neighbor] = depth[current] + 1
                    frontier.append(neighbor)
        best = max(best, max(depth.values(), default=0))
    return best


def reverify_matches(
    matcher: SubgraphMatcher,
    graph: AttributedGraph,
    instance: QueryInstance,
    old: int,
    ball: Ball,
    diameter: int,
    witnesses: Optional[Dict[Tuple[str, int, int], Ball]] = None,
) -> Tuple[int, int]:
    """Repair one maintained answer mask against the mutated graph.

    ``old`` and the result are masks over the output label's enumeration;
    ``diameter`` is :func:`instance_diameter` of ``instance``, which the
    caller keeps. ``matcher`` must be built over ``graph`` *post-mutation*
    (sharing the repaired indexes). ``witnesses`` maps ``(output label,
    pool, diameter)`` to the witness ball walked from that pool; a caller
    repairing many answers on one unchanged graph passes one map to every
    call, so each distinct pool is walked once. Returns ``(new_mask,
    rechecked)`` where ``rechecked`` is the size of the re-verified
    candidate pool — the work metric the ``streaming.instances_rechecked``
    counter accumulates.
    """
    output = instance.output_node
    label = instance.node_label(output)
    pool = ball.mask(label)
    unchanged = old & ~pool
    literal_pools = matcher.engine.literal_pools
    for literal in instance.literals_on(output):
        if not pool:
            break
        pool &= literal_pools.mask(label, literal)
    if not pool:
        return unchanged, 0
    # Every witness of a pool node lies within the instance's diameter of
    # it (template edges map to graph edges), so the non-output variables
    # can be confined to the ball around the pool — this keeps the
    # matcher's arc-consistency pass local instead of O(graph).
    key = (label, pool, diameter)
    witnesses = {} if witnesses is None else witnesses
    witness = witnesses.get(key)
    if witness is None:
        witness = witnesses[key] = mask_ball(graph, label, pool, diameter)
    restrict = {
        node_id: witness.mask(instance.node_label(node_id))
        for node_id in instance.active_nodes
    }
    restrict[output] = pool
    rechecked = matcher.match(instance, restrict_masks=restrict).mask
    return unchanged | rechecked, pool.bit_count()
