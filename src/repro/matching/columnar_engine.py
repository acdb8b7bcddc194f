"""Columnar matching engine: vectorized arc consistency over CSR slices.

:class:`ColumnarEngine` keeps the bitset engine's whole pipeline —
mask-based pools, hierarchical literal caching, backtracking over
adjacency rows — but runs over the graph's
:class:`~repro.graph.columnar.ColumnarStore` and replaces the AC-3
propagation inner loop. :class:`~repro.matching.matcher.SubgraphMatcher`
selects it only when its indexes carry a columnar store
(``GraphIndexes(columnar=True)`` or
:meth:`~repro.graph.indexes.GraphIndexes.enable_columnar`, e.g. through
``GraphContext(columnar=True)``); no configuration field picks it.

Where the bitset engine walks every candidate of a query node and probes
one adjacency-row mask per constraint (Python-loop bound on large
labels), this engine computes each constraint's *support set* in one
vector sweep: scatter the neighbor pool into a membership array, count
hits per CSR row with a cumulative sum, and pack the ``count > 0`` rows
back into a mask. Survivors are then ``pool AND support_1 AND ... AND
support_k`` — exactly the set the per-candidate loop accepts, at
O(|V| + |E_label|) per (node, constraint) instead of O(candidates ×
constraints) row probes. That cost does not shrink with the pools, so on
small restricted pools (streaming re-verification) the row probes win.

Queue semantics, removal counts and the produced masks are identical to
the bitset engine (the engine-differential suite pins this), so archives
are byte-identical with or without the store. Without numpy the class
transparently degrades to the inherited scalar propagation
(``matcher.columnar.fallback_propagations`` counts how often).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Tuple

from repro.graph.columnar import HAVE_NUMPY
from repro.matching.bitset import BitsetEngine, MaskMap, _Work
from repro.query.instance import QueryInstance


class ColumnarEngine(BitsetEngine):
    """Bitset pipeline with store-backed pools and vectorized propagation.

    Construction enables the columnar core on the shared indexes: literal
    masks compile from attribute columns, adjacency rows slice CSRs, and
    ``graph.columnar.*`` build/repair counters land in this engine's
    registry. All constructor arguments match :class:`BitsetEngine`.
    """

    def __init__(self, indexes, **kwargs) -> None:
        super().__init__(indexes, **kwargs)
        self.store = indexes.enable_columnar(metrics=self.metrics)
        self.metrics.counter("matcher.columnar.support_sweeps")
        self.metrics.counter("matcher.columnar.fallback_propagations")

    def _propagate(
        self,
        instance: QueryInstance,
        masks: MaskMap,
        labels: Dict[str, str],
        work: _Work,
    ) -> Tuple[MaskMap, int]:
        """Vectorized AC-3 fixpoint; bit-identical to the scalar loop.

        Per worklist node, each constraint contributes one support mask
        (memoized on the neighbor pool within the call, since symmetric
        constraints re-derive the same sweep); a candidate survives iff
        it sits in every support — the same predicate the per-candidate
        row probing evaluates, so survivor sets, removal counts and
        re-queue decisions coincide exactly.
        """
        if not HAVE_NUMPY:
            self.metrics.inc("matcher.columnar.fallback_propagations")
            return super()._propagate(instance, masks, labels, work)

        constraints: Dict[str, List[Tuple[str, str, bool, str]]] = {
            n: [] for n in instance.active_nodes
        }
        for source, target, label in instance.edges:
            constraints[source].append((target, label, True, labels[target]))
            constraints[target].append((source, label, False, labels[source]))

        store = self.store
        sweeps = 0
        removed = 0
        memo: Dict[Tuple[str, bool, str, str, int], int] = {}
        queue = deque(sorted(instance.active_nodes))
        queued = set(queue)
        while queue:
            node_id = queue.popleft()
            queued.discard(node_id)
            pool = masks[node_id]
            node_label = labels[node_id]
            survivors = pool
            for other, edge_label, outgoing, other_label in constraints[node_id]:
                if not survivors:
                    break
                other_mask = masks[other]
                key = (edge_label, outgoing, node_label, other_label, other_mask)
                support = memo.get(key)
                if support is None:
                    support = store.support_mask(
                        edge_label, outgoing, node_label, other_label, other_mask
                    )
                    memo[key] = support
                    sweeps += 1
                survivors &= support
                work.intersections += 1
            if survivors != pool:
                removed += (pool & ~survivors).bit_count()
                masks[node_id] = survivors
                for other, _, _, _ in constraints[node_id]:
                    if other not in queued:
                        queue.append(other)
                        queued.add(other)
                if not survivors:
                    for pool_key in masks:
                        masks[pool_key] = 0
                    if sweeps:
                        self.metrics.inc("matcher.columnar.support_sweeps", sweeps)
                    return masks, removed
        if sweeps:
            self.metrics.inc("matcher.columnar.support_sweeps", sweeps)
        return masks, removed
