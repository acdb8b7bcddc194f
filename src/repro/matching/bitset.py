"""Bitset matching engine with hierarchical literal-pool caching.

The verification pipeline behind :class:`~repro.matching.matcher.SubgraphMatcher`:
candidate pools are arbitrary-precision Python integers over the per-label
node enumerations owned by :class:`~repro.graph.indexes.BitsetIndex`, so
the three hot loops of instance verification become bit-parallel:

* **literal filtering** — every ``(label, attribute, op, constant)``
  literal resolves to a cached mask (:class:`LiteralPoolCache`), and a
  query node's initial pool is the AND of its label pool with those masks.
  Lattice siblings differ in a single range-variable binding, so across a
  generation run almost every literal mask is a cache hit and a sibling's
  pools cost one intersection each. A miss of the engine-local cache is
  served from the graph's own memo
  (:class:`~repro.graph.indexes.LiteralMasks`), so masks computed by one
  run are reused by every later run over the same graph;
* **arc-consistency support checks** — a constraint's support depends
  only on the graph's edges, the relation and the neighbor pool, so it
  is read from the graph's memo
  (:class:`~repro.graph.indexes.SupportMemo`), shared by every run on
  the graph. Only the candidates the memo does not cover yet are
  computed, in one of two exact ways chosen by their number: many take
  the constraint's whole support set in one numpy sweep over the graph's
  edge arrays (:meth:`~repro.graph.ball.BallKernel.support`), few probe
  ``adjacency_row(v) & pool != 0`` each, with the relation's row table
  fetched once (:meth:`~repro.graph.indexes.BitsetIndex.relation`), so a
  probe is one list read plus one AND (:data:`SWEEP_CROSSOVER`);
* **backtracking extension** — the candidates of the next query node are
  the AND of its pool with the already-assigned neighbors' adjacency rows,
  which also subsumes the per-edge consistency re-check.

The engine publishes its work under ``matcher.bitset.*`` (literal-pool
hits/misses/shared hits, mask intersections, support sweeps and memo
hits) on top of the shared
``matcher.*`` counters, and returns :class:`MatchResult` objects carrying only the
candidate *masks*: the incremental verifier seeds a child's pools from
them directly, and the per-node id sets are built only when a caller
reads :attr:`MatchResult.candidates`.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.graph.indexes import BitsetIndex, GraphIndexes
from repro.obs.registry import MetricsRegistry
from repro.query.instance import QueryInstance
from repro.query.predicates import Literal
from repro.runtime.budget import NULL_GUARD, ExecutionGuard

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.graph.attributed_graph import AttributedGraph

#: Per-query-node candidate masks.
MaskMap = Dict[str, int]
#: Per-query-node candidate id sets (the materialized view of a MaskMap).
CandidateMap = Dict[str, Set[int]]
#: Row-table key: (anchor label, edge label, outgoing, neighbor label).
Relation = Tuple[str, str, bool, str]

#: AC-3 crossover: a constraint over an edge label with ``m`` edges is
#: swept when the candidates whose support the memo does not know yet
#: number at least ``SWEEP_CROSSOVER * (m + 2048)`` (m/32 + 64), and
#: those are probed row by row below that. A sweep costs O(|V| + m)
#: whatever the pool and settles every candidate; a probe costs one row
#: per candidate. 0 always sweeps and a huge value always probes.
SWEEP_CROSSOVER = 1 / 32


def iter_bits(mask: int):
    """Yield the set bit positions of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _crossover(edges: int) -> float:
    """Smallest pool swept over an edge label with ``edges`` edges."""
    return SWEEP_CROSSOVER * (edges + 2048)


def is_acyclic(instance: QueryInstance) -> bool:
    """Undirected acyclicity test: |E| = |V| - 1 on a connected query.

    Parallel edges between the same node pair (different labels or
    directions) count as a cycle for safety.
    """
    pairs = set()
    for source, target, _ in instance.edges:
        pair = (source, target) if source <= target else (target, source)
        if pair in pairs:
            return False
        pairs.add(pair)
    return len(pairs) == len(instance.active_nodes) - 1


class MatchResult:
    """Outcome of verifying one query instance against the graph.

    Attributes:
        mask: ``q(G)`` as a mask over the output label's enumeration
            (:meth:`~repro.graph.attributed_graph.AttributedGraph.enumeration`).
        candidate_masks: AC-pruned per-node candidate pools as bitmasks
            over the per-label enumerations (supersets of the exact
            per-node match sets; exact on acyclic instances). These seed
            the incremental verification of refined children.
        labels: Each query node's label.
        output: The output query node.
        backtrack_calls: Number of recursive extension calls performed
            (work counter for the efficiency experiments).
        pruned_candidates: Candidates removed by arc consistency.
    """

    __slots__ = (
        "mask",
        "candidate_masks",
        "labels",
        "output",
        "backtrack_calls",
        "pruned_candidates",
        "_bitsets",
        "_matches",
        "_candidates",
    )

    def __init__(
        self,
        mask: int,
        candidate_masks: MaskMap,
        labels: Mapping[str, str],
        output: str,
        bitsets: BitsetIndex,
        backtrack_calls: int = 0,
        pruned_candidates: int = 0,
    ) -> None:
        self.mask = mask
        self.candidate_masks = candidate_masks
        self.labels = labels
        self.output = output
        self.backtrack_calls = backtrack_calls
        self.pruned_candidates = pruned_candidates
        self._bitsets = bitsets
        self._matches: Optional[FrozenSet[int]] = None
        self._candidates: Optional[CandidateMap] = None

    @property
    def matches(self) -> FrozenSet[int]:
        """``q(G)`` as node ids, built on first access."""
        if self._matches is None:
            self._matches = self._bitsets.to_ids(self.labels[self.output], self.mask)
        return self._matches

    @property
    def cardinality(self) -> int:
        """``|q(G)|``."""
        return self.mask.bit_count()

    @property
    def candidates(self) -> CandidateMap:
        """The candidate masks as per-node id sets, built on first access.

        Per-label enumerations never change while the node set is fixed
        (in-place deltas keep it), so a late materialization reads the
        same bit → id mapping the match ran against.
        """
        if self._candidates is None:
            to_ids = self._bitsets.to_ids
            labels = self.labels
            self._candidates = {
                node_id: to_ids(labels[node_id], mask)
                for node_id, mask in self.candidate_masks.items()
            }
        return self._candidates

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MatchResult(matches={self.cardinality}, "
            f"backtrack_calls={self.backtrack_calls}, "
            f"pruned_candidates={self.pruned_candidates})"
        )


class LiteralPoolCache:
    """Engine-local memo ``(label, attribute, op, constant) → candidate mask``.

    The instance lattice enumerates thousands of siblings that share all
    but one literal; this cache turns their repeated index lookups into
    dictionary hits, so a sibling's initial pools resolve with one AND per
    literal. Entries live as long as the engine — one generation run when
    the engine is run-owned, the whole serving session when the engine is
    reused. Misses are served from the indexes' shared
    :class:`~repro.graph.indexes.LiteralMasks` memo when it holds the mask
    (counted under ``matcher.bitset.literal_pool_shared_hits``), so masks
    survive across runs over one graph.

    Eviction: for a single template the key space is bounded by the
    template's variables × their active domains, so the cache is unbounded
    by default; long-lived engines (online streams, serving sessions) can
    bound it via ``max_entries``
    (:attr:`~repro.core.config.GenerationConfig.literal_pool_max_entries`),
    which turns the memo into an LRU.
    """

    def __init__(
        self,
        indexes: GraphIndexes,
        metrics: MetricsRegistry,
        max_entries: Optional[int] = None,
    ) -> None:
        if max_entries is not None and max_entries <= 0:
            raise ValueError("max_entries must be positive or None")
        self._indexes = indexes
        self._metrics = metrics
        self._shared = indexes.literal_masks
        self._max_entries = max_entries
        self._masks: "OrderedDict[Tuple, int]" = OrderedDict()
        metrics.counter("matcher.bitset.literal_pool_hits")
        metrics.counter("matcher.bitset.literal_pool_misses")
        metrics.counter("matcher.bitset.literal_pool_shared_hits")
        if max_entries is not None:
            metrics.counter("matcher.bitset.literal_pool_evictions")

    def __len__(self) -> int:
        return len(self._masks)

    def mask(self, label: str, literal: Literal) -> int:
        """The mask of ``label`` nodes satisfying ``literal``."""
        try:
            key = (label, literal.attribute, literal.op, literal.constant)
            cached = self._masks.get(key)
        except TypeError:  # unhashable constant: compute without caching
            self._metrics.inc("matcher.bitset.literal_pool_misses")
            return self._compute(label, literal)
        if cached is None:
            # A local miss still counts as a miss when the shared memo
            # saves the recomputation: the hit/miss pair describes *this*
            # engine's cache, the shared hits how many misses were cheap.
            self._metrics.inc("matcher.bitset.literal_pool_misses")
            cached = self._shared.lookup(key)
            if cached is None:
                cached = self._compute(label, literal)
                self._shared.store(key, cached)
            else:
                self._metrics.inc("matcher.bitset.literal_pool_shared_hits")
            self._store(key, cached)
        else:
            self._metrics.inc("matcher.bitset.literal_pool_hits")
            if self._max_entries is not None:
                self._masks.move_to_end(key)
        return cached

    def invalidate_attributes(self, pairs: Iterable[Tuple[str, str]]) -> int:
        """Drop cached masks over the given (label, attribute) pairs.

        After an in-place attribute update, masks keyed on a touched pair
        describe the old values while every other mask stays valid (edge
        deltas never stale literal masks at all). Returns the drop count.
        """
        touched = set(pairs)
        stale = [key for key in self._masks if (key[0], key[1]) in touched]
        for key in stale:
            del self._masks[key]
        return len(stale)

    def repair_attributes(
        self,
        graph: "AttributedGraph",
        touched_nodes: Iterable[int],
        pairs: Iterable[Tuple[str, str]],
    ) -> int:
        """Bit-level repair of masks over the given (label, attribute) pairs.

        The surgical alternative to :meth:`invalidate_attributes` for the
        streaming path: a mask's bits are per-node predicate outcomes, and
        an in-place attribute update changes those outcomes only for the
        touched nodes — so instead of dropping the mask (and paying a full
        O(label) recomputation on the next probe) each touched node's bit
        is recomputed against its new value in ``graph`` (the mutated
        graph these indexes describe). Cost is O(touched × stale masks);
        every untouched bit stays verbatim. Returns the number of masks
        repaired.
        """
        touched = set(pairs)
        stale = [key for key in self._masks if (key[0], key[1]) in touched]
        if not stale:
            return 0
        nodes = list(touched_nodes)
        for key in stale:
            label, attribute, op, constant = key
            positions = self._indexes.bitsets.positions(label)
            literal = Literal(attribute, op, constant)
            mask = self._masks[key]
            for node in nodes:
                position = positions.get(node)
                if position is None:  # touched node carries another label
                    continue
                bit = 1 << position
                if literal.holds_for(graph.attribute(node, attribute)):
                    mask |= bit
                else:
                    mask &= ~bit
            self._masks[key] = mask
        return len(stale)

    def _store(self, key: Tuple, mask: int) -> None:
        self._masks[key] = mask
        if self._max_entries is not None and len(self._masks) > self._max_entries:
            self._masks.popitem(last=False)
            self._metrics.inc("matcher.bitset.literal_pool_evictions")

    def _compute(self, label: str, literal: Literal) -> int:
        matching = self._indexes.attributes.matching_nodes(
            label, literal.attribute, literal.op, literal.constant
        )
        return self._indexes.bitsets.mask_of(label, matching)


class _Work:
    """Mutable per-call work tally, folded into counters once per match."""

    __slots__ = ("backtracks", "intersections", "sweeps", "memo_hits")

    def __init__(self) -> None:
        self.backtracks = 0
        self.intersections = 0
        self.sweeps = 0
        self.memo_hits = 0


class BitsetEngine:
    """The mask verification pipeline behind ``SubgraphMatcher``.

    Matches are exact (the engine-vs-oracle differential suite pins them
    against :mod:`repro.matching.reference`); work is counted under the
    shared ``matcher.*`` counters plus ``matcher.bitset.*``.

    Args:
        graph: The data graph (its ball kernel serves the AC-3 sweeps).
        indexes: The graph's indexes (owns the bitset enumerations);
            ``graph.indexes()`` when omitted.
        injective: Subgraph-isomorphism semantics switch.
        metrics: Registry receiving ``matcher.*`` and ``matcher.bitset.*``.
        guard: The run's :class:`~repro.runtime.budget.ExecutionGuard`,
            probed at the backtracking-sweep loop heads. Defaults to the
            inert guard.
        literal_pool_max_entries: Optional LRU bound on the engine-local
            literal cache (None = unbounded).
    """

    def __init__(
        self,
        graph: "AttributedGraph",
        indexes: Optional[GraphIndexes] = None,
        injective: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        guard: Optional[ExecutionGuard] = None,
        literal_pool_max_entries: Optional[int] = None,
    ) -> None:
        if indexes is None:
            indexes = graph.indexes()
        self.indexes = indexes
        self.graph = graph
        self.bitsets = indexes.bitsets
        self.injective = injective
        self.metrics = metrics or MetricsRegistry()
        self.guard = guard if guard is not None else NULL_GUARD
        self.literal_pools = LiteralPoolCache(
            indexes, self.metrics, max_entries=literal_pool_max_entries
        )
        for name in (
            "matcher.match_calls",
            "matcher.backtrack_calls",
            "matcher.ac_removed",
            "matcher.empty_pool_short_circuits",
            "matcher.acyclic_fast_paths",
            "matcher.bitset.mask_intersections",
            "matcher.bitset.support_sweeps",
            "matcher.bitset.support_memo_hits",
        ):
            self.metrics.counter(name)

    # ------------------------------------------------------------------ #
    # Public API (called through SubgraphMatcher)
    # ------------------------------------------------------------------ #

    def match(
        self,
        instance: QueryInstance,
        restrict: Optional[Mapping[str, Set[int]]] = None,
        restrict_masks: Optional[Mapping[str, int]] = None,
        first_only: bool = False,
    ) -> MatchResult:
        """Compute ``q(G)`` plus the AC-pruned candidate masks of ``instance``.

        ``restrict_masks`` is the incremental-verification hook (a
        verified parent's candidate masks); ``restrict`` bounds pools by
        plain id sets. ``first_only`` stops after the first confirmed
        output match (the ``exists()`` fast path).
        """
        metrics = self.metrics
        metrics.inc("matcher.match_calls")
        work = _Work()
        masks, labels = self._initial_masks(instance, restrict, restrict_masks, work)
        metrics.observe(
            "matcher.initial_pool_size",
            sum(mask.bit_count() for mask in masks.values()),
        )
        output = instance.output_node
        if any(not mask for mask in masks.values()):
            metrics.inc("matcher.empty_pool_short_circuits")
            self._publish(work)
            return MatchResult(0, {k: 0 for k in masks}, labels, output, self.bitsets)
        masks, pruned = self._propagate(instance, masks, labels, work)
        metrics.inc("matcher.ac_removed", pruned)
        metrics.observe("matcher.output_pool_size", masks[output].bit_count())
        if not masks[output]:
            metrics.inc("matcher.empty_pool_short_circuits")
            self._publish(work)
            return MatchResult(
                0, masks, labels, output, self.bitsets, pruned_candidates=pruned
            )

        mask = self._solve(instance, masks, labels, output, work, first_only)
        metrics.inc("matcher.backtrack_calls", work.backtracks)
        self._publish(work)
        return MatchResult(
            mask,
            masks,
            labels,
            output,
            self.bitsets,
            backtrack_calls=work.backtracks,
            pruned_candidates=pruned,
        )

    def match_outputs(
        self,
        instance: QueryInstance,
        outputs: Sequence[str],
        restrict: Optional[Mapping[str, Set[int]]] = None,
    ) -> Dict[str, frozenset]:
        """Exact match sets for several query nodes at once (paper §VI)."""
        metrics = self.metrics
        metrics.inc("matcher.match_outputs_calls")
        work = _Work()
        masks, labels = self._initial_masks(instance, restrict, None, work)
        if any(not mask for mask in masks.values()):
            metrics.inc("matcher.empty_pool_short_circuits")
            self._publish(work)
            return {output: frozenset() for output in outputs}
        masks, pruned = self._propagate(instance, masks, labels, work)
        metrics.inc("matcher.ac_removed", pruned)
        if len(instance.active_nodes) == 1 or (
            is_acyclic(instance) and not self.injective
        ):
            self._publish(work)
            return {
                output: self.bitsets.to_ids(labels[output], masks[output])
                for output in outputs
            }
        links = self._links(instance, labels)
        results: Dict[str, frozenset] = {}
        for output in outputs:
            mask = self._sweep(instance, masks, labels, output, links, work, False)
            results[output] = self.bitsets.to_ids(labels[output], mask)
        metrics.inc("matcher.backtrack_calls", work.backtracks)
        self._publish(work)
        return results

    # ------------------------------------------------------------------ #
    # Pipeline stages
    # ------------------------------------------------------------------ #

    def _initial_masks(
        self,
        instance: QueryInstance,
        restrict: Optional[Mapping[str, Set[int]]],
        restrict_masks: Optional[Mapping[str, int]],
        work: _Work,
    ) -> Tuple[MaskMap, Dict[str, str]]:
        """Label pools ∩ literal masks, bounded by any restrict map."""
        bitsets = self.bitsets
        pools = self.literal_pools
        masks: MaskMap = {}
        labels: Dict[str, str] = {}
        for node_id in instance.active_nodes:
            label = instance.node_label(node_id)
            labels[node_id] = label
            if restrict_masks is not None and node_id in restrict_masks:
                mask = restrict_masks[node_id]
            elif restrict is not None and node_id in restrict:
                mask = bitsets.mask_of(label, restrict[node_id])
            else:
                mask = bitsets.full_mask(label)
            for literal in instance.literals_on(node_id):
                mask &= pools.mask(label, literal)
                work.intersections += 1
                if not mask:
                    break
            masks[node_id] = mask
        return masks, labels

    def _propagate(
        self,
        instance: QueryInstance,
        masks: MaskMap,
        labels: Dict[str, str],
        work: _Work,
    ) -> Tuple[MaskMap, int]:
        """AC-3 fixpoint over masks; returns the pruned map and removals.

        A candidate ``v`` of ``u`` survives iff, for every query edge at
        ``u``, ``v``'s adjacency row toward the neighbor's label meets the
        neighbor's pool. Each constraint reads that predicate from the
        graph's :class:`~repro.graph.indexes.SupportMemo`, keyed on the
        relation and the neighbor pool, and computes it only for the
        survivors the entry does not cover yet: in one sweep over the ball
        kernel's edge arrays when they reach the crossover, by row probes
        otherwise. Every path gives the exact predicate, so survivors,
        removals and re-queues are the same however a support was found.
        The worklist is sorted (``active_nodes`` iterates in hash order,
        and the early exit on an empty pool makes the removal count
        order-dependent), so the ``matcher.ac_removed`` counter is
        reproducible across processes.
        """
        bitsets = self.bitsets
        kernel = self.graph.ball_kernel()
        memo = self.indexes.supports
        # No fill below this sweeps, whatever its edge label, so small
        # fills never price a sweep.
        floor = max(1, _crossover(0))
        # Per node: (other, row-table key) for each incident query edge.
        constraints: Dict[str, List[Tuple[str, Relation]]] = {
            n: [] for n in instance.active_nodes
        }
        for source, target, label in instance.edges:
            constraints[source].append(
                (target, (labels[source], label, True, labels[target]))
            )
            constraints[target].append(
                (source, (labels[target], label, False, labels[source]))
            )

        removed = 0
        intersections = 0
        sweeps = 0
        hits = 0
        queue = deque(sorted(instance.active_nodes))
        queued = set(queue)
        while queue:
            node_id = queue.popleft()
            queued.discard(node_id)
            pool = masks[node_id]
            node_constraints = constraints[node_id]
            survivors = pool
            for other, relation in node_constraints:
                other_mask = masks[other]
                key = relation + (other_mask,)
                entry = memo.lookup(key)
                known, support = (0, 0) if entry is None else entry
                unknown = survivors & ~known
                if not unknown:
                    hits += 1
                else:
                    size = unknown.bit_count()
                    if size >= floor and size >= _crossover(kernel.edge_count(relation[1])):
                        known, support = -1, kernel.support(*relation, other_mask)
                        sweeps += 1
                    else:
                        table = bitsets.relation(*relation)
                        known |= unknown
                        while unknown:
                            low = unknown & -unknown
                            unknown ^= low
                            position = low.bit_length() - 1
                            row = table[position]
                            if row is None:
                                row = bitsets.row(position, *relation)
                            intersections += 1
                            if row < 0:  # single neighbor at bit ~row
                                if other_mask >> ~row & 1:
                                    support |= low
                            elif row & other_mask:
                                support |= low
                    memo.store(key, (known, support))
                survivors &= support
                intersections += 1
                if not survivors:
                    break
            if survivors != pool:
                removed += (pool & ~survivors).bit_count()
                masks[node_id] = survivors
                for other, _ in node_constraints:
                    if other not in queued:
                        queue.append(other)
                        queued.add(other)
                if not survivors:
                    for node in masks:
                        masks[node] = 0
                    break
        work.intersections += intersections
        work.sweeps += sweeps
        work.memo_hits += hits
        return masks, removed

    def _solve(
        self,
        instance: QueryInstance,
        masks: MaskMap,
        labels: Dict[str, str],
        output: str,
        work: _Work,
        first_only: bool,
    ) -> int:
        """Fast paths + backtracking sweep over the output pool; returns
        the output mask."""
        if len(instance.active_nodes) == 1 or (
            is_acyclic(instance) and not self.injective
        ):
            # Arc consistency is exact for homomorphisms on acyclic queries.
            self.metrics.inc("matcher.acyclic_fast_paths")
            return masks[output]
        links = self._links(instance, labels)
        return self._sweep(instance, masks, labels, output, links, work, first_only)

    def _sweep(
        self, instance: QueryInstance, masks: MaskMap, labels: Dict[str, str],
        output: str, links: Dict, work: _Work, first_only: bool,
    ) -> int:
        """Backtracking sweep over the output pool; the output mask."""
        matches = 0
        order = self._search_order(instance, masks, output)
        guard = self.guard
        for position in iter_bits(masks[output]):
            # Loop-head budget probe; in-flight backtracks ride along since
            # they are only folded into the registry after the sweep.
            guard.checkpoint(extra_backtracks=work.backtracks)
            if self._extendable(
                links, masks, labels, order, {output: position}, 1, work
            ):
                matches |= 1 << position
                if first_only:
                    break
        return matches

    def _extendable(
        self,
        links: Dict[str, List[Tuple[str, List[Optional[int]], Relation]]],
        masks: MaskMap,
        labels: Dict[str, str],
        order: List[str],
        assignment: Dict[str, int],
        depth: int,
        work: _Work,
    ) -> bool:
        """Depth-first existence check; extension pools are single ANDs.

        ``assignment`` maps assigned query nodes to bit positions in their
        label's enumeration. Intersecting the node's pool with *every*
        assigned neighbor's adjacency row both shrinks the pool and
        enforces edge consistency, so no per-candidate edge re-check
        remains.
        """
        work.backtracks += 1
        if depth == len(order):
            return True
        node_id = order[depth]
        bitsets = self.bitsets
        pool = masks[node_id]
        for neighbor, table, relation in links[node_id]:
            anchor = assignment.get(neighbor)
            if anchor is None:
                continue
            row = table[anchor]
            if row is None:
                row = bitsets.row(anchor, *relation)
            pool &= 1 << ~row if row < 0 else row
            work.intersections += 1
            if not pool:
                return False
        label = labels[node_id]
        for position in iter_bits(pool):
            # Distinct labels never share a data node, so injectivity
            # only compares positions within one label.
            if self.injective and any(
                taken == position and labels[other] == label
                for other, taken in assignment.items()
            ):
                continue
            assignment[node_id] = position
            if self._extendable(
                links, masks, labels, order, assignment, depth + 1, work
            ):
                del assignment[node_id]
                return True
            del assignment[node_id]
        return False

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #

    def _links(
        self, instance: QueryInstance, labels: Dict[str, str]
    ) -> Dict[str, List[Tuple[str, List[Optional[int]], Relation]]]:
        """Per query node: ``(neighbor, row table, relation)`` per incident edge.

        Rows are anchored at the already-assigned neighbor: ``outgoing=True``
        means the query edge runs node → neighbor, so the node's candidates
        are *predecessors* of the neighbor's image — hence the flipped
        direction.
        """
        bitsets = self.bitsets
        links = {}
        for node_id, incident in instance.adjacency().items():
            links[node_id] = []
            for neighbor, edge_label, outgoing in incident:
                relation = (labels[neighbor], edge_label, not outgoing, labels[node_id])
                links[node_id].append((neighbor, bitsets.relation(*relation), relation))
        return links

    def _search_order(
        self, instance: QueryInstance, masks: MaskMap, root: str
    ) -> List[str]:
        """Connected fail-first order (smallest pool first) from ``root``."""
        adjacency = instance.adjacency()
        order = [root]
        visited = {root}
        while len(order) < len(instance.active_nodes):
            frontier = {
                neighbor
                for node in visited
                for neighbor, _, _ in adjacency[node]
                if neighbor not in visited
            }
            best = min(frontier, key=lambda n: (masks[n].bit_count(), n))
            order.append(best)
            visited.add(best)
        return order

    def _publish(self, work: _Work) -> None:
        if work.intersections:
            self.metrics.inc("matcher.bitset.mask_intersections", work.intersections)
        if work.sweeps:
            self.metrics.inc("matcher.bitset.support_sweeps", work.sweeps)
        if work.memo_hits:
            self.metrics.inc("matcher.bitset.support_memo_hits", work.memo_hits)
