"""Incremental instance verification — the paper's ``incVerify``.

When RfQGen spawns a child ``q'`` that refines a verified parent ``q`` at a
single variable, Lemma 2 guarantees ``q'``'s per-node match sets are subsets
of ``q``'s. The verifier therefore seeds the child's candidate pools with
the parent's AC-pruned candidate masks instead of the full label pools, which
is where the refinement-based algorithms gain over naive enumeration.

Results are memoized per instantiation so the lattice explorations never
verify the same instance twice (BiQGen's two frontiers can collide). The
memo table is optionally bounded (``max_entries``) with LRU eviction so
long online streams cannot grow memory without limit; an evicted entry
only costs a re-verification (and forfeits parent seeding from it), never
correctness.

Work counters live in a :class:`~repro.obs.registry.MetricsRegistry`
under the ``evaluator.*`` namespace; the legacy ``verified_count`` /
``incremental_count`` / ``cache_hits`` attributes are views over it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from repro.matching.matcher import MatchResult, SubgraphMatcher
from repro.obs.registry import MetricsRegistry
from repro.query.instance import QueryInstance


class IncrementalVerifier:
    """Memoizing wrapper around :class:`SubgraphMatcher` with parent seeding.

    Args:
        matcher: The underlying matcher.
        use_incremental: Seed child verification from verified parents.
        metrics: Registry receiving the ``evaluator.*`` counters. Defaults
            to the matcher's registry so one run shares one registry.
        max_entries: Optional bound on the memo table; when exceeded the
            least-recently-used result is evicted (counted under
            ``evaluator.evictions``). ``None`` keeps the table unbounded.

    Attributes:
        verified_count: Number of *distinct* instances actually matched
            (cache misses) — the paper's "# verified instances" metric.
        incremental_count: How many of those were seeded from a parent.
        cache_hits: Memo hits that skipped verification entirely.
    """

    def __init__(
        self,
        matcher: SubgraphMatcher,
        use_incremental: bool = True,
        metrics: Optional[MetricsRegistry] = None,
        max_entries: Optional[int] = None,
    ) -> None:
        if max_entries is not None and max_entries <= 0:
            raise ValueError("max_entries must be positive (or None)")
        self.matcher = matcher
        self.use_incremental = use_incremental
        self.metrics = metrics or matcher.metrics
        self.max_entries = max_entries
        self._cache: "OrderedDict[Tuple, MatchResult]" = OrderedDict()
        for name in (
            "evaluator.verify_calls",
            "evaluator.cache_hits",
            "evaluator.cache_misses",
            "evaluator.incremental",
            "evaluator.evictions",
        ):
            self.metrics.counter(name)

    # -- Registry-backed counter views ---------------------------------- #

    @property
    def verified_count(self) -> int:
        return self.metrics.value("evaluator.cache_misses")

    @property
    def incremental_count(self) -> int:
        return self.metrics.value("evaluator.incremental")

    @property
    def cache_hits(self) -> int:
        return self.metrics.value("evaluator.cache_hits")

    @property
    def evictions(self) -> int:
        return self.metrics.value("evaluator.evictions")

    def __len__(self) -> int:
        return len(self._cache)

    # ------------------------------------------------------------------ #

    def verify(
        self,
        instance: QueryInstance,
        parent: Optional[QueryInstance] = None,
    ) -> MatchResult:
        """Match ``instance``; seed candidates from ``parent`` if verified.

        ``parent`` must be an instance the verifier has already seen and
        that ``instance`` refines — callers (the lattice spawner) guarantee
        the refinement relation; seeding from a non-ancestor would be
        unsound and is therefore never attempted silently: an unknown
        parent simply falls back to full verification.
        """
        metrics = self.metrics
        metrics.inc("evaluator.verify_calls")
        key = instance.instantiation.key
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            metrics.inc("evaluator.cache_hits")
            return cached

        restrict_masks = None
        if self.use_incremental and parent is not None:
            parent_result = self._cache.get(parent.instantiation.key)
            if parent_result is not None and parent_result.candidate_masks:
                restrict_masks = parent_result.candidate_masks
                metrics.inc("evaluator.incremental")
        result = self.matcher.match(instance, restrict_masks=restrict_masks)
        self._cache[key] = result
        metrics.inc("evaluator.cache_misses")
        if self.max_entries is not None and len(self._cache) > self.max_entries:
            self._cache.popitem(last=False)
            metrics.inc("evaluator.evictions")
        metrics.set("evaluator.cache_size", len(self._cache))
        return result

    def peek(self, instance: QueryInstance) -> Optional[MatchResult]:
        """Return a cached result without verifying (no LRU touch)."""
        return self._cache.get(instance.instantiation.key)

    def invalidate(self) -> None:
        """Drop the memo table but keep every counter running.

        The streaming repair path: after an in-place graph delta every
        cached :class:`MatchResult` describes the *old* graph, but the
        run's work counters must keep accumulating across updates (the
        regression baselines and per-update budgets read them as running
        totals). Contrast :meth:`clear`, which also zeroes the
        ``evaluator.*`` namespace for between-run isolation.
        """
        self._cache.clear()

    def clear(self) -> None:
        """Drop the memo table and counters (used between independent runs)."""
        self._cache.clear()
        self.metrics.reset(prefix="evaluator.")
        for name in (
            "evaluator.verify_calls",
            "evaluator.cache_hits",
            "evaluator.cache_misses",
            "evaluator.incremental",
            "evaluator.evictions",
        ):
            self.metrics.counter(name)
