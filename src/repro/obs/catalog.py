"""The public metric catalog: every counter/gauge/histogram we stand behind.

``docs/observability.md`` documents the metric namespace in one table;
this module is the machine-readable side of that contract. The docs
linter (``tools/docs_lint.py --cross-ref``) checks both directions:

* every metric token a namespace-table row mentions must resolve to a
  catalog entry (docs cannot reference renamed or removed metrics), and
* every catalog entry must be covered by some documented token or
  namespace pattern (new public metrics cannot ship undocumented).

Entries are *patterns*: a name may contain ``*`` wildcards for families
whose member names are data-dependent (``gen.<algo>.*`` namespaces, the
per-reason budget trip split, trace spans). Matching is
:func:`fnmatch.fnmatchcase` in both directions, so a documented pattern
covers concrete entries and vice versa.

Internal/debug metrics deliberately have no entry here — adding a metric
to the catalog is the act of making it public, and the linter will then
force a documentation row for it.
"""

from __future__ import annotations

from fnmatch import fnmatchcase
from typing import Iterator, NamedTuple, Optional, Tuple


class MetricSpec(NamedTuple):
    """One public metric (or ``*``-family of metrics)."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"


def _specs(kind: str, names: Tuple[str, ...]) -> Tuple[MetricSpec, ...]:
    return tuple(MetricSpec(name, kind) for name in names)


#: Counters, grouped by component namespace (keep sorted within a group).
_COUNTERS: Tuple[str, ...] = (
    # evaluator / verifier
    "evaluator.cache_hits",
    "evaluator.cache_misses",
    "evaluator.eval_calls",
    "evaluator.evictions",
    "evaluator.incremental",
    "evaluator.memo_hits",
    "evaluator.verify_calls",
    # generators (per-algorithm namespaces share the core suffixes)
    "gen.*.archive_offers",
    "gen.*.archive_updates",
    "gen.*.dedup_skipped",
    "gen.*.feasible",
    "gen.*.generated",
    "gen.*.pruned",
    "gen.*.pruned_infeasible",
    "gen.*.verified",
    "gen.biqgen.pruned_sandwich",
    "gen.biqgen.pruned_witness",
    "gen.onlineqgen.cached",
    "gen.onlineqgen.epsilon_growths",
    "gen.onlineqgen.refilled",
    "gen.onlineqgen.window_expired",
    # group systems
    "groups.members_indexed",
    "groups.membership_repairs",
    "groups.multi_membership_nodes",
    "groups.rules_evaluated",
    "groups.systems_built",
    # lattice
    "lattice.ball_cache_evictions",
    "lattice.ball_cache_hits",
    "lattice.ball_cache_misses",
    "lattice.children_spawned",
    "lattice.edges_fixed",
    "lattice.enumerated",
    "lattice.refine_calls",
    "lattice.relax_calls",
    # matcher (+ the bitset engine sub-namespace)
    "matcher.ac_removed",
    "matcher.acyclic_fast_paths",
    "matcher.backtrack_calls",
    "matcher.bitset.literal_pool_evictions",
    "matcher.bitset.literal_pool_hits",
    "matcher.bitset.literal_pool_misses",
    "matcher.bitset.literal_pool_shared_hits",
    "matcher.bitset.mask_intersections",
    "matcher.bitset.support_memo_hits",
    "matcher.bitset.support_sweeps",
    "matcher.empty_pool_short_circuits",
    "matcher.match_calls",
    "matcher.match_outputs_calls",
    # runtime budget
    "runtime.budget.checks",
    "runtime.budget.trips",
    "runtime.budget.trips.cancelled",
    "runtime.budget.trips.deadline",
    "runtime.budget.trips.max_backtracks",
    "runtime.budget.trips.max_instances",
    # delta scoring
    "scoring.cache_evictions",
    "scoring.cache_hits",
    "scoring.cache_misses",
    "scoring.delta_nodes",
    "scoring.delta_updates",
    "scoring.fallback_large_delta",
    "scoring.full_builds",
    "scoring.invalidated_entries",
    "scoring.patched_entries",
    "scoring.score_calls",
    "scoring.state_evictions",
    # serving tier
    "service.admission.admitted",
    "service.admission.shed",
    "service.admission.shed.deadline",
    "service.admission.shed.queue_full",
    "service.admission.slo.batch",
    "service.admission.slo.interactive",
    "service.admission.slo.standard",
    "service.batches",
    "service.completed",
    "service.context.configs_bound",
    "service.context.inplace_deltas",
    "service.context.invalidations",
    "service.daemon.completed",
    "service.daemon.deduplicated",
    "service.daemon.duplicate_results_ignored",
    "service.daemon.failed",
    "service.daemon.requests",
    "service.daemon.retries",
    "service.daemon.shed",
    "service.daemon.stragglers_abandoned",
    "service.daemon.truncated",
    "service.daemon.worker_crashes",
    "service.daemon.worker_restarts",
    "service.deduplicated",
    "service.failed",
    "service.requests",
    "service.requests.rejected",
    "service.truncated",
    # streaming
    "streaming.attrs_set",
    "streaming.budget_fallbacks",
    "streaming.deltas_applied",
    "streaming.duplicate_offers",
    "streaming.edges_deleted",
    "streaming.edges_inserted",
    "streaming.fault_recoveries",
    "streaming.full_rescores",
    "streaming.generated",
    "streaming.instances_changed",
    "streaming.instances_rechecked",
    "streaming.instances_skipped",
    "streaming.membership_moves",
    "streaming.offers",
    "streaming.recheck_pool_nodes",
    "streaming.rescored",
    "streaming.scores_kept",
    # the shared-universe mirror namespace (prefixes absorbed counters)
    "universe.*",
)

_GAUGES: Tuple[str, ...] = (
    "evaluator.cache_size",
    "gen.*.elapsed_seconds",
    "gen.biqgen.sandwich_bounds",
    "gen.onlineqgen.final_epsilon",
    "runtime.budget.deadline_seconds",
    "scoring.cache_size",
    "scoring.state_size",
    "streaming.archive_size",
    "streaming.ledger_size",
)

_HISTOGRAMS: Tuple[str, ...] = (
    "matcher.initial_pool_size",
    "matcher.output_pool_size",
    "service.daemon.queue_wait_seconds",
    "service.daemon.request_seconds",
    "service.request_seconds",
    "span.*",
    "streaming.update_seconds",
)

#: The catalog, one flat tuple (counters, then gauges, then histograms).
CATALOG: Tuple[MetricSpec, ...] = (
    _specs("counter", _COUNTERS)
    + _specs("gauge", _GAUGES)
    + _specs("histogram", _HISTOGRAMS)
)


def public_metrics(kind: Optional[str] = None) -> Iterator[MetricSpec]:
    """The catalog entries, optionally restricted to one kind."""
    for spec in CATALOG:
        if kind is None or spec.kind == kind:
            yield spec


def find(name: str) -> Optional[MetricSpec]:
    """The catalog entry covering a concrete metric name, if any.

    Exact entries win over ``*``-family patterns so e.g.
    ``gen.biqgen.pruned_witness`` reports its own spec rather than a
    wildcard's.
    """
    fallback: Optional[MetricSpec] = None
    for spec in CATALOG:
        if spec.name == name:
            return spec
        if fallback is None and fnmatchcase(name, spec.name):
            fallback = spec
    return fallback


def is_public(name: str) -> bool:
    """True iff a concrete metric name is covered by the catalog."""
    return find(name) is not None
