"""Subgraph matching engine.

Computes the answer ``q(G)`` of a query instance: the match set of the
designated output node under subgraph matching (a function ``h: V_q → V``
preserving node labels, literals, edges and edge labels — a graph
homomorphism per the paper's Section II definition; an ``injective`` switch
gives subgraph-isomorphism semantics).

Pipeline: per-node candidates from label + literal indexes → arc-consistency
propagation over query edges → backtracking existence checks for the output
node's candidates. Incremental verification (the paper's ``incVerify``)
seeds a child instance's candidates with its verified parent's, valid by
Lemma 2 (refinement shrinks match sets).

The pipeline runs on integer bitmasks (:mod:`repro.matching.bitset`):
candidate pools are masks over per-label node enumerations and literal
pools are cached across a whole run. Arc consistency takes each
constraint's support in one numpy sweep over the graph's edge arrays when
the pool is large and probes adjacency rows when it is small; results are
identical. :mod:`repro.matching.reference` holds the naive and VF2
oracles the tests compare against.
"""

from repro.matching.bitset import (
    BitsetEngine,
    CandidateMap,
    LiteralPoolCache,
    MaskMap,
    MatchResult,
)
from repro.matching.matcher import SubgraphMatcher
from repro.matching.incremental import IncrementalVerifier
from repro.matching.reference import naive_match_set, nx_monomorphism_match_set
from repro.matching.delta import GraphDelta, IncrementalMatchMaintainer, apply_delta
from repro.matching.profiling import InstanceProfile, profile_instance

__all__ = [
    "CandidateMap",
    "MaskMap",
    "SubgraphMatcher",
    "BitsetEngine",
    "LiteralPoolCache",
    "MatchResult",
    "IncrementalVerifier",
    "naive_match_set",
    "nx_monomorphism_match_set",
    "GraphDelta",
    "apply_delta",
    "IncrementalMatchMaintainer",
    "InstanceProfile",
    "profile_instance",
]
