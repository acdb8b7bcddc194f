"""Live-graph streaming: incremental archive maintenance over update streams.

The streaming layer turns the serving stack's rebuild-per-delta model into
in-place maintenance: one :class:`StreamingSession` pins a
:class:`~repro.service.context.GraphContext`, applies
:class:`~repro.matching.delta.GraphDelta` updates to the live graph with
scoped index repair, re-verifies only the d-hop influence region of each
update, repairs (δ, f) through the tiered score-invalidation hooks, and
replays the ε-Pareto archive — producing, after every update, exactly the
archive a cold rebuild on the materialized graph would.
"""

from repro.streaming.events import GenerateEvent, OfferEvent, UpdateEvent
from repro.streaming.graph_ops import (
    DeltaReceipt,
    apply_delta_in_place,
    graph_signature,
)
from repro.streaming.reverify import instance_diameter, reverify_matches
from repro.streaming.session import StreamingSession, UpdateReport

__all__ = [
    "DeltaReceipt",
    "GenerateEvent",
    "OfferEvent",
    "StreamingSession",
    "UpdateEvent",
    "UpdateReport",
    "apply_delta_in_place",
    "graph_signature",
    "instance_diameter",
    "reverify_matches",
]
