"""Live-graph streaming: incremental archive maintenance over update streams.

One :class:`StreamingSession` pins a
:class:`~repro.service.context.GraphContext` and applies
:class:`~repro.matching.delta.GraphDelta` updates to the live graph
through :func:`~repro.matching.delta.apply_delta_in_place` — the one
update path, which :func:`~repro.matching.delta.apply_delta` also runs on
a copy — with scoped index repair. It re-verifies only the d-hop
influence region of each update, repairs (δ, f) through the tiered
score-invalidation hooks, and replays the ε-Pareto archive — producing,
after every update, exactly the archive a cold rebuild on the updated
graph would. ``DeltaReceipt``, ``apply_delta_in_place`` and
``graph_signature`` live in :mod:`repro.matching.delta` and are
re-exported here.
"""

from repro.matching.delta import DeltaReceipt, apply_delta_in_place, graph_signature
from repro.streaming.events import GenerateEvent, OfferEvent, UpdateEvent
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
