"""Bridging workload generation and the serving layer.

The template generator produces the paper's experiment inputs; the batch
service consumes :class:`~repro.service.requests.GenerationRequest`s.
This module turns the former into the latter, so a synthetic k-template
workload is one call away from being served:

    >>> requests = requests_from_templates(                 # doctest: +SKIP
    ...     TemplateGenerator(schema, seed=1).generate_many(spec, 8),
    ...     epsilon=0.1)
    >>> BatchSession(graph, groups).run(requests)
    ...                                                     # doctest: +SKIP
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.query.template import QueryTemplate
from repro.service.requests import GenerationRequest


def requests_from_templates(
    templates: Iterable[QueryTemplate],
    algorithm: str = "biqgen",
    epsilon: float = 0.05,
    clients: Optional[Sequence[str]] = None,
    **request_kwargs,
) -> List[GenerationRequest]:
    """One request per template, ids from the template names.

    ``clients`` assigns admission-fairness keys round-robin (e.g. to
    simulate multi-tenant traffic); further keyword arguments
    (``deadline_seconds``, ``options``, ...) are forwarded to every
    :class:`~repro.service.requests.GenerationRequest`.
    """
    requests: List[GenerationRequest] = []
    for i, template in enumerate(templates):
        client = clients[i % len(clients)] if clients else "default"
        requests.append(
            GenerationRequest(
                request_id=template.name,
                template=template,
                algorithm=algorithm,
                epsilon=epsilon,
                client=client,
                **request_kwargs,
            )
        )
    return requests
