"""Batch request/outcome model and its JSONL wire format.

A serving batch is a list of :class:`GenerationRequest` — one FairSQG
generation each, all against the batch's shared graph and groups (a
request may override the groups with its own ``group_system``
fairness-scenario spec; see ``docs/fairness.md``). The
request carries the template, the algorithm name, ε, an optional
per-request execution budget and a whitelist of configuration overrides;
:meth:`GenerationRequest.canonical_signature` is the deduplication key
the scheduler uses to execute identical requests once.

On disk a batch is JSON Lines — one request object per line::

    {"id": "r1", "template": {...}, "algorithm": "biqgen", "epsilon": 0.1}
    {"id": "r2", "algorithm": "rfqgen", "deadline": 0.5, "client": "alice"}

``template`` is the :func:`repro.query.serialization.template_to_dict`
shape; omitting it selects the batch's default template (the dataset's
canonical one in the CLI). See ``docs/serving.md`` for a worked example.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Union

from repro.core.result import GenerationResult, RunStats
from repro.errors import ReproError, ServiceError
from repro.groups.system import canonical_spec, validate_system_spec
from repro.query.serialization import template_from_dict, template_to_dict
from repro.query.template import QueryTemplate
from repro.runtime.budget import Budget
from repro.service.admission import resolve_budget, slo_class

PathLike = Union[str, Path]

#: GenerationConfig fields a request may override per-request. Everything
#: else (graph, groups, shared caches, metrics) is owned by the batch.
ALLOWED_OPTIONS = frozenset(
    {
        "lam",
        "diversity_mode",
        "max_domain_values",
        "use_incremental",
        "use_template_refinement",
        "injective",
        "verifier_max_entries",
        "literal_pool_max_entries",
    }
)

_REQUEST_KEYS = frozenset(
    {
        "id",
        "client",
        "template",
        "algorithm",
        "epsilon",
        "deadline",
        "max_instances",
        "max_backtracks",
        "slo",
        "group_system",
        "options",
    }
)


@dataclass(frozen=True)
class GenerationRequest:
    """One generation request of a serving batch.

    Attributes:
        request_id: Caller-chosen identifier echoed on the outcome.
        template: The query template to generate for.
        algorithm: Generator name (``"biqgen"``, ``"rfqgen"``, ...).
        epsilon: The request's ε of ε-dominance.
        client: Admission-fairness key — the scheduler round-robins
            across clients so one bulk submitter cannot starve others.
        deadline_seconds / max_instances / max_backtracks: Optional
            per-request execution budget
            (:class:`~repro.runtime.budget.Budget`).
        slo: Optional service class (``"interactive"`` / ``"standard"`` /
            ``"batch"``) — its :data:`~repro.service.admission.SLO_CLASSES`
            caps tighten the budget and drive the daemon's admission
            priority and deadline shedding.
        group_system: Optional fairness-scenario spec (the
            :func:`repro.groups.system.system_from_dict` wire shape):
            attribute-combination group rules, per-group coverage/relax
            and an aggregate error mode, materialized against the serving
            graph in place of the batch's default groups. Structurally
            validated at parse time so a malformed spec becomes a
            :class:`RequestRejection`, not a batch failure.
        options: Extra :class:`~repro.core.config.GenerationConfig`
            overrides, restricted to :data:`ALLOWED_OPTIONS`.
    """

    request_id: str
    template: QueryTemplate
    algorithm: str = "biqgen"
    epsilon: float = 0.05
    client: str = "default"
    deadline_seconds: Optional[float] = None
    max_instances: Optional[int] = None
    max_backtracks: Optional[int] = None
    slo: Optional[str] = None
    options: Mapping[str, Any] = field(default_factory=dict)
    # Appended after options so pre-existing positional construction
    # (request_id .. slo, options) keeps meaning what it always did.
    group_system: Optional[Mapping[str, Any]] = None

    def __post_init__(self) -> None:
        unknown = set(self.options) - ALLOWED_OPTIONS
        if unknown:
            raise ServiceError(
                f"request {self.request_id!r} sets unknown option(s) "
                f"{sorted(unknown)}; allowed: {sorted(ALLOWED_OPTIONS)}"
            )
        if self.slo is not None:
            slo_class(self.slo)  # unknown class names fail loudly
        if self.group_system is not None:
            validate_system_spec(self.group_system)

    def budget(self) -> Optional[Budget]:
        """The effective execution budget, or None when unbounded.

        Explicit per-request limits are intersected with the request's
        SLO-class caps (:func:`repro.service.admission.resolve_budget`),
        each limit taking the tighter bound, so the synchronous batch
        path and the daemon execute identical budgets for one request.
        """
        return resolve_budget(self)

    def canonical_signature(self) -> str:
        """Order-insensitive execution identity of this request.

        Two requests with equal signatures produce identical results by
        construction (same canonical template, algorithm, ε, budget and
        config overrides), so the scheduler runs the first and replays
        its result for the rest. ``request_id`` and ``client`` are
        deliberately excluded — they identify the *caller*, not the work.
        """
        return json.dumps(
            {
                "template": _canonical_template(self.template),
                "algorithm": self.algorithm,
                "epsilon": self.epsilon,
                "budget": [
                    self.deadline_seconds,
                    self.max_instances,
                    self.max_backtracks,
                ],
                "slo": self.slo,
                "group_system": (
                    canonical_spec(self.group_system)
                    if self.group_system is not None
                    else None
                ),
                "options": {k: self.options[k] for k in sorted(self.options)},
            },
            sort_keys=True,
            default=str,
        )


def _canonical_template(template: QueryTemplate) -> Dict[str, Any]:
    """`template_to_dict` with every list sorted (construction-order-free)."""
    data = template_to_dict(template)
    for node in data["nodes"]:
        node["literals"].sort(key=lambda l: (l["attribute"], l["op"], str(l["constant"])))
    data["nodes"].sort(key=lambda n: n["id"])
    data["fixed_edges"].sort(key=lambda e: (e["source"], e["target"], e["label"]))
    data["edge_variables"].sort(key=lambda v: v["name"])
    data["range_variables"].sort(key=lambda v: v["name"])
    return data


@dataclass
class RequestOutcome:
    """Per-request result streamed back by the scheduler.

    Exactly one of ``result`` / ``error`` is set. ``deduplicated`` marks
    outcomes whose result was replayed from an identical earlier request
    of the same batch (the archive object is shared, not re-run).
    """

    request: GenerationRequest
    result: Optional[GenerationResult] = None
    error: Optional[str] = None
    elapsed_seconds: float = 0.0
    deduplicated: bool = False

    @property
    def ok(self) -> bool:
        """True iff the request produced a result (possibly truncated)."""
        return self.result is not None

    @property
    def shed(self) -> bool:
        """True iff this is a load-shed empty partial (never executed)."""
        return bool(
            self.result is not None
            and self.result.stats.truncation_reason is not None
            and str(self.result.stats.truncation_reason).startswith("shed")
        )

    def as_row(self) -> Dict[str, object]:
        """Row-dict rendering for table printers."""
        result = self.result
        return {
            "id": self.request.request_id,
            "client": self.request.client,
            "algorithm": self.request.algorithm,
            "|set|": len(result.instances) if result else "-",
            "truncated": bool(result and result.truncated),
            "dedup": self.deduplicated,
            "time (s)": round(self.elapsed_seconds, 4),
            "error": self.error or "",
        }


@dataclass(frozen=True)
class RequestRejection:
    """A request line the service refused before admission.

    Produced by the lenient wire-format parser
    (:func:`parse_request_lines`) for malformed JSONL lines — truncated
    JSON, non-object payloads, unknown keys, duplicate ids. A rejection
    flows through the outcome stream like any other answer (structured
    error object, ``service.requests.rejected`` counter) instead of
    raising out of the batch loop and taking the whole workload down.

    Duck-typed against :class:`RequestOutcome` just far enough for the
    table printers and outcome writers (``ok`` / ``error`` /
    ``deduplicated`` / ``as_row``).
    """

    request_id: str
    reason: str
    line_no: int = 0
    client: str = "unknown"

    #: Rejections never carry a result and are never deduplicated.
    ok = False
    shed = False
    result = None
    deduplicated = False
    elapsed_seconds = 0.0

    @property
    def error(self) -> str:
        return self.reason

    def as_row(self) -> Dict[str, object]:
        """Row-dict rendering for table printers (see
        :meth:`RequestOutcome.as_row`)."""
        return {
            "id": self.request_id,
            "client": self.client,
            "algorithm": "-",
            "|set|": "-",
            "truncated": False,
            "dedup": False,
            "time (s)": 0.0,
            "error": f"rejected: {self.reason}",
        }


def shed_outcome(request: GenerationRequest, reason: str) -> RequestOutcome:
    """The answer a load-shed request receives: an empty truncated partial.

    An empty instance list *is* a valid ε-Pareto set (of the empty
    verified prefix), so shedding degrades exactly like budget
    exhaustion does — ``ok`` stays True, ``truncated`` is set and
    ``truncation_reason`` carries the shed reason
    (:data:`~repro.service.admission.SHED_QUEUE_FULL` /
    :data:`~repro.service.admission.SHED_DEADLINE`) — instead of turning
    overload into errors.
    """
    return RequestOutcome(
        request=request,
        result=GenerationResult(
            algorithm=request.algorithm,
            instances=[],
            epsilon=request.epsilon,
            stats=RunStats(truncated=True, truncation_reason=reason),
        ),
    )


# ---------------------------------------------------------------------- #
# JSONL wire format
# ---------------------------------------------------------------------- #


def request_from_dict(
    data: Mapping[str, Any],
    default_template: Optional[QueryTemplate] = None,
    index: int = 0,
) -> GenerationRequest:
    """Build a request from one decoded JSONL object.

    ``default_template`` fills in for objects without a ``template`` key;
    unknown keys raise :class:`~repro.errors.ServiceError` so typos fail
    loudly instead of silently running defaults.
    """
    unknown = set(data) - _REQUEST_KEYS
    if unknown:
        raise ServiceError(
            f"request #{index} has unknown key(s) {sorted(unknown)}; "
            f"allowed: {sorted(_REQUEST_KEYS)}"
        )
    if data.get("template") is not None:
        template = template_from_dict(data["template"])
    elif default_template is not None:
        template = default_template
    else:
        raise ServiceError(
            f"request #{index} has no template and no default was provided"
        )
    return GenerationRequest(
        request_id=str(data.get("id", f"req-{index}")),
        template=template,
        algorithm=str(data.get("algorithm", "biqgen")),
        epsilon=float(data.get("epsilon", 0.05)),
        client=str(data.get("client", "default")),
        deadline_seconds=(
            float(data["deadline"]) if data.get("deadline") is not None else None
        ),
        max_instances=(
            int(data["max_instances"])
            if data.get("max_instances") is not None
            else None
        ),
        max_backtracks=(
            int(data["max_backtracks"])
            if data.get("max_backtracks") is not None
            else None
        ),
        slo=(str(data["slo"]) if data.get("slo") is not None else None),
        group_system=(
            data["group_system"] if data.get("group_system") is not None else None
        ),
        options=dict(data.get("options", {})),
    )


def parse_request_line(
    line: str,
    default_template: Optional[QueryTemplate] = None,
    index: int = 0,
    line_no: int = 0,
) -> Union[GenerationRequest, RequestRejection]:
    """Parse one wire-format line, never raising on bad input.

    Malformed lines — truncated/invalid JSON, non-object payloads,
    unknown keys, bad field values — come back as
    :class:`RequestRejection` carrying the caller-visible reason, so one
    corrupt line costs one structured error outcome instead of the batch.
    """
    try:
        data = json.loads(line)
    except json.JSONDecodeError as exc:
        return RequestRejection(
            request_id=f"line-{line_no or index + 1}",
            reason=f"invalid JSON ({exc})",
            line_no=line_no,
        )
    if not isinstance(data, dict):
        return RequestRejection(
            request_id=f"line-{line_no or index + 1}",
            reason="expected a JSON object",
            line_no=line_no,
        )
    request_id = str(data.get("id", f"req-{index}"))
    client = str(data.get("client", "default"))
    try:
        return request_from_dict(data, default_template, index=index)
    except ReproError as exc:
        return RequestRejection(
            request_id=request_id,
            reason=str(exc),
            line_no=line_no,
            client=client,
        )


def parse_request_lines(
    lines: Iterable[str],
    default_template: Optional[QueryTemplate] = None,
) -> Iterator[Union[GenerationRequest, RequestRejection]]:
    """Lenient wire-format parser over raw lines.

    Blank lines and ``#`` comments are skipped; every other line yields
    either a request or a rejection. Duplicate request ids are rejected
    (the first occurrence wins) — an id names exactly one outcome in the
    result stream, so a duplicate can never silently shadow an answer.
    """
    seen_ids: set = set()
    index = 0
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parsed = parse_request_line(
            line, default_template, index=index, line_no=line_no
        )
        if isinstance(parsed, GenerationRequest):
            if parsed.request_id in seen_ids:
                yield RequestRejection(
                    request_id=parsed.request_id,
                    reason=f"duplicate request id {parsed.request_id!r}",
                    line_no=line_no,
                    client=parsed.client,
                )
                continue
            seen_ids.add(parsed.request_id)
            index += 1
        yield parsed


def iter_requests_jsonl(
    path: PathLike, default_template: Optional[QueryTemplate] = None
) -> Iterator[Union[GenerationRequest, RequestRejection]]:
    """Lenient file reader: :func:`parse_request_lines` over ``path``."""
    yield from parse_request_lines(
        Path(path).read_text().splitlines(), default_template
    )


def load_requests_jsonl(
    path: PathLike, default_template: Optional[QueryTemplate] = None
) -> List[GenerationRequest]:
    """Read a batch request file, strictly (first bad line raises).

    The lenient streaming variants (:func:`iter_requests_jsonl`,
    :func:`parse_request_lines`) reject bad lines in-band instead; this
    strict loader remains for programmatic callers that prefer to fail
    the whole file.
    """
    requests: List[GenerationRequest] = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ServiceError(f"{path}:{lineno}: invalid JSON ({exc})") from None
        if not isinstance(data, dict):
            raise ServiceError(f"{path}:{lineno}: expected a JSON object")
        requests.append(
            request_from_dict(data, default_template, index=len(requests))
        )
    return requests


def outcome_to_dict(
    outcome: Union[RequestOutcome, RequestRejection]
) -> Dict[str, Any]:
    """JSON-ready rendering of one outcome (the batch result stream)."""
    if isinstance(outcome, RequestRejection):
        return {
            "id": outcome.request_id,
            "client": outcome.client,
            "ok": False,
            "rejected": True,
            "line": outcome.line_no,
            "error": outcome.reason,
        }
    payload: Dict[str, Any] = {
        "id": outcome.request.request_id,
        "client": outcome.request.client,
        "algorithm": outcome.request.algorithm,
        "ok": outcome.ok,
        "deduplicated": outcome.deduplicated,
        "elapsed_seconds": round(outcome.elapsed_seconds, 6),
    }
    if outcome.error is not None:
        payload["error"] = outcome.error
        return payload
    if outcome.shed:
        payload["shed"] = True
    result = outcome.result
    payload.update(
        {
            "epsilon": result.epsilon,
            "truncated": result.truncated,
            "truncation_reason": result.stats.truncation_reason,
            "instances": [
                {
                    "bindings": dict(point.instance.instantiation),
                    "delta": point.delta,
                    "coverage": point.coverage,
                    "cardinality": point.cardinality,
                    "feasible": point.feasible,
                }
                for point in result.instances
            ],
        }
    )
    return payload


def save_outcomes_jsonl(
    outcomes: List[Union[RequestOutcome, RequestRejection]], path: PathLike
) -> None:
    """Write one result object per line, mirroring the request format."""
    Path(path).write_text(
        "".join(json.dumps(outcome_to_dict(o)) + "\n" for o in outcomes)
    )
