"""Unit tests of the daemon's building blocks (``repro.service``).

Covers the lenient wire-format parser (malformed JSONL lines become
structured rejections instead of exceptions), SLO-class budget
resolution, the deficit-round-robin admission controller under an
injectable clock and the dedup ledger's routing rules. The full end-to-end daemon behavior lives in
``tests/integration/test_daemon_chaos.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ServiceError
from repro.obs.registry import MetricsRegistry
from repro.service.admission import (
    AdmissionController,
    DRR_QUANTUM,
    SHED_DEADLINE,
    SHED_QUEUE_FULL,
    SLO_CLASSES,
    request_cost,
    resolve_budget,
    slo_class,
)
from repro.service.daemon import DedupLedger, ServingDaemon
from repro.service.requests import (
    GenerationRequest,
    RequestOutcome,
    RequestRejection,
    outcome_to_dict,
    parse_request_lines,
    shed_outcome,
)


def make_request(template, request_id="r1", **kwargs):
    return GenerationRequest(request_id, template, **kwargs)


# ---------------------------------------------------------------------- #
# Lenient wire-format parsing
# ---------------------------------------------------------------------- #


def parse(lines, template):
    return list(parse_request_lines(lines, default_template=template))


def test_invalid_json_line_is_rejected_not_raised(talent_template):
    parsed = parse(['{"id": "ok"}', "{truncated", '{"id": "ok2"}'], talent_template)
    assert [type(p).__name__ for p in parsed] == [
        "GenerationRequest",
        "RequestRejection",
        "GenerationRequest",
    ]
    rejection = parsed[1]
    assert rejection.line_no == 2
    assert "invalid JSON" in rejection.reason
    assert rejection.request_id == "line-2"


def test_truncated_and_non_object_lines_are_rejected(talent_template):
    parsed = parse(['"just a string"', "[1, 2]", '{"id": "a"'], talent_template)
    assert all(isinstance(p, RequestRejection) for p in parsed)
    assert parsed[0].reason == "expected a JSON object"
    assert parsed[1].reason == "expected a JSON object"
    assert "invalid JSON" in parsed[2].reason


def test_unknown_keys_and_bad_slo_are_rejected_with_ids(talent_template):
    parsed = parse(
        [
            '{"id": "typo", "client": "alice", "epsilonn": 0.1}',
            '{"id": "badslo", "slo": "platinum"}',
        ],
        talent_template,
    )
    assert all(isinstance(p, RequestRejection) for p in parsed)
    assert parsed[0].request_id == "typo"
    assert parsed[0].client == "alice"
    assert "epsilonn" in parsed[0].reason
    assert parsed[1].request_id == "badslo"
    assert "platinum" in parsed[1].reason


def test_matcher_engine_option_is_rejected_as_unknown(talent_template):
    """The matcher has one engine; a request still choosing one gets the
    structured unknown-option rejection, and its neighbors are served."""
    parsed = parse(
        [
            '{"id": "old", "client": "bob", "options": {"matcher_engine": "set"}}',
            '{"id": "ok", "options": {"max_domain_values": 3}}',
        ],
        talent_template,
    )
    rejection, request = parsed
    assert isinstance(rejection, RequestRejection)
    assert rejection.request_id == "old"
    assert rejection.client == "bob"
    assert rejection.line_no == 1
    assert "unknown option" in rejection.reason
    assert "matcher_engine" in rejection.reason
    assert isinstance(request, GenerationRequest)
    assert request.options == {"max_domain_values": 3}


def test_missing_template_without_default_is_rejected():
    parsed = list(parse_request_lines(['{"id": "r1"}']))
    assert isinstance(parsed[0], RequestRejection)
    assert "no template" in parsed[0].reason


def test_duplicate_ids_rejected_first_wins(talent_template):
    parsed = parse(
        ['{"id": "dup", "epsilon": 0.1}', '{"id": "dup", "epsilon": 0.2}'],
        talent_template,
    )
    assert isinstance(parsed[0], GenerationRequest)
    assert parsed[0].epsilon == 0.1
    assert isinstance(parsed[1], RequestRejection)
    assert "duplicate request id" in parsed[1].reason
    assert parsed[1].line_no == 2


def test_blank_and_comment_lines_are_skipped(talent_template):
    parsed = parse(
        ["", "# comment", "   ", '{"id": "only"}'], talent_template
    )
    assert len(parsed) == 1
    assert parsed[0].request_id == "only"


def test_rejection_outcome_dict_shape(talent_template):
    parsed = parse(["nope"], talent_template)
    payload = outcome_to_dict(parsed[0])
    assert payload["ok"] is False
    assert payload["rejected"] is True
    assert payload["line"] == 1
    assert "invalid JSON" in payload["error"]
    json.dumps(payload)  # wire-serializable


def test_rejection_duck_types_as_outcome(talent_template):
    rejection = parse(["nope"], talent_template)[0]
    assert rejection.ok is False
    assert rejection.shed is False
    assert rejection.result is None
    assert rejection.deduplicated is False
    assert rejection.error == rejection.reason
    row = rejection.as_row()
    assert row["error"].startswith("rejected: ")


# ---------------------------------------------------------------------- #
# SLO classes and budget resolution
# ---------------------------------------------------------------------- #


def test_slo_ladder_is_monotone_in_rank():
    ladder = sorted(SLO_CLASSES.values(), key=lambda c: c.rank)
    for stricter, laxer in zip(ladder, ladder[1:]):
        for tight, loose in zip(stricter.caps(), laxer.caps()):
            if loose is None:
                continue  # laxer unbounded: anything is at least as strict
            assert tight is not None and tight <= loose


def test_resolve_budget_takes_tighter_of_class_and_explicit(talent_template):
    interactive = SLO_CLASSES["interactive"]
    # Explicit looser than the class: class caps win.
    loose = make_request(
        talent_template, slo="interactive", deadline_seconds=10.0,
        max_instances=10_000,
    )
    budget = resolve_budget(loose)
    assert budget.deadline_seconds == interactive.deadline_seconds
    assert budget.max_instances == interactive.max_instances
    assert budget.max_backtracks == interactive.max_backtracks
    # Explicit tighter than the class: explicit wins.
    tight = make_request(
        talent_template, slo="interactive", deadline_seconds=0.01, max_instances=3
    )
    budget = resolve_budget(tight)
    assert budget.deadline_seconds == 0.01
    assert budget.max_instances == 3


def test_resolve_budget_unbounded_cases(talent_template):
    assert resolve_budget(make_request(talent_template)) is None
    # batch class is uncapped but an explicit limit still applies
    batch = make_request(talent_template, slo="batch", max_instances=7)
    budget = resolve_budget(batch)
    assert budget.max_instances == 7
    assert budget.deadline_seconds is None
    assert resolve_budget(make_request(talent_template, slo="batch")) is None


def test_request_budget_uses_slo_resolution(talent_template):
    request = make_request(talent_template, slo="interactive")
    assert request.budget() == resolve_budget(request)


def test_unknown_slo_class_fails_loudly(talent_template):
    with pytest.raises(ServiceError):
        slo_class("gold")
    with pytest.raises(ServiceError):
        make_request(talent_template, slo="gold")


def test_slo_is_part_of_the_dedup_signature(talent_template):
    plain = make_request(talent_template)
    classed = make_request(talent_template, slo="interactive")
    assert plain.canonical_signature() != classed.canonical_signature()


def test_request_cost_follows_class(talent_template):
    assert request_cost(make_request(talent_template, slo="interactive")) == 1
    assert request_cost(make_request(talent_template, slo="batch")) == 4
    # default cost is the standard class's
    assert request_cost(make_request(talent_template)) == SLO_CLASSES["standard"].cost
    assert DRR_QUANTUM == max(c.cost for c in SLO_CLASSES.values())


# ---------------------------------------------------------------------- #
# Admission controller (injectable clock)
# ---------------------------------------------------------------------- #


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def controller(queue_depth=4):
    clock = FakeClock()
    metrics = MetricsRegistry()
    return AdmissionController(metrics, queue_depth=queue_depth, clock=clock), clock, metrics


def test_queue_full_offers_are_shed(talent_template):
    ctrl, _, metrics = controller(queue_depth=2)
    for seq in range(2):
        assert ctrl.offer(seq, make_request(talent_template, f"a{seq}", client="a")) is None
    assert ctrl.offer(2, make_request(talent_template, "a2", client="a")) == SHED_QUEUE_FULL
    # Another tenant's queue is independent.
    assert ctrl.offer(3, make_request(talent_template, "b0", client="b")) is None
    assert len(ctrl) == 3
    assert metrics.value("service.admission.shed.queue_full") == 1


def test_deadline_shed_happens_at_dispatch(talent_template):
    ctrl, clock, metrics = controller()
    ctrl.offer(0, make_request(talent_template, "i0", client="a", slo="interactive"))
    ctrl.offer(1, make_request(talent_template, "b0", client="a", slo="batch"))
    clock.now = 1.0  # past the interactive deadline (0.25s), batch has none
    first, reason = ctrl.next()
    assert first.request.request_id == "i0"
    assert reason == SHED_DEADLINE
    second, reason = ctrl.next()
    assert second.request.request_id == "b0"
    assert reason is None
    assert metrics.value("service.admission.shed.deadline") == 1


def test_drr_interleaves_tenants_and_charges_cost(talent_template):
    ctrl, _, _ = controller(queue_depth=16)
    seq = 0
    # Tenant a: four cheap interactive requests; tenant b: two batch ones.
    for i in range(4):
        ctrl.offer(seq, make_request(talent_template, f"a{i}", client="a", slo="interactive"))
        seq += 1
    for i in range(2):
        ctrl.offer(seq, make_request(talent_template, f"b{i}", client="b", slo="batch"))
        seq += 1
    order = []
    while True:
        item = ctrl.next()
        if item is None:
            break
        order.append(item[0].request.request_id)
    # Every id is served exactly once, within-tenant order preserved.
    assert sorted(order) == ["a0", "a1", "a2", "a3", "b0", "b1"]
    assert [x for x in order if x.startswith("a")] == ["a0", "a1", "a2", "a3"]
    assert [x for x in order if x.startswith("b")] == ["b0", "b1"]
    # One quantum buys 4 interactive requests but only 1 batch request,
    # so all of tenant a drains before tenant b's second request.
    assert order.index("b1") > order.index("a3")


def test_idle_tenant_forfeits_deficit(talent_template):
    ctrl, _, _ = controller()
    ctrl.offer(0, make_request(talent_template, "a0", client="a", slo="batch"))
    entry, _ = ctrl.next()
    assert entry.request.request_id == "a0"
    assert ctrl.next() is None
    assert ctrl.tenants == []  # queue emptied, tenant left the rotation


def test_drain_returns_everything_in_seq_order(talent_template):
    ctrl, clock, metrics = controller()
    ctrl.offer(5, make_request(talent_template, "b0", client="b", slo="interactive"))
    ctrl.offer(2, make_request(talent_template, "a0", client="a"))
    clock.now = 100.0  # would shed on dispatch — drain must not care
    drained = ctrl.drain()
    assert [e.seq for e in drained] == [2, 5]
    assert len(ctrl) == 0
    assert metrics.value("service.admission.shed.deadline") == 0


def test_queue_depth_must_be_positive():
    with pytest.raises(ServiceError):
        AdmissionController(queue_depth=0)


# ---------------------------------------------------------------------- #
# Dedup ledger
# ---------------------------------------------------------------------- #


def ok_outcome(request):
    return shed_outcome(request, "shed_queue_full")  # any ok=True outcome works


def test_ledger_routes_execute_wait_replay(talent_template):
    ledger = DedupLedger()
    request = make_request(talent_template)
    sig = request.canonical_signature()
    assert ledger.route(sig, 0) == DedupLedger.EXECUTE
    assert ledger.route(sig, 1) == DedupLedger.WAIT
    assert ledger.route(sig, 2) == DedupLedger.WAIT
    outcome = ok_outcome(request)
    replay, promoted = ledger.complete(sig, outcome)
    assert replay == [1, 2] and promoted is None
    # Later arrivals replay the completed outcome immediately.
    assert ledger.route(sig, 3) is outcome
    assert ledger.orphans == []


def test_ledger_failure_promotes_one_waiter(talent_template):
    ledger = DedupLedger()
    request = make_request(talent_template)
    sig = request.canonical_signature()
    ledger.route(sig, 0)
    ledger.route(sig, 1)
    ledger.route(sig, 2)
    failed = RequestOutcome(request=request, error="boom")
    replay, promoted = ledger.complete(sig, failed)
    assert replay == [] and promoted == 1
    assert ledger.pending(sig) == [2]
    # The promoted attempt succeeds and releases the last waiter.
    replay, promoted = ledger.complete(sig, ok_outcome(request))
    assert replay == [2] and promoted is None
    assert ledger.orphans == []


def test_ledger_keeps_distinct_signatures_apart(talent_template):
    ledger = DedupLedger()
    a = make_request(talent_template, epsilon=0.1).canonical_signature()
    b = make_request(talent_template, epsilon=0.2).canonical_signature()
    assert ledger.route(a, 0) == DedupLedger.EXECUTE
    assert ledger.route(b, 1) == DedupLedger.EXECUTE


# ---------------------------------------------------------------------- #
# Daemon construction guards
# ---------------------------------------------------------------------- #


def test_daemon_validates_workers_and_defaults(talent_graph, talent_groups):
    with pytest.raises(ServiceError):
        ServingDaemon(talent_graph, talent_groups, workers=0)
    with pytest.raises(ServiceError):
        ServingDaemon(talent_graph, talent_groups, max_retries=-1)
    with pytest.raises(ServiceError):
        ServingDaemon(talent_graph, talent_groups, defaults={"not_an_option": 1})
