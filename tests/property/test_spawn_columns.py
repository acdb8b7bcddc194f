"""Spawn over columns equals the per-node oracle.

Template refinement snaps the ball's values of a range variable's
attribute into the variable's domain. The snap reads the attribute's
Gower column through its code table, and an in-place
attribute update repairs the memoized active domain instead of dropping
it. Both are checked against oracles that live only here:

* the snap ≡ the ball read node by node (a BFS over ``graph.neighbors``)
  and bisected value by value (:func:`oracle_snap`, the per-value snap of
  ``repro.core.lattice``) — ``restrict``'s result is identical by
  ``repr``, or both sides raise the same exception type; over all three
  refine directions, on raw, quantized and arbitrary (stale) domains;
* every memoized active domain ≡ a cold rescan (``clear_caches``) of an
  identical copy, after every step of an in-place update stream — codes
  are recycled in the patched columns and ``add_node`` drops them.

Columns mix ``1``/``1.0``/``True``/``numpy.int64(1)``, tuples beside
their ``str``, NaN, an unhashable list, an int ``float()`` rejects and
missing cells.
"""

import bisect
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import lattice
from repro.graph.active_domain import ActiveDomainIndex
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.ball import Ball, d_hop_ball
from repro.matching.delta import GraphDelta, apply_delta
from repro.query import Op, QueryTemplate
from repro.query.variables import _value_key

SETTINGS = settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

LABELS = ("a", "b")
OPS = (Op.EQ, Op.GE, Op.GT, Op.LE, Op.LT)
HUGE = 10**400  # float() raises OverflowError


#: Cell values; None = missing, ``[1]`` is unhashable, ``np.int64(1)`` is
#: ``== 1`` and hashes alike but keys as a string.
VALUES = (
    None, 0, 1, 1.0, True, False, 2, 2.5, -3, HUGE, np.int64(1),
    "a", "b", "(1, 2)", (1, 2), (1.0, 2), math.nan, [1],
)
HASHABLE = tuple(v for v in VALUES if v is not None and not isinstance(v, list))


def cell(draw):
    value = draw(st.sampled_from(VALUES))
    if value is math.nan and draw(st.booleans()):
        value = float("nan")  # a fresh NaN object beside the shared one
    return value


@st.composite
def graphs(draw):
    count = draw(st.integers(min_value=1, max_value=12))
    graph = AttributedGraph("spawn-columns")
    for i in range(count):
        value = cell(draw)
        attributes = {} if value is None else {"v": value}
        graph.add_node(2 * i, draw(st.sampled_from(LABELS)), attributes)
    node = st.integers(0, count - 1)
    for source, target in draw(st.lists(st.tuples(node, node), max_size=16)):
        graph.add_edge(2 * source, 2 * target, "e")
    return graph


def oracle_snap(var, domain, ball_values) -> set:
    """The per-value snap: bisect each in-ball value into the domain."""
    direction = var.op.refine_direction
    if direction == 0:
        members = set(domain)
        return {w for w in ball_values if w in members}
    ordered = sorted(domain, key=_value_key)
    keys = [_value_key(v) for v in ordered]
    allowed = set()
    for w in ball_values:
        key = _value_key(w)
        if direction > 0:
            index = bisect.bisect_right(keys, key) - 1
        else:
            index = bisect.bisect_left(keys, key)
            if index == len(ordered):
                index = -1
        if 0 <= index < len(ordered):
            allowed.add(ordered[index])
    return allowed


def oracle_values(graph, seeds, d, label) -> set:
    """The ball's ``label`` values of ``v``, read node by node in id order."""
    seen = {seed for seed in seeds if seed in graph}
    frontier = sorted(seen)
    for _ in range(d):
        reached = sorted({n for v in frontier for n in graph.neighbors(v)} - seen)
        seen.update(reached)
        frontier = reached
    values = set()
    for node in sorted(seen):
        if graph.label(node) == label:
            value = graph.attribute(node, "v")
            if value is not None:
                values.add(value)
    return values


def outcome(compute):
    """``repr``s of a restricted domain, or the type of what was raised."""
    try:
        return [repr(v) for v in compute()]
    except Exception as exc:  # the paths must agree on failures too
        return type(exc)


def check_snap(graph, data):
    """One spawn-side snap on a random ball, variable and domain."""
    ids = sorted(graph.node_ids())
    seeds = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=3))
    d = data.draw(st.integers(0, 2))
    label = data.draw(st.sampled_from(LABELS))
    op = data.draw(st.sampled_from(OPS))
    template = (
        QueryTemplate.builder("snap").node("u", label).range_var("x", "u", "v", op)
        .output("u").build()
    )
    var = template.range_variables["x"]
    source = data.draw(st.sampled_from(("raw", "quantized", "stale")))
    mine = ActiveDomainIndex(graph, template, 3 if source == "quantized" else None)
    theirs = ActiveDomainIndex(graph, template)
    try:
        if source == "stale":
            raise TypeError
        domain = mine.domain("x")
    except TypeError:  # an unhashable cell: no active domain
        drawn = data.draw(st.lists(st.sampled_from(HASHABLE), max_size=6))
        domain = var.refinement_sorted(tuple(dict.fromkeys(drawn)))
        mine._domains["x"] = domain
    theirs._domains["x"] = domain

    def snapped():
        ball = d_hop_ball(graph, seeds, d)
        mine.restrict("x", lattice._snap_ball(graph, ball, label, var, mine.domain("x")))
        return mine.domain("x")

    def oracle():
        theirs.restrict("x", oracle_snap(var, domain, oracle_values(graph, seeds, d, label)))
        return theirs.domain("x")

    assert outcome(snapped) == outcome(oracle), (label, op, seeds, d, domain)
    mine.release("x")


def warm_domains(graph):
    for label in LABELS:
        try:
            graph.active_domain("v", label)
        except TypeError:  # unhashable cells: nothing memoized
            pass


def assert_domains_cold(graph):
    """Every memoized domain equals a cold rescan of an identical copy."""
    cold = apply_delta(graph, GraphDelta())
    cold.clear_caches()
    for (attribute, label), domain in graph._domains.items():
        want = outcome(lambda: cold.active_domain(attribute, label))
        assert [repr(v) for v in domain] == want, (attribute, label)


@SETTINGS
@given(graph=graphs(), data=st.data())
def test_snap_equals_oracle(graph, data):
    for _ in range(3):
        check_snap(graph, data)


@SETTINGS
@given(graph=graphs(), data=st.data())
def test_update_stream_keeps_snaps_and_domains_exact(graph, data):
    steps = data.draw(st.integers(1, 8))
    for _ in range(steps):
        warm_domains(graph)
        check_snap(graph, data)
        ids = sorted(graph.node_ids())
        if data.draw(st.integers(0, 5)) == 0:
            value = cell(data.draw)
            graph.add_node(
                ids[-1] + 1, data.draw(st.sampled_from(LABELS)),
                {} if value is None else {"v": value},
            )
        else:
            graph._set_attribute_in_place(data.draw(st.sampled_from(ids)), "v", cell(data.draw))
        assert_domains_cold(graph)
        check_snap(graph, data)


def test_plain_columns_snap_without_reading_nodes(monkeypatch):
    graph = AttributedGraph("plain")
    values = [3, 1.5, True, "x", 7, 1, "y", 0, 3.0]
    for i, value in enumerate(values):
        graph.add_node(i, "a", {"v": value})
        if i:
            graph.add_edge(i - 1, i, "e")

    def unread(*args):
        raise AssertionError("the per-node path was taken")

    monkeypatch.setattr(Ball, "attribute_values", unread)
    domain = tuple(graph.active_domain("v", "a"))
    for op in OPS:
        template = (
            QueryTemplate.builder("t").node("u", "a").range_var("x", "u", "v", op)
            .output("u").build()
        )
        var = template.range_variables["x"]
        for seeds, d in (([0], 1), ([4], 2), ([8], 0), ([0, 8], 3)):
            got = lattice._snap_ball(graph, d_hop_ball(graph, seeds, d), "a", var, domain)
            want = oracle_snap(var, domain, oracle_values(graph, seeds, d, "a"))
            assert [repr(v) for v in domain if v in got] == [
                repr(v) for v in domain if v in want
            ], (op, seeds, d)


def test_attribute_update_repairs_the_domain_in_place():
    graph = AttributedGraph("repair")
    for i, value in enumerate([5, 1, 5, 2.5, "s"]):
        graph.add_node(i, "a", {"v": value})
    assert graph.active_domain("v", "a") == [1, 2.5, 5, "s"]
    graph._set_attribute_in_place(1, "v", 9)  # 1's class dies, 9 is new
    graph._set_attribute_in_place(0, "v", 5.0)  # 5's entry moves to node 0's 5.0
    assert ("v", "a") in graph._domains
    assert [repr(v) for v in graph.active_domain("v", "a")] == ["2.5", "5.0", "9", "'s'"]
    assert_domains_cold(graph)


@pytest.mark.parametrize("first, other, bound", [((1, 2), (1.0, 2), "(1, 3)"), (1, np.int64(1), 2)])
def test_equal_values_with_different_keys_snap_by_their_own_key(first, other, bound):
    # ``first`` (node 0, outside the ball) and ``other`` (node 2, inside)
    # share a code, but only ``other``'s key clears ``bound``.
    graph = AttributedGraph("mixed")
    graph.add_node(0, "a", {"v": first})
    graph.add_node(2, "a", {"v": other})
    template = (
        QueryTemplate.builder("t").node("u", "a").range_var("x", "u", "v", Op.GE)
        .output("u").build()
    )
    var = template.range_variables["x"]
    domain = (bound,)
    got = lattice._snap_ball(graph, d_hop_ball(graph, [2], 0), "a", var, domain)
    want = oracle_snap(var, domain, oracle_values(graph, [2], 0, "a"))
    assert got == want
