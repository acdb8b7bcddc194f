"""Differential suite for the memoized spawn path of ``repro.query``.

``QueryInstance`` reads its active nodes and edges from the template's
per-bits structure memo and its literals from the template's per-node
plan; ``Instantiation.with_value`` copies the parent's sorted key instead
of re-sorting; ``refines`` reads the template's cached per-variable
checks. Each is compared here against an oracle written in the test:

* the instance induction of the paper's Section II (edges present when
  their variable is bound to 1, the output node's connected component,
  bound literals only), computed as a fixed point rather than a BFS;
* ``bind``, the re-validating constructor path;
* the per-variable definition of refinement.

Templates are drawn with 0–2 edge variables (bridges and cycle edges
alike) and bindings mix ``1``, ``1.0``, ``True``, strings and the
wildcard. ``1 == 1.0 == True`` in Python, so literals and keys are also
compared by the type of every constant.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import VariableError
from repro.query import Instantiation, QueryInstance, QueryTemplate
from repro.query.predicates import Literal, Op
from repro.query.refinement import refines
from repro.query.variables import WILDCARD

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Range-variable bindings: numbers of three types that compare equal,
#: strings (one spelling a number) and the wildcard.
RANGE_VALUES = st.sampled_from([0, 1, 1.0, True, False, 2, 2.5, "1", "a", "b", WILDCARD])
#: Edge-variable bindings: ``int(value) == 1`` holds for 1, 1.0, True and
#: "1" only; 2, 0.5 and "0" are truthy without binding the edge.
EDGE_VALUES = st.sampled_from([0, 1, 0.0, 1.0, True, False, 2, 0.5, "0", "1", WILDCARD])
FIXED_CONSTANTS = st.sampled_from([1, 1.0, True, "x"])


@st.composite
def templates(draw):
    """A connected template: a random spanning tree over 1–5 nodes plus up
    to two extra edges, 0–2 of all edges guarded by edge variables, and
    0–3 range variables on random nodes."""
    size = draw(st.integers(1, 5))
    nodes = [f"u{i}" for i in range(size)]
    edges = []
    for i in range(1, size):
        parent = nodes[draw(st.integers(0, i - 1))]
        label = draw(st.sampled_from(["a", "b"]))
        edges.append((parent, nodes[i], label) if draw(st.booleans()) else (nodes[i], parent, label))
    if size > 1:
        for _ in range(draw(st.integers(0, 2))):
            source, target = draw(st.permutations(nodes))[:2]
            edge = (source, target, "c")
            if edge not in edges:
                edges.append(edge)
    guarded = draw(
        st.lists(st.sampled_from(range(len(edges))), max_size=2, unique=True)
        if edges else st.just([])
    )
    builder = QueryTemplate.builder("drawn")
    for node in nodes:
        fixed = draw(st.lists(FIXED_CONSTANTS, max_size=1))
        builder.node(node, "L", *(Literal("f", Op.EQ, c) for c in fixed))
    for index, (source, target, label) in enumerate(edges):
        if index in guarded:
            builder.edge_var(f"xe{index}", source, target, label)
        else:
            builder.fixed_edge(source, target, label)
    for index in range(draw(st.integers(0, 3))):
        node = draw(st.sampled_from(nodes))
        op = draw(st.sampled_from(list(Op)))
        builder.range_var(f"xl{index}", node, f"a{index % 2}", op)
    return builder.output(draw(st.sampled_from(nodes))).build()


def bindings(template):
    """Strategy of a total binding (wildcards included) of ``template``."""
    fields = {name: RANGE_VALUES for name in template.range_variables}
    fields.update({name: EDGE_VALUES for name in template.edge_variables})
    return st.fixed_dictionaries(fields)


def oracle(template, values):
    """``(active nodes, edges, literals)`` by the definition, no memo."""
    present = [edge.key for edge in template.fixed_edges]
    for var in template.edge_variables.values():
        value = values[var.name]
        if value != WILDCARD and int(value) == 1:
            present.append(var.edge_key)
    active = {template.output_node}
    grown = True
    while grown:
        grown = False
        for source, target, _ in present:
            if (source in active) != (target in active):
                active |= {source, target}
                grown = True
    edges = tuple(e for e in present if e[0] in active and e[1] in active)
    literals = {}
    for node_id in active:
        bound = list(template.nodes[node_id].literals)
        for var in template.range_variables.values():
            if var.node == node_id and values[var.name] != WILDCARD:
                bound.append(Literal(var.attribute, var.op, values[var.name]))
        literals[node_id] = bound
    return frozenset(active), edges, literals


def typed(literals):
    return [(l.attribute, l.op, type(l.constant), l.constant) for l in literals]


def typed_key(inst):
    return [(name, type(value), value) for name, value in inst.key]


def assert_matches_oracle(template, values):
    instance = QueryInstance(Instantiation(template, values))
    active, edges, literals = oracle(template, values)
    assert instance.active_nodes == active
    assert instance.edges == edges
    assert set(instance.literals) == active
    for node_id in active:
        assert typed(instance.literals[node_id]) == typed(literals[node_id])


@SETTINGS
@given(data=st.data())
def test_memoized_instance_equals_induction(data):
    # Several bindings per template: the structure memo is warm from the
    # second one on, whatever bits the earlier ones had.
    template = data.draw(templates())
    for values in data.draw(st.lists(bindings(template), min_size=2, max_size=6)):
        assert_matches_oracle(template, values)


@SETTINGS
@given(template=templates(), data=st.data())
def test_every_edge_pattern_equals_induction(template, data):
    # Every edge-variable pattern in turn, each with drawn range values,
    # in a drawn order over a fresh memo.
    names = list(template.edge_variables)
    patterns = list(itertools.product([0, 1, True, 2, WILDCARD], repeat=len(names)))
    for pattern in data.draw(st.permutations(patterns)):
        values = data.draw(bindings(template))
        values.update(zip(names, pattern))
        assert_matches_oracle(template, values)


@SETTINGS
@given(data=st.data())
def test_with_value_equals_bind(data):
    template = data.draw(templates())
    if not template.num_variables:
        return
    parent = Instantiation(template, data.draw(bindings(template)))
    name = data.draw(st.sampled_from(template.variable_names()))
    value = data.draw(RANGE_VALUES | EDGE_VALUES)
    fast = parent.with_value(name, value)
    slow = parent.bind(**{name: value})
    assert fast.key == slow.key
    assert typed_key(fast) == typed_key(slow)
    assert hash(fast) == hash(slow)
    assert fast == slow and slow == fast
    assert dict(fast) == dict(slow)


def test_with_value_rejects_unknown_names(talent_template):
    inst = Instantiation(talent_template, {"xl1": 9})
    with pytest.raises(VariableError):
        inst.with_value("nope", 1)


@SETTINGS
@given(data=st.data())
def test_refines_equals_per_variable_definition(data):
    template = data.draw(templates())
    left = Instantiation(template, data.draw(bindings(template)))
    right = Instantiation(template, data.draw(bindings(template)))
    for a, b in ((left, right), (right, left), (left, left)):
        expected = all(
            template.variable(name).refines_value(a[name], b[name])
            for name in template.variable_names()
        )
        assert refines(a, b) == expected
        assert refines(QueryInstance(a), QueryInstance(b)) == expected


def test_refines_is_false_across_templates(talent_template):
    other = QueryTemplate.builder("other").node("u0", "person").output("u0").build()
    assert not refines(Instantiation(talent_template), Instantiation(other))
