"""The d-hop ball kernel equals naive oracles.

Over random multi-label digraphs (self-loops, several edge labels,
isolated nodes) at d = 0–4, every read of :mod:`repro.graph.ball` is
checked against a naive computation that lives only here:

* the ball, its per-label masks and its depth variant ≡ a BFS over the
  graph's edge list — also after random in-place insert/delete streams,
  where the spliced kernel must equal one built fresh;
* ``attribute_values`` ≡ the set a scan of the in-ball nodes in id order
  builds, compared by ``repr`` (so ``1``/``1.0``/``True`` keep the same
  representative), with missing, unhashable and NaN values in the mix;
* ``has_labeled_edge`` ≡ a scan of the edge list;
* mask-based re-verification after an in-place delta ≡ a cold match.
"""

import math
from collections import deque

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.graph.attributed_graph import AttributedGraph
from repro.graph.attributed_graph import Enumerations
from repro.graph.ball import BallKernel, ball_depths, d_hop_ball
from repro.graph.indexes import BitsetIndex
from repro.matching.delta import GraphDelta, apply_delta_in_place
from repro.matching.matcher import SubgraphMatcher
from repro.query import Instantiation, Op, QueryInstance, QueryTemplate
from repro.streaming.reverify import instance_diameter, reverify_matches

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

LABELS = ("a", "b", "c")
EDGE_LABELS = ("e", "f", "g")
#: Attribute values, None = missing; ``[1, 2]`` is unhashable.
VALUES = (None, 0, 1, 1.0, True, False, 2.5, "r", "1", [1, 2], math.nan)


@st.composite
def graphs(draw, values=VALUES):
    count = draw(st.integers(min_value=1, max_value=14))
    graph = AttributedGraph("g")
    for node in range(count):
        value = draw(st.sampled_from(values))
        if value is math.nan and draw(st.booleans()):
            value = float("nan")  # a fresh NaN object beside the shared one
        attributes = {} if value is None else {"v": value}
        attributes["x"] = draw(st.integers(min_value=0, max_value=3))
        graph.add_node(node * 3, draw(st.sampled_from(LABELS)), attributes)
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, count - 1),
                st.integers(0, count - 1),
                st.sampled_from(EDGE_LABELS),
            ),
            max_size=3 * count,
        )
    )
    for source, target, label in edges:
        graph.add_edge(source * 3, target * 3, label)
    return graph.freeze()


def seeds_of(draw, graph):
    nodes = sorted(graph.node_ids())
    return draw(st.lists(st.sampled_from(nodes), max_size=4))


def oracle_depths(graph, seeds, d):
    """Undirected BFS over the edge list."""
    adjacency = {node: set() for node in graph.node_ids()}
    for edge in graph.edges():
        adjacency[edge.source].add(edge.target)
        adjacency[edge.target].add(edge.source)
    depths = {node: 0 for node in seeds if node in adjacency}
    queue = deque(depths)
    while queue:
        node = queue.popleft()
        if depths[node] == d:
            continue
        for neighbor in adjacency[node]:
            if neighbor not in depths:
                depths[neighbor] = depths[node] + 1
                queue.append(neighbor)
    return depths


def assert_ball_matches_oracle(graph, seeds, d):
    expected = oracle_depths(graph, seeds, d)
    ball = d_hop_ball(graph, seeds, d)
    assert ball.ids() == set(expected)
    bitsets = BitsetIndex(graph)
    for label in graph.node_labels():
        assert ball.mask(label) == bitsets.mask_of(label, expected)
    depths = ball_depths(graph, seeds, d)
    for k in range(d + 2):
        assert depths.ball(k).ids() == {n for n, depth in expected.items() if depth <= k}


def naive_values(graph, members, label, attribute):
    values = set()
    for node in sorted(members):
        if graph.label(node) == label:
            value = graph.attribute(node, attribute)
            if value is not None:
                values.add(value)
    return values


def assert_kernel_equals_fresh(graph):
    kernel = graph.ball_kernel()
    fresh = BallKernel(Enumerations(graph._by_label), graph._out)
    assert kernel.order.tolist() == fresh.order.tolist()
    assert kernel.offsets.tolist() == fresh.offsets.tolist()
    assert kernel.targets.tolist() == fresh.targets.tolist()

    def pairs(k, label):
        if label not in k.edges:
            return []
        return sorted(zip(*(ends.tolist() for ends in k.edges[label])))

    for label in set(kernel.edges) | set(fresh.edges):
        assert pairs(kernel, label) == pairs(fresh, label)


class TestBall:
    @SETTINGS
    @given(data=st.data(), d=st.integers(min_value=0, max_value=4))
    def test_ball_equals_bfs(self, data, d):
        graph = data.draw(graphs())
        seeds = seeds_of(data.draw, graph) + data.draw(st.lists(st.just(999), max_size=1))
        assert_ball_matches_oracle(graph, seeds, d)

    @SETTINGS
    @given(data=st.data(), d=st.integers(min_value=0, max_value=4))
    def test_ball_after_in_place_stream(self, data, d):
        graph = data.draw(graphs())
        graph.ball_kernel()  # built first, so every update splices it
        nodes = sorted(graph.node_ids())
        for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
            present = sorted(edge.key for edge in graph.edges())
            if present and data.draw(st.booleans()):
                delta = GraphDelta(delete_edges=(data.draw(st.sampled_from(present)),))
            else:
                delta = GraphDelta(
                    insert_edges=(
                        (
                            data.draw(st.sampled_from(nodes)),
                            data.draw(st.sampled_from(nodes)),
                            data.draw(st.sampled_from(EDGE_LABELS)),
                        ),
                    )
                )
            apply_delta_in_place(graph, delta)
            assert_ball_matches_oracle(graph, seeds_of(data.draw, graph), d)
        assert_kernel_equals_fresh(graph)


class TestReads:
    @SETTINGS
    @given(data=st.data(), d=st.integers(min_value=0, max_value=4))
    def test_attribute_values_equal_naive(self, data, d):
        graph = data.draw(graphs())
        seeds = seeds_of(data.draw, graph)
        members = set(oracle_depths(graph, seeds, d))
        ball = d_hop_ball(graph, seeds, d)
        for label in LABELS:
            for attribute in ("v", "x", "absent"):
                try:
                    expected = naive_values(graph, members, label, attribute)
                except TypeError:  # an unhashable in-ball value
                    try:
                        ball.attribute_values(graph, label, attribute)
                    except TypeError:
                        continue
                    raise AssertionError("unhashable value was not rejected")
                got = ball.attribute_values(graph, label, attribute)
                assert repr(got) == repr(expected)

    @SETTINGS
    @given(data=st.data(), d=st.integers(min_value=0, max_value=4))
    def test_has_labeled_edge_equals_naive(self, data, d):
        graph = data.draw(graphs())
        seeds = seeds_of(data.draw, graph)
        members = set(oracle_depths(graph, seeds, d))
        ball = d_hop_ball(graph, seeds, d)
        for label in EDGE_LABELS + ("absent",):
            expected = any(
                edge.label == label and edge.source in members and edge.target in members
                for edge in graph.edges()
            )
            assert ball.has_labeled_edge(label) == expected


def path_template():
    return (
        QueryTemplate.builder("path")
        .node("u0", "a")
        .node("u1", "b")
        .node("u2", "a")
        .fixed_edge("u0", "u1", "e")
        .fixed_edge("u1", "u2", "f")
        .range_var("xl", "u0", "x", Op.GE)
        .range_var("xr", "u2", "x", Op.LE)
        .output("u0")
        .build()
    )


class TestReverify:
    @SETTINGS
    @given(
        data=st.data(),
        bounds=st.tuples(st.integers(0, 3), st.integers(0, 3)),
    )
    def test_reverify_equals_cold_match(self, data, bounds):
        graph = data.draw(graphs(values=(None,)))
        instance = QueryInstance(
            Instantiation(path_template(), {"xl": bounds[0], "xr": bounds[1]})
        )
        old = SubgraphMatcher(graph).match(instance).mask
        nodes = sorted(graph.node_ids())
        present = sorted(edge.key for edge in graph.edges())
        edge_keys = st.tuples(
            st.sampled_from(nodes), st.sampled_from(nodes), st.sampled_from(EDGE_LABELS)
        )
        delta = GraphDelta(
            insert_edges=tuple(data.draw(st.lists(edge_keys, max_size=3))),
            delete_edges=tuple(
                data.draw(st.lists(st.sampled_from(present), max_size=2, unique=True))
                if present
                else ()
            ),
            set_attributes=tuple(
                data.draw(
                    st.lists(
                        st.tuples(st.sampled_from(nodes), st.just("x"), st.integers(0, 3)),
                        max_size=2,
                    )
                )
            ),
        )
        diameter = instance_diameter(instance)
        touched = delta.touched_nodes
        before = ball_depths(graph, touched, diameter)
        apply_delta_in_place(graph, delta)
        ball = before.ball(diameter) | ball_depths(graph, touched, diameter).ball(diameter)
        matcher = SubgraphMatcher(graph)
        repaired, _ = reverify_matches(matcher, graph, instance, old, ball, diameter)
        assert repaired == SubgraphMatcher(graph).match(instance).mask
