"""Node ids that int64 cannot hold run the same kernels as small ids.

Ids map to ball-kernel positions through a dict, never through an int64
array, so every graph gets a kernel. A graph whose ids are ``2**64 + k``
must give the balls of a BFS oracle, a mask δ equal to the pure-Python δ
(compared by ``float.hex``), and the same BiQGen front and streamed
front as the same graph with ids ``k``, on both AC-3 paths.
"""

import random

import pytest

from repro import BiQGen, GenerationConfig, GroupSet, NodeGroup
from repro.core.measures import DiversityMeasure
from repro.datasets import lki_bundle
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.ball import BallKernel, ball_depths, d_hop_ball, mask_ball
from repro.matching.delta import GraphDelta
from repro.streaming import StreamingSession
from repro.workload import random_delta_stream
from tests.ac3 import BOTH_PATHS, forced
from tests.property.test_ball_kernel_properties import oracle_depths

OFFSET = 2**64
OPTIONS = dict(epsilon=0.1, max_domain_values=4)


@pytest.fixture(scope="module")
def bundle():
    return lki_bundle(scale=0.12, coverage_total=6)


def shifted(graph, offset):
    """A copy of ``graph`` with node ids ``k + offset`` (order kept)."""
    copy = AttributedGraph(graph.name)
    for node in graph.nodes():
        copy.add_node(node.node_id + offset, node.label, dict(node.attributes))
    for edge in graph.edges():
        copy.add_edge(edge.source + offset, edge.target + offset, edge.label)
    return copy.freeze()


def shifted_groups(groups, offset):
    return GroupSet(
        [
            NodeGroup(g.name, frozenset(v + offset for v in g.members), g.coverage)
            for g in groups
        ]
    )


def shifted_delta(delta, offset):
    return GraphDelta(
        insert_edges=tuple((s + offset, t + offset, lab) for s, t, lab in delta.insert_edges),
        delete_edges=tuple((s + offset, t + offset, lab) for s, t, lab in delta.delete_edges),
    )


def front(evaluations, offset):
    """Archive content with ids shifted back by ``offset``."""
    return sorted(
        (
            e.instance.instantiation.key,
            tuple(sorted(v - offset for v in e.matches)),
            e.delta.hex(),
            e.coverage,
            e.feasible,
        )
        for e in evaluations
    )


def test_wide_graph_has_a_kernel(bundle):
    graph = shifted(bundle.graph, OFFSET)
    kernel = graph.ball_kernel()
    assert isinstance(kernel, BallKernel)
    assert len(kernel) == graph.num_nodes
    assert kernel.positions([OFFSET - 1, 2**80]).tolist() == []


def test_balls_equal_the_bfs_oracle(bundle):
    graph = shifted(bundle.graph, OFFSET)
    rng = random.Random(5)
    nodes = sorted(graph.node_ids())
    for d in range(4):
        seeds = rng.sample(nodes, 3)
        expected = oracle_depths(graph, seeds, d)
        assert d_hop_ball(graph, seeds, d).ids() == set(expected)
        depths = ball_depths(graph, seeds, d)
        for k in range(d + 1):
            assert depths.ball(k).ids() == {n for n, depth in expected.items() if depth <= k}
        for label in graph.node_labels():
            enumeration = graph.enumeration(label)
            mask = enumeration.mask_of(seeds)
            want = oracle_depths(graph, enumeration.to_ids(mask), d)
            assert mask_ball(graph, label, mask, d).ids() == set(want)


def test_mask_delta_equals_the_python_delta(bundle):
    graph = shifted(bundle.graph, OFFSET)
    label = bundle.template.node(bundle.template.output_node).label
    measure = DiversityMeasure(graph, label, lam=0.5)
    oracle = DiversityMeasure(graph, label, lam=0.5)
    oracle._kernel = None  # the pure-Python pair sums and relevance loop
    enumeration = graph.enumeration(label)
    rng = random.Random(3)
    for size in (0, 1, 2, 30, 65, 200):
        mask = 0
        for bit in rng.sample(range(len(enumeration.ids)), min(size, len(enumeration.ids))):
            mask |= 1 << bit
        assert measure.of(mask).hex() == oracle.of(mask).hex()
        assert measure.of(enumeration.to_ids(mask)).hex() == oracle.of(mask).hex()


@BOTH_PATHS
def test_biqgen_front_equals_small_ids(bundle, ac3_path):
    fronts = []
    for offset in (0, OFFSET):
        config = GenerationConfig(
            shifted(bundle.graph, offset),
            bundle.template,
            shifted_groups(bundle.groups, offset),
            **OPTIONS,
        )
        with forced(ac3_path):
            fronts.append(front(BiQGen(config).run().instances, offset))
    assert fronts[0]
    assert fronts[0] == fronts[1]


@BOTH_PATHS
def test_streamed_edge_delta_equals_small_ids(bundle, ac3_path):
    (delta,) = random_delta_stream(bundle.graph, count=1, seed=19, edge_ops=4, attr_ops=0)
    fronts = []
    for offset in (0, OFFSET):
        session = StreamingSession(
            shifted(bundle.graph, offset),
            bundle.template,
            shifted_groups(bundle.groups, offset),
            **OPTIONS,
        )
        with forced(ac3_path):
            session.generate(count=16, seed=7)
            session.update(shifted_delta(delta, offset))
        fronts.append(front(session.archive.boxes().values(), offset))
    assert fronts[0]
    assert fronts[0] == fronts[1]
