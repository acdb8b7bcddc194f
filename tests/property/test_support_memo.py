"""Differential testing: the graph-owned AC-3 support memo under edge churn.

Supports are memoized per graph (:class:`~repro.graph.indexes.SupportMemo`)
and dropped per edge label by the in-place edge hooks. One warm graph
runs batches of instances between random in-place edge inserts and
deletes, so later batches read supports earlier ones left behind, some
filled by sweeps and some by row probes. Every batch must equal the same
batch on a cold copy of the current graph with every support probed and
no memo at all, by answers, candidate masks and ``matcher.ac_removed``.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.graph.attributed_graph import AttributedGraph
from repro.matching import SubgraphMatcher
from repro.matching.delta import GraphDelta, apply_delta_in_place
from repro.query import Op, QueryTemplate
from tests.ac3 import PATHS, crossover, forced
from tests.property.test_engine_differential import TEMPLATES, build_instance

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

EDGE_LABELS = ("e", "f")


def two_label_template():
    """A path over both edge labels, so a drop of one label's supports
    leaves the other label's entries in use."""
    return (
        QueryTemplate.builder("two-labels")
        .node("u0", "a")
        .node("u1", "b")
        .node("u2", "a")
        .fixed_edge("u1", "u0", "e")
        .fixed_edge("u2", "u1", "f")
        .range_var("xl", "u2", "x", Op.GE)
        .output("u0")
        .build()
    )


#: Every instance of every template, rerun by each batch.
INSTANCES = [
    build_instance(template, bound, edge_bit)
    for template in TEMPLATES + [two_label_template()]
    for bound in (0, 2, 4)
    for edge_bit in (0, 1)
]


@st.composite
def churned_graphs(draw):
    """A random graph (≤7 nodes, labels a/b, edge labels e/f) and a list
    of edge-toggle batches: each toggle deletes the edge when present and
    inserts it otherwise."""
    n = draw(st.integers(min_value=2, max_value=7))
    graph = AttributedGraph("churn")
    for i in range(n):
        label = draw(st.sampled_from(["a", "b"]))
        graph.add_node(i, label, {"x": draw(st.integers(min_value=0, max_value=5))})
    edges = st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from(EDGE_LABELS)
    )
    for source, target, label in draw(st.lists(edges, max_size=14, unique=True)):
        graph.add_edge(source, target, label)
    batch = st.lists(edges, min_size=1, max_size=3, unique=True)
    toggles = draw(st.lists(batch, min_size=1, max_size=4))
    # The AC-3 path each warm batch computes its missing supports on.
    paths = draw(
        st.lists(
            st.sampled_from(list(PATHS)),
            min_size=len(toggles) + 1,
            max_size=len(toggles) + 1,
        )
    )
    return graph.freeze(), toggles, paths


def toggle(graph, edges):
    present = [edge for edge in edges if graph.has_edge(*edge)]
    absent = [edge for edge in edges if not graph.has_edge(*edge)]
    return GraphDelta(insert_edges=tuple(absent), delete_edges=tuple(present))


def run_batch(matcher):
    """Each instance's answer, candidate masks and AC removals."""
    out = []
    for instance in INSTANCES:
        before = matcher.metrics.value("matcher.ac_removed")
        result = matcher.match(instance)
        removed = matcher.metrics.value("matcher.ac_removed") - before
        out.append((result.matches, result.candidate_masks, removed))
    return out


class TestWarmMemoEqualsColdProbes:
    @SETTINGS
    @given(case=churned_graphs())
    def test_batches_between_edge_updates(self, case):
        graph, toggles, paths = case
        warm = SubgraphMatcher(graph)
        for step, path in enumerate(paths):
            if step:
                apply_delta_in_place(graph, toggle(graph, toggles[step - 1]))
            with crossover(path):
                served = run_batch(warm)
            with forced("probe"):
                probed = run_batch(SubgraphMatcher(graph.copy()))
            assert served == probed, f"batch {step} ({path}) drifted"
