"""The vectorised δ kernel is bitwise equal to the pure-Python oracle.

:class:`~repro.core.gower.GowerKernel` must reproduce
:meth:`DiversityMeasure.of` of the pure-Python paths exactly — compared with
``float.hex``, not a tolerance — over label graphs with mixed
int/float/str/bool/missing/unhashable values, answers of 0 to ~200 nodes
(across the exact/decomposed threshold of 64), zero-spread numerics,
λ ∈ {0, 0.5, 1}, every diversity mode and mixed-label answers. After
random in-place attribute patches, the repaired columns must score like
columns built fresh on an identical graph, and a column built in one pass
must equal one stored cell by cell.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.measures import DiversityMeasure
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.gower_columns import EXOTIC as EXOTIC_CODE, MISSING, GowerColumn

SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: Per-attribute value tables; a graph picks one entry per node and
#: attribute (None = missing). ``num`` also gets a few drawn floats.
TABLES = {
    "num": [None, 0, 3, -7, 40, 0.0, -0.0, 0.1, 0.7, 1e-3, 2.5, 1e6, 123456.789, -3.3],
    "cat": [None, "r", "g", "b"],
    "mix": [None, 0, 1, 2.5, -0.0, "r", "g", "1", True, False],
    "flat": [None, 7, 7.0],  # zero spread
}
EXOTIC = [[1, 2], {"k": 1}, math.nan]
FLOATS = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)


def relevance(node_id: int) -> float:
    """Irregular floats, so relevance sums round non-trivially."""
    return (node_id * 0.37) % 1.3 / 1.3


def picks(draw, table, count):
    return draw(
        st.lists(
            st.integers(min_value=0, max_value=len(table) - 1),
            min_size=count,
            max_size=count,
        )
    )


@st.composite
def graphs(draw, min_nodes=0, max_nodes=210):
    """An ``m``-label graph with three ``o``-label nodes after it."""
    count = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    tables = dict(TABLES, num=TABLES["num"] + draw(st.lists(FLOATS, max_size=6)))
    columns = {name: picks(draw, table, count + 3) for name, table in tables.items()}
    exotic = set()
    if count and draw(st.booleans()):
        exotic = set(draw(st.lists(st.integers(0, count - 1), max_size=2)))
    graph = AttributedGraph("g")
    for node_id in range(count + 3):
        attrs = {}
        for name, table in tables.items():
            value = table[columns[name][node_id]]
            if value is not None:
                attrs[name] = value
        if node_id in exotic:
            attrs["mix"] = EXOTIC[node_id % len(EXOTIC)]
        graph.add_node(node_id, "m" if node_id < count else "o", attrs)
    return graph.freeze()


def answer_of(draw, graph, mixed: bool):
    """Up to 200 ``m`` nodes (plus one ``o`` node when ``mixed``)."""
    ids = sorted(graph.nodes_with_label("m"))
    size = draw(st.integers(min_value=0, max_value=min(200, len(ids))))
    answer = set(draw(st.randoms(use_true_random=False)).sample(ids, size))
    if mixed:
        answer.add(max(graph.nodes_with_label("o")))
    return answer


def measures(graph, lam, mode):
    kernel = DiversityMeasure(graph, "m", lam=lam, relevance=relevance, mode=mode)
    oracle = DiversityMeasure(graph, "m", lam=lam, relevance=relevance, mode=mode)
    oracle._kernel = None
    return kernel, oracle


def outcome(score, answer):
    """``float.hex`` of ``score(answer)``, or the error type (neither path
    can take the spread or the value counts of unhashable values)."""
    try:
        return float.hex(score(answer))
    except TypeError as exc:
        return type(exc)


def assert_bitwise(kernel, oracle, answer):
    assert outcome(kernel.of, answer) == outcome(oracle.of, answer)


LAMBDAS = st.sampled_from([0.0, 0.5, 1.0])
MODES = st.sampled_from(["auto", "exact", "decomposed"])


class TestKernelEqualsOracle:
    @SETTINGS
    @given(data=st.data(), lam=LAMBDAS, mode=MODES, mixed=st.booleans())
    def test_of_is_bitwise_equal(self, data, lam, mode, mixed):
        graph = data.draw(graphs())
        answer = answer_of(data.draw, graph, mixed)
        kernel, oracle = measures(graph, lam, mode)
        assert_bitwise(kernel, oracle, answer)
        positions = kernel._positions(sorted(answer)) if answer else None
        assert (positions is None) == (mixed or not answer)

    @SETTINGS
    @given(data=st.data(), lam=LAMBDAS)
    def test_threshold_sizes(self, data, lam):
        """Prefixes straddling the 64-node exact/decomposed switch."""
        graph = data.draw(graphs(min_nodes=67, max_nodes=80))
        kernel, oracle = measures(graph, lam, "auto")
        ids = sorted(graph.nodes_with_label("m"))
        for size in (0, 1, 2, 63, 64, 65, 66):
            assert_bitwise(kernel, oracle, ids[:size])

    @SETTINGS
    @given(data=st.data(), lam=LAMBDAS)
    def test_maintained_path_uses_the_kernel_too(self, data, lam):
        graph = data.draw(graphs(max_nodes=120))
        answer = sorted(answer_of(data.draw, graph, False))
        kernel, oracle = measures(graph, lam, "auto")
        assert outcome(kernel.of_maintained, answer) == outcome(oracle.of, answer)


def test_ids_beyond_int64_run_the_kernel():
    graph = AttributedGraph("g")
    for offset, score in enumerate([3, 7, 7.5]):
        graph.add_node(2**70 + offset, "m", {"score": score, "tag": "xy"[offset % 2]})
    kernel, oracle = measures(graph.freeze(), 0.5, "auto")
    answer = set(graph.node_ids())
    assert kernel._positions(sorted(answer)).tolist() == [0, 1, 2]
    assert_bitwise(kernel, oracle, answer)


class TestColumnRepair:
    @SETTINGS
    @given(data=st.data(), lam=LAMBDAS, mode=MODES)
    def test_patched_columns_score_like_fresh_ones(self, data, lam, mode):
        graph = data.draw(graphs(max_nodes=120))
        ids = sorted(graph.nodes_with_label("m"))
        answer = answer_of(data.draw, graph, False)
        for name in TABLES:  # build the columns the patches must repair
            graph.gower_column("m", name)
        for _ in range(data.draw(st.integers(min_value=0, max_value=12))):
            if not ids:
                break
            node = data.draw(st.sampled_from(ids))
            name = data.draw(st.sampled_from(sorted(TABLES)))
            value = data.draw(st.sampled_from(TABLES[name] + EXOTIC[:1]))
            graph._set_attribute_in_place(node, name, value)
        fresh_graph = AttributedGraph("fresh")
        for node in sorted(graph.nodes(), key=lambda n: n.node_id):
            fresh_graph.add_node(node.node_id, node.label, node.attributes)
        patched, oracle = measures(graph, lam, mode)
        fresh, _ = measures(fresh_graph.freeze(), lam, mode)
        value = outcome(patched.of, answer)
        assert value == outcome(fresh.of, answer) == outcome(oracle.of, answer)
        for name in TABLES:
            repaired = graph.gower_column("m", name)
            rebuilt = fresh_graph.gower_column("m", name)
            assert repaired.present.tolist() == rebuilt.present.tolist()
            assert repaired.numeric.tolist() == rebuilt.numeric.tolist()
            assert cells(repaired.values) == cells(rebuilt.values)
            assert same_partition(repaired.codes.tolist(), rebuilt.codes.tolist())
            table = repaired._code_of  # built by the first patch
            if table is not None:
                interned = set(repaired.codes.tolist()) - {MISSING, EXOTIC_CODE}
                assert sorted(table.values()) == sorted(interned)

    def test_long_patch_streams_recycle_codes(self):
        graph = AttributedGraph("g")
        for node_id in range(4):
            graph.add_node(node_id, "m", {"score": node_id})
        column = graph.freeze().gower_column("m", "score")
        for step in range(1000):
            graph._set_attribute_in_place(step % 4, "score", 0.5 + step)
        assert len(column._code_of) == 4
        assert set(column.codes.tolist()) == {0, 1, 2, 3}


def cells(values):
    """Numeric cells; a column without numbers may hold no array at all."""
    return [] if values is None else [v for v in values.tolist() if v != 0.0]


def same_partition(left, right):
    """Codes may be numbered differently but must group cells alike."""
    forward, backward = {}, {}
    for a, b in zip(left, right):
        if (a < 0 or b < 0) and a != b:
            return False
        if forward.setdefault(a, b) != b or backward.setdefault(b, a) != a:
            return False
    return True


#: Cells a column build must store as ``_store`` does: ``1``/``1.0``/
#: ``True`` share a code, NaN and unhashables are ``EXOTIC``, ``10**400``
#: is numeric but ``float()`` rejects it, ``-0.0`` keeps its sign bit.
CELLS = st.one_of(
    st.sampled_from(
        [None, 1, 1.0, True, False, 0, -0.0, math.nan, math.inf, -math.inf,
         10**400, -(10**400), "1", "a", "", [1], {"k": 1}, (1, 2)]
    ),
    st.integers(min_value=-5, max_value=5),
    st.floats(allow_nan=True, allow_infinity=True, width=32),
    st.text(max_size=2),
)


def stored_cell_by_cell(raw):
    """The reference build: an empty column patched one cell at a time,
    each through ``_store``."""
    column = GowerColumn([None] * len(raw))
    current = [None] * len(raw)
    for position, value in enumerate(raw):
        if value is not None:
            column.patch(position, value, lambda: list(current))
            current[position] = value
    return column


class TestColumnBuild:
    @settings(max_examples=200, deadline=None)
    @given(raw=st.lists(CELLS, max_size=40))
    def test_one_pass_build_equals_cell_by_cell(self, raw):
        built, reference = GowerColumn(raw), stored_cell_by_cell(raw)
        for name in ("present", "numeric", "codes"):
            left, right = getattr(built, name), getattr(reference, name)
            assert left.dtype == right.dtype
            assert left.tolist() == right.tolist()
        if reference.values is None:
            assert built.values is None
        else:
            assert built.values.dtype == reference.values.dtype
            assert built.values.tobytes() == reference.values.tobytes()
        assert (built.exotic, built.odd) == (reference.exotic, reference.odd)
        assert built.table is None and built._code_of is None
