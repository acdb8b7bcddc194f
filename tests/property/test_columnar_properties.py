"""Property tests for the columnar core.

Two contracts, each pinned by construction against its dict-based twin:

* **Compiled masks** — for every operator and dtype mix (numeric,
  categorical, missing values, cross-type columns), the one-shot
  compiled-column mask equals both a direct per-node evaluation under the
  typed sort-key order and :meth:`AttributeIndex.matching_nodes`.
* **CSR repair** — after an arbitrary sequence of in-place
  :class:`GraphDelta` applications (edge inserts/deletes, attribute
  updates with removals), every patched CSR row, column
  cell and compiled mask equals the one a freshly built store computes on
  the mutated graph.
"""

from bisect import bisect_left, bisect_right

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.graph.attributed_graph import AttributedGraph, _sort_key
from repro.graph.columnar import ColumnarStore, CompiledColumn
from repro.graph.indexes import GraphIndexes
from repro.matching.delta import GraphDelta
from repro.query.predicates import Literal, Op
from repro.streaming.graph_ops import apply_delta_in_place

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

OPS = (Op.EQ, Op.GE, Op.GT, Op.LE, Op.LT)

numeric_values = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.floats(min_value=-5, max_value=5, allow_nan=False, width=32),
    st.booleans(),
)
categorical_values = st.sampled_from(["red", "green", "blue", "", "zz"])
any_value = st.one_of(numeric_values, categorical_values)


def reference_mask(values, op, constant):
    """Per-node evaluation under the typed total order (the table's order)."""
    pivot = _sort_key(constant)
    mask = 0
    for position, value in enumerate(values):
        if value is None:
            continue
        key = _sort_key(value)
        if (
            (op is Op.EQ and key == pivot)
            or (op is Op.GE and key >= pivot)
            or (op is Op.GT and key > pivot)
            or (op is Op.LE and key <= pivot)
            or (op is Op.LT and key < pivot)
        ):
            mask |= 1 << position
    return mask


class TestCompiledMasks:
    @SETTINGS
    @given(
        values=st.lists(st.one_of(st.none(), any_value), min_size=0, max_size=12),
        op=st.sampled_from(OPS),
        constant=any_value,
    )
    def test_mask_equals_per_node_evaluation(self, values, op, constant):
        compiled = CompiledColumn(values)
        assert compiled.mask_for(op, constant) == reference_mask(values, op, constant)

    @SETTINGS
    @given(
        values=st.lists(st.one_of(st.none(), any_value), min_size=1, max_size=10),
        op=st.sampled_from(OPS),
        constant=any_value,
    )
    def test_mask_equals_attribute_index(self, values, op, constant):
        graph = AttributedGraph("col")
        for i, value in enumerate(values):
            graph.add_node(i, "n", {} if value is None else {"v": value})
        graph.freeze()
        indexes = GraphIndexes(graph)
        store = indexes.enable_columnar()
        expected = indexes.bitsets.mask_of(
            "n", indexes.attributes.matching_nodes("n", "v", op, constant)
        )
        assert store.literal_mask("n", Literal("v", op, constant)) == expected

    @SETTINGS
    @given(
        values=st.lists(
            st.one_of(st.none(), st.integers(min_value=-5, max_value=5)),
            min_size=0,
            max_size=12,
        ),
        op=st.sampled_from(OPS),
        constant=st.integers(min_value=-6, max_value=6),
    )
    def test_homogeneous_numeric_matches_holds_for(self, values, op, constant):
        """On single-dtype columns the typed order is the plain value order,
        so compiled masks also agree with ``Literal.holds_for``."""
        literal = Literal("v", op, constant)
        compiled = CompiledColumn(values)
        expected = 0
        for position, value in enumerate(values):
            if value is not None and literal.holds_for(value):
                expected |= 1 << position
        assert compiled.mask_for(op, constant) == expected

    @SETTINGS
    @given(values=st.lists(st.one_of(st.none(), any_value), max_size=12))
    def test_suffix_structure(self, values):
        """Value masks are disjoint; their union is the present mask."""
        compiled = CompiledColumn(values)
        union = 0
        for mask in compiled.masks:
            assert union & mask == 0
            union |= mask
        assert union == compiled.present_mask
        assert compiled.keys == sorted(compiled.keys)


@st.composite
def graph_and_deltas(draw):
    """A random frozen graph plus a sequence of applicable deltas."""
    n = draw(st.integers(min_value=2, max_value=8))
    graph = AttributedGraph("stream")
    for i in range(n):
        attrs = {}
        value = draw(st.one_of(st.none(), any_value))
        if value is not None:
            attrs["v"] = value
        graph.add_node(i, draw(st.sampled_from(["a", "b"])), attrs)
    possible = [
        (i, j, label)
        for i in range(n)
        for j in range(n)
        if i != j
        for label in ("e", "f")
    ]
    for key in draw(
        st.lists(st.sampled_from(possible), max_size=12, unique=True)
    ):
        graph.add_edge(*key)
    graph.freeze()

    num_deltas = draw(st.integers(min_value=1, max_value=4))
    plans = []
    for _ in range(num_deltas):
        inserts = draw(
            st.lists(st.sampled_from(possible), max_size=3, unique=True)
        )
        delete_count = draw(st.integers(min_value=0, max_value=2))
        attrs = draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=n - 1),
                    st.just("v"),
                    st.one_of(st.none(), any_value),
                ),
                max_size=3,
            )
        )
        plans.append((inserts, delete_count, attrs))
    return graph, plans


class TestCSRRepair:
    @SETTINGS
    @given(data=graph_and_deltas(), seed=st.integers(min_value=0, max_value=999))
    def test_patched_store_equals_fresh_store(self, data, seed):
        graph, plans = data
        indexes = GraphIndexes(graph)
        store = indexes.enable_columnar()
        store.warm()
        for label in graph.node_labels():
            store.literal_mask(label, Literal("v", Op.GE, 0))

        for inserts, delete_count, attrs in plans:
            # Deletions must name existing edges: sample deterministically
            # from the current edge set.
            current = sorted(edge.key for edge in graph.edges())
            deletes = []
            for k in range(delete_count):
                if not current:
                    break
                deletes.append(current.pop((seed + k) % len(current)))
            delta = GraphDelta(
                insert_edges=tuple(
                    key for key in inserts if key not in set(deletes)
                ),
                delete_edges=tuple(deletes),
                set_attributes=tuple(attrs),
            )
            apply_delta_in_place(graph, delta)

        fresh = ColumnarStore(graph)
        for edge_label in graph.edge_labels():
            for outgoing in (True, False):
                patched = store.csr(edge_label, outgoing)
                rebuilt = fresh.csr(edge_label, outgoing)
                for gpos in range(len(store.node_order)):
                    assert list(map(int, patched.row(gpos))) == list(
                        map(int, rebuilt.row(gpos))
                    )
        for label in graph.node_labels():
            patched_col = store.column(label, "v")
            rebuilt_col = fresh.column(label, "v")
            assert patched_col.values == rebuilt_col.values
            for op in OPS:
                for constant in (-1, 0, 2, "red", "zz"):
                    assert patched_col.compiled().mask_for(
                        op, constant
                    ) == rebuilt_col.compiled().mask_for(op, constant)

    @SETTINGS
    @given(data=graph_and_deltas())
    def test_adjacency_masks_track_bitset_rows(self, data):
        """After repair, store adjacency masks equal freshly computed
        bitset rows (the matcher-facing contract)."""
        graph, plans = data
        indexes = GraphIndexes(graph)
        store = indexes.enable_columnar()
        store.warm()
        for inserts, _, attrs in plans:
            delta = GraphDelta(
                insert_edges=tuple(inserts), set_attributes=tuple(attrs)
            )
            apply_delta_in_place(graph, delta)
        fresh_bitsets = GraphIndexes(graph).bitsets
        for node_id in graph._nodes:
            for edge_label in ("e", "f"):
                for outgoing in (True, False):
                    for neighbor_label in ("a", "b"):
                        assert store.adjacency_mask(
                            node_id, edge_label, outgoing, neighbor_label
                        ) == fresh_bitsets.adjacency_row(
                            node_id, edge_label, outgoing, neighbor_label
                        )
