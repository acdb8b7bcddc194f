"""Unit tests for the columnar structures a graph owns.

Three layouts sit beside the dict-based graph and must agree with it:

* the ball kernel (:mod:`repro.graph.ball`) — a label-grouped enumeration,
  an undirected CSR and per-edge-label endpoint arrays, which the
  matcher's AC-3 support sweeps read;
* the Gower columns (:mod:`repro.graph.gower_columns`) — per
  ``(label, attribute)`` cells with ``==``-interned codes;
* the literal masks the matcher reads through
  :class:`~repro.matching.bitset.LiteralPoolCache`.

Everything here is differential against the dict-based structures: edge
arrays and CSR rows vs adjacency dicts, supports vs bitset rows, literal
masks vs ``Literal.holds_for``, interned codes vs raw-value equality,
in-place repairs vs a fresh build.
"""

from repro.graph.attributed_graph import Enumerations
from repro.graph.ball import BallKernel, bits_from_mask, mask_from_bits
from repro.graph.builder import GraphBuilder
from repro.graph.gower_columns import EXOTIC, MISSING, GowerColumn
from repro.graph.indexes import BitsetIndex, GraphIndexes
from repro.matching.bitset import LiteralPoolCache
from repro.matching.delta import GraphDelta, apply_delta_in_place
from repro.obs import MetricsRegistry
from repro.query.predicates import Literal, Op


def sample_graph():
    builder = GraphBuilder("columnar-sample")
    ages = [25, 30, 30, None, 41, 25, 58, None, 30, 17]
    cities = ["ny", "sf", None, "ny", "la", "sf", "ny", "la", None, "sf"]
    for i in range(10):
        attrs = {}
        if ages[i] is not None:
            attrs["age"] = ages[i]
        if cities[i] is not None:
            attrs["city"] = cities[i]
        builder.node_with_id(i, "person" if i % 2 == 0 else "org", **attrs)
    edges = [
        (0, 1, "knows"),
        (0, 2, "knows"),
        (1, 2, "knows"),
        (2, 4, "works"),
        (4, 6, "works"),
        (6, 0, "knows"),
        (3, 5, "works"),
        (5, 7, "knows"),
        (8, 9, "works"),
        (9, 0, "knows"),
    ]
    for source, target, label in edges:
        builder.edge(source, target, label)
    return builder.build()


def endpoint_pairs(kernel, edge_label):
    """The ``edge_label`` edges of ``kernel`` as a set of id pairs."""
    order = kernel.order.tolist()
    sources, targets = kernel.edges[edge_label]
    return {(order[s], order[t]) for s, t in zip(sources.tolist(), targets.tolist())}


class TestStoreLayout:
    def test_orders_match_bitset_enumerations(self):
        graph = sample_graph()
        kernel = graph.ball_kernel()
        bitset = BitsetIndex(graph)
        order = kernel.order.tolist()
        for label in graph.node_labels():
            start, stop = kernel.spans[label]
            assert tuple(order[start:stop]) == bitset.order(label)
            assert graph.enumeration(label).ids == bitset.order(label)
        assert sorted(order) == sorted(graph._nodes)

    def test_cross_index_arrays_roundtrip(self):
        graph = sample_graph()
        kernel = graph.ball_kernel()
        for node_id in graph._nodes:
            (position,) = kernel.positions([node_id]).tolist()
            start, stop = kernel.spans[graph.label(node_id)]
            assert start <= position < stop
            assert int(kernel.order[position]) == node_id
        assert kernel.positions([10_000]).tolist() == []


class TestCSR:
    def test_rows_equal_adjacency_dicts(self):
        graph = sample_graph()
        kernel = graph.ball_kernel()
        for edge_label in graph.edge_labels():
            pairs = endpoint_pairs(kernel, edge_label)
            for node_id in graph._nodes:
                assert {t for s, t in pairs if s == node_id} == set(
                    graph.successors(node_id, edge_label)
                )
                assert {s for s, t in pairs if t == node_id} == set(
                    graph.predecessors(node_id, edge_label)
                )

    def test_adjacency_mask_equals_bitset_rows(self):
        # A node's adjacency row is the support, over the neighbour label,
        # of the reversed constraint with the node alone in the pool.
        graph = sample_graph()
        kernel = graph.ball_kernel()
        bitset = BitsetIndex(graph)
        for node_id in graph._nodes:
            label = graph.label(node_id)
            alone = bitset.mask_of(label, [node_id])
            for edge_label in graph.edge_labels():
                for outgoing in (True, False):
                    for neighbor_label in graph.node_labels():
                        assert kernel.support(
                            neighbor_label, edge_label, not outgoing, label, alone
                        ) == bitset.adjacency_row(
                            node_id, edge_label, outgoing, neighbor_label
                        )

    def test_degrees_equal_graph_degree(self):
        # No pair of sample nodes shares two edges, so the undirected row
        # length is the in + out degree.
        graph = sample_graph()
        kernel = graph.ball_kernel()
        degrees = (kernel.offsets[1:] - kernel.offsets[:-1]).tolist()
        for position, node_id in enumerate(kernel.order.tolist()):
            assert degrees[position] == graph.degree(node_id)
            assert degrees[position] == len(graph.neighbors(node_id))


class TestCompiledPredicates:
    OPS = (Op.EQ, Op.GE, Op.GT, Op.LE, Op.LT)

    def pools(self, graph):
        indexes = GraphIndexes(graph)
        return indexes, LiteralPoolCache(indexes, MetricsRegistry())

    def test_masks_equal_attribute_index(self):
        graph = sample_graph()
        indexes, pools = self.pools(graph)
        bitset = indexes.bitsets
        for label in graph.node_labels():
            for attribute in ("age", "city"):
                for op in self.OPS:
                    for constant in (17, 25, 30, 30.0, 58, 99, "ny", "sf", "zz"):
                        literal = Literal(attribute, op, constant)
                        per_node = bitset.mask_of(
                            label,
                            [
                                v
                                for v in bitset.order(label)
                                if graph.attribute(v, attribute) is not None
                                and literal.holds_for(graph.attribute(v, attribute))
                            ],
                        )
                        indexed = bitset.mask_of(
                            label,
                            indexes.attributes.matching_nodes(
                                label, attribute, op, constant
                            ),
                        )
                        assert pools.mask(label, literal) == per_node == indexed

    def test_unknown_label_and_attribute(self):
        _, pools = self.pools(sample_graph())
        assert pools.mask("ghost", Literal("age", Op.GE, 0)) == 0
        assert pools.mask("person", Literal("ghost", Op.GE, 0)) == 0

    def test_numeric_cross_type_equality(self):
        # 30 and 30.0 are equal: EQ 30.0 must hit the int-30 nodes.
        _, pools = self.pools(sample_graph())
        assert pools.mask("person", Literal("age", Op.EQ, 30)) == pools.mask(
            "person", Literal("age", Op.EQ, 30.0)
        )
        assert pools.mask("person", Literal("age", Op.EQ, 30)) != 0


class TestInterning:
    def test_equal_values_share_codes(self):
        column = GowerColumn(["x", "y", "x", None, "y"])
        codes = column.codes.tolist()
        assert codes[0] == codes[2]
        assert codes[1] == codes[4]
        assert codes[0] != codes[1]
        assert codes[3] == MISSING
        assert column.present.tolist() == [True, True, True, False, True]

    def test_numeric_equality_merges_like_dict_keys(self):
        # 5 == 5.0 and 1 == True share a code; 5 and 1 do not.
        column = GowerColumn([5, 5.0, 1, True, 0])
        codes = column.codes.tolist()
        assert codes[0] == codes[1]
        assert codes[2] == codes[3]
        assert codes[0] != codes[2]
        # True is not numeric for the Gower distance.
        assert column.numeric.tolist() == [True, True, True, False, True]

    def test_unhashable_values_flagged(self):
        column = GowerColumn([[1, 2], "ok"])
        assert column.codes.tolist()[0] == EXOTIC
        assert column.codes.tolist()[1] >= 0
        assert column.exotic == 1


class TestInPlaceRepair:
    def delta(self):
        return GraphDelta(
            insert_edges=((7, 0, "knows"), (3, 6, "works")),
            delete_edges=((0, 1, "knows"),),
            set_attributes=((0, "age", 99), (1, "city", "tokyo"), (4, "age", None)),
        )

    def test_patched_store_equals_fresh_store(self):
        graph = sample_graph()
        kernel = graph.ball_kernel()
        columns = {
            (label, attribute): graph.gower_column(label, attribute)
            for label in graph.node_labels()
            for attribute in ("age", "city")
        }
        apply_delta_in_place(graph, self.delta())
        assert graph.ball_kernel() is kernel
        fresh = BallKernel(Enumerations(graph._by_label), graph._out)
        assert kernel.offsets.tolist() == fresh.offsets.tolist()
        assert kernel.targets.tolist() == fresh.targets.tolist()
        for edge_label in graph.edge_labels():
            assert endpoint_pairs(kernel, edge_label) == endpoint_pairs(fresh, edge_label)
        for (label, attribute), patched in columns.items():
            assert graph.gower_column(label, attribute) is patched
            raw = [graph.attribute(v, attribute) for v in graph.enumeration(label).ids]
            rebuilt = GowerColumn(raw)
            assert patched.present.tolist() == rebuilt.present.tolist()
            assert patched.numeric.tolist() == rebuilt.numeric.tolist()
            if rebuilt.values is not None:
                assert patched.values.tolist() == rebuilt.values.tolist()
            # Codes may be recycled; they must partition the cells alike.
            for a, code_a in enumerate(patched.codes.tolist()):
                for b, code_b in enumerate(patched.codes.tolist()):
                    assert (code_a == code_b) == (
                        rebuilt.codes[a] == rebuilt.codes[b]
                    )


class TestMaskHelpers:
    def test_roundtrip(self):
        for mask in (0, 1, 0b1011, (1 << 70) | 5):
            size = max(71, mask.bit_length())
            assert mask_from_bits(bits_from_mask(mask, size)) == mask
