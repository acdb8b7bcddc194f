"""Scoring an answer mask equals scoring its id set, bit for bit.

The evaluator scores an answer as a mask over the output label's
enumeration: δ reads the mask's bit positions, coverage and feasibility
take one popcount per group member mask
(:meth:`~repro.groups.system.GroupSystem.mask_overlaps`). Against the id
set path — the pure-Python pair sums (``_pair_sum_exact`` /
``_pair_sum_decomposed``), the relevance loop and ``len(members &
answer)`` per group — (δ, f, feasible) must agree exactly (``float.hex``),
over overlapping group systems whose groups also hold nodes of another
label, the ``l1`` / ``max`` / ``weighted`` aggregates (with drawn
per-group weights), relax slacks and a per-node or a constant relevance
scorer. Group member masks repaired by random
:meth:`~repro.groups.system.GroupSystem.repair_membership` streams must
equal masks built cold from the repaired members and from a fresh rule
build.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.measures import CoverageMeasure, DiversityMeasure
from repro.core.relevance import ConstantRelevance
from repro.graph.attributed_graph import AttributedGraph
from repro.groups.system import GroupRule, GroupSystem, NodeGroup, system_from_rules
from repro.matching.delta import GraphDelta, apply_delta_in_place

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

NUMS = [None, 0, 3, -7, 40, 0.5, 2.5, 1e3, 7.25]
CATS = [None, "r", "g", "b"]
REGIONS = ["NA", "EU", "AS"]


def relevance(node_id: int) -> float:
    """Irregular floats, so relevance sums round non-trivially."""
    return (node_id * 0.37) % 1.3 / 1.3


@st.composite
def graphs(draw, max_nodes=150):
    """``m`` (the output label) and ``o`` nodes, interleaved ids."""
    count = draw(st.integers(min_value=1, max_value=max_nodes))
    graph = AttributedGraph("g")
    for node_id in range(count):
        attrs = {
            "num": draw(st.sampled_from(NUMS)),
            "cat": draw(st.sampled_from(CATS)),
            "region": draw(st.sampled_from(REGIONS)),
        }
        label = "o" if draw(st.integers(0, 4)) == 0 else "m"
        graph.add_node(node_id, label, {k: v for k, v in attrs.items() if v is not None})
    return graph.freeze()


def rules(draw):
    """Overlapping rules; the unscoped ones also take ``o`` nodes."""
    return [
        GroupRule("na", {"region": "NA"}, draw(st.integers(0, 5)), relax=draw(st.integers(0, 2)), label="m"),
        GroupRule("western", {"region": ["NA", "EU"]}, draw(st.integers(0, 8)),
                  relax=draw(st.integers(0, 3)), weight=draw(st.sampled_from([0.5, 1.0, 2.25]))),
        GroupRule("red", {"cat": "r"}, draw(st.integers(0, 4)), weight=draw(st.sampled_from([1.0, 0.3]))),
    ]


def group_system(draw, graph):
    aggregate = draw(st.sampled_from(["l1", "max", "weighted"]))
    if draw(st.booleans()):
        return system_from_rules(graph, rules(draw), aggregate=aggregate, clamp=True)
    ids = sorted(graph.node_ids())
    groups = []
    for name in ("p", "q", "s"):
        members = frozenset(draw(st.lists(st.sampled_from(ids), max_size=len(ids))))
        groups.append(NodeGroup(name, members, draw(st.integers(0, len(members))),
                                relax=draw(st.integers(0, 2))))
    weights = {"q": draw(st.sampled_from([0.5, 3.0]))} if aggregate == "weighted" else None
    return GroupSystem(groups, aggregate, weights)


def answer_mask(draw, graph):
    enumeration = graph.enumeration("m")
    ids = list(enumeration.ids)
    answer = set(draw(st.lists(st.sampled_from(ids), max_size=len(ids)))) if ids else set()
    return enumeration, enumeration.mask_of(answer), answer


def hexes(*values):
    return tuple(float.hex(float(v)) if not isinstance(v, bool) else v for v in values)


class TestMaskScoresEqualIdScores:
    @SETTINGS
    @given(data=st.data(), lam=st.sampled_from([0.0, 0.5, 1.0]),
           mode=st.sampled_from(["auto", "exact", "decomposed"]),
           scorer=st.sampled_from([relevance, ConstantRelevance(0.37)]))
    def test_delta_is_bitwise_equal(self, data, lam, mode, scorer):
        graph = data.draw(graphs())
        enumeration, mask, answer = answer_mask(data.draw, graph)
        measure = DiversityMeasure(graph, "m", lam=lam, relevance=scorer, mode=mode)
        oracle = DiversityMeasure(graph, "m", lam=lam, relevance=scorer, mode=mode)
        oracle._kernel = None  # the pure-Python pair sums and relevance loop
        assert hexes(measure.of(mask)) == hexes(oracle.of(answer))

    @SETTINGS
    @given(data=st.data(), weighted=st.booleans())
    def test_coverage_and_feasibility_are_bitwise_equal(self, data, weighted):
        graph = data.draw(graphs())
        system = group_system(data.draw, graph)
        enumeration, mask, answer = answer_mask(data.draw, graph)
        if weighted:
            weights = {g.name: data.draw(st.sampled_from([0.0, 0.7, 1.0, 4.5])) for g in system}
            system = GroupSystem(list(system), "weighted", weights)
        measure = CoverageMeasure(system)
        assert system.mask_overlaps(enumeration, mask) == {
            g.name: len(g.members & answer) for g in system
        }
        assert hexes(*measure.of_mask(enumeration, mask)) == hexes(
            measure.of(answer), measure.is_feasible(answer)
        )


class TestRepairedGroupMasks:
    @SETTINGS
    @given(data=st.data())
    def test_repaired_masks_equal_cold_masks(self, data):
        graph = data.draw(graphs(max_nodes=60))
        declared = rules(data.draw)
        system = system_from_rules(graph, declared, clamp=True)
        labels = ("m", "o")
        for label in labels:  # build the masks the repairs must keep right
            system.member_masks(graph.enumeration(label))
        ids = sorted(graph.node_ids())
        for _ in range(data.draw(st.integers(1, 8))):
            updates = data.draw(st.lists(
                st.tuples(st.sampled_from(ids), st.sampled_from(["region", "cat"]),
                          st.sampled_from(REGIONS + ["r", "g", None])),
                min_size=1, max_size=4,
            ))
            receipt = apply_delta_in_place(graph, GraphDelta(set_attributes=tuple(updates)))
            system.repair_membership(receipt, graph=graph)
            cold = system_from_rules(graph, declared, clamp=True)
            for label in labels:
                enumeration = graph.enumeration(label)
                repaired = system.member_masks(enumeration)
                assert repaired == [enumeration.mask_of(g.members) for g in system]
                assert repaired == [enumeration.mask_of(g.members) for g in cold]
