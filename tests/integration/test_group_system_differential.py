"""Differential guarantees for generalized group systems.

Three contracts, all exact (``==`` on archive fingerprints, floats
included):

* **legacy equivalence** — running any generator with the paper's
  disjoint groups wrapped in a plain :class:`GroupSystem` produces the
  same archive, byte for byte, as the legacy :class:`GroupSet`, on both
  AC-3 paths of the matcher and across the delta-scoring knob;
* **delta neutrality on overlap** — for genuinely overlapping systems
  (where a node moves several counters at once) delta scoring still
  changes only the work, never the results;
* **scenario replay** — seeded scenario specs rebuild identical systems
  and identical archives run-to-run (the property CI smoke jobs and the
  counter baseline rely on).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import BiQGen, EnumQGen, GenerationConfig, RfQGen, StreamingSession
from repro.graph.builder import GraphBuilder
from repro.groups import (
    GroupRule,
    GroupSet,
    GroupSystem,
    NodeGroup,
    system_from_dict,
    system_from_rules,
)
from repro.matching.delta import GraphDelta
from repro.workload.scenarios import ScenarioGenerator
from tests.ac3 import BOTH_PATHS, forced

ALGORITHMS = [EnumQGen, RfQGen, BiQGen]


def _fingerprint(result):
    """Order-sensitive, exact archive fingerprint (floats compared by ==)."""
    return [
        (e.instance.instantiation.key, frozenset(e.matches), e.delta, e.coverage,
         e.feasible)
        for e in result.instances
    ]


def overlapping_groups(graph):
    """Gender × major rules over the talent graph: F ⊇ (F ∩ Business)."""
    return system_from_rules(
        graph,
        [
            GroupRule("F", where={"gender": "F"}, coverage=1,
                      label="person"),
            GroupRule("CS", where={"major": "CS"}, coverage=1, label="person"),
            GroupRule("F&Biz", where={"gender": "F", "major": "Business"},
                      coverage=1, relax=1, label="person"),
        ],
        aggregate="max",
    )


@pytest.mark.parametrize("algo_cls", ALGORITHMS)
@BOTH_PATHS
@pytest.mark.parametrize("delta", [False, True])
def test_disjoint_system_equals_group_set(algo_cls, ac3_path, delta, talent_config):
    """The tentpole contract: GroupSystem(disjoint) ≡ GroupSet, bitwise."""
    legacy_config = replace(talent_config, use_delta_scoring=delta)
    groups = talent_config.groups
    general = GroupSystem(list(groups), aggregate="l1")
    assert general.is_disjoint
    general_config = replace(legacy_config, groups=general)
    with forced(ac3_path):
        legacy = algo_cls(legacy_config).run()
        generalized = algo_cls(general_config).run()
    assert _fingerprint(generalized) == _fingerprint(legacy)
    assert generalized.epsilon == legacy.epsilon


@pytest.mark.parametrize("algo_cls", ALGORITHMS)
@BOTH_PATHS
def test_overlapping_delta_scoring_neutral(algo_cls, ac3_path, talent_config):
    """Delta scoring may not shift results when counters overlap."""
    system = overlapping_groups(talent_config.graph)
    assert not system.is_disjoint
    base = replace(talent_config, groups=system)
    with forced(ac3_path):
        plain = algo_cls(base).run()
        delta = algo_cls(replace(base, use_delta_scoring=True)).run()
    assert _fingerprint(delta) == _fingerprint(plain)


@pytest.mark.parametrize("aggregate", ["l1", "max", "weighted"])
def test_aggregates_run_end_to_end(aggregate, talent_config):
    """Every aggregate drives a full generator run; archives stay sane."""
    system = system_from_rules(
        talent_config.graph,
        [
            GroupRule("F", where={"gender": "F"}, coverage=1, label="person",
                      weight=2.0),
            GroupRule("M", where={"gender": "M"}, coverage=1, label="person"),
            GroupRule("CS", where={"major": "CS"}, coverage=1, label="person"),
        ],
        aggregate=aggregate,
    )
    result = BiQGen(replace(talent_config, groups=system)).run()
    assert result.instances
    bound = float(system.quality_bound)
    for point in result.instances:
        assert 0.0 <= point.coverage <= bound


def _mutable_talent_graph():
    """Fresh talent-toy graph per call (streaming mutates in place)."""
    b = GraphBuilder("talent-toy")
    b.node("org", name="smallco", employees=100)
    b.node("org", name="bigco", employees=1000)
    b.node("person", name="r1", title="analyst", yearsOfExp=5,
           gender="M", major="CS")
    b.node("person", name="r2", title="analyst", yearsOfExp=12,
           gender="F", major="Business")
    b.node("person", name="d1", title="director", yearsOfExp=15,
           gender="M", major="CS")
    b.node("person", name="d2", title="director", yearsOfExp=18,
           gender="F", major="Business")
    b.node("person", name="d3", title="director", yearsOfExp=20,
           gender="M", major="CS")
    b.node("person", name="d4", title="director", yearsOfExp=9,
           gender="F", major="Design")
    b.edge(2, 0, "worksAt")
    b.edge(3, 1, "worksAt")
    b.edge(2, 4, "recommend")
    b.edge(2, 5, "recommend")
    b.edge(2, 7, "recommend")
    b.edge(3, 5, "recommend")
    b.edge(3, 6, "recommend")
    return b.build()


def _archive_fingerprint(archive):
    return sorted(
        (
            box,
            ev.instance.instantiation.key,
            tuple(sorted(ev.matches)),
            ev.delta,
            ev.coverage,
            ev.feasible,
        )
        for box, ev in archive.boxes().items()
    )


def test_streaming_maintenance_identical_under_both_containers(talent_template):
    """Live-graph maintenance is container-agnostic for disjoint groups."""
    containers = {
        "legacy": GroupSet(
            [NodeGroup("M", frozenset({4, 6}), 1),
             NodeGroup("F", frozenset({5, 7}), 1)]
        ),
        "general": GroupSystem(
            [NodeGroup("M", frozenset({4, 6}), 1),
             NodeGroup("F", frozenset({5, 7}), 1)]
        ),
    }
    deltas = [
        GraphDelta(insert_edges=((3, 7, "recommend"),)),
        GraphDelta(set_attributes=((4, "yearsOfExp", 16),)),
        GraphDelta(delete_edges=((2, 5, "recommend"),)),
    ]
    fingerprints = {}
    for name, groups in containers.items():
        session = StreamingSession(
            _mutable_talent_graph(), talent_template, groups,
            epsilon=0.15, max_domain_values=4,
        )
        session.generate(count=16, seed=3)
        steps = []
        for delta in deltas:
            session.update(delta)
            steps.append(_archive_fingerprint(session.archive))
        fingerprints[name] = steps
    assert fingerprints["legacy"] == fingerprints["general"]


class TestScenarioReplay:
    def test_systems_rebuild_identically(self, talent_graph):
        gen = ScenarioGenerator(
            talent_graph, "person", ("gender", "major"), seed=11
        )
        specs = gen.specs(4)
        again = ScenarioGenerator(
            talent_graph, "person", ("gender", "major"), seed=11
        ).specs(4)
        assert specs == again
        for spec in specs:
            a = system_from_dict(spec, talent_graph, clamp=True)
            b = system_from_dict(spec, talent_graph, clamp=True)
            assert a.names == b.names
            assert a.aggregate == b.aggregate
            assert [g.members for g in a] == [g.members for g in b]
            assert [(g.coverage, g.relax) for g in a] == [
                (g.coverage, g.relax) for g in b
            ]

    def test_scenario_archives_replay(self, talent_config):
        """Same spec → same archive, across independent materializations."""
        gen = ScenarioGenerator(
            talent_config.graph, "person", ("gender", "major"), seed=5
        )
        spec = gen.spec(0)
        runs = []
        for _ in range(2):
            system = system_from_dict(spec, talent_config.graph, clamp=True)
            runs.append(RfQGen(replace(talent_config, groups=system)).run())
        assert _fingerprint(runs[0]) == _fingerprint(runs[1])
