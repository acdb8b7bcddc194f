"""The dataset groups against an independent oracle, cold and streamed.

Each dataset's default groups are one attribute's values over one label:
LKI's two genders over persons, Cite's first ``m`` topics over papers,
DBP's first ``m`` genres over movies, with ``C`` split evenly (at least 1
per group) and each target clamped to its group's population. The oracle
below recomputes that from ``graph.nodes()`` with a plain loop, sharing no
code with the rule path the builders use.

The streaming case flips a person's ``gender`` in a live LKI session: the
node must move groups, and the archive must equal a cold rebuild over
``lki_groups`` of the mutated graph, also for a session built on a copy
with other coverage targets.
"""

import pytest

from repro.datasets import dataset_bundle, names
from repro.datasets.cite import cite_groups
from repro.datasets.dbp import dbp_groups
from repro.datasets.lki import lki_groups
from repro.matching.delta import GraphDelta
from repro.service.context import GraphContext
from repro.streaming import StreamingSession
from tests.integration.test_streaming_differential import archive_fingerprint, cold_rebuild
from tests.rebuild import rebuild_with_delta

#: dataset → (label, attribute, vocabulary, groups builder(graph, m, C)).
RECIPES = {
    "lki": ("person", "gender", ("M", "F"), lambda g, m, c: lki_groups(g, c)),
    "cite": ("paper", "topic", names.TOPICS, cite_groups),
    "dbp": ("movie", "genre", names.GENRES, dbp_groups),
}


def oracle(graph, label, attribute, values, total):
    """``[(name, members, coverage)]`` by a plain scan of the graph."""
    share = max(1, total // len(values))
    expected = []
    for value in values:
        members = frozenset(
            node.node_id
            for node in graph.nodes()
            if node.label == label and node.attributes.get(attribute) == value
        )
        expected.append((value, members, min(share, len(members))))
    return expected


@pytest.mark.parametrize("scale", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("dataset", list(RECIPES))
def test_dataset_groups_equal_the_oracle(dataset, scale):
    """``num_groups`` 2–4 (LKI: always 2) × ``C`` 16/40 on one graph."""
    label, attribute, vocabulary, build = RECIPES[dataset]
    graph = dataset_bundle(dataset, scale=scale).graph
    for m in (2,) if dataset == "lki" else (2, 3, 4):
        for total in (16, 40):
            groups = build(graph, m, total)
            expected = oracle(graph, label, attribute, vocabulary[:m], total)
            assert [(g.name, g.members, g.coverage) for g in groups] == expected
            assert all(g.relax == 0 for g in groups)
            assert groups.aggregate == "l1"
            assert groups.is_disjoint
            assert groups.quality_bound == sum(c for _, _, c in expected)
            assert groups.has_rules


OPTIONS = dict(epsilon=0.1, max_domain_values=4)


@pytest.mark.parametrize("total", [16, 8], ids=["bundle-groups", "with-constraints"])
def test_streamed_gender_flip_moves_the_node(total):
    bundle = dataset_bundle("lki", scale=0.1, coverage_total=16)
    groups = bundle.groups
    if total != 16:
        groups = groups.with_constraints({name: total // 2 for name in groups.names})
    session = StreamingSession(GraphContext(bundle.graph), bundle.template, groups, **OPTIONS)
    session.generate(count=24, seed=3)
    archived = sorted(session.archive.boxes().items())
    assert archived, "the stream needs an archived answer to move"
    node = min(archived[0][1].matches)
    old = bundle.graph.attribute(node, "gender")
    new = "F" if old == "M" else "M"
    delta = GraphDelta(set_attributes=((node, "gender", new),))
    reference = rebuild_with_delta(dataset_bundle("lki", scale=0.1).graph, delta)
    cold_groups = lki_groups(reference, total)

    report = session.update(delta)

    live = session.config.groups
    assert report.membership_moves == 1
    assert live.groups_of(node) == (new,)
    assert [(g.name, g.members, g.coverage) for g in live] == [
        (g.name, g.members, g.coverage) for g in cold_groups
    ]
    assert session.metrics.counters()["groups.membership_repairs"] == 1
    cold, _ = cold_rebuild(
        reference, bundle.template, cold_groups, session.ledger_instances(), **OPTIONS
    )
    assert archive_fingerprint(session.archive) == archive_fingerprint(cold)
