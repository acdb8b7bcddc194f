"""LKI — LinkedIn-style professional network (paper Table II, row 2).

The paper's LKI has 3M users/organizations with ``worksAt`` and
``recommend``/co-review edges, attributes like "Major", and two synthetic
gender groups (the paper infers genders with external tools; groups are
inputs to FairSQG either way). This emulation reproduces the schema with
seeded genders at a configurable ratio, a Zipfian title distribution (so
``title = 'director'`` selects a meaningful slice), and preferentially
attached recommendations (influencers exist).

This is the dataset of the paper's running talent-search example (Fig. 1).
"""

from __future__ import annotations

from typing import List

from repro.datasets import names
from repro.datasets.sampler import Sampler
from repro.datasets.schema import AttributeSpec, EdgeSpec, GraphSchema, NodeSpec
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.builder import GraphBuilder
from repro.groups.system import GroupRule, GroupSystem, system_from_rules
from repro.query.predicates import Literal, Op
from repro.query.template import QueryTemplate

LKI_SCHEMA = GraphSchema(
    nodes=[
        NodeSpec(
            "person",
            (
                AttributeSpec("name", "categorical"),
                AttributeSpec("gender", "categorical"),
                AttributeSpec("title", "categorical"),
                AttributeSpec("yearsOfExp", "numeric"),
                AttributeSpec("major", "categorical"),
                AttributeSpec("skill", "categorical"),
                AttributeSpec("connections", "numeric"),
            ),
        ),
        NodeSpec(
            "org",
            (
                AttributeSpec("name", "categorical"),
                AttributeSpec("employees", "numeric"),
                AttributeSpec("industry", "categorical"),
                AttributeSpec("founded", "numeric"),
            ),
        ),
    ],
    edges=[
        EdgeSpec("person", "worksAt", "org"),
        EdgeSpec("person", "recommend", "person"),
        EdgeSpec("person", "coReview", "person"),
    ],
)

#: Employee-count tiers mirroring real company-size brackets.
_EMPLOYEE_TIERS = (50, 100, 200, 500, 1000, 2000, 5000, 10000)


def build_lki(scale: float = 1.0, seed: int = 11) -> AttributedGraph:
    """Build the LKI emulation; deterministic in ``(scale, seed)``."""
    sampler = Sampler(seed)
    builder = GraphBuilder("LKI")

    n_people = max(80, int(1800 * scale))
    n_orgs = max(8, int(120 * scale))

    orgs: List[int] = []
    for _ in range(n_orgs):
        orgs.append(
            builder.node(
                "org",
                name=sampler.word(names.WORD_POOL),
                employees=sampler.zipf_choice(_EMPLOYEE_TIERS, exponent=0.7),
                industry=sampler.zipf_choice(names.INDUSTRIES),
                founded=sampler.int_between(1950, 2020),
            )
        )

    people: List[int] = []
    for _ in range(n_people):
        person = builder.node(
            "person",
            name=sampler.word(names.FIRST_NAMES),
            gender="M" if sampler.coin(0.55) else "F",
            title=sampler.zipf_choice(names.TITLES, exponent=0.8),
            yearsOfExp=sampler.gauss_int(10, 6, 0, 40),
            major=sampler.zipf_choice(names.MAJORS, exponent=0.6),
            skill=sampler.zipf_choice(names.SKILLS, exponent=0.7),
            connections=int(10 ** sampler.uniform(0.5, 3.2)),
        )
        people.append(person)
        builder.edge(person, sampler.zipf_choice(orgs, exponent=0.8), "worksAt")

    # Recommendations with preferential attachment: well-recommended people
    # attract more recommendations (the influencer effect).
    recommend_boost: List[int] = []
    for person in people:
        for target in sampler.preferential_targets(
            people, sampler.int_between(1, 4), recommend_boost
        ):
            if target != person:
                builder.edge(person, target, "recommend")
    # Sparse co-review ties between colleagues.
    for person in people:
        if sampler.coin(0.35):
            other = sampler.choice(people)
            if other != person:
                builder.edge(person, other, "coReview")

    return builder.build()


def lki_groups(graph: AttributedGraph, coverage_total: int = 40) -> GroupSystem:
    """The two gender groups over all persons, with even coverage.

    Each group's target is clamped to its population.
    """
    per_group = max(1, coverage_total // 2)
    rules = [
        GroupRule(value, {"gender": value}, per_group, label="person")
        for value in ("M", "F")
    ]
    return system_from_rules(graph, rules, clamp=True)


def lki_template() -> QueryTemplate:
    """The talent-search template of the paper's Fig. 1.

    Output: directors ``u0`` recommended by an experienced user ``u1`` from
    a large organization ``u3``, optionally recommended by a second user
    ``u2`` (edge variable). Range variables parameterize the recommenders'
    years of experience and the organization size.
    """
    return (
        QueryTemplate.builder("lki-talent-search")
        .node("u0", "person", Literal("title", Op.EQ, "director"))
        .node("u1", "person")
        .node("u2", "person")
        .node("u3", "org")
        .fixed_edge("u1", "u0", "recommend")
        .fixed_edge("u1", "u3", "worksAt")
        .edge_var("xe1", "u2", "u0", "recommend")
        .range_var("xl1", "u1", "yearsOfExp", Op.GE)
        .range_var("xl2", "u3", "employees", Op.GE)
        .output("u0")
        .build()
    )


def lki_bundle(
    scale: float = 1.0,
    seed: int = 11,
    num_groups: int = 2,
    coverage_total: int = 40,
):
    """Graph + schema + groups + canonical template, ready for experiments.

    ``num_groups`` is accepted for registry symmetry but LKI always has the
    two gender groups (as in the paper).
    """
    from repro.datasets.registry import DatasetBundle

    graph = build_lki(scale, seed)
    return DatasetBundle(
        name="LKI",
        graph=graph,
        schema=LKI_SCHEMA,
        groups=lki_groups(graph, coverage_total),
        template=lki_template(),
    )
