"""Cite — citation graph emulation (paper Table II, row 3).

The paper's Cite is a 4.9M-node academic graph (Microsoft Academic) with
papers/authors, citation and authorship edges, and attributes like
"numberOfCitations" and "topic", grouped by topic for "diversified and
fair academic recommendations". This emulation reproduces the schema with
preferentially attached citations (so citation counts follow the familiar
heavy tail) and a Zipfian topic distribution.
"""

from __future__ import annotations

from typing import Dict, List

from repro.datasets import names
from repro.datasets.sampler import Sampler
from repro.datasets.schema import AttributeSpec, EdgeSpec, GraphSchema, NodeSpec
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.builder import GraphBuilder
from repro.groups.system import GroupRule, GroupSystem, system_from_rules
from repro.query.predicates import Op
from repro.query.template import QueryTemplate

CITE_SCHEMA = GraphSchema(
    nodes=[
        NodeSpec(
            "paper",
            (
                AttributeSpec("title", "categorical"),
                AttributeSpec("topic", "categorical"),
                AttributeSpec("numberOfCitations", "numeric"),
                AttributeSpec("year", "numeric"),
            ),
        ),
        NodeSpec(
            "author",
            (
                AttributeSpec("name", "categorical"),
                AttributeSpec("hIndex", "numeric"),
                AttributeSpec("pubCount", "numeric"),
            ),
        ),
        NodeSpec(
            "venue",
            (
                AttributeSpec("name", "categorical"),
                AttributeSpec("rank", "numeric"),
            ),
        ),
    ],
    edges=[
        EdgeSpec("paper", "cites", "paper"),
        EdgeSpec("paper", "authoredBy", "author"),
        EdgeSpec("paper", "publishedIn", "venue"),
    ],
)


def build_cite(scale: float = 1.0, seed: int = 13) -> AttributedGraph:
    """Build the Cite emulation; deterministic in ``(scale, seed)``."""
    sampler = Sampler(seed)
    builder = GraphBuilder("Cite")

    n_papers = max(100, int(2000 * scale))
    n_authors = max(30, int(700 * scale))
    n_venues = max(5, min(len(names.VENUE_NAMES), int(12 * scale) or 5))

    venues: List[int] = []
    for i in range(n_venues):
        venues.append(
            builder.node(
                "venue",
                name=names.VENUE_NAMES[i % len(names.VENUE_NAMES)],
                rank=sampler.int_between(1, 50),
            )
        )

    authors: List[int] = []
    for _ in range(n_authors):
        authors.append(
            builder.node(
                "author",
                name=sampler.word(names.FIRST_NAMES),
                hIndex=sampler.gauss_int(12, 12, 0, 80),
                pubCount=sampler.gauss_int(20, 20, 1, 200),
            )
        )

    papers: List[int] = []
    citation_boost: List[int] = []
    citation_counts: Dict[int, int] = {}
    for _ in range(n_papers):
        paper = builder.node(
            "paper",
            title=sampler.word(names.WORD_POOL, 10_000),
            topic=sampler.zipf_choice(names.TOPICS, exponent=0.7),
            numberOfCitations=0,  # placeholder, overwritten below via node rebuild
            year=sampler.gauss_int(2012, 8, 1990, 2023),
        )
        papers.append(paper)
        for author in sampler.distinct(authors, sampler.int_between(1, 4)):
            builder.edge(paper, author, "authoredBy")
        builder.edge(paper, sampler.zipf_choice(venues, exponent=0.9), "publishedIn")
        if len(papers) > 10:
            for cited in sampler.preferential_targets(
                papers[:-1], sampler.int_between(1, 5), citation_boost
            ):
                builder.edge(paper, cited, "cites")
                citation_counts[cited] = citation_counts.get(cited, 0) + 1

    graph = builder.build(freeze=False)
    # Stamp the realized citation counts: the attribute must agree with the
    # structural in-degree under ``cites`` so range predicates on
    # numberOfCitations behave like the real dataset's.
    rebuilt = GraphBuilder("Cite")
    for node in graph.nodes():
        attrs = dict(node.attributes)
        if node.label == "paper":
            attrs["numberOfCitations"] = citation_counts.get(node.node_id, 0)
        rebuilt.node_with_id(node.node_id, node.label, **attrs)
    for edge in graph.edges():
        rebuilt.edge(edge.source, edge.target, edge.label)
    return rebuilt.build()


def cite_groups(
    graph: AttributedGraph, num_groups: int = 2, coverage_total: int = 40
) -> GroupSystem:
    """Paper groups by topic (up to 4 in the paper), even coverage.

    Each group's target is clamped to its population.
    """
    per_group = max(1, coverage_total // num_groups)
    rules = [
        GroupRule(topic, {"topic": topic}, per_group, label="paper")
        for topic in names.TOPICS[:num_groups]
    ]
    return system_from_rules(graph, rules, clamp=True)


def cite_template() -> QueryTemplate:
    """Academic-recommendation template.

    Output: papers ``u0`` with parameterized citation count, written by an
    author ``u1`` with parameterized h-index, published in some venue
    ``u3``, optionally citing another paper ``u2`` (edge variable).
    """
    return (
        QueryTemplate.builder("cite-academic-search")
        .node("u0", "paper")
        .node("u1", "author")
        .node("u2", "paper")
        .node("u3", "venue")
        .fixed_edge("u0", "u1", "authoredBy")
        .fixed_edge("u0", "u3", "publishedIn")
        .edge_var("xe1", "u0", "u2", "cites")
        .range_var("xl1", "u0", "numberOfCitations", Op.GE)
        .range_var("xl2", "u1", "hIndex", Op.GE)
        .output("u0")
        .build()
    )


def cite_bundle(
    scale: float = 1.0,
    seed: int = 13,
    num_groups: int = 2,
    coverage_total: int = 40,
):
    """Graph + schema + groups + canonical template, ready for experiments."""
    from repro.datasets.registry import DatasetBundle

    graph = build_cite(scale, seed)
    return DatasetBundle(
        name="Cite",
        graph=graph,
        schema=CITE_SCHEMA,
        groups=cite_groups(graph, num_groups, coverage_total),
        template=cite_template(),
    )
