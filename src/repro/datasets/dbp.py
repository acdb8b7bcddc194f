"""DBP — DBpedia-style movie knowledge graph (paper Table II, row 1).

The paper's DBP is a 1M-node movie knowledge graph induced from DBpedia,
used for "diversified and fair movie recommendations" with up to 5 movie
groups by genre or country. This module builds a seeded synthetic graph
with the same schema at a configurable scale (``scale=1.0`` ≈ 2k nodes;
raise it to approach paper-sized graphs).

Structure: movies connect to directors (``directedBy``), actors
(``actedIn``, preferentially attached so popular actors dominate), studios
(``producedBy``) and similar movies (``similarTo``). Numeric attributes
(rating, awards, year, votes) have skewed distributions so range predicates
carve the graph unevenly — the behaviour the generation algorithms face on
the real data.
"""

from __future__ import annotations

from typing import List

from repro.datasets import names
from repro.datasets.sampler import Sampler
from repro.datasets.schema import AttributeSpec, EdgeSpec, GraphSchema, NodeSpec
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.builder import GraphBuilder
from repro.groups.system import GroupRule, GroupSystem, system_from_rules
from repro.query.predicates import Op
from repro.query.template import QueryTemplate

DBP_SCHEMA = GraphSchema(
    nodes=[
        NodeSpec(
            "movie",
            (
                AttributeSpec("title", "categorical"),
                AttributeSpec("genre", "categorical"),
                AttributeSpec("country", "categorical"),
                AttributeSpec("rating", "numeric"),
                AttributeSpec("year", "numeric"),
                AttributeSpec("votes", "numeric"),
                AttributeSpec("awards", "numeric"),
            ),
        ),
        NodeSpec(
            "director",
            (
                AttributeSpec("name", "categorical"),
                AttributeSpec("awards", "numeric"),
                AttributeSpec("yearsActive", "numeric"),
            ),
        ),
        NodeSpec(
            "actor",
            (
                AttributeSpec("name", "categorical"),
                AttributeSpec("age", "numeric"),
                AttributeSpec("popularity", "numeric"),
            ),
        ),
        NodeSpec(
            "studio",
            (
                AttributeSpec("name", "categorical"),
                AttributeSpec("country", "categorical"),
                AttributeSpec("founded", "numeric"),
            ),
        ),
    ],
    edges=[
        EdgeSpec("movie", "directedBy", "director"),
        EdgeSpec("actor", "actedIn", "movie"),
        EdgeSpec("movie", "producedBy", "studio"),
        EdgeSpec("movie", "similarTo", "movie"),
    ],
)


def build_dbp(scale: float = 1.0, seed: int = 7) -> AttributedGraph:
    """Build the DBP emulation; deterministic in ``(scale, seed)``."""
    sampler = Sampler(seed)
    builder = GraphBuilder("DBP")

    n_movies = max(60, int(1000 * scale))
    n_directors = max(15, int(220 * scale))
    n_actors = max(30, int(600 * scale))
    n_studios = max(6, int(60 * scale))

    directors: List[int] = []
    for _ in range(n_directors):
        directors.append(
            builder.node(
                "director",
                name=sampler.word(names.FIRST_NAMES),
                awards=sampler.gauss_int(3, 4, 0, 20),
                yearsActive=sampler.gauss_int(15, 10, 1, 45),
            )
        )

    actors: List[int] = []
    for _ in range(n_actors):
        actors.append(
            builder.node(
                "actor",
                name=sampler.word(names.FIRST_NAMES),
                age=sampler.gauss_int(40, 13, 18, 85),
                popularity=sampler.gauss_int(30, 25, 0, 100),
            )
        )

    studios: List[int] = []
    for _ in range(n_studios):
        studios.append(
            builder.node(
                "studio",
                name=sampler.word(names.WORD_POOL),
                country=sampler.zipf_choice(names.COUNTRIES),
                founded=sampler.int_between(1900, 2015),
            )
        )

    movies: List[int] = []
    actor_boost: List[int] = []
    similar_boost: List[int] = []
    for _ in range(n_movies):
        movie = builder.node(
            "movie",
            title=sampler.word(names.WORD_POOL, 10_000),
            genre=sampler.zipf_choice(names.GENRES),
            country=sampler.zipf_choice(names.COUNTRIES),
            rating=sampler.gauss_int(65, 15, 10, 99) / 10.0,
            year=sampler.gauss_int(2005, 12, 1970, 2023),
            votes=int(10 ** sampler.uniform(1.0, 5.0)),
            awards=sampler.gauss_int(1, 2, 0, 12),
        )
        movies.append(movie)
        builder.edge(movie, sampler.zipf_choice(directors), "directedBy")
        for actor in sampler.preferential_targets(actors, sampler.int_between(2, 5), actor_boost):
            builder.edge(actor, movie, "actedIn")
        if sampler.coin(0.85):
            builder.edge(movie, sampler.zipf_choice(studios), "producedBy")
        # Similarity edges only point to already-created movies (a DAG-ish
        # "related titles" structure with preferential popularity).
        if len(movies) > 5 and sampler.coin(0.6):
            for other in sampler.preferential_targets(
                movies[:-1], sampler.int_between(1, 2), similar_boost
            ):
                builder.edge(movie, other, "similarTo")

    return builder.build()


def dbp_groups(
    graph: AttributedGraph,
    num_groups: int = 2,
    coverage_total: int = 40,
    by: str = "genre",
) -> GroupSystem:
    """Movie groups by genre (default) or country, with even coverage.

    The first ``num_groups`` vocabulary entries (the most popular under the
    Zipf sampling) become the groups; ``coverage_total`` is split evenly
    and clamped to the group sizes.
    """
    vocabulary = names.GENRES if by == "genre" else names.COUNTRIES
    per_group = max(1, coverage_total // num_groups)
    rules = [
        GroupRule(value, {by: value}, per_group, label="movie")
        for value in vocabulary[:num_groups]
    ]
    return system_from_rules(graph, rules, clamp=True)


def dbp_template() -> QueryTemplate:
    """The case-study movie-search template (paper Fig. 12's ``q10``).

    Finds movies with parameterized rating and awards, produced by a studio
    with parameterized founding year, optionally with a director link and a
    similar-movie link.
    """
    return (
        QueryTemplate.builder("dbp-movie-search")
        .node("u0", "movie")
        .node("u1", "studio")
        .node("u2", "director")
        .node("u3", "movie")
        .fixed_edge("u0", "u1", "producedBy")
        .edge_var("xe1", "u0", "u2", "directedBy")
        .edge_var("xe2", "u0", "u3", "similarTo")
        .range_var("xl1", "u0", "rating", Op.GE)
        .range_var("xl2", "u0", "awards", Op.GE)
        .output("u0")
        .build()
    )


def dbp_bundle(
    scale: float = 1.0,
    seed: int = 7,
    num_groups: int = 2,
    coverage_total: int = 40,
):
    """Graph + schema + groups + canonical template, ready for experiments."""
    from repro.datasets.registry import DatasetBundle

    graph = build_dbp(scale, seed)
    return DatasetBundle(
        name="DBP",
        graph=graph,
        schema=DBP_SCHEMA,
        groups=dbp_groups(graph, num_groups, coverage_total),
        template=dbp_template(),
    )
