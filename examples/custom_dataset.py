"""FairSQG on your own schema — the full bring-your-own-data workflow.

Declares a small e-commerce-style schema (customers, products, orders)
with the declarative synthetic generator, derives the GraphSchema, spins
random templates from it, validates conformance, and runs FairSQG with
groups over customer segments. Everything a user with their own domain
needs, end to end.

Run:  python examples/custom_dataset.py
"""

from repro import BiQGen, GenerationConfig
from repro.core.report import build_report
from repro.datasets.synthetic import (
    EdgePopulation,
    GaussInt,
    LogUniformInt,
    NodePopulation,
    SyntheticSpec,
    UniformInt,
    WeightedCoin,
    ZipfChoice,
    build_synthetic,
)
from repro.datasets.validation import validate_graph
from repro.groups import GroupRule, system_from_rules
from repro.workload import TemplateGenerator, TemplateSpec


def build_shop_spec() -> SyntheticSpec:
    """Customers review products; products belong to sellers."""
    return SyntheticSpec(
        name="shop",
        nodes=[
            NodePopulation(
                "customer",
                400,
                {
                    "segment": WeightedCoin(0.6, "retail", "business"),
                    "age": GaussInt(40, 15, 18, 85),
                    "orders": LogUniformInt(0, 2.5),
                },
            ),
            NodePopulation(
                "product",
                250,
                {
                    "category": ZipfChoice(
                        ("electronics", "home", "books", "toys", "sports")
                    ),
                    "price": LogUniformInt(0.5, 3.5),
                    "rating": GaussInt(38, 8, 10, 50),
                },
            ),
            NodePopulation(
                "seller",
                30,
                {"reputation": UniformInt(1, 100)},
            ),
        ],
        edges=[
            EdgePopulation(
                "customer", "reviewed", "product",
                out_degree=UniformInt(1, 6), attachment="preferential",
            ),
            EdgePopulation(
                "product", "soldBy", "seller",
                out_degree=UniformInt(1, 1), attachment="zipf",
            ),
        ],
    )


def main():
    spec = build_shop_spec()
    graph = build_synthetic(spec, scale=1.0, seed=42)
    schema = spec.to_schema()
    print(f"graph: {graph}")

    violations = validate_graph(graph, schema)
    print(f"schema conformance: {len(violations)} violations")

    # Customer-segment groups: suggestions must surface both retail and
    # business reviewers.
    groups = system_from_rules(
        graph,
        [
            GroupRule(segment, {"segment": segment}, 6, label="customer")
            for segment in ("retail", "business")
        ],
    )
    print(f"groups: {groups}")

    # A random template anchored at customers, generated from the schema.
    template = TemplateGenerator(schema, seed=9).generate(
        TemplateSpec("customer", size=2, num_range_vars=2, num_edge_vars=1),
        name="active-reviewers",
    )
    print(f"template: {template!r}\n")

    config = GenerationConfig(graph, template, groups, epsilon=0.1,
                              max_domain_values=5)
    result = BiQGen(config).run()
    print(build_report(config, result, lambda_r=0.7))


if __name__ == "__main__":
    main()
