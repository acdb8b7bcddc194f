"""Fair movie recommendation — the paper's Fig. 12 case study.

Over the DBP movie-knowledge-graph emulation, searches for movies with
parameterized rating/awards conditions while enforcing an equal coverage
of two genre groups (e.g. Action vs Romance). Compares the instances
RfQGen and BiQGen prefer — diversified-but-skewed vs coverage-balanced —
and prints each algorithm's picks as readable queries.

Run:  python examples/movie_recommendation.py [--genres Action Romance]
"""

import argparse

from repro import BiQGen, GenerationConfig, RfQGen
from repro.datasets.dbp import build_dbp, dbp_template
from repro.groups import GroupRule, system_from_rules


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.2)
    parser.add_argument("--genres", nargs=2, default=["Action", "Romance"])
    parser.add_argument("--per-genre", type=int, default=8,
                        help="desired number of covered movies per genre")
    parser.add_argument("--epsilon", type=float, default=0.05)
    args = parser.parse_args()

    graph = build_dbp(scale=args.scale)
    groups = system_from_rules(
        graph,
        [
            GroupRule(genre, {"genre": genre}, args.per_genre, label="movie")
            for genre in args.genres
        ],
    )
    print(f"graph: {graph}")
    print(f"coverage constraints: {groups}")

    config = GenerationConfig(
        graph, dbp_template(), groups, epsilon=args.epsilon, max_domain_values=6
    )

    for name, algo_cls in (("RfQGen", RfQGen), ("BiQGen", BiQGen)):
        result = algo_cls(config).run()
        print(f"\n=== {name} ===")
        if not result.instances:
            print("  no feasible instances (raise --scale or lower --per-genre)")
            continue
        diversity_pick = result.best_by_diversity()
        coverage_pick = result.best_by_coverage()
        for role, point in (
            ("most diversified", diversity_pick),
            ("best genre balance", coverage_pick),
        ):
            overlaps = config.groups.overlaps(point.matches)
            counts = ", ".join(f"{v} {k}" for k, v in overlaps.items())
            print(f"\n  {role}: {point.cardinality} movies ({counts}), "
                  f"δ={point.delta:.2f}, f={point.coverage:.1f}")
            for line in point.instance.describe().splitlines():
                print("   ", line)


if __name__ == "__main__":
    main()
