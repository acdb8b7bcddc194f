"""Extension benchmarks: the §VI future-work features implemented here.

Not paper figures — these track the implemented extensions:

* **RPQ generation** (RPQGen) over the citation emulation;
* **multi-output generation** (MultiOutputQGen);
* **union-coverage workload selection** (CoverageWorkloadGenerator).
"""

from repro.bench import save_table
from repro.bench.harness import make_config
from repro.core import EnumQGen
from repro.core.multi_output import MultiOutputQGen
from repro.query.predicates import Op
from repro.query.variables import RangeVariable
from repro.rpq import RPQGen, RPQTemplate
from repro.workload.benchmark_suite import CoverageWorkloadGenerator


def test_extension_rpq(benchmark, ctx, settings, results_dir):
    bundle = ctx.bundle("cite")
    template = RPQTemplate(
        "citation-influence",
        source_label="paper",
        path="cites+",
        range_variables=[
            RangeVariable("min_src_year", "source", "year", Op.GE),
            RangeVariable("min_citations", "target", "numberOfCitations", Op.GE),
        ],
    )

    def run():
        return RPQGen(
            bundle.graph, template, bundle.groups,
            epsilon=0.2, max_domain_values=settings.max_domain_values,
        ).run()

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        {
            "verified": result.stats.verified,
            "feasible": result.stats.feasible,
            "|eps-Pareto|": len(result),
            "time (s)": round(result.stats.elapsed_seconds, 4),
        }
    ]
    save_table(rows, results_dir / "extension_rpq.txt",
               "Extension: FairSQG over RPQs (Cite, cites+)",
               extra=settings.paper_mapping)
    assert result.instances, "the RPQ setting must admit feasible instances"
    for point in result.instances:
        assert bundle.groups.is_feasible(point.matches)


def test_extension_multi_output(benchmark, ctx, settings, results_dir):
    bundle = ctx.bundle("lki")
    config = make_config(bundle, settings)
    # u0 (directors) and u1 (recommenders) share the 'person' label.
    gen = MultiOutputQGen(config, ["u0", "u1"])
    result = benchmark.pedantic(gen.run, rounds=1, iterations=1)
    single = EnumQGen(config).run()
    rows = [
        {
            "mode": "single output (u0)",
            "|eps-Pareto|": len(single),
            "max |q(G)|": max((p.cardinality for p in single.instances), default=0),
        },
        {
            "mode": "multi output (u0 ∪ u1)",
            "|eps-Pareto|": len(result),
            "max |q(G)|": max((p.cardinality for p in result.instances), default=0),
        },
    ]
    save_table(rows, results_dir / "extension_multi_output.txt",
               "Extension: multiple output nodes (LKI)", extra=settings.paper_mapping)
    # Union answers are supersets, so the best multi-output cardinality is
    # at least the single-output one.
    assert rows[1]["max |q(G)|"] >= rows[0]["max |q(G)|"]


def test_extension_workload_suite(benchmark, ctx, settings, results_dir):
    bundle = ctx.bundle("lki")
    config = make_config(bundle, settings)
    generator = CoverageWorkloadGenerator(config)

    def run():
        return generator.generate(
            {name: 0.1 for name in bundle.groups.names}, max_queries=6
        )

    workload = benchmark.pedantic(run, rounds=1, iterations=1)
    save_table(workload.summary_rows(), results_dir / "extension_workload_suite.txt",
               "Extension: union-coverage benchmark workloads (LKI)",
               extra=settings.paper_mapping)
    assert workload.satisfied
    assert len(workload.queries) <= 6
