"""A4 — matching micro-benchmarks: AC propagation and the full pipeline.

Times the two phases of instance verification on the LKI emulation —
candidate filtering + arc consistency, and the full ``match`` (including
the acyclic fast path). Not a paper figure; used to track matcher
regressions while extending the library.
"""

from repro.bench.harness import make_config
from repro.core.lattice import InstanceLattice
from repro.matching.bitset import BitsetEngine, _Work
from repro.matching.matcher import SubgraphMatcher


def _root_instance(ctx, settings):
    bundle = ctx.bundle("lki")
    config = make_config(bundle, settings)
    return config, InstanceLattice(config).root()


def test_candidate_propagation(benchmark, ctx, settings):
    config, root = _root_instance(ctx, settings)
    engine = BitsetEngine(config.graph)

    def run():
        work = _Work()
        masks, labels = engine._initial_masks(root, None, None, work)
        return engine._propagate(root, masks, labels, work)

    masks, removed = benchmark(run)
    assert masks[root.output_node], "root must have matches"


def test_full_match(benchmark, ctx, settings):
    config, root = _root_instance(ctx, settings)
    matcher = SubgraphMatcher(config.graph)
    result = benchmark(lambda: matcher.match(root))
    assert result.matches

