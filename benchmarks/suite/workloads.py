"""The four benchmark workloads.

Every workload is a closed loop with one client. It drives the library
only through its public API and leaves every performance setting at the
library default: it never passes ``matcher_engine``,
``use_delta_scoring``, ``columnar`` or ``membership_patching``, so a
change to a default (or the removal of a setting) is measured without
editing the benchmark.

Work is organized in *rounds*. Within a workload every round performs
the same multiset of operations: the request pools, batches, dataset
scales and the streaming ledger are fixed (seeded by :data:`POOL_SEED`),
and the run's ``--seed`` draws the order of the requests in each round,
the order of the serving batches, and the delta stream. Request costs
differ several-fold within a pool, so pools drawn from ``--seed`` would
make runs at different seeds incomparable; fixed pools also let a
measurement slice be a whole number of rounds.

A workload exposes:

* ``setup()`` — build graphs, sessions and pools from scratch (timed as
  ``setup_s``);
* ``run_round(index, ctx)`` — perform one round, returning one
  :class:`OpResult` per operation; only the blocks wrapped in
  ``ctx.timed(...)`` are timed, so correctness checks and input
  generation between them are not;
* ``describe_round(index)`` — the round's generated inputs, without
  executing them (used to test seeding);
* ``counters()`` — cumulative program counters for the per-layer ratios.
"""

from __future__ import annotations

import contextlib
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro import (
    BatchSession,
    BiQGen,
    GenerationConfig,
    OnlineQGen,
    RfQGen,
    StreamingSession,
    TemplateGenerator,
    TemplateSpec,
    dataset_bundle,
    random_delta_stream,
    system_from_dict,
    system_from_rules,
)
from repro.datasets.synthetic import (
    EdgePopulation,
    GaussInt,
    NodePopulation,
    SyntheticSpec,
    UniformChoice,
    UniformInt,
    build_synthetic,
)
from repro.groups import GroupRule
from repro.matching.delta import GraphDelta, apply_delta
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import collecting
from repro.query import Op, QueryTemplate
from repro.workload.scenarios import ScenarioGenerator
from repro.workload.stream import random_instance_stream

from suite import gate

#: Seed of the fixed template pools (part of the workload definition).
POOL_SEED = 2022


@dataclass
class OpResult:
    """One operation's outcome as the harness sees it."""

    key: str
    latency: float  # speed-scaled seconds
    label: str = ""  # what the operation was (for reading results)
    factor: float = 1.0  # speed factor applied to its own timing
    ok: bool = True
    error: Optional[str] = None
    digest: Optional[str] = None
    #: Speed-scaled seconds the op waited before its own work began
    #: (serving only; the same value the tracer reports as ``queue``).
    queued: Optional[float] = None

    def fail(self, message: str) -> None:
        self.ok = False
        self.error = message if self.error is None else f"{self.error}; {message}"


class Workload:
    """Shared plumbing: seeding and the ratio counters."""

    name = ""
    #: The highest of p75/p90/p95/p99 with at least 10 ops beyond it at
    #: the op count a run reaches.
    tail_pct = 90

    def __init__(self, seed: int, smoke: bool = False) -> None:
        self.seed = seed
        self.smoke = smoke

    def rng(self, *parts) -> random.Random:
        """A run-seeded RNG for one purpose (str seeds are stable)."""
        return random.Random(":".join([str(self.seed), self.name, *map(str, parts)]))

    def teardown(self) -> None:
        """Drop everything :meth:`setup` built."""
        for name in list(vars(self)):
            if name not in ("seed", "smoke"):
                delattr(self, name)

    def counters(self) -> Dict[str, int]:  # pragma: no cover - per workload
        raise NotImplementedError


# ---------------------------------------------------------------------- #
# paper-small / paper-large: one generation request per operation
# ---------------------------------------------------------------------- #

PAPER_DATASETS = ("dbp", "lki", "cite")
PAPER_ALGORITHMS = ("rfqgen", "biqgen", "onlineqgen")
PAPER_EPSILON = 0.01
PAPER_COVERAGE = 16  # C, split over |P| = 2 groups
ONLINE_K = 10
ONLINE_WINDOW = 40
ONLINE_STREAM = 60


@dataclass(frozen=True)
class PaperShape:
    scale: float
    domain_cap: int
    generated_templates: int
    #: True: every template runs every algorithm each round. False: the
    #: algorithms rotate over the templates (one request per template).
    cross: bool


class PaperWorkload(Workload):
    """Generation requests over the DBP/LKI/Cite emulations.

    Each request builds a fresh :class:`GenerationConfig`, as
    ``fairsqg generate`` does, and runs one of RfQGen, BiQGen or
    OnlineQGen (k=10, window 40, a fixed 60-instance stream).
    """

    shape: PaperShape
    smoke_shape = PaperShape(0.05, 3, 1, cross=False)

    def setup(self) -> None:
        shape = self.smoke_shape if self.smoke else self.shape
        self.active_shape = shape
        self.bundles = {}
        self.pool = []
        for d_index, name in enumerate(PAPER_DATASETS):
            bundle = dataset_bundle(
                name, scale=shape.scale, coverage_total=PAPER_COVERAGE
            )
            self.bundles[name] = bundle
            output = bundle.template.node(bundle.template.output_node).label
            generator = TemplateGenerator(bundle.schema, seed=POOL_SEED + d_index)
            templates = [bundle.template] + [
                generator.generate(
                    TemplateSpec(output, size=3, num_range_vars=2, num_edge_vars=1),
                    name=f"{name}-gen{i}",
                )
                for i in range(shape.generated_templates)
            ]
            for t_index, template in enumerate(templates):
                if shape.cross:
                    algorithms = PAPER_ALGORITHMS
                else:
                    algorithms = (
                        PAPER_ALGORITHMS[(t_index + d_index) % len(PAPER_ALGORITHMS)],
                    )
                for algorithm in algorithms:
                    # The OnlineQGen stream is part of the request shape.
                    stream_seed = POOL_SEED + len(self.pool)
                    self.pool.append((name, template, algorithm, stream_seed))
        self.metrics = MetricsRegistry()

    def _round_plan(self, index: int) -> list:
        """The pool in this round's seeded order."""
        rng = self.rng("round", index)
        return [self.pool[i] for i in rng.sample(range(len(self.pool)), len(self.pool))]

    def describe_round(self, index: int) -> list:
        return [
            [dataset, template.name, algorithm, stream_seed]
            for dataset, template, algorithm, stream_seed in self._round_plan(index)
        ]

    def _config(self, dataset: str, template) -> GenerationConfig:
        bundle = self.bundles[dataset]
        return GenerationConfig(
            bundle.graph,
            template,
            bundle.groups,
            epsilon=PAPER_EPSILON,
            max_domain_values=self.active_shape.domain_cap,
        )

    def _request(self, dataset, template, algorithm, stream_seed):
        config = self._config(dataset, template)
        if algorithm == "onlineqgen":
            online = OnlineQGen(config, k=ONLINE_K, window=ONLINE_WINDOW)
            stream = random_instance_stream(
                config.template, online.lattice.domains, ONLINE_STREAM, seed=stream_seed
            )
            return online.run(stream)
        generator = RfQGen if algorithm == "rfqgen" else BiQGen
        return generator(config).run()

    def run_round(self, index: int, ctx) -> List[OpResult]:
        results = []
        # Generators publish their per-run counters into the ambient
        # registry; only traced runs report the ratios built from them.
        with collecting(self.metrics) if ctx.trace else contextlib.nullcontext():
            plan = self._round_plan(index)
            for position, (dataset, template, algorithm, stream_seed) in enumerate(plan):
                key = f"r{index}.{position}"
                with ctx.timed(key) as timing:
                    try:
                        result = self._request(dataset, template, algorithm, stream_seed)
                        error = None
                    except Exception as exc:  # every failure counts, never aborts
                        result, error = None, f"{type(exc).__name__}: {exc}"
                op = OpResult(key, timing.seconds, f"{dataset}/{template.name}/{algorithm}",
                              timing.factor, error=error, ok=error is None)
                if result is not None:
                    self._check(op, dataset, template, algorithm, result)
                results.append(op)
        return results

    def _check(self, op, dataset, template, algorithm, result) -> None:
        members = result.instances
        if result.truncated:
            op.fail("result truncated")
        config = self._config(dataset, template)
        limit = (
            ONLINE_K
            if algorithm == "onlineqgen"
            else gate.theorem2_bound(config, result.epsilon)
        )
        for problem in gate.check_front(members, result.epsilon, limit):
            op.fail(problem)
        if gate.sampled(self.seed, op.key):
            for problem in gate.reevaluate(members, config):
                op.fail(problem)
        op.digest = gate.digest(members, result.epsilon)

    def counters(self) -> Dict[str, int]:
        return self.metrics.counters()


class PaperSmall(PaperWorkload):
    name = "paper-small"
    tail_pct = 90
    shape = PaperShape(0.5, 5, 3, cross=True)


class PaperLarge(PaperWorkload):
    name = "paper-large"
    tail_pct = 75
    shape = PaperShape(2.0, 3, 2, cross=False)


# ---------------------------------------------------------------------- #
# serve-mix: batches through one warm BatchSession
# ---------------------------------------------------------------------- #

SERVE_SCALE = 0.5
SERVE_DOMAIN_CAP = 5
SERVE_TEMPLATES = 12
SERVE_SCENARIOS = 6
SERVE_DISTINCT = 28  # distinct requests per round
SERVE_BATCHES = 4  # batches per round; each adds one duplicate request
SERVE_EPSILONS = (0.05, 0.1, 0.2)
SERVE_ALGORITHMS = ("biqgen", "rfqgen")
SERVE_TENANTS = ("tenant-a", "tenant-b", "tenant-c")


class ServeMix(Workload):
    """Multi-tenant batches against one warm serving session.

    Each batch of requests is submitted only after the previous batch
    finished. A request's latency runs from batch submission to the
    moment its outcome is yielded, so it includes the time it waited
    behind the batch's earlier requests.
    """

    name = "serve-mix"
    tail_pct = 95

    def setup(self) -> None:
        scale = 0.1 if self.smoke else SERVE_SCALE
        bundle = dataset_bundle("lki", scale=scale, coverage_total=PAPER_COVERAGE)
        self.graph = bundle.graph
        generator = TemplateGenerator(bundle.schema, seed=POOL_SEED)
        self.templates = [
            generator.generate(
                TemplateSpec("person", size=size, num_range_vars=2, num_edge_vars=size - 1),
                name=f"serve-{i}",
            )
            for i, size in enumerate([1, 2] * (SERVE_TEMPLATES // 2))
        ]
        self.specs = ScenarioGenerator(
            self.graph, "person", ("gender", "major"), seed=POOL_SEED
        ).specs(SERVE_SCENARIOS)
        self.session = BatchSession(
            self.graph, bundle.groups, max_domain_values=SERVE_DOMAIN_CAP
        )
        self.default_groups = bundle.groups
        if self.smoke:
            self.layout = self._layout(6, 3)
        else:
            self.layout = self._layout(SERVE_DISTINCT, SERVE_BATCHES)
        self.fresh_systems: Dict[int, object] = {}

    def _layout(self, distinct: int, batches: int) -> list:
        """Fixed batches of (tenant, shape), shape = (template, ε, algorithm, scenario).

        A request's latency depends on what runs before it in its batch,
        so the batches themselves are part of the workload definition;
        each repeats one of its own requests, which dedup serves once.
        """
        rng = random.Random(f"{POOL_SEED}:{self.name}:layout")
        pool, seen = [], set()
        while len(pool) < distinct:
            shape = (
                rng.randrange(len(self.templates)),
                rng.choice(SERVE_EPSILONS),
                rng.choice(SERVE_ALGORITHMS),
                rng.choice(list(range(len(self.specs))) + [None]),
            )
            if shape not in seen:
                seen.add(shape)
                pool.append(shape)
        per_batch = distinct // batches
        layout = []
        for b in range(batches):
            members = pool[b * per_batch:(b + 1) * per_batch]
            members.append(rng.choice(members))
            layout.append([(rng.choice(SERVE_TENANTS), shape) for shape in members])
        return layout

    def _round_plan(self, index: int) -> list:
        """This round's batches, in seeded order, as (request id, tenant, shape)."""
        rng = self.rng("round", index)
        order = rng.sample(range(len(self.layout)), len(self.layout))
        return [
            [(f"r{index}b{b}q{j}", tenant, shape)
             for j, (tenant, shape) in enumerate(self.layout[i])]
            for b, i in enumerate(order)
        ]

    def describe_round(self, index: int) -> list:
        return [
            [[rid, tenant, list(shape)] for rid, tenant, shape in batch]
            for batch in self._round_plan(index)
        ]

    def _request(self, rid, tenant, shape):
        template, epsilon, algorithm, scenario = shape
        return self.session.request(
            self.templates[template],
            request_id=rid,
            algorithm=algorithm,
            epsilon=epsilon,
            client=tenant,
            group_system=None if scenario is None else self.specs[scenario],
        )

    def run_round(self, index: int, ctx) -> List[OpResult]:
        results = []
        for b, batch in enumerate(self._round_plan(index)):
            shapes = {rid: shape for rid, _, shape in batch}
            requests = [self._request(*entry) for entry in batch]
            outcomes = self.session.stream(requests)
            # Each resume of the stream produces the next outcome; a
            # request's latency is every resume up to and including its own.
            waited = 0.0
            served = []
            for position in range(len(requests)):
                unit = f"r{index}b{b}#{position}"
                with ctx.timed(unit, queued=waited) as timing:
                    try:
                        outcome, error = next(outcomes), None
                    except Exception as exc:  # a broken batch fails its remaining ops
                        outcome, error = None, f"{type(exc).__name__}: {exc}"
                queued, waited = waited, waited + timing.seconds
                if outcome is None:
                    results.extend(
                        OpResult(f"r{index}b{b}#{rest}", waited, ok=False, error=error)
                        for rest in range(position, len(requests))
                    )
                    break
                served.append((outcome, waited, queued, timing.factor))
            outcomes.close()
            for outcome, latency, queued, factor in served:
                rid = outcome.request.request_id
                label = "t{}/e{}/{}/s{}".format(*shapes[rid])
                op = OpResult(rid, latency, label, factor, queued=queued)
                self._check(op, outcome, shapes[rid])
                results.append(op)
        return results

    def _fresh_groups(self, scenario):
        if scenario is None:
            return self.default_groups
        if scenario not in self.fresh_systems:
            self.fresh_systems[scenario] = system_from_dict(
                self.specs[scenario], self.graph, clamp=True
            )
        return self.fresh_systems[scenario]

    def _check(self, op, outcome, shape) -> None:
        if not outcome.ok:
            op.fail(f"outcome not ok: {outcome.error}")
            return
        result = outcome.result
        if result.truncated:
            op.fail("result truncated")
        template, epsilon, _, scenario = shape
        config = GenerationConfig(
            self.graph, self.templates[template], self._fresh_groups(scenario),
            epsilon=epsilon, max_domain_values=SERVE_DOMAIN_CAP,
        )
        members = result.instances
        for problem in gate.check_front(
            members, epsilon, gate.theorem2_bound(config, epsilon)
        ):
            op.fail(problem)
        if gate.sampled(self.seed, op.key):
            for problem in gate.reevaluate(members, config):
                op.fail(problem)
        op.digest = gate.digest(members, epsilon)

    def counters(self) -> Dict[str, int]:
        return self.session.metrics.counters()


# ---------------------------------------------------------------------- #
# stream-churn: in-place updates of a live graph
# ---------------------------------------------------------------------- #

STREAM_NODES = 4000
STREAM_GRAPH_SEED = 7
STREAM_EPSILON = 0.1
STREAM_DOMAIN_CAP = 6
STREAM_LEDGER_SEEDING = 400
STREAM_ROUND = 10  # updates per round, then one generate(count=4)
STREAM_GENERATE = 4
STREAM_COLD_EVERY = 20

#: Overlapping rule-built groups: "na" and "eu" nest inside "western",
#: so one region rewrite can move two memberships at once.
#:
#: These rules, :func:`membership_graph` and :func:`membership_template`
#: reproduce the membership-churn inputs of
#: ``benchmarks/streaming_updates.py`` (same rules, same generator spec and
#: seed, so at 4,000 nodes the same graph). The suite owns its copies on
#: purpose: its inputs are part of the benchmark's definition and must not
#: move when that runner is edited or retired.
MEMBERSHIP_RULES = (
    GroupRule("na", {"region": "NA"}, 4, label="person"),
    GroupRule("eu", {"region": "EU"}, 4, label="person"),
    GroupRule("western", {"region": ("NA", "EU")}, 8, label="person"),
)


def membership_graph(nodes: int):
    """Sparse synthetic social graph (mean degree ≈ 1.5) with regions."""
    spec = SyntheticSpec(
        name="stream-churn",
        nodes=[
            NodePopulation(
                "person",
                nodes,
                {
                    "yearsOfExp": GaussInt(12, 6, 0, 40),
                    "score": UniformInt(0, 100),
                    "major": UniformChoice(("CS", "EE", "Business", "Design", "Math", "Bio")),
                    "region": UniformChoice(("NA", "EU", "AS", "SA", "AF", "OC")),
                },
            ),
        ],
        edges=[EdgePopulation("person", "knows", "person", out_degree=UniformInt(1, 2))],
    )
    return build_synthetic(spec, scale=1.0, seed=STREAM_GRAPH_SEED)


def membership_template() -> QueryTemplate:
    """One-hop template without a narrowing literal (large answers)."""
    return (
        QueryTemplate.builder("stream-region-knows")
        .node("u0", "person")
        .node("u1", "person")
        .fixed_edge("u1", "u0", "knows")
        .range_var("xl1", "u0", "yearsOfExp", Op.GE)
        .range_var("xl2", "u1", "score", Op.GE)
        .output("u0")
        .build()
    )


class StreamChurn(Workload):
    """Edge and attribute deltas applied to one live StreamingSession."""

    name = "stream-churn"
    tail_pct = 95

    def setup(self) -> None:
        nodes = 400 if self.smoke else STREAM_NODES
        self.graph = membership_graph(nodes)
        self.template = membership_template()
        groups = system_from_rules(self.graph, MEMBERSHIP_RULES, clamp=True)
        self.session = StreamingSession(
            self.graph, self.template, groups,
            epsilon=STREAM_EPSILON, max_domain_values=STREAM_DOMAIN_CAP,
        )
        # The ledger is part of the workload definition; the run's seed
        # draws the delta stream.
        self.session.generate(count=STREAM_LEDGER_SEEDING, seed=POOL_SEED)
        self.deltas = self._delta_stream(self.graph)
        self.drawn: List[GraphDelta] = []

    def _delta_stream(self, graph):
        return random_delta_stream(
            graph, count=10**9, seed=self.seed, edge_ops=3, attr_ops=2,
            attributes=["region", "score"],
        )

    def _deltas_for(self, index: int) -> List[GraphDelta]:
        # The stream tracks the evolving edge set itself, so deltas can be
        # drawn ahead of the updates that consume them.
        while len(self.drawn) < (index + 1) * STREAM_ROUND:
            self.drawn.append(next(self.deltas))
        return self.drawn[index * STREAM_ROUND:(index + 1) * STREAM_ROUND]

    def describe_round(self, index: int) -> list:
        return [
            [list(d.insert_edges), list(d.delete_edges), list(d.set_attributes)]
            for d in self._deltas_for(index)
        ] + [self._generate_seed(index)]

    def _generate_seed(self, index: int) -> int:
        return self.rng("generate", index).randrange(2**31)

    def run_round(self, index: int, ctx) -> List[OpResult]:
        deltas = self._deltas_for(index)
        results = []
        for i, delta in enumerate(deltas):
            step = index * STREAM_ROUND + i
            key = f"u{step}"
            with ctx.timed(key) as timing:
                try:
                    report, error = self.session.update(delta), None
                except Exception as exc:  # every failure counts, never aborts
                    report, error = None, f"{type(exc).__name__}: {exc}"
            op = OpResult(key, timing.seconds, "update", timing.factor,
                          ok=error is None, error=error)
            if report is not None:
                self._check(op, step, report)
            results.append(op)
        # Side work of the workload: timed into the round, not an operation.
        with ctx.timed(f"g{index}", kind="side"):
            self.session.generate(count=STREAM_GENERATE, seed=self._generate_seed(index))
        return results

    def _fresh_config(self, graph) -> GenerationConfig:
        return GenerationConfig(
            graph, self.template,
            system_from_rules(graph, MEMBERSHIP_RULES, clamp=True),
            epsilon=STREAM_EPSILON, max_domain_values=STREAM_DOMAIN_CAP,
        )

    def _check(self, op, step: int, report) -> None:
        session = self.session
        if report.recovered is not None:
            op.fail(f"update fell back to cold recovery ({report.recovered})")
        members = session.archive.instances()
        limit = gate.theorem2_bound(session.config, STREAM_EPSILON)
        for problem in gate.check_front(members, STREAM_EPSILON, limit):
            op.fail(problem)
        if gate.sampled(self.seed, op.key):
            for problem in gate.reevaluate(members, self._fresh_config(session.graph)):
                op.fail(problem)
        if (step + 1) % STREAM_COLD_EVERY == 0:
            copy = apply_delta(session.graph, GraphDelta())
            cold = gate.cold_rebuild(
                copy, self.template,
                system_from_rules(copy, MEMBERSHIP_RULES, clamp=True),
                session.ledger_instances(),
                epsilon=STREAM_EPSILON, max_domain_values=STREAM_DOMAIN_CAP,
            )
            if gate.archive_fingerprint(cold) != gate.archive_fingerprint(session.archive):
                op.fail("archive differs from a cold rebuild")
        op.digest = gate.digest(members, STREAM_EPSILON)

    def counters(self) -> Dict[str, int]:
        return self.session.metrics.counters()


WORKLOADS = {
    workload.name: workload
    for workload in (PaperSmall, PaperLarge, ServeMix, StreamChurn)
}
