"""FairSQG — subgraph query generation with fairness and diversity
constraints.

A from-scratch reproduction of *"Subgraph Query Generation with Fairness
and Diversity Constraints"* (Ma, Guan, Wang, Chang, Wu — ICDE 2022).

Quickstart::

    from repro import dataset_bundle, GenerationConfig, BiQGen

    bundle = dataset_bundle("lki", scale=0.2, coverage_total=10)
    config = GenerationConfig(bundle.graph, bundle.template, bundle.groups,
                              epsilon=0.1)
    result = BiQGen(config).run()
    for point in result.instances:
        print(point.delta, point.coverage, point.instance.describe())

See ``examples/`` for full scenarios and ``benchmarks/`` for the
paper-figure reproductions.
"""

from repro.core import (
    BiQGen,
    CBM,
    EnumQGen,
    EpsilonParetoArchive,
    GenerationConfig,
    GenerationResult,
    InstanceEvaluator,
    Kungs,
    OnlineQGen,
    RfQGen,
    epsilon_indicator,
    normalized_epsilon_indicator,
    r_indicator,
)
from repro.core.evaluator import EvaluatedInstance
from repro.core.explain import diff_instances, explain_suggestion
from repro.core.measures import CoverageMeasure, DiversityMeasure
from repro.core.multi_output import MultiOutputQGen
from repro.core.pagerank import PageRankRelevance, pagerank
from repro.core.preferences import rank_by_preference, select_by_preference
from repro.datasets import dataset_bundle, dataset_names
from repro.graph import AttributedGraph, GraphBuilder
from repro.groups import (
    GroupRule,
    GroupSet,
    GroupSystem,
    NodeGroup,
    system_from_dict,
    system_from_rules,
)
from repro.query import Instantiation, Literal, Op, QueryInstance, QueryTemplate
from repro.runtime import (
    Budget,
    CancellationToken,
    FaultInjector,
    FaultKind,
    FaultSpec,
    TruncationReason,
)
from repro.service import (
    BatchScheduler,
    GenerationRequest,
    GraphContext,
    RequestOutcome,
)
from repro.session import BatchSession, FairSQGSession
from repro.matching.delta import GraphDelta
from repro.streaming import StreamingSession, UpdateReport
from repro.workload import (
    TemplateGenerator,
    TemplateSpec,
    random_delta_stream,
    requests_from_templates,
)

__version__ = "1.0.0"

__all__ = [
    "AttributedGraph",
    "GraphBuilder",
    "QueryTemplate",
    "QueryInstance",
    "Instantiation",
    "Literal",
    "Op",
    "NodeGroup",
    "GroupRule",
    "GroupSet",
    "GroupSystem",
    "system_from_dict",
    "system_from_rules",
    "GenerationConfig",
    "GenerationResult",
    "InstanceEvaluator",
    "EvaluatedInstance",
    "DiversityMeasure",
    "CoverageMeasure",
    "EpsilonParetoArchive",
    "EnumQGen",
    "Kungs",
    "CBM",
    "RfQGen",
    "BiQGen",
    "OnlineQGen",
    "epsilon_indicator",
    "normalized_epsilon_indicator",
    "r_indicator",
    "Budget",
    "CancellationToken",
    "TruncationReason",
    "FaultInjector",
    "FaultSpec",
    "FaultKind",
    "MultiOutputQGen",
    "PageRankRelevance",
    "pagerank",
    "diff_instances",
    "explain_suggestion",
    "select_by_preference",
    "rank_by_preference",
    "FairSQGSession",
    "BatchSession",
    "GraphContext",
    "BatchScheduler",
    "GenerationRequest",
    "RequestOutcome",
    "dataset_bundle",
    "dataset_names",
    "TemplateGenerator",
    "TemplateSpec",
    "requests_from_templates",
    "GraphDelta",
    "StreamingSession",
    "UpdateReport",
    "random_delta_stream",
    "__version__",
]
