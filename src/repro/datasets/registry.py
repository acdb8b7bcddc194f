"""Dataset registry: one entry point for experiments, benches and the CLI."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.datasets.schema import GraphSchema
from repro.errors import DatasetError
from repro.graph.attributed_graph import AttributedGraph
from repro.groups.system import GroupSystem
from repro.query.template import QueryTemplate


@dataclass
class DatasetBundle:
    """Everything one experiment needs from a dataset.

    Attributes:
        name: Dataset name (``"DBP"`` / ``"LKI"`` / ``"Cite"``).
        graph: The attributed graph.
        schema: The label/attribute/edge vocabulary (template generation).
        groups: Default disjoint groups with coverage constraints, built
            from attribute rules (they repair membership under churn).
        template: The dataset's canonical query template.
    """

    name: str
    graph: AttributedGraph
    schema: GraphSchema
    groups: GroupSystem
    template: QueryTemplate


def _builders() -> Dict[str, Callable[..., DatasetBundle]]:
    # Imported lazily to avoid import cycles (the dataset modules import
    # DatasetBundle from here).
    from repro.datasets.cite import cite_bundle
    from repro.datasets.dbp import dbp_bundle
    from repro.datasets.lki import lki_bundle

    return {"dbp": dbp_bundle, "lki": lki_bundle, "cite": cite_bundle}


def dataset_names() -> Tuple[str, ...]:
    """The registered dataset keys."""
    return tuple(_builders())


def dataset_bundle(
    name: str,
    scale: float = 1.0,
    seed: int | None = None,
    num_groups: int = 2,
    coverage_total: int = 40,
) -> DatasetBundle:
    """Build a dataset bundle by name.

    Args:
        name: ``"dbp"``, ``"lki"`` or ``"cite"`` (case-insensitive).
        scale: Size multiplier (1.0 ≈ 2k nodes, laptop-friendly).
        seed: RNG seed; None uses each dataset's stable default.
        num_groups: Number of groups (where the dataset supports it).
        coverage_total: Total coverage constraint ``C`` split across groups.
    """
    builders = _builders()
    key = name.lower()
    if key not in builders:
        raise DatasetError(f"unknown dataset {name!r}; known: {sorted(builders)}")
    kwargs = dict(scale=scale, num_groups=num_groups, coverage_total=coverage_total)
    if seed is not None:
        kwargs["seed"] = seed
    return builders[key](**kwargs)
