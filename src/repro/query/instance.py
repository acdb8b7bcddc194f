"""Query instances: the concrete subgraph queries induced by instantiations.

Per the paper's Section II, an instance keeps (a) every literal whose range
variable is bound to a constant (wildcard literals are dropped), and (b)
exactly the edges — fixed edges plus optional edges bound to ``1`` — that
lie in the connected component of the output node ``u_o``. Query nodes
outside that component are dropped along with their literals (the paper's
Spawn does the same for bridge removals), so an instance is always a
connected query rooted at ``u_o``.

The active nodes and edges depend only on the edge-variable bits, so the
template memoizes them (:meth:`~repro.query.template.QueryTemplate.induced_structure`);
an instance only binds its range variables' literals.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.query.predicates import Literal
from repro.query.instantiation import Instantiation
from repro.query.template import QueryTemplate
from repro.query.variables import WILDCARD


class QueryInstance:
    """A fully concrete subgraph query derived from (template, instantiation).

    Attributes:
        template: The originating template.
        instantiation: The variable binding that induced this instance.
        active_nodes: Query-node ids in ``u_o``'s connected component.
        edges: Induced edge keys ``(source, target, label)``.
        literals: Mapping node id -> tuple of concrete literals.
    """

    __slots__ = ("template", "instantiation", "active_nodes", "edges", "literals")

    def __init__(self, instantiation: Instantiation) -> None:
        template = instantiation.template
        self.template: QueryTemplate = template
        self.instantiation = instantiation
        values = instantiation._values
        bits = tuple(
            (value := values[name]) != WILDCARD and int(value) == 1
            for name in template.edge_variables
        )
        self.active_nodes, self.edges = template.induced_structure(bits)
        plan = template._literal_plan
        literals: Dict[str, Tuple[Literal, ...]] = {}
        for node_id in self.active_nodes:
            fixed, variables = plan[node_id]
            for var in variables:
                value = values[var.name]
                if value != WILDCARD:
                    fixed += (Literal(var.attribute, var.op, value),)
            literals[node_id] = fixed
        self.literals = literals

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #

    @property
    def output_node(self) -> str:
        """The designated output node ``u_o``."""
        return self.template.output_node

    @property
    def num_edges(self) -> int:
        """Number of induced query edges."""
        return len(self.edges)

    def literals_on(self, node_id: str) -> Tuple[Literal, ...]:
        """Concrete literals attached to one active query node."""
        return self.literals.get(node_id, ())

    def node_label(self, node_id: str) -> str:
        """Label of a query node."""
        return self.template.node(node_id).label

    def adjacency(self) -> Dict[str, List[Tuple[str, str, bool]]]:
        """Undirected adjacency over active nodes.

        Returns, per node, a list of ``(neighbor, edge_label, outgoing)``
        triples — the traversal structure the matcher walks.
        """
        adj: Dict[str, List[Tuple[str, str, bool]]] = {n: [] for n in self.active_nodes}
        for source, target, label in self.edges:
            adj[source].append((target, label, True))
            adj[target].append((source, label, False))
        return adj

    # -- Identity --------------------------------------------------------- #

    def __hash__(self) -> int:
        return hash(self.instantiation)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryInstance):
            return NotImplemented
        return self.instantiation == other.instantiation

    def describe(self) -> str:
        """Human-readable multi-line rendering (used by examples/case study)."""
        lines = [f"instance of {self.template.name!r} (output {self.output_node}):"]
        for node_id in sorted(self.active_nodes):
            label = self.node_label(node_id)
            preds = ", ".join(str(l) for l in self.literals_on(node_id)) or "true"
            marker = "*" if node_id == self.output_node else " "
            lines.append(f"  {marker}{node_id}:{label} [{preds}]")
        for source, target, label in sorted(self.edges):
            lines.append(f"   ({source})-[{label}]->({target})")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bound = {k: v for k, v in self.instantiation.items() if v != WILDCARD}
        return f"QueryInstance({self.template.name!r}, {bound})"
