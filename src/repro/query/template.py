"""Query templates ``Q(u_o)`` — parameterized subgraph queries.

A template is a connected labeled graph with a designated output node
``u_o``. Its nodes carry *fixed* literals (constants baked in) and
*parameterized* literals whose bound is a range variable; edges are either
fixed (always present) or guarded by a Boolean edge variable. Binding all
variables induces a :class:`~repro.query.instance.QueryInstance`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import QueryError, VariableError
from repro.query.predicates import Literal, Op
from repro.query.variables import EdgeVariable, RangeVariable

EdgeKey = Tuple[str, str, str]


@dataclass(frozen=True)
class TemplateNode:
    """A query node: id, label, and its fixed (non-parameterized) literals."""

    node_id: str
    label: str
    literals: Tuple[Literal, ...] = ()


@dataclass(frozen=True)
class TemplateEdge:
    """A fixed (always present) labeled query edge."""

    source: str
    target: str
    label: str = ""

    @property
    def key(self) -> EdgeKey:
        return (self.source, self.target, self.label)


class QueryTemplate:
    """A parameterized subgraph query ``Q(u_o)``.

    Construct with :meth:`builder` or the keyword constructor; templates are
    immutable once validated. The variable set ``X = X_L ∪ X_E`` is exposed
    in a deterministic order (insertion order of the underlying dicts) so
    instantiations can be compared positionally.

    Example:
        >>> t = (QueryTemplate.builder("talent")
        ...      .node("u0", "person", Literal("title", Op.EQ, "director"))
        ...      .node("u1", "person")
        ...      .fixed_edge("u1", "u0", "recommend")
        ...      .range_var("xl1", "u1", "yearsOfExp", Op.GE)
        ...      .output("u0")
        ...      .build())
        >>> sorted(t.variable_names())
        ['xl1']
    """

    def __init__(
        self,
        name: str,
        nodes: Sequence[TemplateNode],
        fixed_edges: Sequence[TemplateEdge],
        range_variables: Sequence[RangeVariable],
        edge_variables: Sequence[EdgeVariable],
        output_node: str,
    ) -> None:
        self.name = name
        self.nodes: Dict[str, TemplateNode] = {n.node_id: n for n in nodes}
        if len(self.nodes) != len(nodes):
            raise QueryError("duplicate query node ids in template")
        self.fixed_edges: Tuple[TemplateEdge, ...] = tuple(fixed_edges)
        self.range_variables: Dict[str, RangeVariable] = {v.name: v for v in range_variables}
        self.edge_variables: Dict[str, EdgeVariable] = {v.name: v for v in edge_variables}
        overlap = set(self.range_variables) & set(self.edge_variables)
        if overlap:
            raise QueryError(f"variable names reused across kinds: {sorted(overlap)}")
        self.output_node = output_node
        self._validate()
        # Spawn's per-template plans. The structure memo maps the
        # edge-variable bits (in ``edge_variables`` order) to the induced
        # ``(active nodes, edges)``; it holds at most 2^|X_E| entries.
        self._structures: Dict[Tuple[bool, ...], Tuple[FrozenSet[str], Tuple[EdgeKey, ...]]] = {}
        # Per node: its fixed literals and the range variables on it.
        self._literal_plan: Dict[str, Tuple[Tuple[Literal, ...], Tuple[RangeVariable, ...]]] = {
            node_id: (tuple(node.literals), tuple(self.range_variables_on(node_id)))
            for node_id, node in self.nodes.items()
        }
        # ``(name, refines_value)`` per variable, X_L then X_E.
        self._refinement_checks: Tuple[Tuple[str, Callable[[Any, Any], bool]], ...] = tuple(
            (name, self.variable(name).refines_value) for name in self.variable_names()
        )

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #

    def _validate(self) -> None:
        if self.output_node not in self.nodes:
            raise QueryError(f"output node {self.output_node!r} not in template")
        for edge in self.fixed_edges:
            for endpoint in (edge.source, edge.target):
                if endpoint not in self.nodes:
                    raise QueryError(f"fixed edge endpoint {endpoint!r} unknown")
        for var in self.range_variables.values():
            if var.node not in self.nodes:
                raise VariableError(f"range variable {var.name} on unknown node {var.node!r}")
        for var in self.edge_variables.values():
            for endpoint in (var.source, var.target):
                if endpoint not in self.nodes:
                    raise VariableError(f"edge variable {var.name} endpoint {endpoint!r} unknown")
        if len(self._component(self.all_edge_keys())) != len(self.nodes):
            raise QueryError("template must be connected when all edges are present")

    def _component(self, edges: Iterable[EdgeKey]) -> FrozenSet[str]:
        """Query nodes connected to the output node over ``edges``."""
        adjacency: Dict[str, Set[str]] = {n: set() for n in self.nodes}
        for source, target, _ in edges:
            adjacency[source].add(target)
            adjacency[target].add(source)
        seen = {self.output_node}
        frontier = deque([self.output_node])
        while frontier:
            current = frontier.popleft()
            for neighbor in adjacency[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return frozenset(seen)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def node(self, node_id: str) -> TemplateNode:
        """The template node with ``node_id``."""
        try:
            return self.nodes[node_id]
        except KeyError:
            raise QueryError(f"unknown query node {node_id!r}") from None

    def variables(self) -> Dict[str, object]:
        """All variables keyed by name: range variables first, then edge."""
        out: Dict[str, object] = {}
        out.update(self.range_variables)
        out.update(self.edge_variables)
        return out

    def variable(self, name: str):
        """Look up one variable by name."""
        if name in self.range_variables:
            return self.range_variables[name]
        if name in self.edge_variables:
            return self.edge_variables[name]
        raise VariableError(f"unknown variable {name!r}")

    def variable_names(self) -> Tuple[str, ...]:
        """Deterministic ordering of variable names (X_L then X_E)."""
        return tuple(self.range_variables) + tuple(self.edge_variables)

    @property
    def num_range_variables(self) -> int:
        """``|X_L|``."""
        return len(self.range_variables)

    @property
    def num_edge_variables(self) -> int:
        """``|X_E|``."""
        return len(self.edge_variables)

    @property
    def num_variables(self) -> int:
        """``|X|``."""
        return self.num_range_variables + self.num_edge_variables

    @property
    def size(self) -> int:
        """``|Q(u_o)|`` — total number of (fixed + optional) edges."""
        return len(self.fixed_edges) + len(self.edge_variables)

    def all_edge_keys(self) -> List[EdgeKey]:
        """Every edge key, fixed and optional, in deterministic order."""
        keys = [e.key for e in self.fixed_edges]
        keys.extend(v.edge_key for v in self.edge_variables.values())
        return keys

    def range_variables_on(self, node_id: str) -> List[RangeVariable]:
        """Range variables whose literal is attached to ``node_id``."""
        return [v for v in self.range_variables.values() if v.node == node_id]

    def diameter(self) -> int:
        """Diameter ``d`` of the template treating all edges as present.

        Used by template refinement: the d-hop neighborhood of the current
        matches bounds where any match of any query node can live.
        """
        adjacency: Dict[str, Set[str]] = {n: set() for n in self.nodes}
        for source, target, _ in self.all_edge_keys():
            adjacency[source].add(target)
            adjacency[target].add(source)
        best = 0
        for start in self.nodes:
            depth = {start: 0}
            frontier = deque([start])
            while frontier:
                current = frontier.popleft()
                for neighbor in adjacency[current]:
                    if neighbor not in depth:
                        depth[neighbor] = depth[current] + 1
                        frontier.append(neighbor)
            best = max(best, max(depth.values()))
        return best

    def is_bridge(self, edge_key: EdgeKey) -> bool:
        """True iff removing the edge disconnects the all-edges template."""
        kept = [key for key in self.all_edge_keys() if key != edge_key]
        return len(self._component(kept)) != len(self.nodes)

    def induced_structure(
        self, bits: Tuple[bool, ...]
    ) -> Tuple[FrozenSet[str], Tuple[EdgeKey, ...]]:
        """``(active nodes, edges)`` of an instance (paper Section II).

        ``bits`` says, per edge variable in :attr:`edge_variables` order,
        whether its edge is present. The active nodes are the output
        node's connected component over the fixed and present edges, and
        the edges those of them inside it. Memoized per ``bits``.
        """
        structure = self._structures.get(bits)
        if structure is None:
            edges = [e.key for e in self.fixed_edges]
            edges.extend(
                var.edge_key for var, bit in zip(self.edge_variables.values(), bits) if bit
            )
            active = self._component(edges)
            structure = (active, tuple(e for e in edges if e[0] in active and e[1] in active))
            self._structures[bits] = structure
        return structure

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueryTemplate({self.name!r}, |V_Q|={len(self.nodes)}, "
            f"|E_Q|={self.size}, |X_L|={self.num_range_variables}, "
            f"|X_E|={self.num_edge_variables})"
        )

    # ------------------------------------------------------------------ #
    # Builder
    # ------------------------------------------------------------------ #

    @classmethod
    def builder(cls, name: str = "template") -> "TemplateBuilder":
        """Start a fluent :class:`TemplateBuilder`."""
        return TemplateBuilder(name)


class TemplateBuilder:
    """Fluent construction of :class:`QueryTemplate` (see its docstring)."""

    def __init__(self, name: str) -> None:
        self._name = name
        self._nodes: List[TemplateNode] = []
        self._fixed_edges: List[TemplateEdge] = []
        self._range_vars: List[RangeVariable] = []
        self._edge_vars: List[EdgeVariable] = []
        self._output: Optional[str] = None

    def node(self, node_id: str, label: str, *literals: Literal) -> "TemplateBuilder":
        """Add a query node with optional fixed literals."""
        self._nodes.append(TemplateNode(node_id, label, tuple(literals)))
        return self

    def fixed_edge(self, source: str, target: str, label: str = "") -> "TemplateBuilder":
        """Add an always-present edge."""
        self._fixed_edges.append(TemplateEdge(source, target, label))
        return self

    def range_var(self, name: str, node: str, attribute: str, op: Op) -> "TemplateBuilder":
        """Add a parameterized literal ``node.attribute op <name>``."""
        self._range_vars.append(RangeVariable(name, node, attribute, op))
        return self

    def edge_var(self, name: str, source: str, target: str, label: str = "") -> "TemplateBuilder":
        """Add an optional edge guarded by Boolean variable ``name``."""
        self._edge_vars.append(EdgeVariable(name, source, target, label))
        return self

    def output(self, node_id: str) -> "TemplateBuilder":
        """Designate the output node ``u_o``."""
        self._output = node_id
        return self

    def build(self) -> QueryTemplate:
        """Validate and return the immutable template."""
        if self._output is None:
            raise QueryError("template requires an output node (call .output())")
        return QueryTemplate(
            self._name,
            self._nodes,
            self._fixed_edges,
            self._range_vars,
            self._edge_vars,
            self._output,
        )
