"""Active-domain management for range variables.

The instance space ``I(Q)`` has size ``2^{|X_E|} · Π |dom(x_l)|``; on real
graphs raw active domains can hold thousands of values, making enumeration
(and the lattice) needlessly deep. Following the paper's experiment setup
(``|I(Q)|`` between 800 and 1400), :class:`ActiveDomainIndex` optionally
*quantizes* each domain to at most ``max_values`` evenly spaced quantiles
of the raw active domain. Quantization preserves the refinement order and
always retains both endpoints, so the lattice's root/bottom instantiations
remain the most relaxed / most refined ones.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.graph.attributed_graph import AttributedGraph
from repro.query.template import QueryTemplate
from repro.query.variables import RangeVariable


def quantize(values: Sequence[Any], max_values: int) -> List[Any]:
    """Pick at most ``max_values`` evenly spaced entries, keeping endpoints.

    ``values`` must already be sorted; the result is a subsequence, so any
    order on the input is preserved.
    """
    if max_values < 2:
        raise ConfigurationError("max_values must be at least 2 to keep both endpoints")
    n = len(values)
    if n <= max_values:
        return list(values)
    picked = [values[round(i * (n - 1) / (max_values - 1))] for i in range(max_values)]
    # Rounding can collide on tiny domains; dedupe while preserving order.
    seen: set = set()
    out: List[Any] = []
    for value in picked:
        if value not in seen:
            seen.add(value)
            out.append(value)
    return out


class ActiveDomainIndex:
    """Per-range-variable value domains in *refinement order*.

    ``domain(var)`` returns the candidate constants for ``var`` ordered
    from most relaxed to most refined, so ``domain[0]`` is the root's
    binding and ``domain[-1]`` the bottom's. Lazily built and cached per
    variable.

    Args:
        graph: The data graph providing raw active domains.
        template: The template whose range variables are indexed.
        max_values: Optional cap quantizing each domain (None = raw).
    """

    def __init__(
        self,
        graph: AttributedGraph,
        template: QueryTemplate,
        max_values: Optional[int] = None,
    ) -> None:
        self._graph = graph
        self._template = template
        self._max_values = max_values
        self._domains: Dict[str, Tuple[Any, ...]] = {}
        self._overrides: Dict[str, Tuple[Any, ...]] = {}

    def domain(self, variable: str) -> Tuple[Any, ...]:
        """Values for ``variable``, most relaxed first.

        The raw active domain comes from
        :meth:`AttributedGraph.active_domain`.
        """
        if variable in self._overrides:
            return self._overrides[variable]
        if variable not in self._domains:
            var = self._template.variable(variable)
            if not isinstance(var, RangeVariable):
                raise ConfigurationError(f"{variable!r} is not a range variable")
            label = self._template.node(var.node).label
            raw = self._graph.active_domain(var.attribute, label)
            if self._max_values is not None:
                raw = quantize(raw, self._max_values)
            self._domains[variable] = var.refinement_sorted(tuple(raw))
        return self._domains[variable]

    def restrict(self, variable: str, values: Sequence[Any]) -> None:
        """Temporarily narrow a domain (template refinement, Section IV).

        The restriction keeps only listed values, in the variable's
        refinement order; it is undone with :meth:`release` when the
        exploration backtracks.
        """
        var = self._template.variable(variable)
        allowed = set(values)
        base = self._domains.get(variable)
        if base is None:
            base = self.domain(variable)
        self._overrides[variable] = tuple(v for v in base if v in allowed)

    def release(self, variable: str) -> None:
        """Undo a previous :meth:`restrict` for ``variable``."""
        self._overrides.pop(variable, None)

    def next_refined(self, variable: str, current: Any) -> Optional[Any]:
        """The next more-selective value after ``current``; None at the end.

        A wildcard current binding steps to the most relaxed value.
        """
        values = self.domain(variable)
        if not values:
            return None
        from repro.query.variables import WILDCARD

        if current == WILDCARD:
            return values[0]
        try:
            index = values.index(current)
        except ValueError:
            # Current binding fell outside a restricted domain: step to the
            # first listed value that strictly refines it, if any.
            var = self._template.variable(variable)
            for value in values:
                if var.refines_value(value, current) and value != current:
                    return value
            return None
        if index + 1 < len(values):
            return values[index + 1]
        return None

    def next_relaxed(self, variable: str, current: Any) -> Optional[Any]:
        """The next less-selective value before ``current``; None at the root."""
        values = self.domain(variable)
        if not values:
            return None
        from repro.query.variables import WILDCARD

        if current == WILDCARD:
            return None
        try:
            index = values.index(current)
        except ValueError:
            var = self._template.variable(variable)
            for value in reversed(values):
                if var.refines_value(current, value) and value != current:
                    return value
            return None
        if index > 0:
            return values[index - 1]
        return None

    def most_relaxed(self, variable: str) -> Optional[Any]:
        """The least selective value (root binding); None on empty domain."""
        values = self.domain(variable)
        return values[0] if values else None

    def most_refined(self, variable: str) -> Optional[Any]:
        """The most selective value (bottom binding); None on empty domain."""
        values = self.domain(variable)
        return values[-1] if values else None

    def instance_space_size(self) -> int:
        """``|I(Q)| = 2^{|X_E|} · Π |dom(x_l)|`` under current domains."""
        size = 2 ** self._template.num_edge_variables
        for name in self._template.range_variables:
            size *= max(1, len(self.domain(name)))
        return size
