"""Instantiations: immutable bindings of template variables.

An instantiation ``I`` maps every variable of a template to a constant or
to the wildcard ``'_'`` ("don't care"). Instantiations are hashable so they
key lattice nodes and memoized verification results.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, Mapping, Tuple

from repro.errors import VariableError
from repro.query.template import QueryTemplate
from repro.query.variables import WILDCARD


class Instantiation(Mapping[str, Any]):
    """An immutable variable binding for one template.

    Unbound variables default to the wildcard, so a partial instantiation
    (the paper's "initial query" case) is expressed by simply omitting
    bindings.

    Example:
        >>> inst = Instantiation(template, {"xl1": 10, "xe1": 1})  # doctest: +SKIP
        >>> inst["xl1"]  # doctest: +SKIP
        10
        >>> inst.bind(xl1=12)["xl1"]  # doctest: +SKIP
        12
    """

    __slots__ = ("_template", "_values", "_key")

    def __init__(self, template: QueryTemplate, bindings: Mapping[str, Any] | None = None) -> None:
        self._template = template
        values: Dict[str, Any] = {name: WILDCARD for name in template.variable_names()}
        for name, value in (bindings or {}).items():
            if name not in values:
                raise VariableError(f"unknown variable {name!r} for template {template.name!r}")
            values[name] = value
        self._values = values
        self._key: Tuple[Tuple[str, Any], ...] = tuple(sorted(values.items(), key=lambda kv: kv[0]))

    # -- Mapping protocol ------------------------------------------------ #

    def __getitem__(self, name: str) -> Any:
        try:
            return self._values[name]
        except KeyError:
            raise VariableError(f"unknown variable {name!r}") from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    # -- Identity --------------------------------------------------------- #

    def __hash__(self) -> int:
        return hash((self._template.name, self._key))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instantiation):
            return NotImplemented
        return self._template is other._template and self._key == other._key

    @property
    def template(self) -> QueryTemplate:
        """The template this instantiation binds."""
        return self._template

    @property
    def key(self) -> Tuple[Tuple[str, Any], ...]:
        """Canonical hashable form (sorted name/value pairs)."""
        return self._key

    # -- Derivation -------------------------------------------------------- #

    def bind(self, **changes: Any) -> "Instantiation":
        """Return a copy with some variables re-bound."""
        merged = dict(self._values)
        for name, value in changes.items():
            if name not in merged:
                raise VariableError(f"unknown variable {name!r}")
            merged[name] = value
        return Instantiation(self._template, merged)

    def with_value(self, name: str, value: Any) -> "Instantiation":
        """Return a copy with one variable re-bound (positional API).

        Equal to ``bind(**{name: value})``. The other bindings are already
        valid and the key already sorted, so neither is redone: the child
        key follows this key's name order.
        """
        values = dict(self._values)
        if name not in values:
            raise VariableError(f"unknown variable {name!r}")
        values[name] = value
        child = Instantiation.__new__(Instantiation)
        child._template = self._template
        child._values = values
        child._key = tuple([(key, values[key]) for key, _ in self._key])
        return child

    def is_total(self) -> bool:
        """True iff no variable is bound to the wildcard."""
        return all(value != WILDCARD for value in self._values.values())

    def wildcard_variables(self) -> Tuple[str, ...]:
        """Names of variables still bound to the wildcard."""
        return tuple(name for name, value in self._values.items() if value == WILDCARD)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{k}={v!r}" for k, v in self._key)
        return f"Instantiation({parts})"
