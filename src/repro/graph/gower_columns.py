"""Numeric attribute columns for the vectorised δ kernel.

:class:`GowerColumns` is a companion of one :class:`AttributedGraph`
(``graph.gower_positions`` / ``gower_order`` / ``gower_column``): per
label the sorted node-id order, and per ``(label, attribute)`` a
:class:`GowerColumn` aligned with that order. Each cell carries exactly
what the Gower tuple distance reads:

* ``present`` — the node carries the attribute (value is not None);
* ``numeric`` — the value is an int/float but not a bool
  (:func:`repro.core.distance._is_number`);
* ``values`` — ``float(value)`` for numeric cells, else 0.0 (None until
  the column holds a numeric cell);
* ``codes`` — an interned id following ``==`` semantics (values equal
  under ``==`` and hash share a code, so ``1``, ``1.0`` and ``True`` do),
  ``MISSING`` for absent cells and ``EXOTIC`` for values the kernel cannot
  reproduce (unhashable values, float NaN, numbers ``float()`` rejects).

The structures hold no reference to the graph: the graph passes its node
table in when a column is built or patched, so a dropped graph copy
takes its columns with it. Columns build lazily, are patched in place by
``AttributedGraph._set_attribute_in_place`` and dropped wholesale by
``add_node``. The value → code table is kept only once a column is
patched (rebuilt then from the graph's values): high-cardinality columns
such as names would otherwise hold a dict entry per node. Codes are
reference-counted and recycled, so a long stream of attribute updates
keeps every column at most one code per node. Requires numpy (the graph
hands out no columns without it).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

#: Code of a cell whose node lacks the attribute.
MISSING = -1
#: Code of a value the kernel cannot reproduce; a selection containing
#: one falls back to the pure-Python paths.
EXOTIC = -2


class GowerColumn:
    """One ``(label, attribute)`` column (see the module docstring)."""

    __slots__ = ("present", "numeric", "values", "codes", "exotic", "_code_of", "_interned", "_refs", "_free")

    def __init__(self, raw: List[Any]) -> None:
        size = len(raw)
        self.present = np.zeros(size, dtype=bool)
        self.numeric = np.zeros(size, dtype=bool)
        self.values: Optional[np.ndarray] = None
        self.codes = np.full(size, MISSING, dtype=np.int32)
        #: How many cells are ``EXOTIC`` (0 lets the kernel skip the check).
        self.exotic = 0
        self._code_of: Optional[Dict[Any, int]] = {}
        self._interned: List[Any] = []
        self._refs: List[int] = []
        self._free: List[int] = []
        for position, value in enumerate(raw):
            if value is not None:
                self._store(position, value)
        # No value → code table until a patch needs one (_reintern).
        self._code_of = self._interned = self._refs = self._free = None

    def _store(self, position: int, value: Any) -> None:
        numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
        number = 0.0
        code = EXOTIC
        try:
            if numeric:
                number = float(value)
            if number == number:  # NaN breaks both sorting and ``==``
                code = self._intern(value)
        except (TypeError, OverflowError):
            pass
        if code == EXOTIC:
            self.exotic += 1
        elif numeric:
            if self.values is None:
                self.values = np.zeros(len(self.codes))
            self.values[position] = number
        self.present[position] = True
        self.numeric[position] = numeric
        self.codes[position] = code

    def _intern(self, value: Any) -> int:
        code = self._code_of.get(value)
        if code is not None:
            self._refs[code] += 1
            return code
        if self._free:
            code = self._free.pop()
            self._interned[code] = value
            self._refs[code] = 1
        else:
            code = len(self._interned)
            self._interned.append(value)
            self._refs.append(1)
        self._code_of[value] = code
        return code

    def _reintern(self, raw: List[Any], skip: int) -> None:
        """Rebuild the value → code table from the current cell values
        (all but ``skip``, the cell being patched)."""
        size = int(self.codes.max()) + 1 if len(self.codes) else 0
        self._code_of = {}
        self._interned = [None] * size
        self._refs = [0] * size
        for position, code in enumerate(self.codes.tolist()):
            if code >= 0 and position != skip:
                value = raw[position]
                self._code_of[value] = code
                self._interned[code] = value
                self._refs[code] += 1
        self._free = [code for code in range(size) if not self._refs[code]]

    def patch(self, position: int, value: Any, raw: Callable[[], List[Any]]) -> None:
        """Rewrite one cell after an in-place attribute update; ``raw()``
        lists the column's current values (read only by the first patch)."""
        code = int(self.codes[position])
        if code == EXOTIC:
            self.exotic -= 1
        if self._code_of is None:
            self._reintern(raw(), skip=position)
        elif code >= 0:
            self._refs[code] -= 1
            if self._refs[code] == 0:
                del self._code_of[self._interned[code]]
                self._interned[code] = None
                self._free.append(code)
        self.present[position] = False
        self.numeric[position] = False
        self.codes[position] = MISSING
        if self.values is not None:
            self.values[position] = 0.0
        if value is not None:
            self._store(position, value)


class GowerColumns:
    """The per-label orders and per-(label, attribute) columns of a graph."""

    __slots__ = ("_orders", "_columns")

    def __init__(self) -> None:
        self._orders: Dict[str, np.ndarray] = {}
        self._columns: Dict[Tuple[str, str], GowerColumn] = {}

    def positions(self, label: str, ids: Set[int], nodes: List[int]) -> Optional[np.ndarray]:
        """Positions of the sorted ``nodes`` in the label order, or None
        when some node is not in ``ids`` (unknown, or another label)."""
        if not ids.issuperset(nodes):
            return None
        try:
            order = self.order(label, ids)
        except (OverflowError, TypeError, ValueError):  # ids int64 cannot hold
            return None
        return np.searchsorted(order, nodes)

    def order(self, label: str, ids: Set[int]) -> np.ndarray:
        """Sorted node ids of ``label`` (``ids`` is the label's id set)."""
        order = self._orders.get(label)
        if order is None:
            order = self._orders[label] = np.array(sorted(ids), dtype=np.int64)
        return order

    def column(self, label: str, attribute: str, ids: Set[int], nodes: Mapping[int, Any]) -> GowerColumn:
        """The (lazily built) column; ``nodes`` maps id → :class:`Node`."""
        key = (label, attribute)
        column = self._columns.get(key)
        if column is None:
            column = self._columns[key] = GowerColumn(self._raw(label, attribute, ids, nodes))
        return column

    def _raw(self, label: str, attribute: str, ids: Set[int], nodes: Mapping[int, Any]) -> List[Any]:
        return [nodes[node_id].attributes.get(attribute) for node_id in self.order(label, ids).tolist()]

    def patch(
        self,
        label: str,
        attribute: str,
        node_id: int,
        value: Optional[Any],
        ids: Set[int],
        nodes: Mapping[int, Any],
    ) -> None:
        """Repair one cell of a built column (no-op for unbuilt ones)."""
        column = self._columns.get((label, attribute))
        if column is not None:
            position = int(np.searchsorted(self._orders[label], node_id))
            column.patch(position, value, lambda: self._raw(label, attribute, ids, nodes))
