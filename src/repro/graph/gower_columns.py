"""Numeric attribute columns for the vectorised δ kernel.

An :class:`AttributedGraph` keeps one :class:`GowerColumn` per
``(label, attribute)`` (``graph.gower_column``), whose row ``i`` is the
node at bit ``i`` of the label's enumeration
(``graph.enumeration(label)``). Each cell carries exactly what the Gower
tuple distance reads:

* ``present`` — the node carries the attribute (value is not None);
* ``numeric`` — the value is an int/float but not a bool
  (:func:`repro.core.distance._is_number`);
* ``values`` — ``float(value)`` for numeric cells, else 0.0 (None until
  the column holds a numeric cell);
* ``codes`` — an interned id following ``==`` semantics (values equal
  under ``==`` and hash share a code, so ``1``, ``1.0`` and ``True`` do),
  ``MISSING`` for absent cells and ``EXOTIC`` for values the kernel cannot
  reproduce (unhashable values, float NaN, numbers ``float()`` rejects).

A column holds no reference to the graph: the graph passes its values
in when a column is built or patched, so a dropped graph copy takes its
columns with it. Columns build lazily, are patched in place by
``AttributedGraph._set_attribute_in_place`` and dropped wholesale by
``add_node``. The value → code table is kept only once a column is
patched (rebuilt then from the graph's values): high-cardinality columns
such as names would otherwise hold a dict entry per node. Codes are
reference-counted and recycled, so a long stream of attribute updates
keeps every column at most one code per node.

Template refinement snaps in-ball values through a column's
:class:`CodeTable` (``graph.code_table``): each code's rank in the
refinement order, built on first use from one value per code and
dropped whenever the column is patched. Requires numpy (the graph hands
out no columns without it).
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.query.variables import _value_key

#: Code of a cell whose node lacks the attribute.
MISSING = -1
#: Code of a value the kernel cannot reproduce; a selection containing
#: one falls back to the pure-Python paths.
EXOTIC = -2


def _cell(value: Any, intern: Callable[[Any], int]) -> Tuple[bool, float, int]:
    """A present cell's ``(numeric, float value, code)``: ``intern`` codes
    the value unless it is ``EXOTIC``."""
    numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
    number = 0.0
    code = EXOTIC
    try:
        if numeric:
            number = float(value)
        if number == number:  # NaN breaks both sorting and ``==``
            code = intern(value)
    except (TypeError, OverflowError):
        pass
    return numeric, number, code


class GowerColumn:
    """One ``(label, attribute)`` column (see the module docstring)."""

    __slots__ = (
        "present", "numeric", "values", "codes", "exotic", "odd", "table",
        "_code_of", "_interned", "_refs", "_free",
    )

    def __init__(self, raw: List[Any]) -> None:
        # One pass storing each cell as ``_store`` does, into lists that
        # become arrays once.
        size = len(raw)
        present = [False] * size
        numeric = [False] * size
        numbers = [0.0] * size
        codes = [MISSING] * size
        code_of: Dict[Any, int] = {}

        def intern(value: Any) -> int:
            return code_of.setdefault(value, len(code_of))

        exotic = odd = 0
        has_number = False
        for position, value in enumerate(raw):
            if value is None:
                continue
            is_number, number, code = _cell(value, intern)
            if code == EXOTIC:
                exotic += 1
            elif is_number:
                numbers[position] = number
                has_number = True
            if not isinstance(value, (int, float, str)):
                odd += 1
            present[position] = True
            numeric[position] = is_number
            codes[position] = code
        self.present = np.array(present, dtype=bool)
        self.numeric = np.array(numeric, dtype=bool)
        self.values: Optional[np.ndarray] = (
            np.array(numbers, dtype=np.float64) if has_number else None
        )
        self.codes = np.array(codes, dtype=np.int32)
        #: How many cells are ``EXOTIC`` (0 lets the kernel skip the check).
        self.exotic = exotic
        #: How many cells were stored with a value that is neither a number
        #: nor a string (never decremented, so it can only over-count):
        #: only such values can share a code yet differ in ``_value_key``.
        self.odd = odd
        #: The :class:`CodeTable`, built on first use, dropped by ``patch``.
        self.table: Optional[CodeTable] = None
        # No value → code table until a patch needs one (_reintern).
        self._code_of: Optional[Dict[Any, int]] = None
        self._interned: Optional[List[Any]] = None
        self._refs: Optional[List[int]] = None
        self._free: Optional[List[int]] = None

    def _store(self, position: int, value: Any) -> None:
        numeric, number, code = _cell(value, self._intern)
        if code == EXOTIC:
            self.exotic += 1
        elif numeric:
            if self.values is None:
                self.values = np.zeros(len(self.codes))
            self.values[position] = number
        if not isinstance(value, (int, float, str)):
            self.odd += 1
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
        self.table = None
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

    def code_table(self, read: Callable[[List[int]], List[Any]]) -> "CodeTable":
        """The column's :class:`CodeTable`; ``read(positions)`` lists the
        values at those positions (read only when the table is built)."""
        if self.table is None:
            self.table = CodeTable(self.codes, read, check=self.odd > 0)
        return self.table


class CodeTable:
    """A column's codes placed in the refinement order (``_value_key``).

    Keys are ranked over the column's sorted distinct keys: ``ranks[code]``
    is ``2·i + 1`` for the code's key at index ``i``, and :meth:`rank`
    gives any value ``2·i + 1`` when its key is at index ``i`` and ``2·i``
    when it falls between index ``i − 1`` and ``i``. Ranks therefore
    compare exactly as keys do, for in-column and outside values alike.
    ``values[code]`` is the code's value on its lowest-id node (None for
    unused codes). ``mixed`` flags the codes whose values differ in key
    (``1`` and ``numpy.int64(1)`` are ``==`` but key apart); it is None
    when there are none.
    """

    __slots__ = ("ranks", "keys", "values", "mixed", "_code_of")

    def __init__(self, codes: np.ndarray, read: Callable[[List[int]], List[Any]], check: bool) -> None:
        live, first = np.unique(codes, return_index=True)
        interned = live >= 0
        live, first = live[interned], first[interned]
        size = int(live[-1]) + 1 if live.size else 0
        self.values: List[Any] = [None] * size
        code_keys: Dict[int, Tuple[int, Any]] = {}
        for code, value in zip(live.tolist(), read(first.tolist())):
            self.values[code] = value
            code_keys[code] = _value_key(value)
        self.keys = sorted(set(code_keys.values()))
        index = {key: i for i, key in enumerate(self.keys)}
        self.ranks = np.zeros(size, dtype=np.int64)
        self.ranks[live] = [2 * index[code_keys[code]] + 1 for code in live.tolist()]
        self.mixed: Optional[np.ndarray] = None
        if check:
            positions = np.flatnonzero(codes >= 0).tolist()
            mixed = np.zeros(size, dtype=bool)
            for code, value in zip(codes[positions].tolist(), read(positions)):
                if _value_key(value) != code_keys[code]:
                    mixed[code] = True
            if mixed.any():
                self.mixed = mixed
        self._code_of: Optional[Dict[Any, int]] = None

    def rank(self, value: Any) -> Optional[int]:
        """The rank of any value's key; None for NaN, which orders nowhere."""
        key = _value_key(value)
        if key[1] != key[1]:
            return None
        i = bisect.bisect_left(self.keys, key)
        return 2 * i + 1 if i < len(self.keys) and self.keys[i] == key else 2 * i

    def code(self, value: Any) -> Optional[int]:
        """The code of the values ``==`` to ``value``; None when no cell
        holds one (the lookup table is built on first use)."""
        if self._code_of is None:
            self._code_of = {v: c for c, v in enumerate(self.values) if v is not None}
        return self._code_of.get(value)

    def snap(self, codes: np.ndarray, domain: Sequence[Any], direction: int) -> Optional[Set[Any]]:
        """Template refinement's snap of the values behind ``codes`` (no
        ``EXOTIC`` among them) into ``domain``; None when it cannot be
        done by code.

        Same result as :func:`repro.core.lattice._snap_to_domain` over the
        values. Equality (``direction`` 0) keeps the domain values ``==``
        to an in-ball code's values. Otherwise each distinct in-ball rank
        is searched among the domain's ranks, as that function bisects
        each value among the domain's keys; a code whose values differ in
        key, or a NaN in the domain, declines.
        """
        inside = np.zeros(len(self.values), dtype=bool)
        inside[codes] = True
        if direction == 0:
            return {v for v in domain if (code := self.code(v)) is not None and inside[code]}
        if self.mixed is not None and self.mixed[inside].any():
            return None
        ordered = sorted(domain, key=_value_key)
        ranks = [self.rank(v) for v in ordered]
        if None in ranks:
            return None
        # Index len(ordered) collects the values below (> 0) or above
        # (< 0) every domain value, which have no representative.
        if direction > 0:
            picked = np.searchsorted(ranks, self.ranks[inside], side="right") - 1
        else:
            picked = np.searchsorted(ranks, self.ranks[inside], side="left")
        hit = np.zeros(len(ordered) + 1, dtype=bool)
        hit[picked] = True
        return {ordered[i] for i in np.flatnonzero(hit[: len(ordered)]).tolist()}
