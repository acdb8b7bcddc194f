"""Vectorised δ: the Gower pair-sum and relevance term over numpy columns.

:class:`GowerKernel` computes the two halves of max-sum diversity
(:class:`~repro.core.measures.DiversityMeasure`) for answer sets of one
label, reading the graph's :mod:`~repro.graph.gower_columns` instead of
per-node attribute dicts:

* the **exact** pair-sum — every pair ``i < j`` of the sorted answer in
  row-major order (row blocks of the upper triangle), per pair the
  attribute terms added in attribute order and divided by the attribute
  count;
* the **decomposed** pair-sum — per attribute the one-missing count plus
  the sorted-prefix-sum formula over range-scaled numerics or the
  value-count formula (``bincount`` of interned codes);
* the **relevance** sum over a lazily filled per-measure array.

Results are bitwise identical to the pure-Python paths of
:mod:`repro.core.measures` and :mod:`repro.core.distance`, which serve
caller-supplied distances and ``EXOTIC`` cells and are the test oracle.
Elementwise float operations are the same IEEE operations in the same
order, and every float reduction is a left-to-right running sum from
``0.0``, reproduced here by :func:`ordered_sum` (``np.cumsum`` over
``[0.0, …]``; ``np.sum`` sums pairwise and would round differently).
Integer reductions are exact in any order.

The code works one attribute at a time and in place where it can: numpy
keeps freed buffers under 1 KiB in a per-size cache, so every small
temporary that is alive at the same time as another of its size costs
memory for the rest of the process.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.relevance import ConstantRelevance

#: Pair-attribute terms per row block of the exact path (bounds its
#: temporaries; answers of up to 64 nodes fit one block).
_BLOCK_PAIRS = 1 << 16


def ordered_sum(terms: np.ndarray, start: float = 0.0) -> float:
    """``start + terms[0] + terms[1] + …`` evaluated left to right."""
    running = np.concatenate(([start], terms))
    return float(np.cumsum(running, out=running)[-1])


class GowerKernel:
    """δ terms of one measure over the graph's Gower columns.

    Args:
        graph: The data graph (owner of the columns).
        label: The answer label; every call takes an answer's positions
            in this label's enumeration (``graph.enumeration(label)``),
            ascending.
        attributes: The Gower kernel's attribute tuple, in its order.
        ranges: The kernel's :class:`~repro.core.distance.AttributeRanges`.
        relevance: ``r(u_o, v)``, called once per node.
    """

    def __init__(
        self,
        graph,
        label: str,
        attributes: Sequence[str],
        ranges,
        relevance: Callable[[int], float],
    ) -> None:
        self.graph = graph
        self.label = label
        self.attributes = tuple(attributes)
        self.ranges = ranges
        self.relevance = relevance
        self._relevance_order = None  # the enumeration the arrays follow
        self._relevance_values = np.zeros(0)
        self._relevance_filled = np.zeros(0, dtype=bool)

    # -- Relevance --------------------------------------------------------- #

    def relevance_sum(self, positions: np.ndarray) -> float:
        """``Σ r(u_o, v)`` over the answer, in sorted node order."""
        enumeration = self.graph.enumeration(self.label)
        if enumeration is not self._relevance_order:
            self._relevance_order = enumeration
            size = len(enumeration.ids)
            self._relevance_values = np.zeros(size)
            self._relevance_filled = np.zeros(size, dtype=bool)
            if type(self.relevance) is ConstantRelevance:  # one score for all
                self._relevance_values.fill(float(self.relevance.value))
                self._relevance_filled.fill(True)
        values = self._relevance_values
        if not self._relevance_filled[positions].all():
            missing = positions[~self._relevance_filled[positions]]
            ids = enumeration.ids
            for position in missing.tolist():
                values[position] = float(self.relevance(ids[position]))
            self._relevance_filled[missing] = True
        return ordered_sum(values[positions])

    # -- Pair sums --------------------------------------------------------- #

    def pair_sum(self, positions: np.ndarray, decomposed: bool) -> Optional[float]:
        """``Σ_{v<v'} d(v, v')`` over the answer; None if a value is exotic."""
        if not self.attributes:
            return 0.0
        columns = [self.graph.gower_column(self.label, name) for name in self.attributes]
        for column in columns:
            if column.exotic and (column.codes[positions] < -1).any():
                return None
        with np.errstate(all="ignore"):  # inf/NaN arithmetic, as Python floats do
            if decomposed:
                return self._decomposed(positions, columns)
            return self._exact(positions, columns)

    def _decomposed(self, positions: np.ndarray, columns) -> float:
        """Per attribute: one-missing pairs + numeric or categorical formula."""
        n = len(positions)
        total = 0.0
        for attribute, column in zip(self.attributes, columns):
            chosen = positions[column.present[positions]]
            count = len(chosen)
            contribution = float(count * (n - count))
            if count:
                spread = None
                if int(np.count_nonzero(column.numeric[chosen])) == count:
                    spread = self.ranges.spread(attribute)
                if spread is not None and spread > 0:
                    scaled = column.values[chosen]
                    scaled /= spread
                    scaled.sort()
                    scaled *= np.arange(1 - count, count, 2, dtype=np.float64)
                    contribution += ordered_sum(scaled) * 1.0
                else:
                    tallies = np.bincount(column.codes[chosen])
                    # Integers: exact in any summation order.
                    contribution += (count * count - int(np.dot(tallies, tallies))) / 2.0
            total += contribution
        return total / len(self.attributes)

    def _exact(self, positions: np.ndarray, columns) -> float:
        """Row-major sum of per-pair distances, one block of rows at a time.

        A block's attribute terms form one ``(k, pairs)`` array, and
        ``cumsum`` along the attributes adds them in attribute order.
        """
        n = len(positions)
        k = len(columns)
        codes = np.array([column.codes[positions] for column in columns])
        numeric = np.array([column.numeric[positions] for column in columns])
        # Like the pairwise path, read a spread only where a numeric pair
        # exists; a zero spread compares numbers with ``==`` (the codes).
        scaled_attributes = []
        for index, count in enumerate(np.count_nonzero(numeric, axis=1).tolist()):
            if count > 1:
                spread = self.ranges.spread(self.attributes[index])
                if spread != 0:
                    scaled_attributes.append((index, spread))
        if scaled_attributes:
            chosen = [index for index, _ in scaled_attributes]
            spreads = np.array([spread for _, spread in scaled_attributes])[:, None]
            values = np.array([columns[index].values[positions] for index in chosen])
            numeric = numeric[chosen]
        step = max(1, _BLOCK_PAIRS // (n * k))
        total = 0.0
        for start in range(0, n - 1, step):
            left, right = _upper_pairs(n, start, min(n - 1, start + step))
            terms = (codes[:, left] != codes[:, right]).astype(np.float64)
            if scaled_attributes:
                scaled = values[:, left] - values[:, right]
                np.abs(scaled, out=scaled)
                scaled /= spreads
                np.fmin(scaled, 1.0, out=scaled)  # ``min(1.0, x)``, NaN → 1.0 included
                pairs = numeric[:, left] & numeric[:, right]
                for row, index in enumerate(chosen):
                    np.copyto(terms[index], scaled[row], where=pairs[row])
            distances = np.cumsum(terms, axis=0, out=terms)[-1]
            distances /= k
            total = ordered_sum(distances, total)
        return total


def _upper_pairs(n: int, start: int, stop: int):
    """Index arrays of the pairs ``i < j < n`` with ``start ≤ i < stop``,
    in row-major order (the rows ``start:stop`` of ``np.triu_indices(n, 1)``)."""
    rows = np.arange(start, stop)
    lengths = n - 1 - rows
    left = np.repeat(rows, lengths)
    offsets = np.repeat(np.cumsum(lengths) - lengths - rows - 1, lengths)
    return left, np.arange(len(left)) - offsets
