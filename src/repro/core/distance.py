"""Pairwise node-dissimilarity kernels ``d(v, v') ∈ [0, 1]``.

The paper instantiates ``d`` as the normalized edit distance between the
attribute tuples ``T(v)`` and ``T(v')`` [25]. We provide:

* :func:`levenshtein` / :func:`normalized_levenshtein` — classic string
  edit distance;
* :class:`EditTupleDistance` — exact per-attribute distance (edit distance
  on strings, range-normalized difference on numbers), averaged over the
  attribute union; the ground-truth kernel, O(len²) per string pair;
* :class:`GowerTupleDistance` — the standard Gower simplification
  (categorical mismatch = 1), which admits an O(n log n) *sum over all
  pairs* decomposition used by the fast diversity path
  (:mod:`repro.core.measures`).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.graph.attributed_graph import AttributedGraph


def levenshtein(a: str, b: str) -> int:
    """Classic Levenshtein edit distance (two-row dynamic program)."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + cost))
        previous = current
    return previous[-1]


def normalized_levenshtein(a: str, b: str) -> float:
    """Levenshtein distance divided by the longer length (``[0, 1]``)."""
    longest = max(len(a), len(b))
    if longest == 0:
        return 0.0
    return levenshtein(a, b) / longest


class AttributeRanges:
    """Per-attribute numeric ranges over one node label (for normalization)."""

    def __init__(self, graph: AttributedGraph, label: str) -> None:
        self._graph = graph
        self._label = label
        self._ranges: Dict[str, Tuple[float, float]] = {}

    def range_of(self, attribute: str) -> Tuple[float, float]:
        """(min, max) of numeric values of ``attribute``; (0, 0) if none."""
        cached = self._ranges.get(attribute)
        if cached is None:
            values = [
                v
                for v in self._graph.active_domain(attribute, self._label)
                if isinstance(v, (int, float)) and not isinstance(v, bool)
            ]
            cached = (min(values), max(values)) if values else (0.0, 0.0)
            self._ranges[attribute] = cached
        return cached

    def spread(self, attribute: str) -> float:
        lo, hi = self.range_of(attribute)
        return float(hi - lo)

    def drop(self, attributes: Iterable[str]) -> int:
        """Forget cached ranges for ``attributes`` (streaming repair).

        After an in-place attribute update the cached (min, max) of a
        touched attribute may be stale; dropping it makes the next
        :meth:`range_of` re-scan the active domain. Returns how many live
        entries were dropped.
        """
        dropped = 0
        for name in attributes:
            if self._ranges.pop(name, None) is not None:
                dropped += 1
        return dropped


class _TupleDistanceBase:
    """Shared plumbing: attribute selection, per-pair caching."""

    def __init__(
        self,
        graph: AttributedGraph,
        label: str,
        attributes: Optional[Sequence[str]] = None,
    ) -> None:
        self.graph = graph
        self.label = label
        if attributes is None:
            attributes = graph.label_attribute_names(label)
        self.attributes: Tuple[str, ...] = tuple(attributes)
        self.ranges = AttributeRanges(graph, label)
        self._cache: Dict[Tuple[int, int], float] = {}

    def invalidate_nodes(self, nodes: Iterable[int]) -> int:
        """Drop cached pair distances involving ``nodes`` (streaming repair).

        A node's attribute update stale-ifies exactly the cached pairs it
        participates in; every other pair's distance is unchanged (given
        the normalizing spreads are unchanged — when they are not, the
        caller must rebuild the kernel instead). Returns the number of
        dropped pairs.
        """
        touched = set(nodes)
        stale = [key for key in self._cache if key[0] in touched or key[1] in touched]
        for key in stale:
            del self._cache[key]
        return len(stale)

    def __call__(self, v: int, w: int) -> float:
        """Cached distance between two node ids."""
        if v == w:
            return 0.0
        key = (v, w) if v < w else (w, v)
        cached = self._cache.get(key)
        if cached is None:
            cached = self._compute(v, w)
            self._cache[key] = cached
        return cached

    def _compute(self, v: int, w: int) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def _attribute_distance_numeric(self, attribute: str, a: Any, b: Any) -> float:
        spread = self.ranges.spread(attribute)
        if spread == 0:
            return 0.0 if a == b else 1.0
        return min(1.0, abs(float(a) - float(b)) / spread)


class EditTupleDistance(_TupleDistanceBase):
    """Exact tuple distance: edit distance on strings, range-normalized on
    numbers, averaged over the configured attributes.

    Missing-value convention: both missing → 0 (identically unknown);
    exactly one missing → 1 (maximally different).
    """

    def _compute(self, v: int, w: int) -> float:
        if not self.attributes:
            return 0.0
        a_attrs = self.graph.attributes(v)
        b_attrs = self.graph.attributes(w)
        total = 0.0
        for attribute in self.attributes:
            a = a_attrs.get(attribute)
            b = b_attrs.get(attribute)
            if a is None and b is None:
                continue
            if a is None or b is None:
                total += 1.0
            elif _is_number(a) and _is_number(b):
                total += self._attribute_distance_numeric(attribute, a, b)
            else:
                total += normalized_levenshtein(str(a), str(b))
        return total / len(self.attributes)


class GowerTupleDistance(_TupleDistanceBase):
    """Gower distance: numeric attributes range-normalized, categorical
    attributes contribute 0/1 on exact (mis)match.

    Equals :class:`EditTupleDistance` whenever categorical values are either
    identical or share no characters; in general it upper-bounds the edit
    variant on categorical attributes. Its decomposable pair-sum makes the
    O(n log n) diversity path possible.
    """

    def _compute(self, v: int, w: int) -> float:
        if not self.attributes:
            return 0.0
        a_attrs = self.graph.attributes(v)
        b_attrs = self.graph.attributes(w)
        total = 0.0
        for attribute in self.attributes:
            a = a_attrs.get(attribute)
            b = b_attrs.get(attribute)
            if a is None and b is None:
                continue
            if a is None or b is None:
                total += 1.0
            elif _is_number(a) and _is_number(b):
                total += self._attribute_distance_numeric(attribute, a, b)
            else:
                total += 0.0 if a == b else 1.0
        return total / len(self.attributes)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def pair_sum_numeric(values: Sequence[float]) -> float:
    """``Σ_{i<j} |x_i − x_j|`` in O(n log n) via sorted prefix sums.

    With ``x`` sorted ascending, each ``x_k`` appears as the larger element
    of ``k`` pairs and the smaller of ``n−1−k``, so the sum telescopes to
    ``Σ_k x_k · (2k − n + 1)``.

    The running sum is explicit and left to right: ``sum()`` over floats
    is compensated on Python ≥ 3.12 and would round differently.
    """
    ordered = sorted(values)
    n = len(ordered)
    total = 0.0
    for k, x in enumerate(ordered):
        total += x * (2 * k - n + 1)
    return total


def pair_sum_categorical(values: Sequence[Any]) -> float:
    """``Σ_{i<j} 1[x_i ≠ x_j]`` via value counts: ``(n² − Σ m_c²)/2``."""
    counts: Dict[Any, int] = {}
    for value in values:
        counts[value] = counts.get(value, 0) + 1
    return pair_sum_categorical_counts(len(values), counts)


def pair_sum_categorical_counts(total: int, counts: Mapping[Any, int]) -> float:
    """:func:`pair_sum_categorical` from pre-maintained value counts.

    The arithmetic is all-integer until the final halving, so the result
    is exactly :func:`pair_sum_categorical` of the multiset the counts
    describe regardless of dict iteration order — which is what lets the
    delta-scoring engine maintain the counts incrementally and still
    reproduce the from-scratch value bit-for-bit.
    """
    return (total * total - sum(m * m for m in counts.values())) / 2.0
