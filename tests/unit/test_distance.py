"""Unit tests for the distance kernels."""

import pytest

from repro.core.distance import (
    EditTupleDistance,
    GowerTupleDistance,
    levenshtein,
    normalized_levenshtein,
    pair_sum_categorical,
    pair_sum_numeric,
)
from repro.graph.builder import GraphBuilder


class TestLevenshtein:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("", "", 0),
            ("abc", "abc", 0),
            ("abc", "", 3),
            ("", "xy", 2),
            ("kitten", "sitting", 3),
            ("flaw", "lawn", 2),
        ],
    )
    def test_distance(self, a, b, expected):
        assert levenshtein(a, b) == expected

    def test_symmetry(self):
        assert levenshtein("abcde", "xc") == levenshtein("xc", "abcde")

    def test_normalized_range(self):
        assert normalized_levenshtein("", "") == 0.0
        assert normalized_levenshtein("abc", "xyz") == 1.0
        assert 0 < normalized_levenshtein("abc", "abd") < 1


class TestPairSums:
    def test_numeric_matches_bruteforce(self):
        values = [0.1, 0.9, 0.5, 0.3, 0.3]
        brute = sum(
            abs(values[i] - values[j])
            for i in range(len(values))
            for j in range(i + 1, len(values))
        )
        assert pair_sum_numeric(values) == pytest.approx(brute)

    def test_numeric_empty_and_single(self):
        assert pair_sum_numeric([]) == 0
        assert pair_sum_numeric([3.0]) == 0

    def test_sum_is_left_to_right_on_every_python(self):
        # Terms -2.1, -1e16, 1e16, 3e16: a running sum loses the -2.1,
        # a compensated sum (``sum()`` on Python >= 3.12) keeps it.
        assert pair_sum_numeric([0.7, 1e16, 1e16, 1e16]) == 3e16

    def test_categorical_matches_bruteforce(self):
        values = ["a", "b", "a", "c", "b", "b"]
        brute = sum(
            1
            for i in range(len(values))
            for j in range(i + 1, len(values))
            if values[i] != values[j]
        )
        assert pair_sum_categorical(values) == pytest.approx(brute)

    def test_categorical_all_equal(self):
        assert pair_sum_categorical(["x"] * 5) == 0


@pytest.fixture(scope="module")
def graph():
    b = GraphBuilder()
    b.node("m", genre="Action", rating=2.0, title="abc")
    b.node("m", genre="Action", rating=4.0, title="abd")
    b.node("m", genre="Drama", rating=6.0)  # Missing title.
    b.node("m", rating=10.0, title="zzz")  # Missing genre.
    return b.build()


class TestGowerTupleDistance:
    def test_identity(self, graph):
        d = GowerTupleDistance(graph, "m")
        assert d(0, 0) == 0.0

    def test_symmetric_and_cached(self, graph):
        d = GowerTupleDistance(graph, "m")
        assert d(0, 1) == d(1, 0)

    def test_value(self, graph):
        d = GowerTupleDistance(graph, "m", attributes=["genre", "rating"])
        # genre equal (0), rating |2-4|/8 = 0.25 → mean = 0.125.
        assert d(0, 1) == pytest.approx(0.125)

    def test_missing_one_side_is_max(self, graph):
        d = GowerTupleDistance(graph, "m", attributes=["genre"])
        assert d(0, 3) == 1.0

    def test_range(self, graph):
        d = GowerTupleDistance(graph, "m")
        for v in range(4):
            for w in range(4):
                assert 0.0 <= d(v, w) <= 1.0


class TestEditTupleDistance:
    def test_string_attribute_uses_levenshtein(self, graph):
        d = EditTupleDistance(graph, "m", attributes=["title"])
        # 'abc' vs 'abd': 1 edit over length 3.
        assert d(0, 1) == pytest.approx(1 / 3)

    def test_numeric_same_as_gower(self, graph):
        edit = EditTupleDistance(graph, "m", attributes=["rating"])
        gower = GowerTupleDistance(graph, "m", attributes=["rating"])
        assert edit(0, 1) == gower(0, 1)

    def test_gower_upper_bounds_edit_on_categoricals(self, graph):
        edit = EditTupleDistance(graph, "m", attributes=["title"])
        gower = GowerTupleDistance(graph, "m", attributes=["title"])
        for v in (0, 1):
            for w in (0, 1, 3):
                assert gower(v, w) >= edit(v, w) - 1e-12

    def test_no_attributes_distance_zero(self, graph):
        d = EditTupleDistance(graph, "m", attributes=[])
        assert d(0, 1) == 0.0
