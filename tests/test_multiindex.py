import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelkit.multiindex import (
    combination_coefficients,
    corner_is_zero,
    delta_expand,
    enumerate_simplex,
)


def brute_force_simplex(n, L, side):
    out = []
    for index in itertools.product(range(1, side + 1), repeat=n):
        if sum(index) <= L:
            out.append(index)
    return sorted(out)


class TestEnumerateSimplex:
    def test_n2_l2_single_index(self):
        assert enumerate_simplex(2, 2) == [(1, 1)]

    def test_n2_l3_enumeration(self):
        assert enumerate_simplex(2, 3) == [(1, 1), (1, 2), (2, 1)]

    def test_n3_l5_matches_brute_force(self):
        got = enumerate_simplex(3, 5)
        expected = brute_force_simplex(3, 5, side=5)
        assert got == expected
        assert len(got) == math.comb(5, 3) == 10

    def test_empty_below_factor_count(self):
        assert enumerate_simplex(3, 2) == []
        assert enumerate_simplex(1, 0) == []

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("L", [1, 3, 6, 9, 12])
    def test_cardinality_is_binomial(self, n, L):
        count = len(enumerate_simplex(n, L))
        assert count == (math.comb(L, n) if L >= n else 0)

    def test_lexicographic_order(self):
        indices = enumerate_simplex(3, 6)
        assert indices == sorted(indices)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_simplex(0, 3)
        with pytest.raises(ValueError):
            enumerate_simplex(2, -1)
        with pytest.raises(ValueError):
            enumerate_simplex(2, 63)


class TestCombinationCoefficients:
    def test_single_factor_telescopes(self):
        terms = combination_coefficients(1, 4)
        assert len(terms) == 1
        assert terms[0].index == (4,)
        assert terms[0].coefficient == 1

    def test_n2_l3_signs(self):
        got = {t.index: t.coefficient for t in combination_coefficients(2, 3)}
        assert got == {(1, 2): 1, (2, 1): 1, (1, 1): -1}

    def test_n3_l3_single_term(self):
        got = {t.index: t.coefficient for t in combination_coefficients(3, 3)}
        assert got == {(1, 1, 1): 1}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_coefficients_sum_to_one(self, n):
        for L in range(n, 13):
            total = sum(t.coefficient for t in combination_coefficients(n, L))
            assert total == 1

    def test_band_bounds(self):
        for term in combination_coefficients(3, 8):
            assert 8 - 3 + 1 <= sum(term.index) <= 8

    def test_rejects_empty_simplex(self):
        with pytest.raises(ValueError):
            combination_coefficients(3, 2)


class TestDeltaExpand:
    def test_univariate_difference(self):
        assert delta_expand((2,)) == [((2,), 1), ((1,), -1)]

    def test_unit_index_corners(self):
        corners = delta_expand((1, 1))
        assert corners == [
            ((1, 1), 1),
            ((1, 0), -1),
            ((0, 1), -1),
            ((0, 0), 1),
        ]
        flags = [corner_is_zero(c) for c, _ in corners]
        assert flags == [False, True, True, True]

    def test_corner_count_and_signs(self):
        corners = delta_expand((2, 3))
        assert len(corners) == 4
        assert sorted(s for _, s in corners) == [-1, -1, 1, 1]

    def test_matches_direct_difference_of_products(self):
        rng = np.random.default_rng(7)
        # w[j][l] are random per-factor scalars with w[j][0] = 0.
        for _ in range(20):
            n = int(rng.integers(1, 4))
            index = tuple(int(v) for v in rng.integers(1, 5, size=n))
            w = [
                np.concatenate([[0.0], rng.standard_normal(6)])
                for _ in range(n)
            ]
            via_corners = sum(
                sign * np.prod([w[j][c] for j, c in enumerate(corner)])
                for corner, sign in delta_expand(index)
            )
            direct = np.prod([w[j][index[j]] - w[j][index[j] - 1] for j in range(n)])
            assert via_corners == pytest.approx(direct, rel=1e-12, abs=1e-14)

    def test_rejects_nonpositive_levels(self):
        with pytest.raises(ValueError):
            delta_expand((0, 2))

    @settings(max_examples=60)
    @given(st.data())
    def test_simplex_delta_sum_equals_combination_sum(self, data):
        # Over random integer level tables w[j][l] (w[j][0] = 0), the sum of
        # the difference expansion over the simplex equals the combination
        # rule exactly.
        n = data.draw(st.integers(1, 4), label="n")
        L = data.draw(st.integers(n, n + 4), label="L")
        levels = st.lists(st.integers(-9, 9), min_size=L + 1, max_size=L + 1)
        w = [[0] + data.draw(levels, label=f"w{j}") for j in range(n)]
        delta_total = 0
        for index in enumerate_simplex(n, L):
            for corner, sign in delta_expand(index):
                if not corner_is_zero(corner):
                    delta_total += sign * math.prod(w[j][c] for j, c in enumerate(corner))
        combo_total = sum(
            t.coefficient * math.prod(w[j][l] for j, l in enumerate(t.index))
            for t in combination_coefficients(n, L)
        )
        assert delta_total == combo_total

