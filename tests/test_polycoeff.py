"""Triangle construction, coefficients, and the central-entry asymptotics."""
from __future__ import annotations

import math
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import poly_power_coeffs
from rectcomp.polycoeff import (
    TriangleRow,
    central_asymptotic,
    central_asymptotic_log,
    central_asymptotic_ratio,
    central_coeff,
    iter_raw_rows,
    poly_coeff,
    row_sums,
    triangle_row,
)

GOLDEN_ROWS = {
    (0, 0): [1],
    (0, 3): [1],
    (1, 3): [1, 3, 3, 1],
    (2, 3): [1, 3, 6, 7, 6, 3, 1],
    (3, 3): [1, 3, 6, 10, 12, 12, 10, 6, 3, 1],
}


@pytest.mark.parametrize("l,k", sorted(GOLDEN_ROWS))
def test_golden_rows(l, k):
    assert list(triangle_row(l, k).entries) == GOLDEN_ROWS[(l, k)]


def test_monomial_triangle_is_all_ones():
    for k in range(8):
        assert triangle_row(0, k).entries == (1,)


@pytest.mark.parametrize("l", range(7))
def test_generating_function_oracle(l):
    for k in range(11):
        assert list(triangle_row(l, k).entries) == poly_power_coeffs(l, k)


def test_row_symmetry_and_sum():
    for l in range(7):
        for k in range(31):
            entries = triangle_row(l, k).entries
            assert len(entries) == k * l + 1
            assert entries == entries[::-1]
            assert sum(entries) == (l + 1) ** k
            if l >= 1:
                assert entries[0] == 1 and entries[-1] == 1


def test_iter_raw_rows_matches_single_rows():
    for l in (0, 1, 3):
        for k, row in enumerate(iter_raw_rows(l, 6)):
            assert tuple(row) == triangle_row(l, k).entries


@given(l=st.integers(0, 6), m=st.integers(0, 8), shift=st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_row_sums_matches_shifted_powers(l, m, shift):
    full = [0]
    for j in range(1, m + 1):
        term = [0] * (j * shift) + poly_power_coeffs(l, j)
        full = [x + y for x, y in zip_longest(full, term, fillvalue=0)]
    if m == 0:
        assert row_sums(l, m, shift) == [0]
    else:
        assert not any(full[:shift])
        assert row_sums(l, m, shift) == full[shift:]


def test_poly_coeff_values_and_out_of_range():
    assert poly_coeff(2, 3, 3) == 7
    assert poly_coeff(2, 3, -1) == 0
    assert poly_coeff(2, 3, 7) == 0
    assert poly_coeff(0, 5, 0) == 1
    assert poly_coeff(0, 5, 1) == 0
    # from expanding (1+x+x^2+x^3+x^4)^6
    assert poly_coeff(4, 6, 12) == 1751
    assert poly_coeff(4, 6, 12) == poly_power_coeffs(4, 6)[12]


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        triangle_row(-1, 2)
    with pytest.raises(ValueError):
        triangle_row(2, -1)
    with pytest.raises(ValueError):
        TriangleRow(l=2, k=2, entries=(1, 2, 1))


def test_central_coeff_examples():
    assert central_coeff(1, 4) == 6
    assert central_coeff(2, 4) == 19
    assert central_coeff(3, 3) == 12


def test_central_majorizes_row():
    for l in range(9):
        for k in range(26):
            entries = triangle_row(l, k).entries
            assert max(entries) == central_coeff(l, k)


def test_rise_to_center_is_non_decreasing():
    for l in range(9):
        for k in range(26):
            entries = triangle_row(l, k).entries
            mid = (k * l) // 2
            head = entries[: mid + 1]
            assert all(a <= b for a, b in zip(head, head[1:]))


def test_central_asymptotic_values():
    assert central_asymptotic(1, 4) == pytest.approx(6.383076486422923, rel=1e-12)
    assert central_asymptotic(2, 1) == pytest.approx(1.4658075357087597, rel=1e-12)
    assert central_asymptotic(2, 400) == math.exp(central_asymptotic_log(2, 400))


def test_central_asymptotic_rejects_zero_width():
    with pytest.raises(ValueError):
        central_asymptotic(0, 5)
    with pytest.raises(ValueError):
        central_asymptotic_ratio(0, 5)
    with pytest.raises(ValueError):
        central_asymptotic_ratio(2, 0)


def test_central_asymptotic_overflows_to_inf():
    assert central_asymptotic(1, 2000) == math.inf


def test_ratio_at_k_one():
    # central entry is 1, estimate is 2/sqrt(pi/2): ratio sqrt(pi/8)
    assert central_asymptotic_ratio(1, 1) == pytest.approx(math.sqrt(math.pi / 8), rel=1e-12)


@pytest.mark.parametrize("l", [1, 2, 4])
def test_ratio_converges_to_one(l):
    err_100 = abs(central_asymptotic_ratio(l, 100) - 1)
    err_400 = abs(central_asymptotic_ratio(l, 400) - 1)
    assert err_400 < err_100
    assert err_400 < 0.02


@given(l=st.integers(0, 8), k=st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_symmetry_and_sum_property(l, k):
    entries = triangle_row(l, k).entries
    assert entries == entries[::-1]
    assert sum(entries) == (l + 1) ** k


@given(l=st.integers(0, 6), k=st.integers(1, 20), n=st.integers(-5, 130))
@settings(max_examples=60, deadline=None)
def test_recursion_property(l, k, n):
    assert poly_coeff(l, k, n) == sum(poly_coeff(l, k - 1, n - j) for j in range(l + 1))
