"""Multinomial triangles and their entries.

The (l+1)-nomial triangle generalizes Pascal's triangle: row 0 is the
single entry 1, and each entry of row k is the sum of the l+1 entries
above it in row k-1 (missing entries count as zero).  Entry n of row k
is the coefficient of x**n in (1 + x + ... + x**l)**k, so row k has
k*l + 1 entries, is symmetric, and sums to (l+1)**k.

Everything here is exact integer arithmetic; the only floats are the
normal-style approximation to the central entry and its ratio.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from operator import add
from typing import Iterator


@dataclass(frozen=True)
class TriangleRow:
    """Row ``k`` of the (l+1)-nomial triangle.

    ``entries[n]`` is the coefficient of x**n in (1 + x + ... + x**l)**k.
    """

    l: int
    k: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != self.k * self.l + 1:
            raise ValueError(
                f"row {self.k} of the {self.l + 1}-nomial triangle needs "
                f"{self.k * self.l + 1} entries, got {len(self.entries)}"
            )

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, n: int) -> int:
        return self.entries[n]


def _check_params(l: int, k: int) -> None:
    if l < 0:
        raise ValueError(f"part-range width l must be >= 0, got {l}")
    if k < 0:
        raise ValueError(f"row index k must be >= 0, got {k}")


def _next_row(prev: list[int], l: int) -> list[int]:
    # Sliding window over the previous row: entry n is the sum of
    # prev[n-l .. n], maintained with one add and one subtract per entry.
    out = []
    window = 0
    size = len(prev) + l
    for n in range(size):
        if n < len(prev):
            window += prev[n]
        if n - l - 1 >= 0:
            window -= prev[n - l - 1]
        out.append(window)
    return out


def iter_raw_rows(l: int, k_max: int) -> Iterator[list[int]]:
    """Yield rows 0..k_max as plain lists of ints.

    This is the one walk down the triangle: every other row builder in
    the package consumes it.  The yielded lists are fresh objects;
    mutating them does not affect the iteration.
    """
    _check_params(l, k_max)
    row = [1]
    yield list(row)
    for _ in range(k_max):
        row = _next_row(row, l)
        yield list(row)


def row_sums(l: int, m: int, shift: int = 0) -> list[int]:
    """Coefficients of the sum over j = 1..m of x**(j*shift) * (1+x+...+x**l)**j.

    Entry i is the coefficient of x**(shift + i), so the list has
    m*(l+shift) - shift + 1 entries; m = 0 gives [0].  With shift 0
    this is the sum of rows 1..m; with shift a it is the weight vector
    of compositions with at most m parts in {a, ..., a+l}.  Each row is
    built once, from the one before, and added in place.
    """
    rows = iter_raw_rows(l, m)
    next(rows)  # row 0 is not summed; this also checks l and m
    if shift < 0:
        raise ValueError(f"shift must be >= 0, got {shift}")
    acc = [0] * (m * (l + shift) - shift + 1 if m else 1)
    for j, row in enumerate(rows):
        span = slice(j * shift, j * shift + len(row))
        acc[span] = map(add, acc[span], row)
    return acc


def triangle_row(l: int, k: int) -> TriangleRow:
    """Build row ``k`` of the (l+1)-nomial triangle."""
    row = deque(iter_raw_rows(l, k), maxlen=1).pop()
    return TriangleRow(l=l, k=k, entries=tuple(row))


def poly_coeff(l: int, k: int, n: int) -> int:
    """Coefficient of x**n in (1 + x + ... + x**l)**k.

    Returns 0 for n outside [0, k*l]; recursions that sum shifted
    coefficients rely on these implicit zeros.
    """
    _check_params(l, k)
    if n < 0 or n > k * l:
        return 0
    return triangle_row(l, k).entries[n]


def central_coeff(l: int, k: int) -> int:
    """The row maximum: entry floor(k*l/2) of row k."""
    return triangle_row(l, k).entries[(k * l) // 2]


def _check_asymptotic_params(l: int, k: int) -> None:
    if l < 1:
        raise ValueError(f"width l must be >= 1 (zero variance at l=0), got {l}")
    if k < 1:
        raise ValueError(f"row index k must be >= 1, got {k}")


def central_asymptotic_log(l: int, k: int) -> float:
    """Natural log of the normal-style estimate of the central entry."""
    _check_asymptotic_params(l, k)
    variance = k * ((l + 1) ** 2 - 1) / 12
    return k * math.log(l + 1) - 0.5 * math.log(2 * math.pi * variance)


def central_asymptotic(l: int, k: int) -> float:
    """Normal-style estimate (l+1)**k / sqrt(2*pi*k*((l+1)**2-1)/12).

    The estimate-to-exact ratio tends to 1 as k grows with l fixed.
    Returns ``inf`` once (l+1)**k exceeds the float64 range; use
    :func:`central_asymptotic_ratio` there, it stays in log space.
    """
    try:
        return math.exp(central_asymptotic_log(l, k))
    except OverflowError:
        return math.inf


def central_asymptotic_ratio(l: int, k: int) -> float:
    """Exact central entry divided by its normal-style estimate.

    Evaluated as exp(log(exact) - log(estimate)); math.log of a big int
    splits off the binary exponent, so nothing here overflows.
    """
    _check_asymptotic_params(l, k)
    exact = central_coeff(l, k)
    return math.exp(math.log(exact) - central_asymptotic_log(l, k))
