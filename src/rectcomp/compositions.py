"""Counting and enumerating restricted integer compositions.

A composition of n into k parts is an ordered tuple of k nonnegative
integers summing to n (zeros allowed).  Parts are restricted either to
an interval a <= part <= b, where b may be unbounded, or to an arbitrary
finite support set.  Counting goes through exact coefficient extraction;
enumeration is the brute-force oracle that everything else is checked
against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .polycoeff import poly_coeff, row_sums

Composition = tuple[int, ...]

#: Default ceiling on the implied search space (max part + 1)**k of the
#: enumeration oracle.
DEFAULT_ENUM_GUARD = 10_000_000


class EnumerationGuardError(ValueError):
    """Raised when an enumeration's implied search space exceeds the guard."""


@dataclass(frozen=True)
class PartBounds:
    """Inclusive part bounds ``a <= part <= b``; ``b=None`` means unbounded."""

    a: int
    b: int | None

    def __post_init__(self) -> None:
        if self.a < 0:
            raise ValueError(f"lower part bound must be >= 0, got {self.a}")
        if self.b is not None and self.b < self.a:
            raise ValueError(f"upper part bound {self.b} below lower bound {self.a}")

    @property
    def unbounded(self) -> bool:
        return self.b is None


#: Convenience alias: ``PartBounds(a, UNBOUNDED)`` reads like the math.
UNBOUNDED: None = None


def count(n: int, k: int, bounds: PartBounds) -> int:
    """Number of compositions of n into exactly k parts within ``bounds``.

    Finite b reduces to a polynomial coefficient: shifting every part
    down by a leaves k parts in {0, ..., b-a} summing to n - k*a, so the
    count is the coefficient of x**(n-k*a) in (1+x+...+x**(b-a))**k.
    Unbounded b is the stars-and-bars count C(n-k*a+k-1, k-1).
    """
    if k < 0:
        raise ValueError(f"number of parts must be >= 0, got {k}")
    if k == 0:
        return 1 if n == 0 else 0
    shifted = n - k * bounds.a
    if shifted < 0:
        return 0
    if bounds.unbounded:
        return math.comb(shifted + k - 1, k - 1)
    return poly_coeff(bounds.b - bounds.a, k, shifted)


def count_support(n: int, k: int, support: Iterable[int]) -> int:
    """Number of k-tuples over ``support`` summing to n.

    Extracts the coefficient of x**n from (sum of x**a over the support)**k
    by iterated exact polynomial multiplication.
    """
    parts = sorted(set(support))
    if not parts:
        raise ValueError("support must be non-empty")
    if any(p < 0 for p in parts):
        raise ValueError(f"support must be nonnegative, got {parts}")
    if k < 0:
        raise ValueError(f"number of parts must be >= 0, got {k}")
    if n < 0:
        return 0
    # Coefficients only ever need to reach degree n.
    base = [0] * (parts[-1] + 1)
    for p in parts:
        base[p] = 1
    acc = [1]
    for _ in range(k):
        out = [0] * min(len(acc) + len(base) - 1, n + 1)
        for i, x in enumerate(acc):
            if x == 0 or i > n:
                continue
            for j, y in enumerate(base):
                if y and i + j <= n:
                    out[i + j] += x
        acc = out
    return acc[n] if n < len(acc) else 0


def _admissible_parts(n: int, k: int, bounds: PartBounds | None,
                      support: Iterable[int] | None) -> list[int]:
    if (bounds is None) == (support is None):
        raise ValueError("provide exactly one of bounds or support")
    if bounds is not None:
        hi = n if bounds.unbounded else min(bounds.b, n)
        return list(range(bounds.a, hi + 1))
    parts = sorted(set(support))
    if not parts:
        raise ValueError("support must be non-empty")
    return [p for p in parts if p <= n]


def enumerate_compositions(
    n: int,
    k: int,
    bounds: PartBounds | None = None,
    support: Iterable[int] | None = None,
    guard: int = DEFAULT_ENUM_GUARD,
) -> Iterator[Composition]:
    """Yield every admissible composition of n into k parts, in lex order.

    Parts above n are dropped up front (they cannot appear), which makes
    unbounded bounds enumerable.  The implied search space
    (max part + 1)**k must stay within ``guard``; the recursion itself
    prunes by remaining sum, so actual work is far smaller.
    """
    if n < 0 or k < 0:
        raise ValueError("n and k must be >= 0")
    parts = _admissible_parts(n, k, bounds, support)
    if k > 0:
        space = (max(parts, default=0) + 1) ** k
        if space > guard:
            raise EnumerationGuardError(
                f"search space {space} exceeds guard {guard}"
            )

    lo = parts[0] if parts else 0
    hi = parts[-1] if parts else 0

    def rec(remaining: int, slots: int, prefix: list[int]) -> Iterator[Composition]:
        if slots == 0:
            if remaining == 0:
                yield tuple(prefix)
            return
        for p in parts:
            rest = remaining - p
            if rest < 0 or rest > (slots - 1) * hi:
                continue
            if rest < (slots - 1) * lo:
                continue
            prefix.append(p)
            yield from rec(rest, slots - 1, prefix)
            prefix.pop()

    yield from rec(n, k, [])


def h_sequence(l: int, m: int) -> tuple[int, ...]:
    """Counts of compositions of 0..l*m with at most m parts in {0..l}.

    Entry n sums the (l+1)-nomial coefficients C(j, n) over j = 1..m;
    the empty composition is excluded, so the entries total
    ((l+1)**(m+1) - (l+1)) / l for l >= 1, and m for l = 0.
    The sequence is unimodal.
    """
    if m < 1:
        raise ValueError(f"max parts m must be >= 1, got {m}")
    return tuple(row_sums(l, m))
