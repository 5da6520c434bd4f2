"""Exact distributions over compositions inside a rectangle.

Two random variables live here, both over compositions with at most m
parts drawn from the interval {a, ..., b}:

* ``pmf_X``: the integer represented by a uniformly chosen composition.
  Its weight at n is the number of such compositions summing to n,
  i.e. the sum of polynomial coefficients C(j, n - j*a) over j = 1..m.
* ``pmf_S``: the sum of exactly m independent uniform draws from
  {a, ..., b}; its weights are a single triangle row.

``pmf_pair`` builds both in one walk down the triangle.  Both are kept
as big-integer weight vectors plus a big-integer total, so every
identity about them can be checked in exact rational arithmetic.
X decomposes as gamma * S + e with an explicit nonnegative error term
that shrinks roughly quadratically as the part range widens; the
``error_decomposition`` report carries the exact gamma and the error
curve.  Normal-law comparisons (KS distance, pointwise cell-mass
differences) and a reproducible sampler round out the module.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product, zip_longest
from operator import sub
from typing import Iterator

from .compositions import Composition
from .polycoeff import _next_row, row_sums
from .rng import below_stream


@dataclass(frozen=True)
class RectSpec:
    """Composition family: at most ``m`` parts, each in {a, ..., b}."""

    a: int
    b: int
    m: int

    def __post_init__(self) -> None:
        if self.a < 0:
            raise ValueError(f"lower part bound must be >= 0, got {self.a}")
        if self.b < self.a:
            raise ValueError(f"upper bound {self.b} below lower bound {self.a}")
        if self.m < 1:
            raise ValueError(f"max parts m must be >= 1, got {self.m}")

    @property
    def width(self) -> int:
        """Part range width b - a (the triangle parameter)."""
        return self.b - self.a


@dataclass(frozen=True)
class ExactPmf:
    """Integer-weighted pmf on the contiguous support [offset, offset+len-1].

    ``weights[i] / total`` is the probability of ``offset + i``; the
    weights sum to ``total`` exactly, so probabilities sum to 1 by
    construction.  Interior zeros are allowed.
    """

    offset: int
    weights: tuple[int, ...]
    total: int

    def __post_init__(self) -> None:
        if not self.weights:
            raise ValueError("pmf needs at least one support point")
        if min(self.weights) < 0:
            raise ValueError("weights must be nonnegative")
        if sum(self.weights) != self.total:
            raise ValueError("weights do not sum to the stated total")

    @property
    def support(self) -> range:
        return range(self.offset, self.offset + len(self.weights))

    def weight(self, n: int) -> int:
        i = n - self.offset
        if 0 <= i < len(self.weights):
            return self.weights[i]
        return 0

    def prob(self, n: int) -> Fraction:
        return Fraction(self.weight(n), self.total)

    def float_prob(self, n: int) -> float:
        # int/int true division is correctly rounded even for big ints.
        return self.weight(n) / self.total

    def argmax(self) -> int:
        best = max(range(len(self.weights)), key=lambda i: self.weights[i])
        return self.offset + best

    def mean(self) -> Fraction:
        num = sum((self.offset + i) * w for i, w in enumerate(self.weights))
        return Fraction(num, self.total)

    def variance(self) -> Fraction:
        mu = self.mean()
        num = sum((self.offset + i) ** 2 * w for i, w in enumerate(self.weights))
        return Fraction(num, self.total) - mu * mu


@dataclass(frozen=True)
class NormalRef:
    """Matching normal law: mean m(a+b)/2, variance m((b-a+1)**2 - 1)/12."""

    mu: float
    sigma2: float

    @classmethod
    def for_spec(cls, spec: RectSpec) -> "NormalRef":
        r = spec.width + 1
        return cls(mu=spec.m * (spec.a + spec.b) / 2,
                   sigma2=spec.m * (r * r - 1) / 12)

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    def cdf(self, x: float) -> float:
        return 0.5 * math.erfc((self.mu - x) / (self.sigma * math.sqrt(2)))

    def cell_mass(self, n: int) -> float:
        """Probability the normal assigns to the lattice cell [n-1/2, n+1/2]."""
        return self.cdf(n + 0.5) - self.cdf(n - 0.5)


@dataclass(frozen=True)
class ErrorReport:
    """Decomposition P[X=n] = gamma * P[S=n] + e[n] and the X-vs-S gap.

    ``gamma`` is exact, chosen so the identity holds in rational
    arithmetic: gamma = (r-1)/r * r**m / (r**m - 1) with r = l+1.
    ``e_values[i]`` is the float of the exact error term at support
    point i (all nonnegative); ``max_abs_diff`` is the sup-distance
    max over n of |P[X=n] - P[S=n]|.
    """

    gamma: Fraction
    alpha: Fraction
    e_values: tuple[float, ...]
    e_max: float
    max_abs_diff: float


@dataclass(frozen=True)
class DistanceReport:
    """How far pmf_X sits from its matching normal law."""

    normal: NormalRef
    offset: int
    pmf_diffs: tuple[float, ...]
    max_pmf_diff: float
    ks: float
    pmf_argmax: int


def _pmf_x_and_head(spec: RectSpec) -> tuple[ExactPmf, list[int]]:
    """``pmf_X(spec)`` and head, the weights of at most m-1 parts (offset a).

    X's weights are the weights of 1 + x**a * head times
    (1 + x + ... + x**l): a composition is a first part followed by a
    shorter composition.  That is one sliding-window step after head.
    """
    a, l, m = spec.a, spec.width, spec.m
    r = l + 1
    head = row_sums(l, m - 1, a)
    base = [0] * a + head
    base[0] += 1
    x = _next_row(base, l)
    # At m = 1 head is [0], so for a > 0 base carries a zeros too many.
    del x[m * (l + a) - a + 1:]
    total = m if r == 1 else (r ** (m + 1) - r) // l
    return ExactPmf(offset=a, weights=tuple(x), total=total), head


def pmf_pair(spec: RectSpec) -> tuple[ExactPmf, ExactPmf]:
    """``(pmf_X(spec), pmf_S(spec))`` from one walk down the triangle.

    S's weights, row m, are what the step from head to X adds to head
    from offset m*a on (see ``_pmf_x_and_head``).
    """
    px, head = _pmf_x_and_head(spec)
    lo = (spec.m - 1) * spec.a
    s = [wx - h for wx, h in zip_longest(px.weights[lo:], head[lo:], fillvalue=0)]
    return px, ExactPmf(offset=spec.m * spec.a, weights=tuple(s),
                        total=(spec.width + 1) ** spec.m)


def pmf_S(spec: RectSpec) -> ExactPmf:
    """Distribution of the sum of exactly m uniform draws from {a..b}.

    Support [m*a, m*b]; the weight at n is the triangle entry
    C(m, n - m*a) of width b-a, with total (b-a+1)**m.  See :func:`pmf_pair`.
    """
    return pmf_pair(spec)[1]


def pmf_X(spec: RectSpec) -> ExactPmf:
    """Distribution of the integer represented by a uniform composition.

    A composition with j parts (j = 1..m, zero parts allowed when a=0)
    sums to n in [j*a, j*b]; the weight at n adds the shifted triangle
    entries C(j, n - j*a) over all j, and the total is the composition
    count, the geometric sum of (b-a+1)**j.  The empty composition is
    excluded.  It is built from one walk down the triangle, as in
    :func:`pmf_pair`, without S.
    """
    return _pmf_x_and_head(spec)[0]


def error_decomposition(spec: RectSpec) -> ErrorReport:
    """Split pmf_X into gamma * pmf_S plus a nonnegative error term.

    Requires a = 0 and b = l >= 1.  With r = l+1 and
    alpha = l / ((r**m - 1) * r), the weight identity
    sum_{j<=m} C(j,n) = C(m,n) + sum_{j<m} C(j,n) gives exactly

        P[X=n] = gamma * P[S=n] + alpha * sum_{j<m} C(j, n),

    where gamma = alpha * r**m.  The error term is nonnegative
    everywhere, so P[X] >= gamma * P[S] pointwise.
    """
    if spec.a != 0:
        raise ValueError("decomposition requires lower bound a = 0")
    l = spec.b
    if l < 1:
        raise ValueError("decomposition requires b >= 1 (zero-width pmf is a point mass)")
    px, ps = pmf_pair(spec)
    tx, rm = px.total, ps.total
    e_den = (rm - 1) * (l + 1)
    alpha = Fraction(l, e_den)
    gamma = alpha * rm

    # head = X - S sums rows 1..m-1, and e[n] = alpha * head[n]; floats
    # via one correctly rounded division each.
    e_values = tuple((l * h) / e_den for h in map(sub, px.weights, ps.weights))
    e_max = max(e_values)
    diff_num = max(abs(wx * rm - ws * tx) for wx, ws in zip(px.weights, ps.weights))
    max_abs_diff = diff_num / (tx * rm)
    return ErrorReport(gamma=gamma, alpha=alpha, e_values=e_values,
                       e_max=e_max, max_abs_diff=max_abs_diff)


def normal_distance(spec: RectSpec) -> DistanceReport:
    """KS and pointwise distances from pmf_X to its matching normal law.

    The KS statistic compares the exact CDF at each integer n with the
    normal CDF at n + 1/2 (continuity correction); the point just below
    the support is included so the supremum really runs over all
    integers.  The pointwise track compares P[X=n] with the normal mass
    of the unit cell centered at n.
    """
    if spec.b == spec.a:
        raise ValueError("normal comparison needs b > a (nonzero variance)")
    ref = NormalRef.for_spec(spec)
    px = pmf_X(spec)

    ks = ref.cdf(px.offset - 0.5)
    cum = 0
    diffs = []
    for i, w in enumerate(px.weights):
        n = px.offset + i
        cum += w
        ks = max(ks, abs(cum / px.total - ref.cdf(n + 0.5)))
        diffs.append(abs(w / px.total - ref.cell_mass(n)))
    return DistanceReport(
        normal=ref,
        offset=px.offset,
        pmf_diffs=tuple(diffs),
        max_pmf_diff=max(diffs),
        ks=ks,
        pmf_argmax=px.argmax(),
    )


def _stirling_log_estimate(l: int, m: int) -> float:
    if l < 1:
        raise ValueError(f"width l must be >= 1 (zero variance at l=0), got {l}")
    if m < 1:
        raise ValueError(f"max parts m must be >= 1, got {m}")
    return (
        math.log((l + 1) ** m - 1)
        + math.log(l + 1)
        - math.log(l)
        - 0.5 * math.log(2 * math.pi * m * ((l + 1) ** 2 - 1) / 12)
    )


def stirling_h_estimate(l: int, m: int) -> float:
    """Normal-style estimate of the composition count at the central value.

    Evaluates ((l+1)**m - 1) * (l+1)/l / sqrt(2*pi*m*((l+1)**2-1)/12)
    in log space; the exact count at floor(m*l/2) divided by this tends
    to 1 as m grows.
    """
    try:
        return math.exp(_stirling_log_estimate(l, m))
    except OverflowError:
        return math.inf


def stirling_h_ratio(l: int, m: int) -> float:
    """Exact central composition count over its normal-style estimate.

    Stays in log space end to end, so it is finite even when both the
    count and the estimate overflow float64.
    """
    log_est = _stirling_log_estimate(l, m)
    return math.exp(math.log(row_sums(l, m)[m * l // 2]) - log_est)


#: Largest number of tuples in one table of ``_part_chunks``.
_CHUNK_ENTRIES = 4096


class _OnePart:
    """The one-part chunk table for a part range {a, ..., a+r-1}."""

    __slots__ = ("a", "r")

    def __init__(self, a: int, r: int):
        self.a, self.r = a, r

    def __getitem__(self, c: int) -> tuple[int]:
        return (self.a + c,)

    def __len__(self) -> int:
        return self.r


def _part_chunks(a: int, r: int, m: int, count: int) -> list:
    """Lookup tables for ``_unrank`` over ``count`` draws: ``chunks[i][c]`` is
    the (i+1)-part tuple whose parts, less a, are the base-r digits of c,
    least significant first.

    The longest chunk, d parts, is the longest with r**d at most the
    limit (r = 1 counts as 2) and no longer than m.  The limit is
    ``_CHUNK_ENTRIES``, or the count * m parts the draws can have if
    that is fewer, so a short sample pays no large set-up.  A part range
    wider than the limit gets no table: ``_OnePart`` makes each one-part
    tuple on demand.
    """
    limit = min(_CHUNK_ENTRIES, count * m)
    if r > limit:
        return [_OnePart(a, r)]
    d = 1
    while d < m and max(r, 2) ** (d + 1) <= limit:
        d += 1
    values = range(a, a + r)
    return [tuple(p[::-1] for p in product(values, repeat=k)) for k in range(1, d + 1)]


def _unrank(rank: int, cumulative: list[int], chunks: list) -> Composition:
    """The composition of rank ``rank`` in [0, cumulative[-1]).

    ``cumulative[i]`` counts the compositions with at most i parts,
    0 + r + r**2 + ... + r**i, and ranks run through the compositions
    with fewer parts first.  So the number of parts j is the number of
    cumulative counts at or below the rank, and the rank within the
    j-part block, in [0, r**j), is read as j base-r digits, least
    significant first, each shifted up by a.  Every rank maps to a
    different composition and every composition has a rank.  The digits
    are read d at a time from ``chunks`` (see ``_part_chunks``), which
    takes ceil(j/d) - 1 big-integer divmods.
    """
    j = bisect_right(cumulative, rank)
    rank -= cumulative[j - 1]
    full = chunks[-1]
    base = len(full)
    whole, rest = divmod(j - 1, len(chunks))
    parts = ()
    for _ in range(whole):
        rank, c = divmod(rank, base)
        parts += full[c]
    return parts + chunks[rest][rank]


def iter_sample(spec: RectSpec, count: int, seed: int) -> Iterator[Composition]:
    """Lazily draw ``count`` uniform compositions from the rectangle family.

    Each composition costs one ``below(total)`` draw from a seeded
    SplitMix64 stream, where total is the number of compositions; the
    draws are computed in blocks by ``below_stream``, with the values
    that successive ``below`` calls would return.  A draw is a rank,
    turned into its composition by a bijection (see ``_unrank``), so the
    draws are exactly uniform up to ``below``'s 2**-128 bias.  Identical
    seeds give identical draws on any platform.  A bad ``count`` raises
    here, before the first draw.  The stream lives and dies inside the
    returned iterator; for parallel sampling give each worker its own
    seed.
    """
    if count < 0:
        raise ValueError(f"sample count must be >= 0, got {count}")
    a, r, m = spec.a, spec.width + 1, spec.m
    cumulative = list(accumulate((r ** j for j in range(1, m + 1)), initial=0))
    chunks = _part_chunks(a, r, m, count)
    return (_unrank(rank, cumulative, chunks)
            for rank in below_stream(seed, cumulative[-1], count))


def sample(spec: RectSpec, count: int, seed: int) -> list[Composition]:
    """The draws of ``iter_sample(spec, count, seed)`` as a list."""
    return list(iter_sample(spec, count, seed))
