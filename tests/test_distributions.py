"""Exact pmfs, the decomposition identity, normal distances, and sampling."""
from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import accumulate, zip_longest

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import poly_power_coeffs
from rectcomp.compositions import PartBounds, count, enumerate_compositions
from rectcomp.distributions import (
    ExactPmf,
    NormalRef,
    RectSpec,
    _part_chunks,
    _unrank,
    error_decomposition,
    iter_sample,
    normal_distance,
    pmf_S,
    pmf_X,
    pmf_pair,
    sample,
    stirling_h_estimate,
    stirling_h_ratio,
)
from rectcomp.polycoeff import triangle_row
from rectcomp.rng import _BLOCK_WORDS, SplitMix64, below_stream


# --- ExactPmf ---------------------------------------------------------------


def test_exact_pmf_validation():
    with pytest.raises(ValueError):
        ExactPmf(offset=0, weights=(1, 2), total=4)
    with pytest.raises(ValueError):
        ExactPmf(offset=0, weights=(), total=0)
    with pytest.raises(ValueError):
        ExactPmf(offset=0, weights=(1, -1, 2), total=2)


def test_exact_pmf_accessors():
    pmf = ExactPmf(offset=2, weights=(1, 2, 1), total=4)
    assert list(pmf.support) == [2, 3, 4]
    assert pmf.prob(3) == Fraction(1, 2)
    assert pmf.prob(5) == 0
    assert pmf.weight(1) == 0
    assert pmf.float_prob(2) == 0.25
    assert pmf.argmax() == 3
    assert pmf.mean() == 3
    assert pmf.variance() == Fraction(1, 2)


# --- pmf_S ------------------------------------------------------------------


def test_pmf_s_single_draw_is_uniform():
    for l in range(5):
        pmf = pmf_S(RectSpec(0, l, 1))
        assert pmf.weights == (1,) * (l + 1)
        assert pmf.total == l + 1


def test_pmf_s_trinomial_row():
    pmf = pmf_S(RectSpec(0, 2, 3))
    assert pmf.offset == 0
    assert pmf.weights == (1, 3, 6, 7, 6, 3, 1)
    assert pmf.total == 27


def test_pmf_s_shifted_support():
    pmf = pmf_S(RectSpec(1, 2, 2))
    assert list(pmf.support) == [2, 3, 4]
    assert pmf.weights == (1, 2, 1)
    assert pmf.total == 4


def test_pmf_s_point_mass_when_degenerate():
    pmf = pmf_S(RectSpec(3, 3, 4))
    assert list(pmf.support) == [12]
    assert pmf.weights == (1,)


def test_pmf_s_moments_match_closed_forms():
    for a in range(4):
        for b in range(a, 7):
            for m in range(1, 11):
                pmf = pmf_S(RectSpec(a, b, m))
                r = b - a + 1
                assert pmf.mean() == Fraction(m * (a + b), 2)
                assert pmf.variance() == Fraction(m * (r * r - 1), 12)


# --- pmf_X ------------------------------------------------------------------


def test_pmf_x_single_part_is_uniform():
    for l in range(1, 5):
        pmf = pmf_X(RectSpec(0, l, 1))
        assert pmf.weights == (1,) * (l + 1)
        assert pmf.total == l + 1


def test_pmf_x_rectangle_example():
    pmf = pmf_X(RectSpec(0, 2, 5))
    assert pmf.total == 363
    assert pmf.weight(0) == 5
    rows = [triangle_row(2, j).entries for j in range(1, 6)]
    for n in pmf.support:
        expected = sum(row[n] for row in rows if n < len(row))
        assert pmf.weight(n) == expected


def test_pmf_x_degenerate_width():
    pmf = pmf_X(RectSpec(2, 2, 3))
    assert pmf.total == 3
    assert [pmf.weight(n) for n in range(2, 7)] == [1, 0, 1, 0, 1]
    assert pmf.weight(6) == 1
    zero = pmf_X(RectSpec(0, 0, 4))
    assert list(zero.support) == [0]
    assert zero.weights == (4,) and zero.total == 4


def test_pmf_x_gap_support():
    # two-part family with a large lower bound leaves interior zeros
    pmf = pmf_X(RectSpec(5, 6, 2))
    assert pmf.offset == 5
    assert pmf.weights == (1, 1, 0, 0, 0, 1, 2, 1)
    assert pmf.total == 6


def rectangle_family(a: int, b: int, m: int) -> list:
    return [comp
            for j in range(1, m + 1)
            for n in range(j * a, j * b + 1)
            for comp in enumerate_compositions(n, j, bounds=PartBounds(a, b))]


def brute_force_pmf_x(spec: RectSpec) -> Counter:
    return Counter(sum(comp) for comp in rectangle_family(spec.a, spec.b, spec.m))


@pytest.mark.parametrize("a", [0, 1, 2])
def test_pmf_x_equals_exhaustive_enumeration(a):
    for b in range(a, a + 4):
        for m in range(1, 5):
            spec = RectSpec(a, b, m)
            pmf = pmf_X(spec)
            hits = brute_force_pmf_x(spec)
            assert pmf.total == sum(hits.values())
            for n in pmf.support:
                assert pmf.weight(n) == hits.get(n, 0), (spec, n)


@given(a=st.integers(0, 3), l=st.integers(0, 6), m=st.integers(1, 8))
@example(a=2, l=3, m=1)  # head is [0]: the X step yields a zeros too many
@example(a=3, l=0, m=1)
@example(a=1, l=0, m=6)
@settings(max_examples=120, deadline=None)
def test_pmf_pair_matches_naive_powers(a, l, m):
    px, ps = pmf_pair(RectSpec(a, a + l, m))
    shifted = [0]
    for j in range(1, m + 1):
        term = [0] * (j * a) + poly_power_coeffs(l, j)
        shifted = [x + y for x, y in zip_longest(shifted, term, fillvalue=0)]
    assert px.offset == a
    assert list(px.weights) == shifted[a:]
    assert px.total == sum((l + 1) ** j for j in range(1, m + 1))
    assert ps.offset == m * a
    assert list(ps.weights) == poly_power_coeffs(l, m)
    assert ps.total == (l + 1) ** m


# --- decomposition ----------------------------------------------------------


def test_gamma_values():
    report = error_decomposition(RectSpec(0, 1, 9))
    assert report.gamma == Fraction(1, 2) * Fraction(2 ** 9, 2 ** 9 - 1)
    assert report.alpha == report.gamma / 2 ** 9


def test_error_decomposition_rejects_bad_specs():
    with pytest.raises(ValueError):
        error_decomposition(RectSpec(1, 3, 5))
    with pytest.raises(ValueError):
        error_decomposition(RectSpec(0, 0, 5))


def test_decomposition_identity_exact_grid():
    for l in range(1, 9):
        for m in range(1, 13):
            spec = RectSpec(0, l, m)
            report = error_decomposition(spec)
            px = pmf_X(spec)
            ps = pmf_S(spec)
            rows = [triangle_row(l, j).entries for j in range(1, m)]
            for n in px.support:
                head = sum(row[n] for row in rows if n < len(row))
                e_exact = report.alpha * head
                assert px.prob(n) == report.gamma * ps.prob(n) + e_exact, (l, m, n)
                assert e_exact >= 0
                assert report.e_values[n] == pytest.approx(float(e_exact), abs=1e-15)


def test_error_shape_at_support_ends():
    for l in range(1, 9):
        for m in range(2, 13):
            spec = RectSpec(0, l, m)
            px = pmf_X(spec)
            ps = pmf_S(spec)
            assert px.prob(0) > ps.prob(0), (l, m)
            assert px.prob(m * l) < ps.prob(m * l), (l, m)


def test_max_abs_diff_frozen_values():
    cases = {
        (1, 9): 0.04710432974559687,
        (1, 10): 0.044102822580645164,
        (2, 10): 0.017311657760877747,
        (4, 10): 0.005885526330738927,
    }
    for (l, m), expected in cases.items():
        got = error_decomposition(RectSpec(0, l, m)).max_abs_diff
        assert got == pytest.approx(expected, rel=1e-12)


def test_max_abs_diff_matches_rational_recomputation():
    for l in (1, 2, 3):
        for m in (2, 5, 8):
            spec = RectSpec(0, l, m)
            px = pmf_X(spec)
            ps = pmf_S(spec)
            exact = max(abs(px.prob(n) - ps.prob(n)) for n in px.support)
            got = error_decomposition(spec).max_abs_diff
            assert got == pytest.approx(float(exact), rel=1e-15)


def test_decay_factors_rise_toward_four():
    for m in (10, 20):
        values = [error_decomposition(RectSpec(0, l, m)).max_abs_diff
                  for l in (1, 2, 4, 8, 16, 32, 64)]
        factors = [a / b for a, b in zip(values, values[1:])]
        assert all(2.4 <= f <= 4.0 for f in factors)
        assert factors == sorted(factors)


# --- normal distance --------------------------------------------------------


def test_normal_ref_parameters():
    ref = NormalRef.for_spec(RectSpec(0, 6, 20))
    assert ref.mu == 60
    assert ref.sigma2 == pytest.approx(20 * 48 / 12)
    ref = NormalRef.for_spec(RectSpec(1, 3, 4))
    assert ref.mu == 8
    assert ref.sigma2 == pytest.approx(4 * 8 / 12)


def test_normal_cdf_accuracy():
    ref = NormalRef(mu=0.0, sigma2=1.0)
    assert ref.cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert ref.cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-12)
    assert ref.cdf(-8.0) == pytest.approx(6.22096057427178e-16, rel=1e-9)


def test_normal_distance_rejects_degenerate():
    with pytest.raises(ValueError):
        normal_distance(RectSpec(1, 1, 5))


def test_ks_decreases_in_m():
    for l in (2, 4, 8):
        ks = [normal_distance(RectSpec(0, l, m)).ks for m in (10, 20, 40)]
        assert ks[0] > ks[1] > ks[2], (l, ks)


def test_ks_regression_anchors():
    assert normal_distance(RectSpec(0, 6, 20)).ks == \
        pytest.approx(0.02280860643732452, abs=1e-12)
    assert normal_distance(RectSpec(0, 4, 10)).ks == \
        pytest.approx(0.045652849577205334, abs=1e-12)
    assert normal_distance(RectSpec(0, 4, 40)).ks == \
        pytest.approx(0.02244399429309457, abs=1e-12)


def test_pmf_peak_near_mean():
    assert abs(normal_distance(RectSpec(0, 6, 20)).pmf_argmax - 60) <= 2
    assert abs(normal_distance(RectSpec(0, 4, 40)).pmf_argmax - 80) <= 2


# --- central-count estimate -------------------------------------------------


def test_stirling_estimate_value():
    assert stirling_h_estimate(1, 10) == pytest.approx(516.2329140053246, rel=1e-12)
    with pytest.raises(ValueError):
        stirling_h_estimate(0, 5)


def test_stirling_estimate_agrees_with_direct_float_path():
    for l in (1, 2, 4):
        for m in (2, 5, 10, 20):
            direct = ((l + 1) ** m - 1) * (l + 1) / l \
                / math.sqrt(2 * math.pi * m * ((l + 1) ** 2 - 1) / 12)
            assert stirling_h_estimate(l, m) == pytest.approx(direct, rel=1e-10)


def test_stirling_ratio_improves_with_m():
    r50 = stirling_h_ratio(2, 50)
    r200 = stirling_h_ratio(2, 200)
    assert abs(r200 - 1) < abs(r50 - 1)
    assert abs(r200 - 1) < 0.05


# --- sampling ---------------------------------------------------------------


def test_splitmix64_reference_vectors():
    gen = SplitMix64(0)
    assert [gen.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    gen = SplitMix64(0x123456789ABCDEF)
    assert gen.next_u64() == 0x157A3807A48FAA9D


def test_splitmix64_below_bounds():
    gen = SplitMix64(99)
    for bound in (1, 2, 3, 17, 1 << 80):
        for _ in range(50):
            assert 0 <= gen.below(bound) < bound
    with pytest.raises(ValueError):
        gen.below(0)


def test_sample_deterministic_per_seed():
    spec = RectSpec(0, 2, 5)
    assert sample(spec, 50, seed=7) == sample(spec, 50, seed=7)
    assert sample(spec, 50, seed=7) != sample(spec, 50, seed=8)


def test_sample_respects_bounds():
    spec = RectSpec(3, 3, 2)
    for parts in sample(spec, 40, seed=1):
        assert parts in ((3,), (3, 3))
    spec = RectSpec(1, 4, 3)
    for parts in sample(spec, 200, seed=5):
        assert 1 <= len(parts) <= 3
        assert all(1 <= p <= 4 for p in parts)


def test_sample_readme_example_is_pinned():
    assert sample(RectSpec(0, 2, 5), 3, seed=42) == [
        (2, 1, 2, 1, 2), (2, 1, 1, 0, 0), (0, 1, 1, 0, 0)]


def test_sample_prefix_does_not_depend_on_count():
    # A short sample reads its ranks with smaller tables; the draws stay
    # the first draws of a longer sample with the same seed.
    for spec in (RectSpec(0, 1, 20), RectSpec(3, 9, 12), RectSpec(0, 64, 20)):
        draws = sample(spec, 300, seed=4)
        for n in (1, 2, 7):
            assert sample(spec, n, seed=4) == draws[:n]


def test_sample_matches_pmf_x():
    spec = RectSpec(0, 2, 5)
    px = pmf_X(spec)
    n_draws = 100_000
    freq = Counter(sum(parts) for parts in sample(spec, n_draws, seed=20260810))
    sup = max(abs(freq.get(n, 0) / n_draws - px.float_prob(n)) for n in px.support)
    assert sup < 0.01


@pytest.mark.parametrize("a", [0, 1, 2])
def test_unrank_is_a_bijection_onto_the_family(a):
    for width in range(4):
        r = width + 1
        for m in range(1, 5):
            cumulative = list(accumulate((r ** j for j in range(1, m + 1)), initial=0))
            family = rectangle_family(a, a + width, m)
            # The tables read up to m digits at once; shorter prefixes of
            # them read the rank in several chunks, as on a wider range.
            chunks = _part_chunks(a, r, m, count=cumulative[-1])
            for d in range(1, len(chunks) + 1):
                ranked = [_unrank(u, cumulative, chunks[:d]) for u in range(cumulative[-1])]
                assert len(ranked) == len(family) == len(set(family))
                assert sorted(ranked) == sorted(family), (a, width, m, d)


def test_unrank_reads_wide_part_ranges_without_a_table():
    r = 5000
    cumulative = [0, r, r + r * r]
    chunks = _part_chunks(7, r, 2, count=10 ** 6)
    assert [_unrank(u, cumulative, chunks) for u in (0, r - 1, r, r + 1, r + r * r - 1)] == [
        (7,), (r + 6,), (7, 7), (8, 7), (r + 6, r + 6)]


@pytest.mark.parametrize("bound", [1, 2, 3, 2 ** 64 - 1, 2 ** 64, 2 ** 64 + 1,
                                   pytest.param(65 ** 40, id="65**40"),
                                   pytest.param(2 ** (64 * 1100), id="2**70400")])
def test_below_stream_matches_below_calls(bound):
    # The sampler takes its draws from below_stream: one below(total)
    # value per composition.  Every count here spans more than two blocks;
    # the last bound needs more words per draw than a block holds.
    words_per_draw = -(-(bound.bit_length() + 128) // 64)
    count = 2 * _BLOCK_WORDS // words_per_draw + 7
    for seed in (0, 3, 2 ** 64 + 5):
        gen = SplitMix64(seed)
        assert list(below_stream(seed, bound, count)) == [gen.below(bound) for _ in range(count)]
    assert list(below_stream(1, bound, 0)) == []
    with pytest.raises(ValueError):
        next(below_stream(1, 0, 1))


def test_iter_sample_is_lazy():
    parts = next(iter_sample(RectSpec(0, 64, 20), 10 ** 12, seed=1))
    assert 1 <= len(parts) <= 20 and all(0 <= p <= 64 for p in parts)


def test_iter_sample_matches_sample():
    for spec in (RectSpec(0, 2, 5), RectSpec(2, 2, 3), RectSpec(1, 9, 12)):
        assert list(iter_sample(spec, 300, seed=11)) == sample(spec, 300, seed=11)
    assert list(iter_sample(RectSpec(0, 2, 5), 0, seed=11)) == []


def test_iter_sample_rejects_negative_count_when_called():
    with pytest.raises(ValueError):
        iter_sample(RectSpec(0, 2, 5), -1, seed=0)
