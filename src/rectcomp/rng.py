"""Seedable, portable random generator for reproducible sampling.

SplitMix64 (Steele, Lea & Flood's 64-bit mixing generator): a single
64-bit counter stepped by the golden-ratio increment and scrambled with
two xor-multiply rounds.  Pure integer arithmetic, so identical seeds
give identical streams on every platform and Python version.

``below_stream`` yields the values of successive ``below`` calls on one
generator, but computes the 64-bit words a block at a time: the
scrambling rounds run once per block on a big integer that holds every
word of the block in its own lane.  Its words are copied out as
big-endian bytes and never read back as native integers, so the stream
does not depend on the platform's byte order either.
"""
from __future__ import annotations

from itertools import repeat
from typing import Iterator

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

#: Extra bits drawn beyond a bound's width so that the modulo reduction's
#: bias stays below 2**-128.
_DEBIAS_BITS = 128

#: Words per block of ``below_stream``.  The cost per word hardly moves
#: between 256 and 4096 words, and the lane constants below are built
#: at import, so the block is kept at the small end.
_BLOCK_WORDS = 256


# Lane k (128 bits, counted from the bottom) of _ONES holds 1, of _RAMP
# k + 1, and of _LANE_MASK the 64-bit mask.
_ONES = int.from_bytes((b"\1" + bytes(15)) * _BLOCK_WORDS, "little")
_RAMP = int.from_bytes(b"".join(k.to_bytes(16, "little") for k in range(1, _BLOCK_WORDS + 1)),
                       "little")
_LANE_MASK = int.from_bytes((b"\xff" * 8 + bytes(8)) * _BLOCK_WORDS, "little")


class SplitMix64:
    """SplitMix64 stream over 64-bit words."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def bits(self, nbits: int) -> int:
        """Uniform integer of ``nbits`` bits, built from whole 64-bit words."""
        words = -(-nbits // 64)
        value = 0
        for _ in range(words):
            value = (value << 64) | self.next_u64()
        return value >> (words * 64 - nbits)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), without a rejection loop.

        Draws ``bound.bit_length() + 128`` bits and reduces modulo the
        bound; the resulting bias is below 2**-128, and the number of
        words consumed per call is a fixed function of the bound.
        """
        if bound <= 0:
            raise ValueError(f"bound must be positive, got {bound}")
        if bound == 1:
            return 0
        return self.bits(bound.bit_length() + _DEBIAS_BITS) % bound


def below_stream(seed: int, bound: int, count: int) -> Iterator[int]:
    """The ``count`` values that successive ``SplitMix64(seed).below(bound)``
    calls return, computed a block of words at a time.

    Word k after the seed has state ``seed + k*GOLDEN mod 2**64``, so a
    block of n words is one big integer of n 128-bit lanes,
    ``(s*ONES + GOLDEN*RAMP) & M``.  Every xor-shift is masked with M
    before its multiply, and a 64x64-bit product fits in its lane, so no
    lane carries into the next.  A block holds at most ``_BLOCK_WORDS``
    words and never more than the remaining draws need.  Like ``below``,
    a bound of 1 yields 0 and uses no words.  The bound is checked at the
    first draw.
    """
    if bound <= 0:
        raise ValueError(f"bound must be positive, got {bound}")
    if bound == 1:
        yield from repeat(0, count)
        return
    nbits = bound.bit_length() + _DEBIAS_BITS
    step = -(-nbits // 64) * 8  # bytes per draw
    shift = step * 8 - nbits
    state = seed & _MASK64
    left = count * step // 8  # words still to compute
    ones, ramp, mask = _ONES, _RAMP, _LANE_MASK
    pending = b""  # big-endian words not yet used by a draw
    while left > 0:
        n = min(_BLOCK_WORDS, left)
        if n < _BLOCK_WORDS:
            keep = (1 << 128 * n) - 1
            ones, ramp, mask = ones & keep, ramp & keep, mask & keep
        z = (state * ones + _GOLDEN * ramp) & mask
        z = ((z ^ (z >> 30)) & mask) * _MIX1 & mask
        z = ((z ^ (z >> 27)) & mask) * _MIX2 & mask
        z = (z ^ (z >> 31)) & mask
        state = (state + n * _GOLDEN) & _MASK64
        left -= n
        # Big-endian bytes put lane n-1 first and each lane's zero high
        # half before its word: every other 8-byte item, last to first.
        pending += memoryview(z.to_bytes(16 * n, "big")).cast("Q")[::-2].tobytes()
        end = len(pending) - len(pending) % step
        for i in range(0, end, step):
            yield (int.from_bytes(pending[i:i + step], "big") >> shift) % bound
        pending = pending[end:]
