"""Deterministic 64-bit RNG used by the instance generator and the bench sweep.

The generator is xorshift64* with the standard shift triple (12, 25, 27)
and multiplier 0x2545F4914F6CDD1D.  Seeds are preconditioned with one
splitmix64 step (constants 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9,
0x94D049BB133111EB) so that seed 0 and other low-entropy seeds still
produce a usable state.  Everything is pinned so that a given seed
reproduces the same stream on any platform or implementation.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
BELOW_LIMIT = 1 << 64  # largest n that `below` can draw from


def splitmix64(x: int) -> int:
    """One splitmix64 output step; also used to mix (seed, index) pairs."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class XorShift64Star:
    """xorshift64* stream; state is a single nonzero 64-bit word."""

    def __init__(self, seed: int):
        self._state = splitmix64(seed & _MASK64)
        if self._state == 0:
            self._state = 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        x = self._state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), rejection-sampled to avoid modulo bias.

        One 64-bit draw covers at most 2**64 values, so n above that is
        refused rather than sampled forever.
        """
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        if n > BELOW_LIMIT:
            raise ValueError("below() needs n <= 2**64")
        limit = (_MASK64 + 1) - ((_MASK64 + 1) % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.below(hi - lo + 1)


def derive_seed(base: int, index: int) -> int:
    """Stable per-instance seed for sweeps: mixes a base seed with an index."""
    return splitmix64(splitmix64(base & _MASK64) ^ (index & _MASK64))
