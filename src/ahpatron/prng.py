"""Deterministic pseudo-random generator for reproducible experiments.

SplitMix64 with the standard published constants.  The step function is
bit-exact and platform-independent (see README, "Deterministic RNG"):

    state = (state + 0x9E3779B97F4A7C15) mod 2^64
    z = state
    z = ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z = ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output = z XOR (z >> 31)

The generator is counter-based: the k-th output (k = 1, 2, ...) after state
s is mix(s + k * 0x9E3779B97F4A7C15 mod 2^64), where mix is the last three
lines above.  So take(n) computes a block of outputs at once, with no
sequential loop, and leaves the state where n next_u64 calls would.

Bounded integers use rejection sampling (no modulo bias), and
normal_pairs turns arrays of output pairs into standard normals by the
Box-Muller transform: the log through math.log, one value at a time, and
cos and sin through numpy's float64 ufuncs, which call libm's (see
normal_pairs for why).  Synthetic streams are thus deterministic per (libm,
numpy build).  All dataset permutations, synthetic streams, and the
random-removal baseline draw from this generator only.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Constant mixed into a seed to derive an independent stream (label flips in
# synth_noisy must not perturb the instance stream).
STREAM_SPLIT = 0x3C79AC492BA7B653


class SplitMix64:
    """SplitMix64 generator over a 64-bit state."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        """Return the next 64-bit output."""
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def take(self, n: int) -> np.ndarray:
        """The next n outputs as a uint64 array.

        Advances the state exactly as n next_u64 calls would.
        """
        z = np.arange(1, n + 1, dtype=np.uint64)
        shifted = np.empty_like(z)  # the one scratch block of the mix
        z *= _GAMMA  # every step wraps mod 2^64, in place
        z += np.uint64(self._state)
        self._state = (self._state + n * _GAMMA) & _MASK64
        z ^= np.right_shift(z, 30, out=shifted)
        z *= _MIX1
        z ^= np.right_shift(z, 27, out=shifted)
        z *= _MIX2
        z ^= np.right_shift(z, 31, out=shifted)
        return z

    def getstate(self) -> int:
        """The 64-bit state, for setstate."""
        return self._state

    def setstate(self, state: int) -> None:
        """Resume from a getstate() value."""
        self._state = state

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) via rejection sampling."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = ((1 << 64) // bound) * bound
        while True:
            u = self.next_u64()
            if u < limit:
                return u % bound

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates: for i = n-1..1, swap items[i], items[below(i+1)].

        The n-1 draws come from one take: draw k serves bound b = n-k and is
        accepted as below accepts it, u < 2^64 - (2^64 mod b), i.e.
        u <= ~(2^64 mod b).  From the first rejected draw on, the state is
        rewound to just before it and the rest are drawn with below, so
        the permutation and the final state are those of the scalar loop.
        """
        n = len(items)
        if n < 2:
            return
        start = self._state
        draws = self.take(n - 1)
        bounds = np.arange(n, 1, -1, dtype=np.uint64)
        rem = (np.uint64(0) - bounds) % bounds  # 2^64 mod b
        rejected = np.flatnonzero(draws > ~rem)
        kept = int(rejected[0]) if len(rejected) else n - 1
        js = (draws[:kept] % bounds[:kept]).tolist()
        if kept < n - 1:
            self._state = (start + kept * _GAMMA) & _MASK64
            js += [self.below(n - k) for k in range(kept, n - 1)]
        for i, j in zip(range(n - 1, 0, -1), js):
            items[i], items[j] = items[j], items[i]


def normal_pairs(first: np.ndarray, second: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Box-Muller on arrays of output pairs: (cos parts, sin parts).

    Pair i made from outputs (first[i], second[i]) gives
    sqrt(-2 ln u1) * (cos, sin)(2 pi u2) with u1 = ((first[i] >> 11) + 1)
    * 2^-53, in (0, 1] so its log is finite, and u2 = (second[i] >> 11) *
    2^-53.  The log is math.log, one call per value: numpy's SIMD log
    rounds about 7,000 of every 2,000,000 such u1 differently from libm
    (6,972 for the u1 of SplitMix64(7).take(4_000_000)).  cos and sin are
    numpy's float64 ufuncs, which call libm's functions and equal
    math.cos/math.sin bit for bit on these angles (tests/test_prng.py
    checks it), so the pairs are deterministic per (libm, numpy build).
    """
    n = len(first)
    u1 = ((first >> 11) + 1) * 2.0**-53
    u2 = (second >> 11) * 2.0**-53
    r = np.sqrt(-2.0 * np.fromiter(map(math.log, u1.tolist()), float, n))
    theta = (2.0 * math.pi) * u2
    return r * np.cos(theta), r * np.sin(theta)


def derive_stream_seed(seed: int) -> int:
    """Seed for an auxiliary stream decoupled from the main one."""
    return (seed ^ STREAM_SPLIT) & _MASK64
