"""Seedable, platform-independent random generator (SplitMix64).

All sampling in the package (tuple generation, fold shuffling, random
initial transforms) goes through this generator so that a given integer seed
reproduces bit-identical results on any platform, independent of numpy's RNG
evolution.

The core is the SplitMix64 sequence: the state advances by the golden-ratio
increment and the output is a finalizer of xorshift-multiply rounds. The
sequence is counter-based, so the t-th output is ``mix(seed + t * gamma mod
2**64)``: :meth:`SplitMix64.draws` computes any number of outputs as one
uint64 array, with the same values as that many :meth:`next_uint64` calls.
:func:`below` reduces draws to integers in ``[0, n)`` by the multiply-shift
rule ``(z * n) >> 64``; it is exact for moduli below 2**32.

Every consumer takes one block: the tuple samplers a fixed run per sample
(2k draws for pairs and triplets, 3k for quadruplets; see
:mod:`mlearn.tuples`), :meth:`SplitMix64.shuffle` one draw per position
from the last down to the second, and ``init="random"`` one draw per matrix
entry, row by row, keeping its top 53 bits.
"""

from __future__ import annotations

import numpy as np

from .exceptions import check_at_least

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


class SplitMix64:
    """64-bit SplitMix generator: scalar draws, block draws and a shuffle."""

    def __init__(self, seed: int):
        self._state = int(check_at_least("seed", seed)) & _MASK

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def draws(self, count: int) -> np.ndarray:
        """The next ``count`` outputs as a uint64 array; advances the state.

        Every operation is on arrays, where uint64 arithmetic wraps modulo
        2**64 silently (numpy scalars would warn on overflow).
        """
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= np.uint64(_GAMMA)
        z += np.uint64(self._state)
        self._state = (self._state + int(count) * _GAMMA) & _MASK
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return z

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle: position i swaps with one drawn
        below i + 1, for i from the last position down to 1."""
        n = len(items)
        js = below(self.draws(max(n - 1, 0)), np.arange(n, 1, -1)).tolist()
        for i, j in zip(range(n - 1, 0, -1), js):
            items[i], items[j] = items[j], items[i]


def below(z: np.ndarray, n) -> np.ndarray:
    """Uniform integers in [0, n) from uint64 draws z: the high 64 bits of
    z * n, taken by a 32-bit split multiply.

    With z = hi * 2**32 + lo, the high word is (hi*n + (lo*n >> 32)) >> 32;
    neither product nor the sum overflows 64 bits while n < 2**32, so the
    result is exact there. n broadcasts against z and must be >= 1.
    """
    n = np.asarray(n, dtype=np.uint64)
    hi = (z >> _SHIFT32) * n
    hi += ((z & _LOW32) * n) >> _SHIFT32
    return (hi >> _SHIFT32).astype(np.intp)
