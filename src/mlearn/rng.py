"""Seedable, platform-independent random generator (SplitMix64).

All sampling in the package (tuple generation, fold shuffling) goes through
this generator so that a given integer seed reproduces bit-identical results
on any platform, independent of numpy's RNG evolution.

The core is the SplitMix64 sequence: the state advances by the golden-ratio
increment and the output is a finalizer of xorshift-multiply rounds.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1


class SplitMix64:
    """64-bit SplitMix generator with small sampling helpers."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_uint64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) via the multiply-shift reduction."""
        if n <= 0:
            raise ValueError("below() requires n >= 1")
        return (self.next_uint64() * n) >> 64

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]

    def sample(self, pool, k: int, replace: bool = False) -> list:
        """Draw k elements from a sequence.

        Without replacement this is a partial Fisher-Yates draw; if k exceeds
        the pool size the caller should have asked for replacement instead.
        The shuffle is virtual: only the positions it has swapped are stored,
        so a draw costs O(k) whatever the pool size, and the pool is never
        copied or modified.
        """
        n = len(pool)
        if replace:
            return [pool[self.below(n)] for _ in range(k)]
        if k > n:
            raise ValueError(f"cannot draw {k} from {n} without replacement")
        moved = {}  # position -> element swapped into it
        out = []
        for i in range(k):
            j = i + self.below(n - i)
            out.append(moved.get(j, pool[j]))
            moved[j] = moved.get(i, pool[i])
        return out
