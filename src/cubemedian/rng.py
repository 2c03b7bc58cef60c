"""Deterministic PRNG (splitmix64) for seeded generators and sampling.

splitmix64 is fixed by its definition, so seeded fixtures are bit-identical
across platforms and Python versions; stdlib Mersenne helpers do not make
that guarantee.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection; one draw covers n <= 2^64."""
        if n <= 0:
            raise ValueError("randrange() bound must be positive")
        if n > 1 << 64:
            # limit below would be 0 and reject every draw
            raise ValueError(f"randrange() bound must be at most 2^64, not {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            r = self.next64()
            if r < limit:
                return r % n

    def choice(self, seq):
        if not seq:
            raise ValueError("choice() on empty sequence")
        return seq[self.randrange(len(seq))]

    def sample(self, seq, k: int) -> list:
        """k distinct elements, via partial Fisher-Yates."""
        pool = list(seq)
        if k > len(pool):
            raise ValueError("sample() larger than population")
        for i in range(k):
            j = i + self.randrange(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]
