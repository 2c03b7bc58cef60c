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
        self._limits: dict[int, int] = {}  # n -> the rejection bound of randrange(n)

    def next64(self) -> int:
        return self.randrange(1 << 64)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection: a splitmix64 output below
        the largest multiple of n that is at most 2^64 is kept, mod n, so one
        draw covers n <= 2^64."""
        limit = self._limits.get(n)
        if limit is None:
            if n <= 0:
                raise ValueError("randrange() bound must be positive")
            if n > 1 << 64:
                # the bound would be 0 and reject every draw
                raise ValueError(f"randrange() bound must be at most 2^64, not {n}")
            limit = self._limits[n] = (1 << 64) - ((1 << 64) % n)
        state = self._state
        while True:
            state = (state + 0x9E3779B97F4A7C15) & _MASK
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            z ^= z >> 31
            if z < limit:
                self._state = state
                return z % n

    def choice(self, seq):
        if not seq:
            raise ValueError("choice() on empty sequence")
        return seq[self.randrange(len(seq))]

    def sample(self, seq, k: int) -> list:
        """k distinct elements of the sequence, via partial Fisher-Yates: step
        i swaps slot i with a slot j >= i drawn uniformly.  Only the slots a
        swap moved are stored, so a draw touches k slots, not len(seq)."""
        n = len(seq)
        if k > n:
            raise ValueError("sample() larger than population")
        moved: dict[int, object] = {}  # slot -> the element a swap put there
        out = []
        for i in range(k):
            j = i + self.randrange(n - i)
            out.append(moved[j] if j in moved else seq[j])
            moved[j] = moved[i] if i in moved else seq[i]
        return out
