"""Deterministic PRNG (splitmix64) for seeded generators and sampling.

splitmix64 is fixed by its definition, so seeded fixtures are bit-identical
across platforms and Python versions; stdlib Mersenne helpers do not make
that guarantee.

Output i of a generator seeded s is the finaliser applied to the state
s + i·γ mod 2^64, so outputs are computed a block at a time: `_fill` packs
the next `_LANES` states into one int, one per 128-bit lane (lane j holds
bits 128j..128j+127), runs the finaliser on all of them at once and unpacks
the low 64 bits of each lane.  The lane lemma: if every lane is below 2^64
before a step, every lane of the result is the step applied to that lane
alone.
- Add: s·ONES + STEPS puts s + (j+1)·γ, below 2^65, in lane j; no carry
  leaves the lane, and the AND with the lane mask reduces it mod 2^64.
- Shift-XOR: x >> r moves the low r bits of lane j+1 into the high bits of
  lane j; the AND with the lane mask clears them before the XOR, and what
  stays is lane j's own x >> r, since its bits 64..127 are 0.
- Multiply by a constant c < 2^64: each lane's product is below 2^128, so it
  fits its lane and the lanes' products add without overlap; the AND keeps
  each product mod 2^64.
The last shift-XOR skips its AND: the bits it moves into lane j land in its
bits 97..127, and only the low 64 bits of each lane are read.
The buffer holds the outputs the one-at-a-time generator would return next,
in order, and every method takes raw outputs from it one by one as that
generator would step: the buffer changes no draw, and `_state` is the state
that generator would hold.
"""

from __future__ import annotations

import sys

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_LANES = 256  # outputs per `_fill`
_LANE_BYTES = 16
# lane j of each constant, little-endian: 1; 2^64 - 1; (j+1)·γ mod 2^64
_ONES = int.from_bytes((1).to_bytes(_LANE_BYTES, "little") * _LANES, "little")
_LANE_MASK = int.from_bytes(_MASK.to_bytes(_LANE_BYTES, "little") * _LANES, "little")
_STEPS = int.from_bytes(b"".join(((j + 1) * _GAMMA & _MASK).to_bytes(_LANE_BYTES, "little")
                                 for j in range(_LANES)), "little")
_ADVANCE = _LANES * _GAMMA & _MASK
# the lanes' bytes in a byte order, read as 64-bit words of that order: the
# slice of the words that holds each lane's low word, last lane first
_LOW_WORDS = {"little": slice(-2, None, -2), "big": slice(1, None, 2)}


class SplitMix64:
    def __init__(self, seed: int):
        # an empty buffer counts as consumed, so _state is the seed
        self._base = (seed - _ADVANCE) & _MASK  # the state before the buffer's first output
        self._buf: list[int] = []  # the unread outputs, next one last
        self._limits: dict[int, int] = {}  # n -> the rejection bound of randrange(n)

    @property
    def _state(self) -> int:
        """The state after the last output read."""
        return (self._base + (_LANES - len(self._buf)) * _GAMMA) & _MASK

    def _fill(self) -> int:
        """Refill the buffer with the next `_LANES` outputs; pop the first."""
        base = self._base = (self._base + _ADVANCE) & _MASK
        x = (base * _ONES + _STEPS) & _LANE_MASK
        x ^= (x >> 30) & _LANE_MASK
        x = (x * 0xBF58476D1CE4E5B9) & _LANE_MASK
        x ^= (x >> 27) & _LANE_MASK
        x = (x * 0x94D049BB133111EB) & _LANE_MASK
        x ^= x >> 31
        buf = self._buf
        words = memoryview(x.to_bytes(_LANES * _LANE_BYTES, sys.byteorder)).cast("Q")
        buf[:] = words[_LOW_WORDS[sys.byteorder]].tolist()
        return buf.pop()

    def next64(self) -> int:
        return self.randrange(1 << 64)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), by rejection: a splitmix64 output below
        the largest multiple of n that is at most 2^64 is kept, mod n, so one
        draw covers n <= 2^64."""
        limit = self._limits.get(n)
        if limit is None or n.__class__ is not int:  # 2.0 finds the bound of 2
            limit = self._limit(n)
        buf = self._buf
        while True:
            z = buf.pop() if buf else self._fill()
            if z < limit:
                return z % n

    def _limit(self, n) -> int:
        """The rejection bound of randrange(n), stored for the next call."""
        if not isinstance(n, int):
            raise TypeError(f"randrange() bound must be an int, not {type(n).__name__}")
        if n <= 0:
            raise ValueError("randrange() bound must be positive")
        if n > 1 << 64:
            # the bound would be 0 and reject every draw
            raise ValueError(f"randrange() bound must be at most 2^64, not {n}")
        limit = self._limits[n] = (1 << 64) - ((1 << 64) % n)
        return limit

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
        if k < 0:
            raise ValueError(f"sample() size must be nonnegative, not {k}")
        moved: dict[int, object] = {}  # slot -> the element a swap put there
        out = []
        for i in range(k):
            j = i + self.randrange(n - i)
            out.append(moved[j] if j in moved else seq[j])
            moved[j] = moved[i] if i in moved else seq[i]
        return out
