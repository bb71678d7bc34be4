"""Counter-based pseudo-random streams for reproducible parallel sampling.

Every consumer of randomness in this package draws from a *stream*: a
64-bit root plus a draw counter.  Draw ``i`` (1-based) of the stream with
root ``r`` is ``mix64((r + i * GAMMA) mod 2^64)`` where ``mix64`` is the
splitmix64 finalizer.  Because a draw is a pure function of (root, i),
streams can be evaluated out of order, in parallel, or vectorized over
numpy arrays, and the results are bit-identical across platforms (only
unsigned 64-bit wraparound arithmetic is used).

Child streams are derived with :func:`substream`, which mixes a parent
seed with a child index; matrix columns and Monte Carlo trials each get
their own substream so construction order never matters.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_U = np.uint64
_V_GAMMA = _U(GAMMA)
_V_MIX1 = _U(_MIX1)
_V_MIX2 = _U(_MIX2)
_V_30 = _U(30)
_V_27 = _U(27)
_V_31 = _U(31)
_V_1 = _U(1)


def mix64(z: int) -> int:
    """splitmix64 finalizer on a 64-bit integer."""
    z &= MASK64
    z ^= z >> 30
    z = (z * _MIX1) & MASK64
    z ^= z >> 27
    z = (z * _MIX2) & MASK64
    z ^= z >> 31
    return z


def substream(seed: int, index: int) -> int:
    """Root of child stream ``index`` of the stream seeded by ``seed``."""
    return mix64((seed & MASK64) ^ mix64(((index + 1) * GAMMA) & MASK64))


def mix64_vec(z: np.ndarray) -> np.ndarray:
    """Vectorized :func:`mix64` over a uint64 array."""
    z = z.astype(_U, copy=True)
    z ^= z >> _V_30
    z *= _V_MIX1
    z ^= z >> _V_27
    z *= _V_MIX2
    z ^= z >> _V_31
    return z


def substream_vec(seeds, indices: np.ndarray) -> np.ndarray:
    """Vectorized :func:`substream`: an int seed, or a uint64 array of them, broadcast against ``indices``."""
    seeds = _U(seeds & MASK64) if isinstance(seeds, int) else seeds.astype(_U, copy=False)
    idx = indices.astype(_U, copy=False) + _V_1
    return mix64_vec(seeds ^ mix64_vec(idx * _V_GAMMA))


class Stream:
    """Scalar reference stream; the vector helpers below replicate it exactly."""

    __slots__ = ("root", "ctr")

    def __init__(self, root: int):
        self.root = root & MASK64
        self.ctr = 0

    def next_u64(self) -> int:
        self.ctr += 1
        return mix64(self.root + self.ctr * GAMMA)

    def next_below(self, bound: int) -> int:
        """Uniform draw from [0, bound) via modulo rejection (unbiased)."""
        rem = (1 << 64) % bound
        while True:
            z = self.next_u64()
            if rem == 0 or z < (1 << 64) - rem:
                return z % bound

    def next_sign(self) -> int:
        """Uniform draw from {-1, +1} (low bit of the next word)."""
        return 1 if self.next_u64() & 1 else -1


def next_u64_block_vec(roots: np.ndarray, ctrs: np.ndarray, count: int) -> np.ndarray:
    """``count`` consecutive draws per lane, returned as (lanes, count)."""
    offsets = np.arange(1, count + 1, dtype=_U)
    z = mix64_vec(roots[:, None] + (ctrs[:, None] + offsets[None, :]) * _V_GAMMA)
    ctrs += _U(count)
    return z
