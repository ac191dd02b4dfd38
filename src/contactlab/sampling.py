"""Portable seeded sampling of phase-space test points.

Random points are drawn with a splitmix-style 64-bit generator, so the same seed yields the same
sequence on every platform, independent of any numpy RNG versioning.  SplitMix64 draws one at a
time in Python ints; the sampler computes blocks of the same sequence in numpy uint64.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .metriclab import OmegaFunction

_MASK64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


class SplitMix64:
    """The splitmix64 sequence; uniform doubles use the top 53 bits."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_uint64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        return (self.next_uint64() >> 11) * (2.0**-53)

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.next_float()


def _uniform_rows(seed: int, start: int, rows: int, dim: int, low: float, high: float) -> np.ndarray:
    """Rows start .. start+rows-1 of dim SplitMix64(seed).uniform(low, high) draws each: the k-th state is
    seed + k * golden, and numpy uint64 arithmetic wraps mod 2^64 as the Python ints are masked."""
    k = np.arange(start * dim + 1, (start + rows) * dim + 1, dtype=np.uint64)
    state = np.uint64(seed & _MASK64) + k * _GOLDEN
    z = (state ^ (state >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return (low + (high - low) * ((z >> np.uint64(11)).astype(float) * 2.0**-53)).reshape(rows, dim)


def sample_darboux_points(count: int, n: int, seed: int,
                          low: float = -2.0, high: float = 2.0,
                          omega: Optional[OmegaFunction] = None) -> np.ndarray:
    """Draw points uniformly from [low, high]^(2n+1): a Z array of shape (count, 2n+1).

    Each row's coordinates are drawn in the Z ordering.  When omega is given,
    points where Omega = 0 are rejected and redrawn from the same stream;
    required for epsilon-family runs, whose metric is degenerate there.
    Omega is called once per block of as many draws as rows are missing, the
    points that drawing one at a time would test.  DarbouxPoint.from_array
    makes a row a point.
    """
    dim = 2 * n + 1
    Z = np.empty((count, dim))
    accepted = drawn = 0
    while accepted < count:
        if drawn >= 1000 * count:
            raise ValueError(f"omega filter {omega.name} != 0 rejected nearly every draw")
        block = _uniform_rows(seed, drawn, min(count - accepted, 1000 * count - drawn), dim, low, high)
        drawn += len(block)
        if omega is not None:
            block = block[omega.eval(block[:, 1 : n + 1], block[:, n + 1 :]) != 0]
        Z[accepted : accepted + len(block)] = block
        accepted += len(block)
    return Z
