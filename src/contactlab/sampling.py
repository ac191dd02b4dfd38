"""Portable seeded sampling of phase-space test points.

Random points are drawn with a splitmix-style 64-bit generator so that the
same seed yields the same sequence on every platform, independent of any
numpy RNG versioning.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .metriclab import OmegaFunction

_MASK64 = (1 << 64) - 1


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


def sample_darboux_points(count: int, n: int, seed: int,
                          low: float = -2.0, high: float = 2.0,
                          omega: Optional[OmegaFunction] = None,
                          omega_min: float = 1e-12) -> np.ndarray:
    """Draw points uniformly from [low, high]^(2n+1): a Z array of shape (count, 2n+1).

    Each row's coordinates are drawn in the Z ordering.  When omega is given,
    points with |Omega| < omega_min are rejected and redrawn
    (deterministically, from the same stream); required for epsilon-family
    runs where Omega must not vanish.  DarbouxPoint.from_array makes a row a
    point.
    """
    rng = SplitMix64(seed)
    dim = 2 * n + 1
    Z = np.empty((count, dim))
    accepted = attempts = 0
    while accepted < count:
        attempts += 1
        if attempts > 1000 * count:
            raise ValueError(
                f"omega filter |{omega.name}| >= {omega_min:g} rejected nearly every draw"
            )
        z = Z[accepted]
        z[:] = [rng.uniform(low, high) for _ in range(dim)]
        # Omega gets copies: a redraw overwrites the row
        if omega is not None and abs(omega.eval(z[1 : n + 1].copy(), z[n + 1 :].copy())) < omega_min:
            continue
        accepted += 1
    return Z
