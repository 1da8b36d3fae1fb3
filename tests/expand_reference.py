"""Reference seed expansion for property tests: the scalar generator.

This is `oligolab.fountain.seed_expand` as it was before seeds were
expanded in batches: a Python splitmix64 stream drawn one value at a time
and a dict-backed sparse Fisher-Yates shuffle, one seed per call. It is the
frozen encoder/decoder contract that the batched expansion must reproduce
row for row.
"""

from __future__ import annotations

import numpy as np

from oligolab.fountain import DegreeDistribution, SolitonParams

# splitmix64: counter-based 64-bit mixer driving all seed expansion.
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class _SeedStream:
    """Deterministic uniform doubles in [0, 1) derived from one 32-bit seed."""

    def __init__(self, seed: int):
        self._counter = seed & 0xFFFFFFFF

    def next_float(self) -> float:
        self._counter = (self._counter + _GOLDEN) & _MASK64
        z = self._counter
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
        return (z >> 11) * (1.0 / (1 << 53))

    def next_below(self, n: int) -> int:
        return int(self.next_float() * n)


def seed_expand(seed: int, params: SolitonParams, dist: DegreeDistribution) -> np.ndarray:
    """Expand a seed into its sorted set of distinct source-packet indices.

    Degree is drawn by inverse CDF, then indices by a sparse partial
    Fisher-Yates shuffle, so memory stays O(degree) even for large k.
    """
    stream = _SeedStream(seed)
    u = stream.next_float()
    degree = int(np.searchsorted(dist.cumulative, u, side="right")) + 1
    degree = min(degree, params.k)

    swapped: dict[int, int] = {}
    picked = np.empty(degree, dtype=np.int64)
    for i in range(degree):
        j = i + stream.next_below(params.k - i)
        picked[i] = swapped.get(j, j)
        swapped[j] = swapped.get(i, i)
    picked.sort()
    return picked
