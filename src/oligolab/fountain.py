"""LT (fountain) encoding: robust-soliton degrees, seed expansion, XOR coding.

Coded symbols are identified by 32-bit seeds. A seed deterministically
expands to a degree and a set of source-packet indices via a counter-based
splitmix64 stream, so encoder and decoder reconstruct identical neighbor
sets from the seed value alone. The expansion generator is frozen: changing
it invalidates every pool encoded with it (golden vectors pinned in tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

PACKET_BITS = 256


@dataclass(frozen=True)
class SolitonParams:
    """Robust-soliton parameters: k source packets, tuning c, failure rate delta."""

    k: int
    c: float = 0.025
    delta: float = 0.001

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.c <= 0.0:
            raise ValueError(f"c must be > 0, got {self.c}")
        if self.ripple >= self.k:
            raise ValueError(
                f"degenerate parameters: R={self.ripple:.3f} >= k={self.k}"
            )

    @property
    def ripple(self) -> float:
        """R = c * ln(k/delta) * sqrt(k), the expected ripple size."""
        return self.c * math.log(self.k / self.delta) * math.sqrt(self.k)

    @property
    def spike(self) -> int:
        """Degree carrying the tau spike, round(k/R)."""
        return int(round(self.k / self.ripple))


@dataclass(frozen=True)
class DegreeDistribution:
    """Normalized degree probabilities; probabilities[d-1] is P(degree=d)."""

    probabilities: np.ndarray
    cumulative: np.ndarray

    @property
    def k(self) -> int:
        return len(self.probabilities)


def robust_soliton(params: SolitonParams) -> DegreeDistribution:
    """Luby's rho + tau construction over degrees 1..k, normalized by beta."""
    k = params.k
    rho = np.zeros(k)
    rho[0] = 1.0 / k
    degrees = np.arange(2, k + 1, dtype=np.float64)
    rho[1:] = 1.0 / (degrees * (degrees - 1.0))

    tau = np.zeros(k)
    r = params.ripple
    spike = params.spike
    if spike >= 2:
        d = np.arange(1, spike, dtype=np.float64)
        tau[: spike - 1] = r / (d * k)
    if 1 <= spike <= k:
        tau[spike - 1] += r * math.log(r / params.delta) / k

    probs = rho + tau
    probs /= probs.sum()
    return DegreeDistribution(probabilities=probs, cumulative=np.cumsum(probs))


def required_symbols(params: SolitonParams) -> int:
    """Symbol count K sufficient for LT decoding with failure rate delta.

    K = k + sum_{i=1}^{k/R - 1} R/i + R*ln(R/delta), rounded up. The bound
    uses the same spike index as the degree distribution so the two stay
    consistent.
    """
    r = params.ripple
    total = float(params.k)
    spike = params.spike
    if spike >= 2:
        total += (r / np.arange(1, spike, dtype=np.float64)).sum()
    total += r * math.log(r / params.delta)
    return int(math.ceil(total))


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


def seed_sequence_value(index: int) -> int:
    """The fixed pseudorandom seed sequence: a 32-bit bijective mix of the index.

    Consecutive raw integers would render as near-identical 16-nt seed
    regions (pairwise hamming distance 1), so a single substitution could
    silently move a read into another valid cluster. The murmur3 finalizer
    is bijective on 32 bits, which guarantees distinctness while keeping
    seed regions pairwise far apart.
    """
    h = index & 0xFFFFFFFF
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & 0xFFFFFFFF
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & 0xFFFFFFFF
    h ^= h >> 16
    return h


@dataclass(frozen=True)
class SeedSchedule:
    """Ordered list of distinct 32-bit seeds defining the coded symbols."""

    seeds: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be pairwise distinct")

    @property
    def count(self) -> int:
        return len(self.seeds)

    @classmethod
    def first_n(cls, count: int) -> "SeedSchedule":
        """The first `count` seeds of the fixed pseudorandom sequence."""
        return cls(seeds=tuple(seed_sequence_value(i) for i in range(count)))

    def save(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            for s in self.seeds:
                fh.write(f"{s:08x}\n")

    @classmethod
    def load(cls, path: str | Path) -> "SeedSchedule":
        with open(path) as fh:
            seeds = tuple(int(line.strip(), 16) for line in fh if line.strip())
        return cls(seeds=seeds)


class NeighborCache:
    """Memoized seed expansion for a fixed parameter set."""

    def __init__(self, params: SolitonParams, dist: DegreeDistribution | None = None):
        self.params = params
        self.dist = dist if dist is not None else robust_soliton(params)
        self._cache: dict[int, np.ndarray] = {}

    def neighbors(self, seed: int) -> np.ndarray:
        hit = self._cache.get(seed)
        if hit is None:
            hit = seed_expand(seed, self.params, self.dist)
            self._cache[seed] = hit
        return hit


def lt_encode(
    source_bits: np.ndarray,
    schedule: SeedSchedule | Sequence[int],
    params: SolitonParams,
    dist: DegreeDistribution | None = None,
) -> np.ndarray:
    """XOR-combine source packets into coded packets, one per seed.

    source_bits: (k, 256) array of 0/1. Returns (count, 256) uint8.
    """
    seeds: Iterable[int] = schedule.seeds if isinstance(schedule, SeedSchedule) else schedule
    seeds = list(seeds)
    if not seeds:
        raise ValueError("schedule is empty")
    source = np.asarray(source_bits, dtype=np.uint8)
    if source.shape != (params.k, PACKET_BITS):
        raise ValueError(
            f"source must have shape ({params.k}, {PACKET_BITS}), got {source.shape}"
        )
    if dist is None:
        dist = robust_soliton(params)
    coded = np.empty((len(seeds), PACKET_BITS), dtype=np.uint8)
    for row, seed in enumerate(seeds):
        nbrs = seed_expand(seed, params, dist)
        coded[row] = np.bitwise_xor.reduce(source[nbrs], axis=0)
    return coded
