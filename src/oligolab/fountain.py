"""LT (fountain) encoding: robust-soliton degrees, seed expansion, XOR coding.

Coded symbols are identified by 32-bit seeds. A seed deterministically
expands to a degree and a set of source-packet indices via a counter-based
splitmix64 stream, so encoder and decoder reconstruct identical neighbor
sets from the seed value alone. A batch of seeds expands in one vectorized
pass into CSR rows (indptr, indices). The expansion generator is frozen:
changing it invalidates every pool encoded with it (golden vectors pinned in
tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

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
        if self.spike - 1 > self.k:
            raise ValueError(
                f"degenerate parameters: spike={self.spike} (k/R with R={self.ripple:.3f}) "
                f"exceeds k+1={self.k + 1}"
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


# splitmix64: counter-based 64-bit mixer driving all seed expansion. Draw t
# of seed s mixes the counter s + (t + 1) * golden, in wrapping uint64.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SEED_LIMIT = 1 << 32
_CHUNK = 1024  # seeds per batch: bounds the working arrays at any batch size


def _draws(counters: np.ndarray) -> np.ndarray:
    """splitmix64 of each uint64 counter as a double in [0, 1)."""
    z = (counters ^ (counters >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))


def _expand_chunk(
    seeds: np.ndarray, k: int, cumulative: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row lengths and row-sorted indices of a batch of uint64 seeds.

    Step t of a seed's sparse Fisher-Yates swaps positions t and
    j_t = t + floor(u * (k - t)) and picks the value at j_t. That value is
    the one written by the latest earlier step m with j_m = j_t, or j_t if
    no step wrote there; step m wrote the value at its own position m, found
    the same way. One sort of the writes keyed by (row, position, step)
    answers every lookup, and pointer jumping follows the chains.
    """
    degree = np.searchsorted(cumulative, _draws(seeds + _GOLDEN), side="right") + 1
    degree = np.minimum(degree, k)
    starts = np.cumsum(degree) - degree
    row = np.repeat(np.arange(len(seeds), dtype=np.int64), degree)
    step = np.arange(len(row), dtype=np.int64) - starts[row]
    u = _draws(seeds[row] + (step + 2).astype(np.uint64) * _GOLDEN)
    j = step + (u * (k - step)).astype(np.int64)

    span = int(degree.max())
    row_base = row * k
    writes = (row_base + j) * span + step
    order = np.argsort(writes)
    written = writes[order]

    def writer(position: np.ndarray) -> np.ndarray:
        """The step that last wrote `position` before each step, or -1."""
        query = (row_base + position) * span + step
        at = np.maximum(np.searchsorted(written, query) - 1, 0)
        hit = (written[at] < query) & (written[at] // span == row_base + position)
        return np.where(hit, order[at], -1)

    value, link = step.copy(), writer(step)  # what each step writes
    while True:
        linked = np.flatnonzero(link >= 0)
        if not len(linked):
            break
        to = link[linked]
        value[linked] = value[to]
        link[linked] = link[to]
    source = writer(j)
    picked = np.where(source >= 0, value[source], j)
    keys = row_base + picked
    keys.sort()
    return degree, keys - row_base


def seed_expand(
    seeds: Sequence[int] | np.ndarray,
    params: SolitonParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Expand seeds into CSR rows of sorted, distinct source-packet indices.

    Row r of the result, indices[indptr[r]:indptr[r + 1]], is the neighbor
    set of seeds[r]. A seed's degree is drawn by inverse CDF, then its
    indices by a sparse partial Fisher-Yates shuffle, so memory stays
    O(degree) per seed even for large k.
    """
    try:
        values = np.asarray(seeds, dtype=np.int64)
    except OverflowError:
        raise ValueError("seed out of 32-bit range") from None
    if len(values) and (values.min() < 0 or values.max() >= _SEED_LIMIT):
        raise ValueError("seed out of 32-bit range")
    cumulative = robust_soliton(params).cumulative
    k = params.k
    chunk = max(1, min(_CHUNK, (1 << 62) // (k * k)))  # keeps sort keys in int64
    degrees, indices = [np.zeros(1, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for at in range(0, len(values), chunk):
        degree, picked = _expand_chunk(
            values[at : at + chunk].astype(np.uint64), k, cumulative
        )
        degrees.append(degree)
        indices.append(picked)
    return np.cumsum(np.concatenate(degrees)), np.concatenate(indices)


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
        bad = next((s for s in self.seeds if not 0 <= s < _SEED_LIMIT), None)
        if bad is not None:
            raise ValueError(f"seed {bad} out of 32-bit range [0, 2**32)")

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


def lt_encode(
    source_bits: np.ndarray,
    schedule: SeedSchedule,
    params: SolitonParams,
) -> np.ndarray:
    """XOR-combine source packets into coded packets, one per seed.

    source_bits: (k, 256) array of 0/1. Returns (count, 256) uint8. The
    packets are packed into 64-bit words and each coded packet is one
    XOR-reduction over its seed's row, `_CHUNK` rows at a time, so that the
    gathered neighbor words stay bounded at any count.
    """
    if not schedule.seeds:
        raise ValueError("schedule is empty")
    source = np.asarray(source_bits, dtype=np.uint8)
    if source.shape != (params.k, PACKET_BITS):
        raise ValueError(
            f"source must have shape ({params.k}, {PACKET_BITS}), got {source.shape}"
        )
    indptr, indices = seed_expand(schedule.seeds, params)
    words = np.packbits(source, axis=1).view(np.uint64)
    coded = np.empty((schedule.count, words.shape[1]), dtype=words.dtype)
    for a in range(0, schedule.count, _CHUNK):
        b = min(a + _CHUNK, schedule.count)
        lo, hi = indptr[a], indptr[b]
        coded[a:b] = np.bitwise_xor.reduceat(words[indices[lo:hi]], indptr[a:b] - lo, axis=0)
    return np.unpackbits(coded.view(np.uint8), axis=1)
