"""Per-position base-transition statistics estimated from aligned reads.

Reads are aligned to the encoded pool by minimum edit distance (ties break
to the lowest oligo index). Counting conditions on reads that contain at
least one positional mismatch versus their aligned oligo; for each
position and observed base, the three source-base probabilities are the
per-source mismatch rates normalized to sum to 1. Positions with no
observed transitions fall back to uniform 1/3 and are flagged.

Alignment is exact but accelerated: a read whose seed region matches a
pool seed is compared against that oligo, any other read against its
Hamming-nearest oligo. A metric-ball argument (2 * hamming < min pairwise
pool distance), or an exact match, certifies that candidate without
scanning; everything else goes through a pruned exact scan, so results are
identical to brute force including the tie rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .dna_codec import (
    BASES,
    OLIGO_NT,
    SEED_NT,
    base_indices_to_seeds,
    encode_base_matrix,
    encode_bases,
    sequence_to_indices,
)
from .fastq_io import ReadRecord, phred_to_prob

TABLE_VERSION = "transition-table v1"
_CHUNK_READS = 20000  # reads per estimate_transitions step


def levenshtein(a: str, b: str) -> int:
    """Exact edit distance, row-vectorized DP."""
    ca = encode_bases(a).astype(np.int32)
    cb = encode_bases(b).astype(np.int32)
    m = len(cb)
    prev = np.arange(m + 1, dtype=np.int32)
    idx = np.arange(m + 1, dtype=np.int32)
    cur = np.empty(m + 1, dtype=np.int32)
    for i, ch in enumerate(ca):
        cur[0] = i + 1
        np.minimum(prev[:-1] + (cb != ch), prev[1:] + 1, out=cur[1:])
        # settle the left-to-right insertion chain in one accumulate pass
        chain = np.minimum.accumulate(cur - idx) + idx
        np.minimum(cur, chain, out=cur)
        prev, cur = cur, prev
    return int(prev[m])


def levenshtein_banded(a_codes, b_codes, cutoff: int) -> int:
    """Edit distance if <= cutoff, else cutoff + 1 (Ukkonen band)."""
    n = len(a_codes)
    m = len(b_codes)
    if abs(n - m) > cutoff:
        return cutoff + 1
    if isinstance(a_codes, np.ndarray):
        a_codes = a_codes.tolist()
    if isinstance(b_codes, np.ndarray):
        b_codes = b_codes.tolist()
    big = cutoff + 1
    # prev[d] holds row value at column i - 1 + (d - cutoff) for row i - 1
    width = 2 * cutoff + 1
    prev = [big] * width
    for j in range(cutoff + 1):
        if j <= m:
            prev[cutoff + j] = j
    for i in range(1, n + 1):
        cur = [big] * width
        lo = max(1, i - cutoff)
        hi = min(m, i + cutoff)
        if i - cutoff <= 0:
            cur[cutoff - i] = i
        ai = a_codes[i - 1]
        best = big
        for j in range(lo, hi + 1):
            d = j - i + cutoff
            sub = prev[d] + (ai != b_codes[j - 1])
            dele = prev[d + 1] + 1 if d + 1 < width else big
            ins = cur[d - 1] + 1 if d - 1 >= 0 else big
            v = sub if sub < dele else dele
            if ins < v:
                v = ins
            cur[d] = v
            if v < best:
                best = v
        if best > cutoff and (i - cutoff > 0 or cur[cutoff - i] > cutoff):
            return big
        prev = cur
    return min(prev[m - n + cutoff], big)


class PoolIndex:
    """Encoded pool prepared for fast nearest-oligo queries."""

    # pairwise min-distance precompute is quadratic; skip for large pools
    DMIN_POOL_LIMIT = 64

    def __init__(self, sequences: Sequence[str], dmin_pool_limit: int | None = None):
        if not sequences:
            raise ValueError("empty pool")
        if any(len(s) != OLIGO_NT for s in sequences):
            raise ValueError(f"all pool oligos must be {OLIGO_NT} nt")
        self.sequences = list(sequences)
        self.codes = encode_base_matrix(self.sequences, OLIGO_NT)
        if (self.codes > 3).any():
            raise ValueError("pool oligos must be A/C/G/T only")
        self.base_counts = np.stack(
            [(self.codes == b).sum(axis=1) for b in range(4)], axis=1
        ).astype(np.int32)
        # sorted distinct seeds, each with the first oligo that carries it
        self.seeds, self.seed_oligo = np.unique(
            base_indices_to_seeds(self.codes[:, :SEED_NT]), return_index=True
        )
        limit = self.DMIN_POOL_LIMIT if dmin_pool_limit is None else dmin_pool_limit
        self._dmin: np.ndarray | None = None
        if len(sequences) <= limit:
            self._dmin = self._pairwise_dmin()
        self._codes_lists: list[list[int]] | None = None

    def codes_list(self, idx: int) -> list[int]:
        if self._codes_lists is None:
            self._codes_lists = [row.tolist() for row in self.codes]
        return self._codes_lists[idx]

    def __len__(self) -> int:
        return len(self.sequences)

    def _pairwise_dmin(self) -> np.ndarray:
        n = len(self.sequences)
        dmin = np.full(n, np.iinfo(np.int32).max, dtype=np.int32)
        for i in range(n):
            for j in range(i + 1, n):
                d = levenshtein(self.sequences[i], self.sequences[j])
                if d < dmin[i]:
                    dmin[i] = d
                if d < dmin[j]:
                    dmin[j] = d
        return dmin

    @property
    def dmin(self) -> np.ndarray | None:
        return self._dmin


def _exact_scan(read_codes: np.ndarray, pool: PoolIndex, upper: int | None) -> tuple[int, int]:
    """Exact argmin edit distance with lower-bound pruning; ties -> lowest index.

    Scans in ascending index order so the first oligo achieving the minimum
    wins ties; once a best is set, later oligos must beat it strictly. The
    band cutoff escalates from small values because the nearest oligo is
    usually very close in edit distance even when hamming distance is large
    (length-preserving indel bursts); a failed rung just widens the band.
    """
    codes_list = read_codes.tolist()
    counts = np.bincount(read_codes, minlength=4)[:4].astype(np.int32)
    # multiset (bag) distance / 2 lower-bounds edit distance
    lbs = np.abs(pool.base_counts - counts[None, :]).sum(axis=1) // 2
    ub = upper if upper is not None else len(read_codes) + OLIGO_NT
    rung = 2
    while True:
        start = min(rung, ub)
        best_d = np.iinfo(np.int32).max
        best_i = -1
        # an oligo whose bound exceeds start cannot be within any band of this rung
        for idx in np.flatnonzero(lbs <= start).tolist():
            bound = min(start, best_d - 1) if best_i >= 0 else start
            if lbs[idx] > bound:
                continue
            d = levenshtein_banded(codes_list, pool.codes_list(idx), bound)
            if d <= bound:
                best_d, best_i = int(d), idx
        if best_i >= 0:
            return best_i, best_d
        if start >= ub:
            raise AssertionError("exact scan found no oligo within the upper bound")
        rung *= 4


def align_reads(codes: np.ndarray, pool: PoolIndex) -> tuple[np.ndarray, np.ndarray, int]:
    """Nearest pool oligo of each read, ties to the lowest index.

    codes is an (m, 152) matrix of A/C/G/T base codes. Returns the aligned
    oligo index and the Hamming distance to it per read, and the number of
    reads that took the exact scan.
    """
    values = base_indices_to_seeds(codes[:, :SEED_NT])
    at = np.searchsorted(pool.seeds, values).clip(max=len(pool.seeds) - 1)
    have = pool.seeds[at] == values
    cand = np.where(have, pool.seed_oligo[at], -1)
    hams = np.empty(len(codes), dtype=np.int64)
    rows = np.flatnonzero(have)
    hams[rows] = (codes[rows] != pool.codes[cand[rows]]).sum(axis=1)
    miss = np.flatnonzero(~have)
    # no seed hit: take the hamming-nearest oligo as the candidate,
    # in blocks sized to keep the comparison tensor small
    block = max(1, 6_000_000 // (len(pool) * OLIGO_NT))
    for lo in range(0, len(miss), block):
        rows = miss[lo : lo + block]
        hm = (codes[rows][:, None, :] != pool.codes[None, :, :]).sum(axis=2)
        cand[rows] = hm.argmin(axis=1)
        hams[rows] = hm.min(axis=1)
    if pool.dmin is not None:
        certified = 2 * hams < pool.dmin[cand]
    else:
        # without dmin only exact matches are certified without a scan
        certified = hams == 0
    slow_rows = np.flatnonzero(~certified)
    for r in slow_rows:
        idx, _ = _exact_scan(codes[r], pool, int(hams[r]))
        cand[r] = idx
        hams[r] = (codes[r] != pool.codes[idx]).sum()
    return cand, hams, len(slow_rows)


@dataclass
class TransitionTable:
    """Conditional source-base probabilities per position and observed base.

    probs[i, y, x] = P(source base x | observed base y at position i), with
    the diagonal fixed at 0 and each off-diagonal row summing to 1.
    counts[i, x, y] holds the raw x->y mismatch tallies and denoms[i, x]
    the number of conditioned reads whose aligned oligo has x at i.
    """

    probs: np.ndarray
    counts: np.ndarray
    denoms: np.ndarray
    fallback: np.ndarray
    meta: dict = field(default_factory=dict)

    @classmethod
    def uniform(cls) -> "TransitionTable":
        probs = np.full((OLIGO_NT, 4, 4), 1.0 / 3.0)
        probs[:, np.arange(4), np.arange(4)] = 0.0
        return cls(
            probs=probs,
            counts=np.zeros((OLIGO_NT, 4, 4), dtype=np.int64),
            denoms=np.zeros((OLIGO_NT, 4), dtype=np.int64),
            fallback=np.ones((OLIGO_NT, 4), dtype=bool),
            meta={"source": "uniform"},
        )

    def row_sums(self) -> np.ndarray:
        """(152, 4) sums over source bases for each observed base."""
        return self.probs.sum(axis=2)

    def save_tsv(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            fh.write(f"# {TABLE_VERSION}\n")
            fh.write("position\tfrom_base\tto_base\tcount\tdenom\tprobability\tfallback\n")
            for i in range(OLIGO_NT):
                for y in range(4):
                    for x in range(4):
                        if x == y:
                            continue
                        fh.write(
                            f"{i + 1}\t{BASES[x]}\t{BASES[y]}\t"
                            f"{self.counts[i, x, y]}\t{self.denoms[i, x]}\t"
                            f"{self.probs[i, y, x]:.12g}\t{int(self.fallback[i, y])}\n"
                        )

    @classmethod
    def load_tsv(cls, path: str | Path) -> "TransitionTable":
        """Read a table written by save_tsv.

        Every position 1..152 must give each off-diagonal (from, to) pair
        exactly once; anything else raises ValueError.
        """
        seen = np.zeros((OLIGO_NT, 4, 4), dtype=bool)
        probs = np.zeros((OLIGO_NT, 4, 4))
        counts = np.zeros((OLIGO_NT, 4, 4), dtype=np.int64)
        denoms = np.zeros((OLIGO_NT, 4), dtype=np.int64)
        fallback = np.zeros((OLIGO_NT, 4), dtype=bool)
        with open(path) as fh:
            header = fh.readline().strip()
            if header != f"# {TABLE_VERSION}":
                raise ValueError(f"unsupported table version: {header!r}")
            fh.readline()  # column names
            for line in fh:
                parts = line.rstrip("\n").split("\t")
                if len(parts) != 7:
                    raise ValueError(f"malformed table row: {line!r}")
                i = int(parts[0]) - 1
                x, y = (sequence_to_indices(b).item() for b in parts[1:3])
                if not 0 <= i < OLIGO_NT or x == y or seen[i, x, y]:
                    raise ValueError(f"out-of-range or repeated table row: {line!r}")
                seen[i, x, y] = True
                counts[i, x, y] = int(parts[3])
                denoms[i, x] = int(parts[4])
                probs[i, y, x] = float(parts[5])
                fallback[i, y] = bool(int(parts[6]))
        if seen.sum() != OLIGO_NT * 12:
            raise ValueError(f"table has {seen.sum()} of the {OLIGO_NT * 12} rows")
        return cls(probs=probs, counts=counts, denoms=denoms, fallback=fallback,
                   meta={"source": str(path)})


class TransitionEstimator:
    """f/N accumulator over aligned reads."""

    def __init__(self, pool: PoolIndex):
        self.pool = pool
        self.counts = np.zeros((OLIGO_NT, 4, 4), dtype=np.int64)
        self.denoms = np.zeros((OLIGO_NT, 4), dtype=np.int64)
        self.reads_seen = 0
        self.reads_skipped = 0
        self.reads_conditioned = 0
        self.slow_path_reads = 0
        self.mismatch_histogram: dict[int, int] = {}

    def add_reads(self, reads: Iterable[ReadRecord | str]) -> list[tuple[ReadRecord | str, int]]:
        """Count the reads in; return (read, position_errors) of those conditioned on.

        Reads that are not 152 nt of A/C/G/T are skipped and counted, the
        reads that `cluster_by_seed` discards before the seed check.
        """
        reads = list(reads)
        bases = [r.bases if isinstance(r, ReadRecord) else r for r in reads]
        full = np.flatnonzero(np.fromiter(map(len, bases), dtype=np.intp) == OLIGO_NT)
        codes = encode_base_matrix([bases[r] for r in full.tolist()], OLIGO_NT)
        acgt = (codes <= 3).all(axis=1)
        kept, codes = full[acgt], codes[acgt]
        self.reads_seen += len(reads)
        self.reads_skipped += len(reads) - len(kept)
        aligned, hams, n_slow = align_reads(codes, self.pool)
        self.slow_path_reads += n_slow

        for d, c in zip(*np.unique(hams, return_counts=True)):
            self.mismatch_histogram[int(d)] = self.mismatch_histogram.get(int(d), 0) + int(c)

        sel = np.flatnonzero(hams >= 1)
        self.reads_conditioned += len(sel)
        read_codes, oligo_codes = codes[sel], self.pool.codes[aligned[sel]]
        # cell (i, x) = position i of the aligned oligo holding base x
        cells = np.arange(OLIGO_NT) * 4 + oligo_codes
        self.denoms += np.bincount(cells.ravel(), minlength=OLIGO_NT * 4).reshape(OLIGO_NT, 4)
        mm = read_codes != oligo_codes
        self.counts += np.bincount(
            cells[mm] * 4 + read_codes[mm], minlength=OLIGO_NT * 16
        ).reshape(OLIGO_NT, 4, 4)
        return list(zip([reads[r] for r in kept[sel].tolist()], hams[sel].tolist()))

    def finish(self) -> TransitionTable:
        with np.errstate(invalid="ignore", divide="ignore"):
            rates = self.counts / self.denoms[:, :, None]
        rates = np.nan_to_num(rates, nan=0.0, posinf=0.0)
        # probs[i, y, x] = rate[i, x, y] / sum over sources x' != y
        rates_t = rates.transpose(0, 2, 1).copy()
        rates_t[:, np.arange(4), np.arange(4)] = 0.0
        denom = rates_t.sum(axis=2)
        fallback = denom <= 0.0
        probs = np.zeros_like(rates_t)
        np.divide(rates_t, denom[:, :, None], out=probs, where=~fallback[:, :, None])
        uniform = np.full((4, 4), 1.0 / 3.0)
        np.fill_diagonal(uniform, 0.0)
        probs[fallback] = uniform[np.nonzero(fallback)[1]]
        return TransitionTable(
            probs=probs,
            counts=self.counts.copy(),
            denoms=self.denoms.copy(),
            fallback=fallback,
            meta={
                "reads_seen": self.reads_seen,
                "reads_skipped": self.reads_skipped,
                "reads_conditioned": self.reads_conditioned,
                "slow_path_reads": self.slow_path_reads,
                "mismatch_histogram": dict(sorted(self.mismatch_histogram.items())),
            },
        )


def estimate_transitions(
    reads: Iterable[ReadRecord | str],
    pool: PoolIndex | Sequence[str],
    on_conditioned: Callable[[list[tuple[ReadRecord | str, int]]], None] | None = None,
) -> TransitionTable:
    """Build the transition table from reads aligned to the encoded pool.

    Reads are taken _CHUNK_READS at a time. on_conditioned, if given, gets
    each chunk's (read, position_errors) pairs of the reads conditioned on,
    in read order, before the next chunk is read.
    """
    if not isinstance(pool, PoolIndex):
        pool = PoolIndex(pool)
    est = TransitionEstimator(pool)
    it = iter(reads)
    while chunk := list(islice(it, _CHUNK_READS)):
        conditioned = est.add_reads(chunk)
        if on_conditioned is not None:
            on_conditioned(conditioned)
    return est.finish()


def quality_product(read: ReadRecord) -> float:
    """Product over all 152 positions of the correct-basecall probability."""
    if len(read.bases) != OLIGO_NT:
        raise ValueError(f"read must be {OLIGO_NT} nt, got {len(read.bases)}")
    probs = phred_to_prob(np.asarray(read.qscores, dtype=np.float64))
    return float(np.exp(np.log(probs).sum()))
