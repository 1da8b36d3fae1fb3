"""Reference read alignment and transition counting for the property tests.

This is the alignment code of `oligolab.channel_stats` as it was when the
pool indexed its seeds by 16-nt prefix string: `PoolIndex` with its
`seed_to_index` dict, `align_reads` over a list of read strings plus their
code matrix, `_exact_scan` visiting every oligo per band rung, and
`TransitionEstimator` with its inner chunk loop and one-hot `denoms`
tensor. The tests require the code-array version to give the same
alignments, slow-path count, conditioned reads and transition table.

`levenshtein` (full DP) and `levenshtein_banded` (pure-Python Ukkonen
band, one pair per call) are the module's edit-distance routines from
before the batched kernel replaced both; they serve here as the
reference alignment and as the brute-force oracle of the tests.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from oligolab.channel_stats import TransitionTable
from oligolab.dna_codec import OLIGO_NT, SEED_NT, encode_base_matrix, encode_bases
from oligolab.fastq_io import ReadRecord


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
        self.base_counts = np.stack(
            [(self.codes == b).sum(axis=1) for b in range(4)], axis=1
        ).astype(np.int32)
        self.seed_to_index: dict[str, int] = {}
        for i, s in enumerate(self.sequences):
            self.seed_to_index.setdefault(s[:SEED_NT], i)
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


def _bag_lower_bounds(read_counts: np.ndarray, pool: PoolIndex) -> np.ndarray:
    # multiset (bag) distance / 2 lower-bounds edit distance
    return np.abs(pool.base_counts - read_counts[None, :]).sum(axis=1) // 2


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
    lbs = _bag_lower_bounds(counts, pool)
    ub = upper if upper is not None else len(read_codes) + OLIGO_NT
    rung = 2
    while True:
        start = min(rung, ub)
        best_d = np.iinfo(np.int32).max
        best_i = -1
        for idx in range(len(pool)):
            bound = min(start, best_d - 1) if best_i >= 0 else start
            if lbs[idx] > bound:
                continue
            d = levenshtein_banded(codes_list, pool.codes_list(idx), bound)
            if d <= bound:
                best_d, best_i = int(d), int(idx)
        if best_i >= 0:
            return best_i, best_d
        if start >= ub:
            raise AssertionError("exact scan found no oligo within the upper bound")
        rung *= 4


def align_reads(
    bases_list: Sequence[str], codes: np.ndarray, pool: PoolIndex
) -> tuple[np.ndarray, np.ndarray, int]:
    """Nearest pool oligo of each 152-nt ACGT read, ties to the lowest index.

    codes is encode_base_matrix(bases_list, OLIGO_NT). Returns the aligned
    oligo index and the Hamming distance to it per read, and the number of
    reads that took the exact scan.
    """
    m = len(bases_list)
    hams = np.empty(m, dtype=np.int64)
    lookup = pool.seed_to_index
    cand = np.full(m, -1, dtype=np.int64)
    for r, bases in enumerate(bases_list):
        hit = lookup.get(bases[:SEED_NT])
        if hit is not None:
            cand[r] = hit
    have = cand >= 0
    if have.any():
        rows = np.nonzero(have)[0]
        hams[rows] = (codes[rows] != pool.codes[cand[rows]]).sum(axis=1)
    miss = np.nonzero(~have)[0]
    if len(miss):
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
    slow_rows = np.nonzero(~certified)[0]
    for r in slow_rows:
        idx, _ = _exact_scan(codes[r], pool, int(hams[r]))
        cand[r] = idx
        hams[r] = (codes[r] != pool.codes[idx]).sum()
    return cand, hams, len(slow_rows)


class TransitionEstimator:
    """Chunked f/N accumulator over aligned reads."""

    def __init__(self, pool: PoolIndex):
        self.pool = pool
        self.counts = np.zeros((OLIGO_NT, 4, 4), dtype=np.int64)
        self.denoms = np.zeros((OLIGO_NT, 4), dtype=np.int64)
        self.reads_seen = 0
        self.reads_skipped = 0
        self.reads_conditioned = 0
        self.slow_path_reads = 0
        self.mismatch_histogram: dict[int, int] = {}
        self._onehot = np.stack(
            [(pool.codes == b) for b in range(4)], axis=2
        ).astype(np.int64)

    def add_reads(
        self, reads: Iterable[ReadRecord | str], chunk_size: int = 20000
    ) -> list[tuple[ReadRecord | str, int]]:
        """Count the reads in; return (read, position_errors) of those conditioned on.

        Reads that are not 152 nt or contain N are skipped and counted.
        """
        conditioned: list[tuple[ReadRecord | str, int]] = []
        chunk: list[ReadRecord | str] = []
        for read in reads:
            bases = read.bases if isinstance(read, ReadRecord) else read
            self.reads_seen += 1
            if len(bases) != OLIGO_NT or "N" in bases:
                self.reads_skipped += 1
                continue
            chunk.append(read)
            if len(chunk) >= chunk_size:
                conditioned += self._add_chunk(chunk)
                chunk = []
        if chunk:
            conditioned += self._add_chunk(chunk)
        return conditioned

    def _add_chunk(self, chunk: list[ReadRecord | str]) -> list[tuple[ReadRecord | str, int]]:
        bases_list = [r.bases if isinstance(r, ReadRecord) else r for r in chunk]
        codes = encode_base_matrix(bases_list, OLIGO_NT)
        aligned, hams, n_slow = align_reads(bases_list, codes, self.pool)
        self.slow_path_reads += n_slow

        for d, c in zip(*np.unique(hams, return_counts=True)):
            self.mismatch_histogram[int(d)] = self.mismatch_histogram.get(int(d), 0) + int(c)

        sel = np.nonzero(hams >= 1)[0]
        if not len(sel):
            return []
        self.reads_conditioned += len(sel)
        sub_codes = codes[sel]
        sub_pool = self.pool.codes[aligned[sel]]
        mm = sub_codes != sub_pool
        rr, pos = np.nonzero(mm)
        np.add.at(self.counts, (pos, sub_pool[rr, pos], sub_codes[rr, pos]), 1)
        per_oligo = np.bincount(aligned[sel], minlength=len(self.pool)).astype(np.int64)
        used = np.nonzero(per_oligo)[0]
        self.denoms += np.tensordot(per_oligo[used], self._onehot[used], axes=(0, 0))
        return list(zip([chunk[r] for r in sel], hams[sel].tolist()))

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
