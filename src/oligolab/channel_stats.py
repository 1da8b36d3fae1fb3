"""Per-position base-transition statistics estimated from aligned reads.

Reads are aligned to the encoded pool by minimum edit distance (ties break
to the lowest oligo index). Counting conditions on reads that contain at
least one positional mismatch versus their aligned oligo; for each
position and observed base, the three source-base probabilities are the
per-source mismatch rates normalized to sum to 1. Positions with no
observed transitions fall back to uniform 1/3 and are flagged.

Alignment is exact but accelerated. A read's candidate is the oligo whose
seed its seed region matches or, in pools small enough to know their
minimum pairwise distance, its Hamming-nearest oligo; an exact match, or
2 * hamming < that distance, certifies it. The other reads of a chunk go
through one exact scan: a batched banded edit-distance kernel over every
(read, oligo) pair within the bag-distance lower bound, at bands 2, 8, 32,
...; each read keeps its smallest distance, ties to the lowest index, as
brute force would. The same kernel at full band gives the pool distances.
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
    encode_bases,  # noqa: F401  (re-exported)
    sequence_to_indices,
)
from .fastq_io import ReadRecord, phred_to_prob

TABLE_VERSION = "transition-table v1"
_CHUNK_READS = 20000  # reads per estimate_transitions step
_PAIR_BLOCK = 16384  # (read, oligo) pairs per _edit_distance call in _exact_scan


def _edit_distance(a: np.ndarray, b: np.ndarray, band: int) -> np.ndarray:
    """Edit distance of each row pair of two (P, n) base-code matrices.

    A pair whose distance exceeds band gets band + 1. Only the cells within
    band of the diagonal are kept (Ukkonen), and a pair leaves the batch
    once every cell of its band row exceeds band: distances never fall
    along a DP path.
    """
    n_pairs, n = a.shape
    w, width = band, 2 * band + 1
    out = np.full(n_pairs, band + 1, dtype=np.int16)
    # cell k of DP row i holds column j = i + k - w, which compares a[i - 1]
    # with b[j - 1] = bpad[i - 1 + k]; columns outside 0..n stay at the cap
    bpad = np.full((n_pairs, n + 2 * w), 4, dtype=np.uint8)
    bpad[:, w : w + n] = b
    k = np.arange(width, dtype=np.int16)
    live = np.arange(n_pairs)
    prev = np.where((k >= w) & (k <= w + n), k - w, w + 1).astype(np.int16)
    prev = np.broadcast_to(prev, (n_pairs, width))
    for i in range(1, n + 1):
        lo, hi = max(0, w - i), min(width, w + n - i + 1)
        cur = prev + (bpad[:, i - 1 : i - 1 + width] != a[:, i - 1 : i])
        np.minimum(cur[:, :-1], prev[:, 1:] + 1, out=cur[:, :-1])
        if i <= w:
            cur[:, lo] = i  # column 0
        seg = cur[:, lo:hi]
        # settle the left-to-right insertion chain in one accumulate pass
        np.minimum(seg, np.minimum.accumulate(seg - k[: hi - lo], axis=1) + k[: hi - lo], out=seg)
        cur[:, :lo] = cur[:, hi:] = w + 1
        np.minimum(cur, w + 1, out=cur)
        keep = cur.min(axis=1) <= w
        if not keep.all():
            live, a, bpad, cur = live[keep], a[keep], bpad[keep], cur[keep]
        prev = cur
        if not len(live):
            break
    out[live] = prev[:, w]
    return out


def _base_counts(codes: np.ndarray) -> np.ndarray:
    """(m, 4) count of each base per row of a base-code matrix."""
    return np.stack([(codes == b).sum(axis=1) for b in range(4)], axis=1).astype(np.int16)


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
        self.base_counts = _base_counts(self.codes)
        # sorted distinct seeds, each with the first oligo that carries it
        self.seeds, self.seed_oligo = np.unique(
            base_indices_to_seeds(self.codes[:, :SEED_NT]), return_index=True
        )
        limit = self.DMIN_POOL_LIMIT if dmin_pool_limit is None else dmin_pool_limit
        self.dmin = self._pairwise_dmin() if len(sequences) <= limit else None

    def __len__(self) -> int:
        return len(self.sequences)

    def _pairwise_dmin(self) -> np.ndarray:
        i, j = np.triu_indices(len(self), 1)
        d = _edit_distance(self.codes[i], self.codes[j], OLIGO_NT)
        dmin = np.full(len(self), np.iinfo(np.int32).max, dtype=np.int32)
        np.minimum.at(dmin, i, d)
        np.minimum.at(dmin, j, d)
        return dmin


def _exact_scan(codes: np.ndarray, pool: PoolIndex, upper: np.ndarray) -> np.ndarray:
    """Nearest oligo of each row by edit distance, ties to the lowest index.

    upper[r] bounds row r's edit distance to the pool (its Hamming distance
    to some oligo, or 152). The band escalates from small values because
    the nearest oligo is usually very close in edit distance even when the
    Hamming distance is large (length-preserving indel bursts): at each
    rung every (row, oligo) pair within the bag-distance lower bound goes
    through one batched kernel, and a row that found nothing widens its band.
    """
    counts = _base_counts(codes)
    nearest = np.full(len(codes), -1, dtype=np.int64)
    todo = np.arange(len(codes))
    rung = 2
    while len(todo):
        start = np.minimum(rung, upper[todo])
        # the multiset (bag) distance halved and rounded down lower-bounds
        # the edit distance; built in row blocks, never as one (rows, pool) array
        rows, oligos = [], []
        block = max(1, 1_000_000 // len(pool))
        for lo in range(0, len(todo), block):
            c = counts[todo[lo : lo + block]]
            bag = sum(np.abs(c[:, b, None] - pool.base_counts[:, b]) for b in range(4))
            r, o = np.nonzero(bag <= 2 * start[lo : lo + block, None] + 1)
            rows.append(r + lo)
            oligos.append(o)
        r, o = np.concatenate(rows), np.concatenate(oligos)
        d = np.empty(len(r), dtype=np.int16)
        band = int(start.max())
        for lo in range(0, len(r), _PAIR_BLOCK):
            part = slice(lo, lo + _PAIR_BLOCK)
            d[part] = _edit_distance(codes[todo[r[part]]], pool.codes[o[part]], band)
        hit = d <= start[r]
        r, o, d = r[hit], o[hit], d[hit]
        # per row: the smallest distance, then the lowest oligo index
        order = np.lexsort((o, d, r))
        found, first = np.unique(r[order], return_index=True)
        nearest[todo[found]] = o[order[first]]
        left = np.ones(len(todo), dtype=bool)
        left[found] = False
        if (start[left] >= upper[todo[left]]).any():
            raise AssertionError("exact scan found no oligo within the upper bound")
        todo = todo[left]
        rung *= 4
    return nearest


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
    if pool.dmin is None:
        # without dmin only exact matches are certified without a scan, and
        # a read with no seed hit matches no oligo: 152 bounds its distance
        hams[miss] = OLIGO_NT
        certified = hams == 0
    else:
        # no seed hit: take the hamming-nearest oligo as the candidate,
        # in blocks sized to keep the comparison tensor small
        block = max(1, 6_000_000 // (len(pool) * OLIGO_NT))
        for lo in range(0, len(miss), block):
            rows = miss[lo : lo + block]
            hm = (codes[rows][:, None, :] != pool.codes[None, :, :]).sum(axis=2)
            cand[rows] = hm.argmin(axis=1)
            hams[rows] = hm.min(axis=1)
        certified = 2 * hams < pool.dmin[cand]
    slow = np.flatnonzero(~certified)
    if len(slow):
        cand[slow] = _exact_scan(codes[slow], pool, hams[slow])
        hams[slow] = (codes[slow] != pool.codes[cand[slow]]).sum(axis=1)
    return cand, hams, len(slow)


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
        exactly once, with a probability in [0, 1] and a fallback flag of 0
        or 1, and each (position, observed base) row of probabilities must
        sum to 1; anything else raises ValueError.
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
                p = float(parts[5])
                if not 0.0 <= p <= 1.0 or parts[6] not in ("0", "1"):
                    raise ValueError(f"probability or fallback flag out of range: {line!r}")
                seen[i, x, y] = True
                counts[i, x, y] = int(parts[3])
                denoms[i, x] = int(parts[4])
                probs[i, y, x] = p
                fallback[i, y] = parts[6] == "1"
        if seen.sum() != OLIGO_NT * 12:
            raise ValueError(f"table has {seen.sum()} of the {OLIGO_NT * 12} rows")
        off = np.abs(probs.sum(axis=2) - 1.0) > 1e-9
        if off.any():
            raise ValueError(f"{off.sum()} (position, observed base) rows do not sum to 1")
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
    pool: PoolIndex,
    on_conditioned: Callable[[list[tuple[ReadRecord | str, int]]], None] | None = None,
) -> TransitionTable:
    """Build the transition table from reads aligned to the encoded pool.

    Reads are taken _CHUNK_READS at a time. on_conditioned, if given, gets
    each chunk's (read, position_errors) pairs of the reads conditioned on,
    in read order, before the next chunk is read.
    """
    est = TransitionEstimator(pool)
    it = iter(reads)
    while chunk := list(islice(it, _CHUNK_READS)):
        conditioned = est.add_reads(chunk)
        if on_conditioned is not None:
            on_conditioned(conditioned)
    return est.finish()


def quality_products(reads: Sequence[ReadRecord]) -> np.ndarray:
    """Per read, the product over all 152 positions of the correct-basecall
    probability, for all the reads in one pass."""
    for read in reads:
        if len(read.bases) != OLIGO_NT:
            raise ValueError(f"read must be {OLIGO_NT} nt, got {len(read.bases)}")
    qscores = np.array([read.qscores for read in reads], dtype=np.float64)
    return np.exp(np.log(phred_to_prob(qscores.reshape(len(reads), OLIGO_NT))).sum(axis=1))
