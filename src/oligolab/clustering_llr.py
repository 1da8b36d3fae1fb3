"""Seed clustering and conversion of read clusters to decoder soft inputs.

A cluster is the set of length-152, ACGT-only reads whose 16-nt prefix
decodes to one of the pre-determined seed values; reads with any other
prefix are discarded and counted. Clustering keeps no read records: given
a FASTQ path it codes the reader's joined letters and Phred values
directly, gathers the retained reads packed four bases to a byte, and
unpacks them into one seed-sorted (reads, 152) uint8 matrix of base codes
and, unless the caller's decode reads none, one of Q-scores, held with the
ascending seeds and each seed's row offsets in a ClusterTable.

Soft inputs are built per call for a table of clusters, in runs of whole
clusters of about _CHUNK_READS reads, each a row slice of the table; a
single Cluster is a table of one. A read's basecall probability vector
combines its Q-score (probability the call is right) with the estimated
transition table (how the rest splits across the other three bases), so
its terms depend only on (position, called base, Q-score): they are looked
up in one table per call and added over each cluster's members in input
order, giving per-bit LLRs at payload positions and a hard decision from
the per-base probability products at RS parity positions. The base counts
of one counting kernel give both the basecall-count LLR rule with a fixed
crossover probability (the comparison baseline) and the majority vote that
feeds the hard decoder.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, islice
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .bp_decoder import LLR_MAX
from .channel_stats import TransitionTable
from .dna_codec import (
    OLIGO_NT,
    PARITY_NT,
    PARITY_SLICE,
    PAYLOAD_BITS,
    PAYLOAD_SLICE,
    SEED_NT,
    base_indices_to_bit_array,
    base_indices_to_seeds,
    base_indices_to_symbol_array,
    encode_base_matrix,
    encode_bases,
    symbols_to_base_indices,
)
from .fastq_io import ReadRecord, fastq_chunks, phred_to_prob
from .fountain import SeedSchedule

_TINY = 1e-300
_CHUNK_READS = 1024  # reads per code matrix of a clustering step or a run of clusters
_BASE_BITS = base_indices_to_bit_array(np.arange(4)[:, None]).astype(np.int64)  # (4, 2) per base
_Rows = Iterator[tuple[int, np.ndarray, np.ndarray | None]]  # per chunk: reads, codes, Q or None


class ClusterTable(Mapping[int, "Cluster"]):
    """Clusters in ascending seed order, as row ranges of seed-sorted matrices.

    Cluster i is seeds[i]'s; its members, in input order, are rows
    offsets[i]:offsets[i + 1] of the (rows, 152) uint8 `codes` and
    `qscores` (None if clustered without them). As a mapping, a seed gives
    its Cluster, a view of those rows.
    """

    def __init__(self, seeds, offsets, codes: np.ndarray, qscores: np.ndarray | None):
        self.seeds = np.asarray(seeds, dtype=np.int64)
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.codes, self.qscores = codes, qscores
        if (np.diff(self.seeds) <= 0).any() or (np.diff(self.offsets) <= 0).any():
            raise ValueError("seeds must ascend and no cluster may be empty")

    # compared and hashed by identity: Mapping's equality would compare the
    # views that indexing builds, and a Cluster's view is again a Cluster
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __len__(self) -> int:
        return len(self.seeds)

    def __iter__(self) -> Iterator[int]:
        return iter(self.seeds.tolist())

    def __getitem__(self, seed: int) -> Cluster:
        i = int(np.searchsorted(self.seeds, seed))
        if i == len(self.seeds) or self.seeds[i] != seed:
            raise KeyError(seed)
        rows = slice(self.offsets[i], self.offsets[i + 1])
        qscores = None if self.qscores is None else self.qscores[rows]
        return Cluster(int(seed), codes=self.codes[rows], qscores=qscores)


class Cluster(ClusterTable):
    """The retained reads of one seed as row-aligned (size, 152) uint8
    matrices of base codes and Q-scores, members in input order: a table of
    one cluster.

    `ClusterTable[seed]` passes row slices of the table's matrices as
    `codes` and `qscores`; `Cluster(seed, members=[...])` codes ReadRecords,
    which must be 152-nt ACGT reads.
    """

    def __init__(
        self,
        seed: int,
        members: Sequence[ReadRecord] | None = None,
        *,
        codes: np.ndarray | None = None,
        qscores: np.ndarray | None = None,
    ):
        if members is not None:
            full, codes, qscores = _read_rows(members)
            if not full.all() or (codes > 3).any():
                raise ValueError("cluster members must be 152-nt ACGT reads")
        super().__init__([seed], [0, len(codes)], codes, qscores)
        self.seed = seed

    @property
    def size(self) -> int:
        return len(self.codes)


@dataclass
class DiscardReport:
    n_input: int = 0
    n_wrong_length: int = 0
    n_with_n: int = 0
    n_seed_mismatch: int = 0
    n_retained: int = 0  # L_m, the reads that actually enter decoding


@dataclass
class ClusterLlr:
    # one row per cluster of a table; a single Cluster's are 1-D
    payload_llrs: np.ndarray  # (n, 256) interleaved (y1, y2) per payload position
    rs_parity_hard: np.ndarray  # (n, 8) uint8 base codes of the RS parity


def _read_rows(
    reads: Sequence[ReadRecord], qscores: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Mask of the 152-nt reads, and those reads as (m, 152) uint8 base codes
    (255 for a letter other than ACGT) and Q-scores (None unless `qscores`)."""
    bases = [r.bases for r in reads]
    full = np.fromiter(map(len, bases), dtype=np.intp, count=len(bases)) == OLIGO_NT
    codes = encode_base_matrix(list(compress(bases, full)), OLIGO_NT)
    if not qscores:
        return full, codes, None
    quals = np.array([r.qscores for r in compress(reads, full)], dtype=np.uint8)
    return full, codes, quals.reshape(len(codes), OLIGO_NT)


def cluster_by_seed(
    reads: Iterable[ReadRecord] | str | Path,
    seed_table: SeedSchedule,
    qscores: bool = True,
) -> tuple[ClusterTable, DiscardReport]:
    """Group reads, ReadRecords or a FASTQ file's, by exact seed-region
    match against the seed table.

    A read is retained when it is 152 nt long, all its bases are A, C, G or
    T, and its 16-nt prefix is a table seed's. The others count as
    n_wrong_length, n_with_n (any other letter: N is the only one the FASTQ
    reader lets through, but a hand-built record's lowercase or other
    letter is discarded here too) or n_seed_mismatch, in that order.

    A FASTQ path is read chunk by chunk (`fastq_io.fastq_chunks`), its
    letters coded and its Phred values taken as they are, with no
    ReadRecord built; records are coded _CHUNK_READS at a time. Only
    retained rows are kept, their bases packed four to a byte as RS
    symbols: a retained read is all ACGT, so the packing loses nothing.
    One stable sort by seed then moves them into the ClusterTable's
    (retained, 152) uint8 matrices of base codes and Q-scores, each row
    unpacked as it is placed; each cluster is a row range of both, members
    in input order. With `qscores` false no Q-score is gathered, kept or
    sorted, and the table's `qscores` is None; the FASTQ reader still
    checks every one.
    """
    table = np.sort(np.array(seed_table.seeds, dtype=np.uint32))
    report = DiscardReport()
    # per chunk, for the retained reads: table index, packed bases, Q-scores
    found, symbol_rows, q_rows = [np.empty(0, dtype=np.intp)], [], []
    rows = _fastq_rows if isinstance(reads, (str, Path)) else _record_rows
    for n_reads, codes, quals in rows(reads, qscores):
        acgt = (codes <= 3).all(axis=1)
        values = base_indices_to_seeds(codes[:, :SEED_NT])
        at = np.searchsorted(table, values)
        keep = acgt & (np.searchsorted(table, values, side="right") > at)
        report.n_input += n_reads
        report.n_wrong_length += n_reads - len(codes)
        report.n_with_n += int((~acgt).sum())
        report.n_seed_mismatch += int((acgt & ~keep).sum())
        found.append(at[keep])
        symbol_rows.append(base_indices_to_symbol_array(codes[keep]))
        if qscores:
            q_rows.append(quals[keep])
        del codes, quals  # not held while the next chunk is read

    index = np.concatenate(found)
    report.n_retained = len(index)
    order = np.argsort(index, kind="stable")
    sorted_index = index[order]
    starts = np.flatnonzero(np.diff(sorted_index, prepend=-1))
    seeds, offsets = table[sorted_index[starts]], np.append(starts, len(order))
    dest = np.empty_like(order)
    dest[order] = np.arange(len(order))
    del found, index, order, sorted_index  # only dest is held beside the matrices
    codes = _sorted_rows(symbol_rows, dest, symbols_to_base_indices)
    quals = _sorted_rows(q_rows, dest, np.asarray) if qscores else None
    return ClusterTable(seeds, offsets, codes, quals), report


def _record_rows(reads: Iterable[ReadRecord], qscores: bool) -> _Rows:
    """Per chunk of records: its size and its 152-nt reads' codes and Q-scores."""
    reads = iter(reads)
    while chunk := list(islice(reads, _CHUNK_READS)):
        _, codes, quals = _read_rows(chunk, qscores)
        yield len(chunk), codes, quals


def _fastq_rows(path: str | Path, qscores: bool) -> _Rows:
    """Per chunk of a FASTQ file: its size and its 152-nt reads' codes and
    Q-scores."""
    for chunk in fastq_chunks(path):
        full = np.repeat(chunk.lengths == OLIGO_NT, chunk.lengths)
        codes = encode_bases(chunk.bases)[full].reshape(-1, OLIGO_NT)
        quals = chunk.phred[full].reshape(-1, OLIGO_NT) if qscores else None
        yield len(chunk.lengths), codes, quals
        del full, codes, quals  # the rows are not held while the next chunk is read


def _sorted_rows(chunks: list[np.ndarray], dest: np.ndarray, unpack) -> np.ndarray:
    """Stack row chunks into one (rows, 152) uint8 matrix with stacked row
    i at dest[i]; `unpack` turns rows of a chunk into 152-wide rows.

    Each chunk is unpacked _CHUNK_READS rows at a time as it is placed,
    and released once placed, so the rows are held about once, not twice
    as by concatenating and then reordering: a paper-scale hard decode
    peaked 6 MB higher that way, because the freed memory is not returned
    to the system.
    """
    out = np.empty((len(dest), OLIGO_NT), dtype=np.uint8)
    at = 0
    while chunks:
        rows = chunks.pop(0)
        for lo in range(0, len(rows), _CHUNK_READS):
            piece = unpack(rows[lo : lo + _CHUNK_READS])
            out[dest[at : at + len(piece)]] = piece
            at += len(piece)
    return out


def read_prob_vectors(codes: np.ndarray, qs: np.ndarray, table: TransitionTable) -> np.ndarray:
    """(m, 152) codes and Q-scores -> (m, 152, 4) basecall probability vectors.

    The called base gets 1 - 10^(-Q/10); the other three split the rest
    according to the transition row for (position, called base). Vectors
    sum to 1 by construction.
    """
    pcall = phred_to_prob(qs)
    vec = table.probs[np.arange(codes.shape[1]), codes] * (1.0 - pcall)[:, :, None]
    np.put_along_axis(vec, codes[:, :, None].astype(np.int64), pcall[:, :, None], axis=2)
    return vec


def llr_proposed(clusters: ClusterTable, table: TransitionTable) -> ClusterLlr:
    """Q-score + transition-table LLRs, summed over each cluster's members.

    Per read and payload position: LLR(y1) = log[(P(A)+P(C)) / (P(G)+P(T))]
    and LLR(y2) = log[(P(A)+P(G)) / (P(C)+P(T))], natural log. The RS parity
    hard decision is the argmax of the per-member probability products,
    computed in log space; exact ties resolve to the first maximum, which is
    lexicographic A < C < G < T.
    """
    if clusters.qscores is None:
        raise ValueError("llr_proposed needs Q-scores; these clusters were built without them")
    # every (called base, Q-score) pair's terms at every position, in tables
    # with one row per (pair, position): row pair * 152 + position
    q_axis = 1 + int(clusters.qscores.max(initial=0))
    pairs = np.repeat(np.arange(4 * q_axis)[:, None], OLIGO_NT, axis=1)  # base * q_axis + Q
    vec = read_prob_vectors(pairs // q_axis, pairs % q_axis, table)
    bit_llrs = np.log(np.maximum(vec @ (1 - _BASE_BITS), _TINY)) - np.log(
        np.maximum(vec @ _BASE_BITS, _TINY)
    )
    bit_llrs = bit_llrs.reshape(-1, 2)  # LLR(y1), LLR(y2)
    base_logs = np.log(np.maximum(vec, _TINY)).reshape(-1, 4)

    llrs = np.empty((len(clusters), PAYLOAD_BITS))
    parity = np.empty((len(clusters), PARITY_NT), dtype=np.uint8)
    for run, sizes, rows in _runs(clusters):
        pair = clusters.codes[rows].astype(np.int32) * q_axis + clusters.qscores[rows]
        at = pair * OLIGO_NT + np.arange(OLIGO_NT, dtype=np.int32)
        terms = np.concatenate(
            [
                bit_llrs.take(at[:, PAYLOAD_SLICE], axis=0).reshape(len(at), -1),
                base_logs.take(at[:, PARITY_SLICE], axis=0).reshape(len(at), -1),
            ],
            axis=1,
        )
        sums = np.zeros((len(sizes), terms.shape[1]))
        starts = np.cumsum(sizes) - sizes
        for rank in range(int(sizes.max())):  # member by member, in input order
            live = np.flatnonzero(sizes > rank)
            sums[live] += terms[starts[live] + rank]
        llrs[run] = sums[:, :PAYLOAD_BITS]
        parity[run] = _lane_argmax(sums[:, PAYLOAD_BITS:].reshape(-1, PARITY_NT, 4))
    return _soft_inputs(clusters, llrs, parity)


def _soft_inputs(clusters: ClusterTable, llrs: np.ndarray, parity: np.ndarray) -> ClusterLlr:
    """The table's clipped LLRs and parity; a single Cluster gets 1-D arrays."""
    np.clip(llrs, -LLR_MAX, LLR_MAX, out=llrs)
    if isinstance(clusters, Cluster):
        return ClusterLlr(payload_llrs=llrs[0], rs_parity_hard=parity[0])
    return ClusterLlr(payload_llrs=llrs, rs_parity_hard=parity)


def derive_crossover(sub_rate: float) -> float:
    """Per-bit crossover implied by a per-base substitution rate.

    Under uniform transitions, 2 of the 3 substitution targets flip each
    bit of the two-bit base label.
    """
    return sub_rate * 2.0 / 3.0


def llr_chandak(clusters: ClusterTable, crossover_p: float) -> ClusterLlr:
    """Basecall-count LLRs: (n0 - n1) * log((1-p)/p) per payload bit.

    The RS parity hard decision is a per-position majority vote with
    lexicographic tie-breaking.
    """
    if not 0.0 < crossover_p < 0.5:
        raise ValueError(f"crossover_p must be in (0, 0.5), got {crossover_p}")
    scale = np.log((1.0 - crossover_p) / crossover_p)
    llrs = np.empty((len(clusters), PAYLOAD_BITS))
    parity = np.empty((len(clusters), PARITY_NT), dtype=np.uint8)
    for run, sizes, rows in _runs(clusters):
        counts = _base_counts(clusters.codes[rows], sizes)
        ones = (counts[:, PAYLOAD_SLICE] @ _BASE_BITS).reshape(len(sizes), PAYLOAD_BITS)
        llrs[run] = (sizes[:, None] - 2.0 * ones) * scale  # n0 - n1 = m - 2*n1
        parity[run] = _lane_argmax(counts[:, PARITY_SLICE])
    return _soft_inputs(clusters, llrs, parity)


def majority_vote(clusters: ClusterTable) -> np.ndarray:
    """Per-position majority basecall of each cluster, ties lexicographic.

    Returns a (len(clusters), 152) uint8 matrix of base indices (A=0 .. T=3)
    in seed order.
    """
    votes = np.empty((len(clusters), OLIGO_NT), dtype=np.uint8)
    for run, sizes, rows in _runs(clusters):
        votes[run] = _lane_argmax(_base_counts(clusters.codes[rows], sizes))
    return votes


def _runs(clusters: ClusterTable) -> Iterator[tuple[slice, np.ndarray, slice]]:
    """Runs of whole clusters of about _CHUNK_READS reads, at least one
    cluster each: the run's slice of the clusters, their sizes and their
    members' slice of the table's rows."""
    offsets = clusters.offsets
    block = offsets[:-1] // _CHUNK_READS  # where each cluster's first read falls
    bounds = [*np.flatnonzero(np.diff(block, prepend=-1)).tolist(), len(clusters)]
    sizes = np.diff(offsets)
    for lo, hi in zip(bounds, bounds[1:]):
        yield slice(lo, hi), sizes[lo:hi], slice(offsets[lo], offsets[hi])


# The counts of the four bases of a position sit in the four bytes of one
# little-endian uint32, so a count segment holds at most 255 members; larger
# clusters are split into several segments whose counts are added in
# full-width integers.
_SEGMENT_MAX = 255


def _lane_argmax(values: np.ndarray) -> np.ndarray:
    """uint8 index of the largest of the four base lanes on the last axis,
    ties to the lower base as in argmax: the winners of (A, C) and (G, T),
    then the larger of their maxima."""
    a, c, g, t = (values[..., lane] for lane in range(4))
    upper = np.maximum(g, t) > np.maximum(a, c)
    return np.where(upper, (t > g).view(np.uint8) + 2, (c > a).view(np.uint8))


def _base_counts(codes: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """(clusters, 152, 4) counts of each base per position, for the clusters
    of `sizes` whose members are the consecutive rows of `codes`."""
    # segments of at most _SEGMENT_MAX members, each cluster's in order
    pieces = -(-sizes // _SEGMENT_MAX)
    first_piece = np.cumsum(pieces) - pieces
    owner = np.repeat(np.arange(len(sizes)), pieces)
    starts = (np.cumsum(sizes) - sizes)[owner] + _SEGMENT_MAX * (
        np.arange(len(owner)) - first_piece[owner]
    )
    # a one in the byte of each read's base; the sums run over the lanes of
    # two positions per uint64, which never carry since no byte passes 255
    lanes = np.left_shift(np.uint32(1), codes << 3, dtype="<u4")
    packed = np.add.reduceat(lanes.view("<u8"), starts, axis=0)
    counts = packed.view(np.uint8).reshape(len(starts), OLIGO_NT, 4)
    if len(owner) > len(sizes):
        counts = np.add.reduceat(counts, first_piece, axis=0, dtype=np.int64)
    return counts
