"""Seed clustering and conversion of read clusters to decoder soft inputs.

A cluster is the set of length-152, ACGT-only reads whose 16-nt prefix
decodes to one of the pre-determined seed values; reads with any other
prefix are discarded and counted. Clustering keeps no read records: given
a FASTQ path it codes the reader's joined letters and Phred values
directly, and the retained reads become one seed-sorted (reads, 152)
uint8 matrix of base codes and one of Q-scores; each cluster holds its
row slice of both.

Soft inputs are built per call for a batch of clusters, in runs of whole
clusters of about _CHUNK_READS reads. A read's basecall probability vector
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
from typing import Iterable, Iterator, Sequence

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
    encode_base_matrix,
    encode_bases,
    seeds_to_base_indices,
)
from .fastq_io import ReadRecord, fastq_chunks, phred_to_prob
from .fountain import SeedSchedule

_TINY = 1e-300
_CHUNK_READS = 1024  # reads per code matrix of a clustering step or a run of clusters
_BASE_BITS = base_indices_to_bit_array(np.arange(4)[:, None]).astype(np.int64)  # (4, 2) per base


class Cluster:
    """The retained reads of one seed as row-aligned (size, 152) uint8
    matrices of base codes and Q-scores, members in input order.

    `cluster_by_seed` passes row slices of its seed-sorted matrices as
    `codes` and `qscores`; `Cluster(seed, members=[...])` codes ReadRecords,
    which must be 152-nt ACGT reads.
    """

    __slots__ = ("seed", "codes", "qscores")

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
        if len(codes) == 0:
            raise ValueError("empty cluster")
        self.seed, self.codes, self.qscores = seed, codes, qscores

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
    # one row per cluster of a batch; a single Cluster's are 1-D
    payload_llrs: np.ndarray  # (n, 256) interleaved (y1, y2) per payload position
    rs_parity_hard: np.ndarray  # (n, 8) uint8 base codes of the RS parity


def _read_rows(reads: Sequence[ReadRecord]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mask of the 152-nt reads, and those reads as (m, 152) uint8 base codes
    (255 for a letter other than ACGT) and Q-scores."""
    bases = [r.bases for r in reads]
    full = np.fromiter(map(len, bases), dtype=np.intp, count=len(bases)) == OLIGO_NT
    codes = encode_base_matrix(list(compress(bases, full)), OLIGO_NT)
    qscores = np.array([r.qscores for r in compress(reads, full)], dtype=np.uint8)
    return full, codes, qscores.reshape(len(codes), OLIGO_NT)


def cluster_by_seed(
    reads: Iterable[ReadRecord] | str | Path,
    seed_table: SeedSchedule | Sequence[int],
) -> tuple[dict[int, Cluster], DiscardReport]:
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
    retained rows are kept. One stable sort by seed then moves them into a
    (retained, 152) uint8 matrix of base codes and one of Q-scores; each
    cluster holds its row slice of both, members in input order. Clusters
    are keyed in the order of their first read.
    """
    seeds = seed_table.seeds if isinstance(seed_table, SeedSchedule) else seed_table
    table = np.unique(base_indices_to_seeds(seeds_to_base_indices(seeds)))
    report = DiscardReport()
    # per chunk, for the retained reads: table index, base codes, Q-scores
    found, code_rows, q_rows = [np.empty(0, dtype=np.intp)], [], []
    chunks = _fastq_rows(reads) if isinstance(reads, (str, Path)) else _record_rows(reads)
    for n_reads, codes, qscores in chunks:
        acgt = (codes <= 3).all(axis=1)
        values = base_indices_to_seeds(codes[:, :SEED_NT])
        at = np.searchsorted(table, values)
        keep = acgt & (np.searchsorted(table, values, side="right") > at)
        report.n_input += n_reads
        report.n_wrong_length += n_reads - len(codes)
        report.n_with_n += int((~acgt).sum())
        report.n_seed_mismatch += int((acgt & ~keep).sum())
        found.append(at[keep])
        code_rows.append(codes[keep])
        q_rows.append(qscores[keep])

    index = np.concatenate(found)
    report.n_retained = len(index)
    order = np.argsort(index, kind="stable")
    dest = np.empty_like(order)
    dest[order] = np.arange(len(order))
    codes = _sorted_rows(code_rows, dest)
    qscores = _sorted_rows(q_rows, dest)
    starts = np.flatnonzero(np.diff(index[order], prepend=-1))
    bounds = np.append(starts, len(order)).tolist()
    seeds_at = table[index[order[starts]]].tolist()
    clusters: dict[int, Cluster] = {}
    for c in np.argsort(order[starts]).tolist():
        a, b = bounds[c], bounds[c + 1]
        clusters[seeds_at[c]] = Cluster(seeds_at[c], codes=codes[a:b], qscores=qscores[a:b])
    return clusters, report


def _record_rows(reads: Iterable[ReadRecord]) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Per chunk of records: its size and its 152-nt reads' codes and Q-scores."""
    reads = iter(reads)
    while chunk := list(islice(reads, _CHUNK_READS)):
        _, codes, qscores = _read_rows(chunk)
        yield len(chunk), codes, qscores


def _fastq_rows(path: str | Path) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Per chunk of a FASTQ file: its size and its 152-nt reads' codes and
    Q-scores."""
    for chunk in fastq_chunks(path):
        full = np.repeat(chunk.lengths == OLIGO_NT, chunk.lengths)
        codes = encode_bases(chunk.bases)[full].reshape(-1, OLIGO_NT)
        yield len(chunk.lengths), codes, chunk.phred[full].reshape(-1, OLIGO_NT)


def _sorted_rows(chunks: list[np.ndarray], dest: np.ndarray) -> np.ndarray:
    """Stack row chunks into one matrix with stacked row i at dest[i].

    Each chunk is released once placed, so the rows are held about once,
    not twice as by concatenating and then reordering: a paper-scale hard
    decode peaked 6 MB higher that way, because the freed memory is not
    returned to the system.
    """
    out = np.empty((len(dest), OLIGO_NT), dtype=np.uint8)
    at = 0
    while chunks:
        rows = chunks.pop(0)
        out[dest[at : at + len(rows)]] = rows
        at += len(rows)
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


def llr_proposed(clusters: Cluster | Sequence[Cluster], table: TransitionTable) -> ClusterLlr:
    """Q-score + transition-table LLRs, summed over each cluster's members.

    Per read and payload position: LLR(y1) = log[(P(A)+P(C)) / (P(G)+P(T))]
    and LLR(y2) = log[(P(A)+P(G)) / (P(C)+P(T))], natural log. The RS parity
    hard decision is the argmax of the per-member probability products,
    computed in log space; exact ties resolve to the first maximum, which is
    lexicographic A < C < G < T.
    """
    batch = [clusters] if isinstance(clusters, Cluster) else clusters
    # every (called base, Q-score) pair's terms at every position, in tables
    # with one row per (pair, position): row pair * 152 + position
    q_axis = 1 + max((int(c.qscores.max()) for c in batch), default=0)
    pairs = np.repeat(np.arange(4 * q_axis)[:, None], OLIGO_NT, axis=1)  # base * q_axis + Q
    vec = read_prob_vectors(pairs // q_axis, pairs % q_axis, table)
    bit_llrs = np.log(np.maximum(vec @ (1 - _BASE_BITS), _TINY)) - np.log(
        np.maximum(vec @ _BASE_BITS, _TINY)
    )
    bit_llrs = bit_llrs.reshape(-1, 2)  # LLR(y1), LLR(y2)
    base_logs = np.log(np.maximum(vec, _TINY)).reshape(-1, 4)

    llrs = np.empty((len(batch), PAYLOAD_BITS))
    parity = np.empty((len(batch), PARITY_NT), dtype=np.uint8)
    for run, sizes, codes in _runs(batch):
        pair = codes.astype(np.int32) * q_axis + np.concatenate([c.qscores for c in batch[run]])
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


def _soft_inputs(
    clusters: Cluster | Sequence[Cluster], llrs: np.ndarray, parity: np.ndarray
) -> ClusterLlr:
    """The batch's clipped LLRs and parity; a single Cluster gets 1-D arrays."""
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


def llr_chandak(clusters: Cluster | Sequence[Cluster], crossover_p: float) -> ClusterLlr:
    """Basecall-count LLRs: (n0 - n1) * log((1-p)/p) per payload bit.

    The RS parity hard decision is a per-position majority vote with
    lexicographic tie-breaking.
    """
    if not 0.0 < crossover_p < 0.5:
        raise ValueError(f"crossover_p must be in (0, 0.5), got {crossover_p}")
    batch = [clusters] if isinstance(clusters, Cluster) else clusters
    scale = np.log((1.0 - crossover_p) / crossover_p)
    llrs = np.empty((len(batch), PAYLOAD_BITS))
    parity = np.empty((len(batch), PARITY_NT), dtype=np.uint8)
    for run, sizes, codes in _runs(batch):
        counts = _base_counts(codes, sizes)
        ones = (counts[:, PAYLOAD_SLICE] @ _BASE_BITS).reshape(len(sizes), PAYLOAD_BITS)
        llrs[run] = (sizes[:, None] - 2.0 * ones) * scale  # n0 - n1 = m - 2*n1
        parity[run] = _lane_argmax(counts[:, PARITY_SLICE])
    return _soft_inputs(clusters, llrs, parity)


def majority_vote(clusters: Sequence[Cluster]) -> np.ndarray:
    """Per-position majority basecall of each cluster, ties lexicographic.

    Returns a (len(clusters), 152) uint8 matrix of base indices (A=0 .. T=3)
    in the order given.
    """
    votes = np.empty((len(clusters), OLIGO_NT), dtype=np.uint8)
    for run, sizes, codes in _runs(clusters):
        votes[run] = _lane_argmax(_base_counts(codes, sizes))
    return votes


def _runs(clusters: Sequence[Cluster]) -> Iterator[tuple[slice, np.ndarray, np.ndarray]]:
    """Runs of whole clusters of about _CHUNK_READS reads, at least one
    cluster each: the run's slice of `clusters`, its cluster sizes and its
    members' stacked base codes."""
    sizes = np.array([c.size for c in clusters], dtype=np.int64)
    block = (np.cumsum(sizes) - sizes) // _CHUNK_READS  # where each cluster's first read falls
    bounds = [*np.flatnonzero(np.diff(block, prepend=-1)).tolist(), len(clusters)]
    for lo, hi in zip(bounds, bounds[1:]):
        yield slice(lo, hi), sizes[lo:hi], np.concatenate([c.codes for c in clusters[lo:hi]])


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
