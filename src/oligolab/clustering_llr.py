"""Seed clustering and conversion of read clusters to decoder soft inputs.

A cluster is the set of length-152, ACGT-only reads whose 16-nt prefix
decodes to one of the pre-determined seed values; reads with any other
prefix are discarded and counted. Clustering keeps no read records: given
a FASTQ path it codes the reader's joined letters and Phred values
directly, and the retained reads become one seed-sorted (reads, 152)
uint8 matrix of base codes and one of Q-scores; each cluster holds its
row slice of both.
For each cluster the per-read basecall probability vectors combine the
Q-score (probability the call is right) with the estimated transition
table (how the remaining probability splits across the other three bases).
Payload positions become per-bit LLRs summed over members; RS parity
positions get a hard decision from the per-base probability products. A
basecall-count LLR rule with a fixed crossover probability is provided as
the comparison baseline, and a per-position majority vote feeds the hard
decoder.
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
_CHUNK_READS = 4096  # reads per code matrix of a clustering step or a vote chunk


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
    payload_llrs: np.ndarray  # (256,) interleaved (y1, y2) per payload position
    rs_parity_hard: np.ndarray  # (8,) uint8 base codes of the RS parity


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
    m, n = codes.shape
    pcall = phred_to_prob(qs)
    pos = np.broadcast_to(np.arange(n), (m, n))
    vec = table.probs[pos, codes] * (1.0 - pcall)[:, :, None]
    np.put_along_axis(vec, codes[:, :, None].astype(np.int64), pcall[:, :, None], axis=2)
    return vec


def llr_proposed(cluster: Cluster, table: TransitionTable) -> ClusterLlr:
    """Q-score + transition-table LLRs, summed over cluster members.

    Per read and payload position: LLR(y1) = log[(P(A)+P(C)) / (P(G)+P(T))]
    and LLR(y2) = log[(P(A)+P(G)) / (P(C)+P(T))], natural log. The RS parity
    hard decision is the argmax of the per-member probability products,
    computed in log space; exact ties resolve to the first maximum, which is
    lexicographic A < C < G < T.
    """
    full = read_prob_vectors(cluster.codes, cluster.qscores, table)
    vec = full[:, PAYLOAD_SLICE]
    y1 = np.log(np.maximum(vec[..., 0] + vec[..., 1], _TINY)) - np.log(
        np.maximum(vec[..., 2] + vec[..., 3], _TINY)
    )
    y2 = np.log(np.maximum(vec[..., 0] + vec[..., 2], _TINY)) - np.log(
        np.maximum(vec[..., 1] + vec[..., 3], _TINY)
    )
    llrs = np.empty(2 * y1.shape[1])
    llrs[0::2] = y1.sum(axis=0)
    llrs[1::2] = y2.sum(axis=0)
    llrs = np.clip(llrs, -LLR_MAX, LLR_MAX)
    return ClusterLlr(payload_llrs=llrs, rs_parity_hard=_parity_hard(full[:, PARITY_SLICE]))


def _parity_hard(vec: np.ndarray) -> np.ndarray:
    scores = np.log(np.maximum(vec, _TINY)).sum(axis=0)  # (8, 4)
    return np.argmax(scores, axis=1).astype(np.uint8)


def derive_crossover(sub_rate: float) -> float:
    """Per-bit crossover implied by a per-base substitution rate.

    Under uniform transitions, 2 of the 3 substitution targets flip each
    bit of the two-bit base label.
    """
    return sub_rate * 2.0 / 3.0


def llr_chandak(cluster: Cluster, crossover_p: float) -> ClusterLlr:
    """Basecall-count LLRs: (n0 - n1) * log((1-p)/p) per payload bit.

    The RS parity hard decision is a per-position majority vote with
    lexicographic tie-breaking.
    """
    if not 0.0 < crossover_p < 0.5:
        raise ValueError(f"crossover_p must be in (0, 0.5), got {crossover_p}")
    codes = cluster.codes
    m = len(codes)
    ones = base_indices_to_bit_array(codes[:, PAYLOAD_SLICE]).sum(axis=0, dtype=np.int64)
    scale = np.log((1.0 - crossover_p) / crossover_p)
    llrs = np.clip((m - 2.0 * ones) * scale, -LLR_MAX, LLR_MAX)  # n0 - n1 = m - 2*n1

    counts = np.zeros((PARITY_NT, 4), dtype=np.int64)
    np.add.at(counts, (np.tile(np.arange(PARITY_NT), m), codes[:, PARITY_SLICE].ravel()), 1)
    return ClusterLlr(payload_llrs=llrs, rs_parity_hard=np.argmax(counts, axis=1).astype(np.uint8))


# The vote counts the four bases of a position in the four bytes of one
# little-endian uint32, so a count segment holds at most 255 members; larger
# clusters are split into several segments whose counts are added in
# full-width integers.
_SEGMENT_MAX = 255


def majority_vote(clusters: Sequence[Cluster]) -> np.ndarray:
    """Per-position majority basecall of each cluster, ties lexicographic.

    Returns a (len(clusters), 152) uint8 matrix of base indices (A=0 .. T=3)
    in the order given. Clusters are counted in chunks of about
    _CHUNK_READS members: one code matrix per chunk and one segmented
    sum per cluster.
    """
    sizes = np.array([c.size for c in clusters], dtype=np.int64)
    votes = np.empty((len(clusters), OLIGO_NT), dtype=np.uint8)
    ends = np.cumsum(sizes)
    lo = 0
    while lo < len(clusters):
        # at least one cluster, then whole clusters up to the chunk size
        base = ends[lo] - sizes[lo]
        hi = max(lo + 1, int(np.searchsorted(ends, base + _CHUNK_READS, side="right")))
        codes = np.concatenate([c.codes for c in clusters[lo:hi]])
        votes[lo:hi] = _vote_chunk(codes, sizes[lo:hi])
        lo = hi
    return votes


def _vote_chunk(codes: np.ndarray, sizes: np.ndarray) -> np.ndarray:
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
    return counts.argmax(axis=2)
