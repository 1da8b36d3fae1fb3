"""Seed clustering and conversion of read clusters to decoder soft inputs.

A cluster is the set of length-152, N-free reads whose 16-nt prefix decodes
to one of the pre-determined seed values; reads with any other prefix are
discarded and counted. For each cluster the per-read basecall probability
vectors combine the Q-score (probability the call is right) with the
estimated transition table (how the remaining probability splits across
the other three bases). Payload positions become per-bit LLRs summed over
members; RS parity positions get a hard decision from the per-base
probability products. A basecall-count LLR rule with a fixed crossover
probability is provided as the comparison baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

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
    encode_base_matrix,
    indices_to_sequences,
    seeds_to_base_indices,
)
from .fastq_io import ReadRecord, phred_to_prob
from .fountain import SeedSchedule

# after bp_decoder, which imports it first: importing scipy ahead of it moves
# a full garbage-collection pass into the start-up imports (about 45 ms per
# process on a 2-core x86 box)
from scipy import sparse

_TINY = 1e-300


@dataclass
class Cluster:
    seed: int
    members: list[ReadRecord]

    @property
    def size(self) -> int:
        return len(self.members)


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


def cluster_by_seed(
    reads: Iterable[ReadRecord],
    seed_table: SeedSchedule | Sequence[int],
) -> tuple[dict[int, Cluster], DiscardReport]:
    """Group reads by exact seed-region match against the seed table."""
    seeds = seed_table.seeds if isinstance(seed_table, SeedSchedule) else seed_table
    nt_to_seed = dict(zip(indices_to_sequences(seeds_to_base_indices(seeds)), seeds))
    clusters: dict[int, Cluster] = {}
    report = DiscardReport()
    for read in reads:
        report.n_input += 1
        if len(read.bases) != OLIGO_NT:
            report.n_wrong_length += 1
            continue
        if "N" in read.bases:
            report.n_with_n += 1
            continue
        seed = nt_to_seed.get(read.bases[:SEED_NT])
        if seed is None:
            report.n_seed_mismatch += 1
            continue
        cluster = clusters.get(seed)
        if cluster is None:
            clusters[seed] = Cluster(seed=seed, members=[read])
        else:
            cluster.members.append(read)
        report.n_retained += 1
    return clusters, report


def _stack_cluster(cluster: Cluster) -> tuple[np.ndarray, np.ndarray]:
    if not cluster.members:
        raise ValueError("empty cluster")
    codes = encode_base_matrix([m.bases for m in cluster.members], OLIGO_NT)
    qs = np.stack([np.asarray(m.qscores, dtype=np.float64) for m in cluster.members])
    return codes, qs


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
    full = read_prob_vectors(*_stack_cluster(cluster), table)
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
    codes, _ = _stack_cluster(cluster)
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
_LANE_ONE = np.zeros(256, dtype="<u4")  # code -> a one in that base's byte
_LANE_ONE[:4] = 1 << (8 * np.arange(4))
_VOTE_CHUNK_READS = 1 << 15  # members per code matrix, bounding its memory


def majority_vote(clusters: Sequence[Cluster]) -> np.ndarray:
    """Per-position majority basecall of each cluster, ties lexicographic.

    Returns a (len(clusters), 152) uint8 matrix of base indices (A=0 .. T=3)
    in the order given. Clusters are counted in chunks of about
    _VOTE_CHUNK_READS members: one code matrix per chunk and one segmented
    sum per cluster.
    """
    sizes = np.array([c.size for c in clusters], dtype=np.int64)
    if (sizes == 0).any():
        raise ValueError("empty cluster")
    votes = np.empty((len(clusters), OLIGO_NT), dtype=np.uint8)
    ends = np.cumsum(sizes)
    lo = 0
    while lo < len(clusters):
        # at least one cluster, then whole clusters up to the chunk size
        base = ends[lo] - sizes[lo]
        hi = max(lo + 1, int(np.searchsorted(ends, base + _VOTE_CHUNK_READS, side="right")))
        chunk = clusters[lo:hi]
        codes = encode_base_matrix(
            [m.bases for c in chunk for m in c.members], OLIGO_NT
        )
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
    n = len(codes)
    # one indicator row per segment: the segment sums are one sparse product
    segments = sparse.csr_matrix(
        (np.ones(n, dtype=_LANE_ONE.dtype), np.arange(n), np.append(starts, n)),
        shape=(len(starts), n),
    )
    packed = np.asarray(segments @ _LANE_ONE[codes], dtype=_LANE_ONE.dtype)
    counts = packed.view(np.uint8).reshape(*packed.shape, 4)
    if len(owner) > len(sizes):
        counts = np.add.reduceat(counts, first_piece, axis=0, dtype=np.int64)
    return counts.argmax(axis=2)
