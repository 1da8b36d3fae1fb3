"""Reference seed clustering and cluster soft inputs for the property tests.

This is the clustering code of `oligolab.clustering_llr` as it was when a
cluster kept its members as `ReadRecord`s and every decoder stacked them
into arrays per call: `Cluster`, `cluster_by_seed`, `_stack_cluster`,
`read_prob_vectors`, `llr_proposed`, `llr_chandak` and `majority_vote` with
its sparse segment sums. The tests require the array-backed clusters to give
the same discards, clusters, LLRs, parity decisions and votes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from oligolab.bp_decoder import LLR_MAX
from oligolab.channel_stats import TransitionTable
from oligolab.clustering_llr import ClusterLlr, DiscardReport
from oligolab.dna_codec import (
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
from oligolab.fastq_io import ReadRecord, phred_to_prob
from oligolab.fountain import SeedSchedule

_TINY = 1e-300


@dataclass
class Cluster:
    seed: int
    members: list[ReadRecord]

    @property
    def size(self) -> int:
        return len(self.members)


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
    m, n = codes.shape
    pcall = phred_to_prob(qs)
    pos = np.broadcast_to(np.arange(n), (m, n))
    vec = table.probs[pos, codes] * (1.0 - pcall)[:, :, None]
    np.put_along_axis(vec, codes[:, :, None].astype(np.int64), pcall[:, :, None], axis=2)
    return vec


def llr_proposed(cluster: Cluster, table: TransitionTable) -> ClusterLlr:
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


def llr_chandak(cluster: Cluster, crossover_p: float) -> ClusterLlr:
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


_SEGMENT_MAX = 255
_LANE_ONE = np.zeros(256, dtype="<u4")  # code -> a one in that base's byte
_LANE_ONE[:4] = 1 << (8 * np.arange(4))
_VOTE_CHUNK_READS = 1 << 15  # members per code matrix, bounding its memory


def majority_vote(clusters: Sequence[Cluster]) -> np.ndarray:
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
