"""Statistical stand-in for synthesis + PCR + sequencing + read stitching.

Per-oligo read counts follow lognormal-weighted multinomial sampling (PCR
skew). Each read suffers i.i.d. substitutions whose replacement base is
drawn from a per-position transition row, plus rare insertions/deletions
that change the read length (downstream filtering then drops them, the
same role stitching-length filters play for real data). Q-scores come
from two rounded Gaussians, one for correct and one for erroneous calls;
with a small probability an erroneous call keeps a high Q-score
(miscalibration), which is what lets high-quality garbage reads exist.

Every read carries a ground-truth event list, which `simulate_pool` can
write to a truth sidecar (read id, oligo index, `format_events` text);
replaying the events against the source oligo reproduces the read bases
exactly.

A pool is simulated in two steps. Each oligo makes all of its reads'
random draws from its own generator, derived from (rng_seed, oligo index),
in a fixed order (see _Draws). The draws of whole oligos are then applied
and written in chunks of about _CHUNK_READS reads: substitution targets,
codes, Q-scores, event counts and FASTQ/truth bytes in bulk, with only the
rare reads that have insertions or deletions rebuilt one at a time. A
read depends only on its own oligo's generator, so the output does not
depend on the chunk size. `corrupt_batch` is the one-oligo form of the
same two steps.
"""

from __future__ import annotations

import math
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .dna_codec import (
    BASES,
    OLIGO_NT,
    base_letters,
    indices_to_sequence,
    indices_to_sequences,
    sequence_to_indices,
)
from .fastq_io import record_block

# the three substitution targets for each source base, in A<C<G<T order
_OTHERS = np.array([[b for b in range(4) if b != x] for x in range(4)], dtype=np.uint8)
# a chunk of the apply-and-write step holds whole oligos, up to _CHUNK_READS
# reads (or one oligo's reads, if more)
_CHUNK_READS = 1024
# read ids are "r" and nine digits
MAX_READS = 10**9
_ID_DIGITS = 10 ** np.arange(8, -1, -1)


@dataclass(frozen=True)
class QscoreModel:
    q_correct_mean: float = 37.0
    q_error_mean: float = 15.0
    q_spread: float = 3.0
    p_err_high_q: float = 0.02
    q_min: int = 2
    q_max: int = 41


@dataclass(frozen=True)
class ChannelConfig:
    sub_rate: float
    ins_rate: float
    del_rate: float
    abundance_sigma: float = 0.6
    qmodel: QscoreModel = field(default_factory=QscoreModel)
    transition_bias: np.ndarray | None = None  # (152, 4, 4) P(emit y | source x, sub)
    rng_seed: int = 0

    def __post_init__(self) -> None:
        for name in ("sub_rate", "ins_rate", "del_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.abundance_sigma < 0:
            raise ValueError("abundance_sigma must be >= 0")
        if self.transition_bias is not None:
            bias = np.asarray(self.transition_bias, dtype=np.float64)
            if bias.shape != (OLIGO_NT, 4, 4):
                raise ValueError(f"transition_bias must be (152, 4, 4), got {bias.shape}")

    @classmethod
    def profile_data_b(cls, **kwargs) -> "ChannelConfig":
        """Data-B error profile: 8.352e-4 substitutions, 1.744e-5 indels per base."""
        return cls(sub_rate=8.352e-4, ins_rate=1.744e-5 / 2, del_rate=1.744e-5 / 2, **kwargs)


def default_transition_bias() -> np.ndarray:
    """Synthetic positional tilt: smooth, asymmetric, strictly positive rows."""
    pos = np.arange(OLIGO_NT, dtype=np.float64)
    bias = np.zeros((OLIGO_NT, 4, 4))
    for x in range(4):
        for y in range(4):
            if x == y:
                continue
            phase = 1.7 * x + 0.9 * y
            bias[:, x, y] = 1.0 + 0.6 * np.sin(2.0 * math.pi * pos / OLIGO_NT + phase)
    bias /= bias.sum(axis=2, keepdims=True)
    return bias


def sample_abundances(n_oligos: int, total_reads: int, config: ChannelConfig) -> np.ndarray:
    """Per-oligo read counts: lognormal weights feeding one multinomial draw."""
    if n_oligos < 1:
        raise ValueError("n_oligos must be >= 1")
    if total_reads < 1:
        raise ValueError("total_reads must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence([config.rng_seed, 0]))
    if config.abundance_sigma == 0.0:
        weights = np.ones(n_oligos)
    else:
        weights = np.exp(config.abundance_sigma * rng.standard_normal(n_oligos))
    return rng.multinomial(total_reads, weights / weights.sum())


# ground-truth events: ('S', pos, base) substitution, ('I', pos, base)
# insertion before source position pos, ('D', pos) deletion of source pos.
Event = tuple


def format_events(events: Sequence[Event]) -> str:
    if not events:
        return "-"
    parts = []
    for ev in events:
        parts.append(":".join(str(x) for x in ev))
    return ";".join(parts)


def _draw_q(rng: np.random.Generator, mean: float, qm: QscoreModel) -> int:
    return int(np.clip(np.rint(rng.normal(mean, qm.q_spread)), qm.q_min, qm.q_max))


def _target_table(bias: np.ndarray | None) -> np.ndarray:
    """(152, 4, 3) cumulative probabilities of each source base's three
    substitution targets at each position."""
    if bias is None:
        bias = default_transition_bias()
    bias = np.asarray(bias, dtype=np.float64)
    probs = bias[:, np.arange(4)[:, None], _OTHERS]
    return np.cumsum(probs / probs.sum(axis=2, keepdims=True), axis=2)


class _Draws:
    """The random draws of whole oligos' reads, one row per read in read order.

    Each oligo draws from its own generator, in this order: the
    substitution mask, the target choice, the correct-call and error-call
    Q-scores, the miscalibration mask, the insertion and deletion counts
    (all drawn whole-batch), and then, read by read for the reads with an
    insertion or deletion, the insertion and deletion positions and the
    base, miscalibration and Q-score of each insertion in position order.
    """

    def __init__(self, capacity: int):
        self.oligo = np.empty(capacity, dtype=np.intp)
        self.sub_u = np.empty((capacity, OLIGO_NT))
        self.target_u = np.empty((capacity, OLIGO_NT))
        self.q_ok = np.empty((capacity, OLIGO_NT))
        self.q_err = np.empty((capacity, OLIGO_NT))
        self.high_u = np.empty((capacity, OLIGO_NT))
        self.n_ins = np.empty(capacity, dtype=np.int64)
        self.n_del = np.empty(capacity, dtype=np.int64)
        # (row, {position: (base, Q-score)} of the insertions, deleted positions)
        self.indels: list[tuple[int, dict[int, tuple[int, int]], set[int]]] = []
        self.rows = 0

    def add(self, idx: int, n: int, config: ChannelConfig, rng: np.random.Generator) -> None:
        """Draw the n reads of oligo idx."""
        qm = config.qmodel
        rows = slice(self.rows, self.rows + n)
        self.oligo[rows] = idx
        rng.random(out=self.sub_u[rows])
        rng.random(out=self.target_u[rows])
        self.q_ok[rows] = rng.normal(qm.q_correct_mean, qm.q_spread, (n, OLIGO_NT))
        self.q_err[rows] = rng.normal(qm.q_error_mean, qm.q_spread, (n, OLIGO_NT))
        rng.random(out=self.high_u[rows])
        n_ins = self.n_ins[rows] = rng.binomial(OLIGO_NT, config.ins_rate, n)
        n_del = self.n_del[rows] = rng.binomial(OLIGO_NT, config.del_rate, n)
        for r in (n_ins + n_del).nonzero()[0].tolist():
            ins_pos = rng.choice(OLIGO_NT, size=n_ins[r], replace=False)
            del_pos = rng.choice(OLIGO_NT, size=n_del[r], replace=False)
            inserted = {}
            for i in sorted(ins_pos.tolist()):
                b = int(rng.integers(4))
                miscal = rng.random() < qm.p_err_high_q
                qi = _draw_q(rng, qm.q_correct_mean if miscal else qm.q_error_mean, qm)
                inserted[i] = (b, qi)
            self.indels.append((self.rows + r, inserted, set(del_pos.tolist())))
        self.rows += n

    def clear(self) -> None:
        self.rows = 0
        self.indels = []


@dataclass
class _Walk:
    """A read with insertions or deletions, rebuilt position by position."""

    events: list[Event]
    codes: np.ndarray
    qscores: np.ndarray


@dataclass
class _Reads:
    """A chunk's reads. Rows in `walks` have their own codes and Q-scores;
    every other read is its row of `codes` and `qscores`."""

    oligo: np.ndarray  # (n,) pool index of each read
    codes: np.ndarray  # (n, 152) uint8 base codes after substitution
    qscores: np.ndarray  # (n, 152) uint8
    sub_rows: np.ndarray  # the substituted (row, position) pairs, row-major
    sub_cols: np.ndarray
    walks: dict[int, _Walk]
    n_substitutions: int
    n_insertions: int
    n_deletions: int
    n_correct_length: int

    def events(self) -> dict[int, list[Event]]:
        """The events of every read that has any, in walk order."""
        out: dict[int, list[Event]] = {}
        new = self.codes[self.sub_rows, self.sub_cols].tolist()
        for r, c, b in zip(self.sub_rows.tolist(), self.sub_cols.tolist(), new):
            out.setdefault(r, []).append(("S", c, BASES[b]))
        out.update((r, walk.events) for r, walk in self.walks.items())
        return out


def _apply(draws: _Draws, src: np.ndarray, targets: np.ndarray, config: ChannelConfig) -> _Reads:
    """Turn the draws of reads of the (pool, 152) source codes `src` into reads."""
    qm = config.qmodel
    n = draws.rows
    oligo = draws.oligo[:n].copy()
    codes = src[oligo]
    sub = draws.sub_u[:n] < config.sub_rate
    # replacement bases are looked up only where a substitution was drawn
    sub_rows, sub_cols = np.nonzero(sub)
    was = codes[sub_rows, sub_cols]
    u = draws.target_u[sub_rows, sub_cols]
    choice = (u[:, None] > targets[sub_cols, was]).sum(axis=1).clip(max=2)
    codes[sub_rows, sub_cols] = _OTHERS[was, choice]
    q = np.where(sub & ~(draws.high_u[:n] < qm.p_err_high_q), draws.q_err[:n], draws.q_ok[:n])
    q = np.clip(np.rint(q, out=q), qm.q_min, qm.q_max).astype(np.uint8)

    walks = {}
    hidden = 0  # substitutions under a deletion
    for r, inserted, deleted in draws.indels:
        row_codes, row_q, row_sub = codes[r].tolist(), q[r].tolist(), sub[r].tolist()
        events: list[Event] = []
        out_codes: list[int] = []
        out_q: list[int] = []
        for i in range(OLIGO_NT):
            if i in inserted:
                b, qi = inserted[i]
                events.append(("I", i, BASES[b]))
                out_codes.append(b)
                out_q.append(qi)
            if i in deleted:
                # deletion suppresses any substitution drawn at this position
                events.append(("D", i))
                hidden += row_sub[i]
                continue
            if row_sub[i]:
                events.append(("S", i, BASES[row_codes[i]]))
            out_codes.append(row_codes[i])
            out_q.append(row_q[i])
        walks[r] = _Walk(
            events, np.array(out_codes, dtype=np.uint8), np.array(out_q, dtype=np.uint8)
        )
    n_ins, n_del = draws.n_ins[:n], draws.n_del[:n]
    return _Reads(
        oligo=oligo,
        codes=codes,
        qscores=q,
        sub_rows=sub_rows,
        sub_cols=sub_cols,
        walks=walks,
        n_substitutions=len(sub_rows) - hidden,
        n_insertions=int(n_ins.sum()),
        n_deletions=int(n_del.sum()),
        n_correct_length=int((n_ins == n_del).sum()),
    )


def corrupt_batch(
    oligo_seq: str,
    n: int,
    config: ChannelConfig,
    rng: np.random.Generator,
) -> tuple[list[str], list[np.ndarray], list[list[Event]]]:
    """Generate n reads of one oligo. Returns (bases, qscores, events) lists.

    The one-oligo form of `simulate_pool`'s draw and apply steps.
    """
    if len(oligo_seq) != OLIGO_NT:
        raise ValueError(f"oligo must be {OLIGO_NT} nt")
    if n == 0:
        return [], [], []
    src = sequence_to_indices(oligo_seq)
    draws = _Draws(n)
    draws.add(0, n, config, rng)
    reads = _apply(draws, src[None], _target_table(config.transition_bias), config)
    bases = indices_to_sequences(reads.codes)
    qscores = list(reads.qscores)
    for r, walk in reads.walks.items():
        bases[r] = indices_to_sequence(walk.codes)
        qscores[r] = walk.qscores
    events = reads.events()
    return bases, qscores, [events.get(r, []) for r in range(n)]


@dataclass
class SimulatedPool:
    """Summary of one simulator run; reads live in the FASTQ file."""

    fastq_path: Path
    truth_path: Path | None
    n_reads: int
    n_bases_attempted: int  # source positions walked (reads * 152)
    n_substitutions: int
    n_insertions: int
    n_deletions: int
    n_correct_length: int
    abundances: np.ndarray

    @property
    def measured_sub_rate(self) -> float:
        return self.n_substitutions / self.n_bases_attempted

    @property
    def measured_indel_rate(self) -> float:
        return (self.n_insertions + self.n_deletions) / self.n_bases_attempted


def simulate_pool(
    seqs: Sequence[str],
    total_reads: int,
    config: ChannelConfig,
    fastq_path: str | Path,
    truth_path: str | Path | None = None,
) -> SimulatedPool:
    """Sample abundances, corrupt reads, write FASTQ (+ truth sidecar).

    Deterministic for a fixed config.rng_seed: abundances and each oligo's
    read batch use generators derived from (rng_seed, oligo index), so the
    output bytes are reproducible run to run. The draws of whole oligos are
    applied and written a chunk of about _CHUNK_READS reads at a time.
    """
    if not seqs:
        raise ValueError("empty oligo pool")
    if any(len(seq) != OLIGO_NT for seq in seqs):
        raise ValueError(f"oligo must be {OLIGO_NT} nt")
    if total_reads > MAX_READS:
        raise ValueError(f"at most {MAX_READS} reads: read ids have nine digits")
    src = sequence_to_indices("".join(seqs)).reshape(len(seqs), OLIGO_NT)
    fastq_path = Path(fastq_path)
    targets = _target_table(config.transition_bias)
    counts = sample_abundances(len(seqs), total_reads, config)
    draws = _Draws(max(_CHUNK_READS, int(counts.max())))
    pool = SimulatedPool(
        fastq_path=fastq_path,
        truth_path=Path(truth_path) if truth_path is not None else None,
        n_reads=int(counts.sum()),
        n_bases_attempted=int(counts.sum()) * OLIGO_NT,
        n_substitutions=0,
        n_insertions=0,
        n_deletions=0,
        n_correct_length=0,
        abundances=counts,
    )
    written = 0

    def flush() -> None:
        nonlocal written
        reads = _apply(draws, src, targets, config)
        fq.write(_fastq_bytes(reads, written))
        if truth is not None:
            truth.write(_truth_lines(reads, written))
        pool.n_substitutions += reads.n_substitutions
        pool.n_insertions += reads.n_insertions
        pool.n_deletions += reads.n_deletions
        pool.n_correct_length += reads.n_correct_length
        written += draws.rows
        draws.clear()

    with ExitStack() as stack:
        truth = None
        if truth_path is not None:
            truth = stack.enter_context(open(truth_path, "w"))
            truth.write("read_id\toligo_index\tevents\n")
        fq = stack.enter_context(open(fastq_path, "wb"))
        for idx in np.flatnonzero(counts).tolist():
            n = int(counts[idx])
            if draws.rows + n > len(draws.oligo):
                flush()
            rng = np.random.default_rng(np.random.SeedSequence([config.rng_seed, 1, idx]))
            draws.add(idx, n, config, rng)
        flush()
    return pool


def _fastq_bytes(reads: _Reads, first: int) -> bytes:
    """The FASTQ records of a chunk's reads, read ids numbered from `first`."""
    ids = np.empty((len(reads.codes), 10), dtype=np.uint8)
    ids[:, 0] = ord("r")
    ids[:, 1:] = np.arange(first, first + len(ids))[:, None] // _ID_DIGITS % 10 + ord("0")
    block = record_block(ids, base_letters(reads.codes), reads.qscores)
    pieces, start = [], 0
    for r, walk in reads.walks.items():
        one = record_block(ids[r : r + 1], base_letters(walk.codes[None]), walk.qscores[None])
        pieces += [block[start:r].tobytes(), one.tobytes()]
        start = r + 1
    pieces.append(block[start:].tobytes())
    return b"".join(pieces)


def _truth_lines(reads: _Reads, first: int) -> str:
    """The truth sidecar lines of a chunk's reads, read ids numbered from `first`."""
    events = reads.events()
    return "".join(
        f"r{first + r:09d}\t{idx}\t{format_events(events.get(r, ()))}\n"
        for r, idx in enumerate(reads.oligo.tolist())
    )
