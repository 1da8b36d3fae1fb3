"""Statistical stand-in for synthesis + PCR + sequencing + read stitching.

Per-oligo read counts follow lognormal-weighted multinomial sampling (PCR
skew). Each read suffers i.i.d. substitutions whose replacement base is
drawn from a per-position transition row, plus rare insertions/deletions
that change the read length (downstream filtering then drops them, the
same role stitching-length filters play for real data). Q-scores come
from two rounded Gaussians, one for correct and one for erroneous calls;
with a small probability an erroneous call keeps a high Q-score
(miscalibration), which is what lets high-quality garbage reads exist.

Every read carries a ground-truth event list; replaying the events against
the source oligo reproduces the read bases exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .dna_codec import (
    BASES,
    OLIGO_NT,
    indices_to_sequence,
    indices_to_sequences,
    sequence_to_indices,
)
from .fastq_io import ReadRecord, write_fastq

# the three substitution targets for each source base, in A<C<G<T order
_OTHERS = np.array([[b for b in range(4) if b != x] for x in range(4)], dtype=np.uint8)


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


def sample_abundances(
    n_oligos: int, total_reads: int, config: ChannelConfig, rng: np.random.Generator | None = None
) -> np.ndarray:
    """Per-oligo read counts: lognormal weights feeding one multinomial draw."""
    if n_oligos < 1:
        raise ValueError("n_oligos must be >= 1")
    if total_reads < 1:
        raise ValueError("total_reads must be >= 1")
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence([config.rng_seed, 0]))
    if config.abundance_sigma == 0.0:
        weights = np.ones(n_oligos)
    else:
        weights = np.exp(config.abundance_sigma * rng.standard_normal(n_oligos))
    return rng.multinomial(total_reads, weights / weights.sum())


# ground-truth events: ('S', pos, base) substitution, ('I', pos, base)
# insertion before source position pos, ('D', pos) deletion of source pos.
Event = tuple


def replay_events(oligo_seq: str, events: Sequence[Event]) -> str:
    """Rebuild the read bases implied by an event list (truth verification)."""
    subs = {}
    ins: dict[int, list[str]] = {}
    dels = set()
    for ev in events:
        if ev[0] == "S":
            subs[ev[1]] = ev[2]
        elif ev[0] == "I":
            ins.setdefault(ev[1], []).append(ev[2])
        elif ev[0] == "D":
            dels.add(ev[1])
        else:
            raise ValueError(f"unknown event kind {ev[0]!r}")
    out: list[str] = []
    for i, base in enumerate(oligo_seq):
        if i in ins:
            out.extend(ins[i])
        if i in dels:
            continue
        out.append(subs.get(i, base))
    return "".join(out)


def format_events(events: Sequence[Event]) -> str:
    if not events:
        return "-"
    parts = []
    for ev in events:
        parts.append(":".join(str(x) for x in ev))
    return ";".join(parts)


def parse_events(text: str) -> list[Event]:
    if text == "-":
        return []
    events: list[Event] = []
    for part in text.split(";"):
        fields = part.split(":")
        if fields[0] in ("S", "I"):
            events.append((fields[0], int(fields[1]), fields[2]))
        elif fields[0] == "D":
            events.append(("D", int(fields[1])))
        else:
            raise ValueError(f"unknown event kind {fields[0]!r}")
    return events


def _draw_q(rng: np.random.Generator, mean: float, qm: QscoreModel, size=None):
    q = np.rint(rng.normal(mean, qm.q_spread, size))
    return np.clip(q, qm.q_min, qm.q_max).astype(np.uint8)


def corrupt_batch(
    oligo_seq: str,
    n: int,
    config: ChannelConfig,
    rng: np.random.Generator,
) -> tuple[list[str], list[np.ndarray], list[list[Event]]]:
    """Generate n reads of one oligo. Returns (bases, qscores, events) lists.

    The substitution/Q-score core is vectorized over the whole batch; the
    rare reads that drew insertions or deletions are rebuilt individually.
    """
    if len(oligo_seq) != OLIGO_NT:
        raise ValueError(f"oligo must be {OLIGO_NT} nt")
    if n == 0:
        return [], [], []
    src = sequence_to_indices(oligo_seq)
    qm = config.qmodel
    bias = config.transition_bias
    if bias is None:
        bias = default_transition_bias()
    bias = np.asarray(bias, dtype=np.float64)
    # cumulative target distribution per position for this oligo's bases
    row = bias[np.arange(OLIGO_NT), src]  # (152, 4) over emitted bases
    tgt_probs = row[np.arange(OLIGO_NT)[:, None], _OTHERS[src]]  # (152, 3)
    tgt_probs = tgt_probs / tgt_probs.sum(axis=1, keepdims=True)
    cum = np.cumsum(tgt_probs, axis=1)

    sub_mask = rng.random((n, OLIGO_NT)) < config.sub_rate
    u = rng.random((n, OLIGO_NT))
    # replacement bases are looked up only where a substitution was drawn
    sub_rows, sub_cols = np.nonzero(sub_mask)
    choice = (u[sub_rows, sub_cols][:, None] > cum[sub_cols]).sum(axis=1).clip(max=2)
    codes = np.repeat(src[None, :], n, axis=0)
    codes[sub_rows, sub_cols] = _OTHERS[src[sub_cols], choice]

    q_ok = rng.normal(qm.q_correct_mean, qm.q_spread, (n, OLIGO_NT))
    q_err = rng.normal(qm.q_error_mean, qm.q_spread, (n, OLIGO_NT))
    high_q = rng.random((n, OLIGO_NT)) < qm.p_err_high_q
    q = np.where(sub_mask & ~high_q, q_err, q_ok)
    q = np.clip(np.rint(q, out=q), qm.q_min, qm.q_max).astype(np.uint8)

    n_ins = rng.binomial(OLIGO_NT, config.ins_rate, n)
    n_del = rng.binomial(OLIGO_NT, config.del_rate, n)

    bases_out = indices_to_sequences(codes)
    q_out = list(q)
    # (position, new base) of row r's substitutions: subs[bounds[r] : bounds[r + 1]]
    subs = list(zip(sub_cols.tolist(), codes[sub_rows, sub_cols].tolist()))
    bounds = np.searchsorted(sub_rows, np.arange(n + 1)).tolist()
    events_out: list[list[Event]] = [
        [("S", c, BASES[b]) for c, b in subs[lo:hi]] for lo, hi in zip(bounds, bounds[1:])
    ]

    # the rare reads with insertions or deletions are rebuilt one by one
    for r in np.nonzero((n_ins > 0) | (n_del > 0))[0].tolist():
        ins_pos = set(rng.choice(OLIGO_NT, size=n_ins[r], replace=False).tolist())
        del_pos = set(rng.choice(OLIGO_NT, size=n_del[r], replace=False).tolist())
        sub_at = dict(subs[bounds[r] : bounds[r + 1]])
        walk_events: list[Event] = []
        out_codes: list[int] = []
        out_q: list[int] = []
        for i in range(OLIGO_NT):
            if i in ins_pos:
                b = int(rng.integers(4))
                miscal = rng.random() < qm.p_err_high_q
                qi = int(_draw_q(rng, qm.q_correct_mean if miscal else qm.q_error_mean, qm))
                walk_events.append(("I", i, BASES[b]))
                out_codes.append(b)
                out_q.append(qi)
            if i in del_pos:
                # deletion suppresses any substitution drawn at this position
                walk_events.append(("D", i))
                continue
            if i in sub_at:
                walk_events.append(("S", i, BASES[sub_at[i]]))
            out_codes.append(int(codes[r, i]))
            out_q.append(int(q[r, i]))
        bases_out[r] = indices_to_sequence(out_codes)
        q_out[r] = np.array(out_q, dtype=np.uint8)
        events_out[r] = walk_events
    return bases_out, q_out, events_out


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
    output bytes are reproducible run to run.
    """
    if not seqs:
        raise ValueError("empty oligo pool")
    fastq_path = Path(fastq_path)
    if config.transition_bias is None:
        # resolved once here rather than once per corrupt_batch call
        config = replace(config, transition_bias=default_transition_bias())
    counts = sample_abundances(len(seqs), total_reads, config)
    stats = dict(subs=0, ins=0, dels=0, correct_len=0)
    serial = 0

    def gen_records() -> Iterator[ReadRecord]:
        nonlocal serial
        for idx, seq in enumerate(seqs):
            n = int(counts[idx])
            if n == 0:
                continue
            rng = np.random.default_rng(np.random.SeedSequence([config.rng_seed, 1, idx]))
            bases_list, q_list, events_list = corrupt_batch(seq, n, config, rng)
            for bases, q, events in zip(bases_list, q_list, events_list):
                rec = ReadRecord(id=f"r{serial:09d}", bases=bases, qscores=q)
                for ev in events:
                    if ev[0] == "S":
                        stats["subs"] += 1
                    elif ev[0] == "I":
                        stats["ins"] += 1
                    else:
                        stats["dels"] += 1
                if len(bases) == OLIGO_NT:
                    stats["correct_len"] += 1
                if truth_fh is not None:
                    truth_fh.write(f"{rec.id}\t{idx}\t{format_events(events)}\n")
                serial += 1
                yield rec

    truth_fh = None
    try:
        if truth_path is not None:
            truth_fh = open(truth_path, "w")
            truth_fh.write("read_id\toligo_index\tevents\n")
        n_written = write_fastq(gen_records(), fastq_path)
    finally:
        if truth_fh is not None:
            truth_fh.close()
    return SimulatedPool(
        fastq_path=fastq_path,
        truth_path=Path(truth_path) if truth_path is not None else None,
        n_reads=n_written,
        n_bases_attempted=n_written * OLIGO_NT,
        n_substitutions=stats["subs"],
        n_insertions=stats["ins"],
        n_deletions=stats["dels"],
        n_correct_length=stats["correct_len"],
        abundances=counts,
    )


def load_truth(path: str | Path) -> dict[str, tuple[int, list[Event]]]:
    """Read a truth sidecar back into {read_id: (oligo_index, events)}."""
    out: dict[str, tuple[int, list[Event]]] = {}
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("read_id\t"):
            raise ValueError("not a truth sidecar file")
        for line in fh:
            read_id, idx, events = line.rstrip("\n").split("\t")
            out[read_id] = (int(idx), parse_events(events))
    return out
