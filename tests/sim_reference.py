"""Reference simulator for the chunked-simulator property test.

These are `oligolab.channel_sim.corrupt_batch` and `simulate_pool` (with
the `_draw_q` helper) as they were before the random draws were split from
the chunked apply-and-write step: every oligo's reads are corrupted one
oligo at a time and written through `ReadRecord`s and `write_fastq`. The
code is verbatim; the live module's constants and helpers are imported.
The test requires the live simulator to write the same FASTQ and truth
bytes and return the same counts.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from oligolab.channel_sim import (
    _OTHERS,
    ChannelConfig,
    Event,
    QscoreModel,
    SimulatedPool,
    default_transition_bias,
    format_events,
    sample_abundances,
)
from oligolab.dna_codec import (
    BASES,
    OLIGO_NT,
    indices_to_sequence,
    indices_to_sequences,
    sequence_to_indices,
)
from oligolab.fastq_io import ReadRecord, write_fastq


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
