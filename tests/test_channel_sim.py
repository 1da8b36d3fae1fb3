import dataclasses
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sim_reference
from oligolab import channel_sim
from oligolab.channel_sim import (
    ChannelConfig,
    Event,
    QscoreModel,
    corrupt_batch,
    default_transition_bias,
    format_events,
    sample_abundances,
    simulate_pool,
)
from oligolab.dna_codec import assemble_oligo
from oligolab.fastq_io import parse_fastq


def replay_events(oligo_seq: str, events: list[Event]) -> str:
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


def parse_events(text: str) -> list[Event]:
    """The inverse of format_events."""
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


def load_truth(path) -> dict[str, tuple[int, list[Event]]]:
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


@pytest.fixture(scope="module")
def pool_seqs():
    rng = np.random.default_rng(0)
    return [
        assemble_oligo(s, rng.integers(0, 2, size=256, dtype=np.uint8)).sequence
        for s in range(12)
    ]


def test_config_validation():
    with pytest.raises(ValueError):
        ChannelConfig(sub_rate=-0.1, ins_rate=0, del_rate=0)
    with pytest.raises(ValueError):
        ChannelConfig(sub_rate=0, ins_rate=0, del_rate=0, abundance_sigma=-1)
    with pytest.raises(ValueError):
        ChannelConfig(sub_rate=0, ins_rate=0, del_rate=0,
                      transition_bias=np.ones((10, 4, 4)))


def test_reference_error_profiles():
    b = ChannelConfig.profile_data_b()
    assert b.sub_rate == 8.352e-4
    assert abs(b.ins_rate + b.del_rate - 1.744e-5) < 1e-20


def test_abundances_sum_and_uniform():
    cfg = ChannelConfig(sub_rate=0, ins_rate=0, del_rate=0, abundance_sigma=0.0, rng_seed=1)
    counts = sample_abundances(100, 50_000, cfg)
    assert counts.sum() == 50_000
    # sigma 0 leaves only multinomial noise around the uniform mean
    assert abs(counts.mean() - 500) < 1e-9
    assert counts.std() < 5 * np.sqrt(500)


def test_abundances_dropout_matches_direct_simulation():
    # dropout fraction under skew vs an independent monte-carlo oracle
    sigma, n, total = 1.0, 1000, 3000
    cfg = ChannelConfig(sub_rate=0, ins_rate=0, del_rate=0, abundance_sigma=sigma)
    observed = np.mean(
        [
            (sample_abundances(n, total, dataclasses.replace(cfg, rng_seed=s)) == 0).mean()
            for s in range(40)
        ]
    )
    oracle_rng = np.random.default_rng(4)
    oracle = []
    for _ in range(40):
        w = np.exp(sigma * oracle_rng.standard_normal(n))
        p = w / w.sum()
        oracle.append(np.exp(total * np.log1p(-p)).mean())  # P(count_i = 0) ~ (1-p_i)^total
    assert abs(observed - np.mean(oracle)) < 0.02


def test_zero_rates_identity(pool_seqs):
    cfg = ChannelConfig(sub_rate=0.0, ins_rate=0.0, del_rate=0.0)
    (bases,), (q,), (events,) = corrupt_batch(pool_seqs[0], 1, cfg, np.random.default_rng(5))
    assert bases == pool_seqs[0]
    assert len(bases) == 152
    assert events == []
    assert len(q) == 152


def test_substitution_rate_statistical(pool_seqs):
    cfg = ChannelConfig(sub_rate=5e-3, ins_rate=0.0, del_rate=0.0, rng_seed=6)
    rng = np.random.default_rng(6)
    bases, _, events = corrupt_batch(pool_seqs[0], 20_000, cfg, rng)
    n_sub = sum(len(ev) for ev in events)
    rate = n_sub / (20_000 * 152)
    assert abs(rate / 5e-3 - 1) < 0.05
    # events are real mismatches
    mism = sum(
        sum(a != b for a, b in zip(read, pool_seqs[0])) for read in bases
    )
    assert mism == n_sub


def test_deletions_change_length(pool_seqs):
    cfg = ChannelConfig(sub_rate=0.0, ins_rate=0.0, del_rate=5e-3, rng_seed=7)
    bases, _, events = corrupt_batch(pool_seqs[0], 3000, cfg, np.random.default_rng(7))
    lengths = {len(b) for b in bases}
    assert 151 in lengths  # some reads lost a base
    for b, ev in zip(bases, events):
        dels = sum(1 for e in ev if e[0] == "D")
        assert len(b) == 152 - dels


def test_replay_reproduces_reads(pool_seqs):
    cfg = ChannelConfig(sub_rate=0.01, ins_rate=2e-3, del_rate=2e-3, rng_seed=8)
    bases, _, events = corrupt_batch(pool_seqs[1], 4000, cfg, np.random.default_rng(8))
    for b, ev in zip(bases, events):
        assert replay_events(pool_seqs[1], ev) == b


def test_event_format_roundtrip():
    events = [("S", 17, "C"), ("I", 40, "G"), ("D", 88)]
    assert parse_events(format_events(events)) == events
    assert format_events([]) == "-"
    assert parse_events("-") == []


def test_qscore_model_separates_errors(pool_seqs):
    qm = QscoreModel(p_err_high_q=0.0)
    cfg = ChannelConfig(sub_rate=0.05, ins_rate=0, del_rate=0, qmodel=qm, rng_seed=9)
    bases, qs, events = corrupt_batch(pool_seqs[2], 2000, cfg, np.random.default_rng(9))
    err_q = []
    ok_q = []
    for b, q, ev in zip(bases, qs, events):
        errs = {e[1] for e in ev}
        for i in range(152):
            (err_q if i in errs else ok_q).append(q[i])
    assert np.mean(err_q) < 20
    assert np.mean(ok_q) > 33


def test_miscalibration_gives_high_q_errors(pool_seqs):
    qm = QscoreModel(p_err_high_q=0.5)
    cfg = ChannelConfig(sub_rate=0.05, ins_rate=0, del_rate=0, qmodel=qm, rng_seed=10)
    _, qs, events = corrupt_batch(pool_seqs[2], 500, cfg, np.random.default_rng(10))
    high_q_errors = 0
    for q, ev in zip(qs, events):
        for e in ev:
            if q[e[1]] >= 30:
                high_q_errors += 1
    assert high_q_errors > 0


def test_simulate_pool_deterministic(tmp_path, pool_seqs):
    cfg = ChannelConfig(sub_rate=1e-3, ins_rate=1e-4, del_rate=1e-4, rng_seed=11)
    out = []
    for run in (1, 2):
        fq = tmp_path / f"run{run}.fastq"
        tr = tmp_path / f"run{run}.tsv"
        simulate_pool(pool_seqs, 2000, cfg, fq, tr)
        out.append((fq.read_bytes(), tr.read_bytes()))
    assert out[0] == out[1]


def test_simulate_pool_truth_covers_all_reads(tmp_path, pool_seqs):
    cfg = ChannelConfig(sub_rate=5e-3, ins_rate=5e-4, del_rate=5e-4, rng_seed=12)
    fq = tmp_path / "sim.fastq"
    tr = tmp_path / "truth.tsv"
    sp = simulate_pool(pool_seqs, 1500, cfg, fq, tr)
    truth = load_truth(tr)
    n = 0
    for rec in parse_fastq(fq):
        idx, events = truth[rec.id]
        assert replay_events(pool_seqs[idx], events) == rec.bases
        n += 1
    assert n == sp.n_reads == 1500
    assert sp.abundances.sum() == 1500


def test_default_bias_rows_normalized():
    bias = default_transition_bias()
    off = bias.sum(axis=2)
    assert np.allclose(off, 1.0)
    assert (bias >= 0).all()
    for b in range(4):
        assert np.allclose(bias[:, b, b], 0.0)


@st.composite
def channels(draw):
    """Channel configs from clean to heavily damaged: several indels per
    read, insertions and deletions at one position, deletions over
    substitutions, every position substituted, custom biases."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rate = st.sampled_from([0.0, 0.01, 0.05]) | st.floats(0.0, 0.05)
    return ChannelConfig(
        sub_rate=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 0.05)),
        ins_rate=draw(rate),
        del_rate=draw(rate),
        abundance_sigma=draw(st.sampled_from([0.0, 0.6, 2.0])),
        qmodel=QscoreModel(p_err_high_q=draw(st.sampled_from([0.0, 0.02, 0.5]))),
        transition_bias=rng.random((152, 4, 4)) + 0.01 if draw(st.booleans()) else None,
        rng_seed=draw(st.integers(0, 2**32 - 1)),
    )


def random_pool(seed: int, n: int) -> list[str]:
    rng = np.random.default_rng(seed)
    return ["".join("ACGT"[b] for b in rng.integers(0, 4, 152)) for _ in range(n)]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    channels(),
    st.integers(0, 2**32 - 1),
    st.integers(1, 8),
    st.integers(1, 40),
    st.sampled_from([1, 2, 3, channel_sim._CHUNK_READS]),
    st.booleans(),
)
def test_simulate_pool_matches_reference(config, pool_seed, n_oligos, total, chunk, truth):
    """Chunked simulation writes the per-oligo reference's FASTQ and truth
    bytes and counts the same events, whatever the chunk size; pools with
    fewer reads than oligos leave oligos without reads."""
    seqs = random_pool(pool_seed, n_oligos)
    with tempfile.TemporaryDirectory() as tmp:
        out = {}
        for side, simulate in (("live", simulate_pool), ("ref", sim_reference.simulate_pool)):
            fq, tr = Path(tmp) / f"{side}.fastq", Path(tmp) / f"{side}.tsv"
            saved, channel_sim._CHUNK_READS = channel_sim._CHUNK_READS, chunk
            try:
                pool = simulate(seqs, total, config, fq, tr if truth else None)
            finally:
                channel_sim._CHUNK_READS = saved
            fields = dataclasses.asdict(pool)
            del fields["fastq_path"], fields["truth_path"]
            fields["abundances"] = fields["abundances"].tolist()
            out[side] = fields, fq.read_bytes(), tr.read_bytes() if truth else None
    assert out["live"] == out["ref"]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(channels(), st.integers(0, 2**32 - 1), st.integers(0, 30))
def test_corrupt_batch_matches_reference(config, seed, n):
    """The one-oligo form returns the reference's bases, Q-scores and events."""
    (seq,) = random_pool(seed, 1)
    got = corrupt_batch(seq, n, config, np.random.default_rng(seed))
    want = sim_reference.corrupt_batch(seq, n, config, np.random.default_rng(seed))
    assert got[0] == want[0] and got[2] == want[2]
    assert [q.tolist() for q in got[1]] == [q.tolist() for q in want[1]]
    assert all(q.dtype == np.uint8 for q in got[1])
