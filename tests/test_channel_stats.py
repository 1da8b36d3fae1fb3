import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import align_reference as ref
from oligolab import channel_stats
from oligolab.channel_sim import ChannelConfig, corrupt_batch, default_transition_bias
from oligolab.channel_stats import (
    PoolIndex,
    TransitionEstimator,
    TransitionTable,
    _edit_distance,
    align_reads,
    estimate_transitions,
    encode_base_matrix,
    encode_bases,
    quality_products,
)
from oligolab.dna_codec import assemble_oligo
from oligolab.fastq_io import ReadRecord, phred_to_prob


@pytest.fixture(scope="module")
def pool():
    rng = np.random.default_rng(1)
    seqs = [
        assemble_oligo(s, rng.integers(0, 2, size=256, dtype=np.uint8)).sequence
        for s in range(16)
    ]
    return PoolIndex(seqs)


def brute_force_align(bases, pool):
    """Lowest-index minimum-edit-distance oligo and the Hamming distance to it."""
    dists = [ref.levenshtein(bases, s) for s in pool.sequences]
    idx = dists.index(min(dists))
    return idx, sum(a != b for a, b in zip(bases, pool.sequences[idx]))


def align(reads, pool):
    aligned, hams, _ = align_reads(encode_base_matrix(reads, 152), pool)
    return list(zip(aligned.tolist(), hams.tolist()))


def without_dmin(pool):
    """The same pool indexed as if it were too large for the dmin precompute."""
    return PoolIndex(pool.sequences, dmin_pool_limit=0)


def test_levenshtein_basics():
    # the reference full DP is the brute-force oracle of the alignment tests
    assert ref.levenshtein("", "") == 0
    assert ref.levenshtein("ACGT", "ACGT") == 0
    assert ref.levenshtein("ACGT", "ACCT") == 1
    assert ref.levenshtein("ACGT", "CGT") == 1
    assert ref.levenshtein("ACGT", "ACGTT") == 1
    assert ref.levenshtein("AAAA", "TTTT") == 4


def test_levenshtein_banded_matches_full():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(0, 15))
        a = "".join(rng.choice(list("ACGT"), size=n))
        b = "".join(rng.choice(list("ACGT"), size=n))
        full = ref.levenshtein(a, b)
        for cutoff in (0, 1, 3, 20):
            got = _edit_distance(encode_bases(a)[None], encode_bases(b)[None], cutoff)
            assert got.tolist() == [full if full <= cutoff else cutoff + 1]


def _pair_partner(codes: np.ndarray, kind: str, rng: np.random.Generator) -> np.ndarray:
    """A random, substituted or length-preserving-indel partner of codes."""
    n = len(codes)
    if kind == "random":
        return rng.integers(0, 4, n).astype(np.uint8)
    out = codes.tolist()
    for _ in range(int(rng.integers(1, 6))):
        if kind == "sub":
            out[int(rng.integers(n))] = int(rng.integers(4))
        else:
            out.insert(int(rng.integers(n + 1)), int(rng.integers(4)))
            del out[int(rng.integers(n + 1))]
    return np.array(out, dtype=np.uint8)


@settings(derandomize=True, deadline=None, max_examples=50)
@given(
    n=st.sampled_from([1, 5, 152]),
    band=st.integers(0, 152),
    kinds=st.lists(st.sampled_from(["random", "sub", "indel"]), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_edit_distance_kernel_matches_reference_banded(n, band, kinds, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 4, (len(kinds), n)).astype(np.uint8)
    b = np.stack([_pair_partner(row, kind, rng) for row, kind in zip(a, kinds)])
    want = [ref.levenshtein_banded(x.tolist(), y.tolist(), band) for x, y in zip(a, b)]
    assert _edit_distance(a, b, band).tolist() == want


def test_align_exact_read(pool):
    read = pool.sequences[5]
    for index in (pool, without_dmin(pool)):
        assert align([read], index) == [(5, 0)] == [brute_force_align(read, pool)]


def test_align_single_substitution(pool):
    seq = list(pool.sequences[7])
    seq[40] = "A" if seq[40] != "A" else "C"
    read = "".join(seq)
    for index in (pool, without_dmin(pool)):
        assert align([read], index) == [(7, 1)] == [brute_force_align(read, pool)]


def test_align_seed_region_error(pool):
    seq = list(pool.sequences[3])
    seq[4] = "A" if seq[4] != "A" else "C"
    read = "".join(seq)
    for index in (pool, without_dmin(pool)):
        assert align([read], index) == [(3, 1)] == [brute_force_align(read, pool)]


def test_align_length_preserving_indel_burst(pool):
    # insertion + deletion: tiny edit distance, huge hamming distance
    src = pool.sequences[2]
    read = src[:30] + "A" + src[30:140] + src[141:]
    assert len(read) == 152
    assert ref.levenshtein(read, src) <= 3
    expected = brute_force_align(read, pool)
    assert expected[0] == 2
    assert expected[1] > 3
    for index in (pool, without_dmin(pool)):
        assert align([read], index) == [expected]


def test_align_matches_brute_force_randomized(pool):
    rng = np.random.default_rng(3)
    reads = []
    for _ in range(60):
        src = pool.sequences[int(rng.integers(len(pool)))]
        read = list(src)
        for _ in range(int(rng.integers(0, 5))):
            read[int(rng.integers(152))] = "ACGT"[int(rng.integers(4))]
        reads.append("".join(read))
    expected = [brute_force_align(read, pool) for read in reads]
    for index in (pool, without_dmin(pool)):
        assert align(reads, index) == expected


def test_align_tie_breaks_to_lowest_index():
    base = assemble_oligo(0, np.zeros(256, dtype=np.uint8)).sequence
    seq_b = base[:50] + "C" + base[51:]
    seq_c = base[:100] + "G" + base[101:]
    pool = PoolIndex([seq_b, seq_c])
    # `base` is at distance 1 from both pool members
    assert brute_force_align(base, pool) == (0, 1)
    for index in (pool, without_dmin(pool)):
        assert align([base], index) == [(0, 1)]


def test_empty_pool_rejected():
    with pytest.raises(ValueError):
        PoolIndex([])


def test_pool_outside_acgt_rejected(pool):
    with pytest.raises(ValueError):
        PoolIndex([pool.sequences[0], "N" + pool.sequences[1][1:]])


def _edit_read(src: str, kind: str, rng: np.random.Generator) -> str:
    """One read of src carrying one kind of channel error."""
    codes = encode_bases(src).tolist()

    def sub(lo, hi, count):
        for i in rng.choice(np.arange(lo, hi), size=count, replace=False).tolist():
            codes[i] = (codes[i] + 1 + int(rng.integers(3))) % 4

    if kind == "sub":
        sub(0, 152, int(rng.integers(1, 6)))
    elif kind == "seed":
        sub(0, 16, int(rng.integers(1, 3)))
    elif kind in ("indel", "long"):
        codes.insert(int(rng.integers(153)), int(rng.integers(4)))
    if kind in ("indel", "short"):
        del codes[int(rng.integers(len(codes)))]
    read = "".join("ACGT"[c] for c in codes)
    if kind == "n":
        i = int(rng.integers(152))
        read = read[:i] + "N" + read[i + 1 :]
    return read


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    n_oligos=st.sampled_from([1, 2, 7, PoolIndex.DMIN_POOL_LIMIT + 2]),
    shared_prefix=st.booleans(),
    reads=st.lists(
        st.tuples(
            st.integers(0, 10**6),
            st.sampled_from(["clean", "sub", "seed", "indel", "short", "long", "n"]),
        ),
        min_size=1,
        max_size=20,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_alignment_and_table_match_reference(n_oligos, shared_prefix, reads, seed):
    rng = np.random.default_rng(seed)
    seqs = ["".join("ACGT"[c] for c in row) for row in rng.integers(0, 4, (n_oligos, 152))]
    if shared_prefix and n_oligos > 1:
        # the first oligo with a prefix wins the seed lookup
        seqs[-1] = seqs[0][:16] + seqs[-1][16:]
    bases = [_edit_read(seqs[i % n_oligos], kind, rng) for i, kind in reads]
    pool, ref_pool = PoolIndex(seqs), ref.PoolIndex(seqs)
    assert (pool.dmin is None) == (n_oligos > PoolIndex.DMIN_POOL_LIMIT)

    valid = [b for b in bases if len(b) == 152 and "N" not in b]
    codes = encode_base_matrix(valid, 152)
    got, want = align_reads(codes, pool), ref.align_reads(valid, codes, ref_pool)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert got[2] == want[2]

    est, ref_est = TransitionEstimator(pool), ref.TransitionEstimator(ref_pool)
    assert est.add_reads(bases) == ref_est.add_reads(bases)
    table, ref_table = est.finish(), ref_est.finish()
    assert np.array_equal(table.probs.view(np.uint64), ref_table.probs.view(np.uint64))
    for name in ("counts", "denoms", "fallback"):
        assert np.array_equal(getattr(table, name), getattr(ref_table, name))
    assert table.meta == ref_table.meta


def test_error_free_reads_give_uniform_fallback(pool):
    table = estimate_transitions(pool.sequences * 3, pool)
    assert table.fallback.all()
    assert np.allclose(table.probs[:, 0, 1:], 1.0 / 3.0)
    assert table.counts.sum() == 0


def substitute(seq, positions):
    out = list(seq)
    for i in positions:
        out[i] = "A" if out[i] != "A" else "C"
    return "".join(out)


def test_add_reads_returns_conditioned_reads_in_order(pool):
    one = substitute(pool.sequences[1], [60])
    two = substitute(pool.sequences[9], [3, 100])
    est = TransitionEstimator(pool)
    got = est.add_reads([pool.sequences[0], one, "ACGT", "N" * 152, two])
    assert got == [(one, 1), (two, 2)]
    assert (est.reads_seen, est.reads_skipped, est.reads_conditioned) == (5, 2, 2)


def test_on_conditioned_gets_each_chunk_in_read_order(pool, monkeypatch):
    monkeypatch.setattr(channel_stats, "_CHUNK_READS", 2)
    one = substitute(pool.sequences[1], [60])
    two = substitute(pool.sequences[9], [3, 100])
    three = substitute(pool.sequences[4], [151])
    calls = []
    table = estimate_transitions(
        [pool.sequences[0], one, "ACGT", "N" * 152, two, three], pool, on_conditioned=calls.append
    )
    assert calls == [[(one, 1)], [], [(two, 2), (three, 1)]]
    assert (table.meta["reads_seen"], table.meta["reads_skipped"]) == (6, 2)


def test_read_with_a_letter_outside_acgt_is_skipped(pool):
    src = pool.sequences[2]
    read = src[:50] + "a" + src[51:]
    est = TransitionEstimator(pool)
    assert est.add_reads([read, ReadRecord("r", read, np.full(152, 30, np.uint8)), src]) == []
    assert (est.reads_seen, est.reads_skipped, est.reads_conditioned) == (3, 2, 0)


def test_single_constructed_error_counted(pool):
    # one read with one error: truth C at position 20, sequenced A
    src = pool.sequences[4]
    assert src[20] != "A"  # position 20 of oligo 4 is not A for this seed
    truth_base = src[20]
    read = src[:20] + "A" + src[21:]
    table = estimate_transitions([read], pool)
    y = "ACGT".index("A")
    x = "ACGT".index(truth_base)
    assert table.counts[20, x, y] == 1
    assert table.probs[20, y, x] == 1.0
    others = [b for b in range(4) if b not in (x, y)]
    assert all(table.probs[20, y, o] == 0.0 for o in others)
    assert not table.fallback[20, y]


def test_row_sum_invariant_and_consistency(pool):
    cfg = ChannelConfig(sub_rate=0.01, ins_rate=0, del_rate=0, rng_seed=13)
    rng = np.random.default_rng(13)
    reads = []
    for i, seq in enumerate(pool.sequences):
        bases, _, _ = corrupt_batch(seq, 800, cfg, rng)
        reads.extend(bases)
    table = estimate_transitions(reads, pool)
    sums = table.row_sums()
    assert np.allclose(sums[~table.fallback], 1.0, atol=1e-9)

    bias = default_transition_bias()
    expected = bias.transpose(0, 2, 1) / bias.transpose(0, 2, 1).sum(axis=2, keepdims=True)
    err = np.abs(table.probs[~table.fallback] - expected[~table.fallback])
    assert np.median(err) < 0.12  # coarse at this read count; tightens with more reads


def test_estimator_error_shrinks_with_read_count(pool):
    bias = default_transition_bias()
    expected = bias.transpose(0, 2, 1) / bias.transpose(0, 2, 1).sum(axis=2, keepdims=True)
    errors = []
    for n_per, seed in ((150, 14), (3000, 15)):
        cfg = ChannelConfig(sub_rate=0.01, ins_rate=0, del_rate=0, rng_seed=seed)
        rng = np.random.default_rng(seed)
        reads = []
        for seq in pool.sequences:
            bases, _, _ = corrupt_batch(seq, n_per, cfg, rng)
            reads.extend(bases)
        table = estimate_transitions(reads, pool)
        mask = ~table.fallback
        errors.append(np.abs(table.probs[mask] - expected[mask]).mean())
    assert errors[1] < errors[0]


def test_estimator_permutation_invariant(pool):
    cfg = ChannelConfig(sub_rate=0.02, ins_rate=0, del_rate=0, rng_seed=16)
    rng = np.random.default_rng(16)
    reads = []
    for seq in pool.sequences[:4]:
        bases, _, _ = corrupt_batch(seq, 200, cfg, rng)
        reads.extend(bases)
    t1 = estimate_transitions(reads, pool)
    shuffled = list(reads)
    np.random.default_rng(17).shuffle(shuffled)
    t2 = estimate_transitions(shuffled, pool)
    assert np.array_equal(t1.counts, t2.counts)
    assert np.array_equal(t1.denoms, t2.denoms)
    assert np.allclose(t1.probs, t2.probs)


def test_table_tsv_roundtrip(tmp_path, pool):
    cfg = ChannelConfig(sub_rate=0.02, ins_rate=0, del_rate=0, rng_seed=18)
    rng = np.random.default_rng(18)
    reads = []
    for seq in pool.sequences[:6]:
        bases, _, _ = corrupt_batch(seq, 300, cfg, rng)
        reads.extend(bases)
    table = estimate_transitions(reads, pool)
    path = tmp_path / "table.tsv"
    table.save_tsv(path)
    loaded = TransitionTable.load_tsv(path)
    assert np.array_equal(loaded.counts, table.counts)
    assert np.array_equal(loaded.denoms, table.denoms)
    assert np.array_equal(loaded.fallback, table.fallback)
    assert np.allclose(loaded.probs, table.probs, atol=1e-11)


def test_uniform_table_roundtrip(tmp_path):
    path = tmp_path / "uniform.tsv"
    TransitionTable.uniform().save_tsv(path)
    loaded = TransitionTable.load_tsv(path)
    assert loaded.fallback.all()
    assert np.allclose(loaded.probs, TransitionTable.uniform().probs, atol=1e-11)


def test_table_version_rejected(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("# transition-table v99\n")
    with pytest.raises(ValueError):
        TransitionTable.load_tsv(path)


def test_quality_product_values():
    rec = ReadRecord("x", "A" * 152, np.full(152, 40, dtype=np.uint8))
    expected = phred_to_prob(40) ** 152
    assert abs(quality_products([rec])[0] - expected) < 1e-12
    assert abs(quality_products([rec])[0] - 0.9849) < 5e-4

    rec0 = ReadRecord("x", "A" * 152, np.concatenate([[0], np.full(151, 40)]).astype(np.uint8))
    assert quality_products([rec0])[0] < 1e-11  # the clipped-zero position dominates
    # one pass over several reads gives each read's own product, bit for bit
    both = quality_products([rec, rec0])
    assert both.tolist() == [quality_products([rec])[0], quality_products([rec0])[0]]
    assert quality_products([]).shape == (0,)


def test_quality_product_monotone():
    q = np.full(152, 20, dtype=np.uint8)
    rec = ReadRecord("x", "A" * 152, q)
    base = quality_products([rec])[0]
    q2 = q.copy()
    q2[77] = 21
    assert quality_products([ReadRecord("x", "A" * 152, q2)])[0] > base


def test_quality_product_length_contract():
    short = ReadRecord("x", "ACGT", np.array([30, 30, 30, 30], dtype=np.uint8))
    for reads in ([short], [ReadRecord("y", "A" * 152, np.full(152, 30, dtype=np.uint8)), short]):
        with pytest.raises(ValueError, match="152 nt, got 4"):
            quality_products(reads)
