from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oligolab import bp_decoder, fountain, gf_rs, pipeline
from oligolab.channel_sim import ChannelConfig, corrupt_batch
from oligolab.channel_stats import PoolIndex, TransitionTable, estimate_transitions
from oligolab.clustering_llr import cluster_by_seed, screen_reads
from oligolab.dna_codec import (
    SEED_SYMBOLS,
    assemble_oligo,
    base_indices_to_symbols,
    indices_to_sequence,
    sequence_to_indices,
    symbols_to_base_indices,
)
from oligolab.fastq_io import ReadRecord
from oligolab.fountain import (
    NeighborGraph,
    SeedSchedule,
    SolitonParams,
    lt_encode,
    required_symbols,
    seed_expand,
)
from oligolab.pipeline import (
    DecodeReport,
    PipelineParams,
    experiment_sweep,
    hard_decode_baseline,
    iterative_soft_decode,
    lt_erasure_solve,
)
import rs_reference
from solve_reference import lt_erasure_solve as reference_solve

DESK = SolitonParams(k=60, c=0.05, delta=0.1)
N_CODED = 100


def csr(rows):
    """A list of neighbor arrays as the solver's CSR rows (indptr, indices)."""
    indptr = np.cumsum([0] + [len(r) for r in rows])
    return indptr, np.concatenate([np.zeros(0, dtype=np.int64), *rows]).astype(np.int64)

def brute_solve_gf2(rows, coded_bits, k):
    """Reference GF(2) solver via exhaustive elimination on a dense matrix."""
    a = np.zeros((len(rows), k), dtype=np.uint8)
    for i, r in enumerate(rows):
        a[i, list(r)] = 1
    rhs = np.asarray(coded_bits, dtype=np.uint8).copy()
    if rhs.ndim == 1:
        rhs = rhs[:, None]
    a = a.copy()
    pivots = {}
    pr = 0
    for col in range(k):
        rows_with = np.nonzero(a[pr:, col])[0]
        if len(rows_with) == 0:
            continue
        r0 = pr + rows_with[0]
        a[[pr, r0]] = a[[r0, pr]]
        rhs[[pr, r0]] = rhs[[r0, pr]]
        for r1 in range(len(rows)):
            if r1 != pr and a[r1, col]:
                a[r1] ^= a[pr]
                rhs[r1] ^= rhs[pr]
        pivots[col] = pr
        pr += 1
    info = np.zeros((k, rhs.shape[1]), dtype=np.uint8)
    resolved = np.zeros(k, dtype=bool)
    for col, prow in pivots.items():
        if a[prow].sum() != 1:
            continue  # underdetermined: the pivot row couples free columns
        info[col] = rhs[prow]
        resolved[col] = True
    zero_rows = ~a.any(axis=1)
    consistent = (rhs[zero_rows] == 0).all(axis=0) if zero_rows.any() else np.ones(
        rhs.shape[1], dtype=bool
    )
    return info, resolved, consistent


@pytest.fixture(scope="module")
def encoded_world():
    sched = SeedSchedule.first_n(N_CODED)
    rng = np.random.default_rng(301)
    source = rng.integers(0, 2, size=(DESK.k, 256), dtype=np.uint8)
    coded = lt_encode(source, sched, DESK)
    seqs = [assemble_oligo(sched.seeds[r], coded[r]).sequence for r in range(N_CODED)]
    return sched, source, coded, seqs


def clean_reads(seqs, per_oligo=2, q=38):
    reads = []
    for i, s in enumerate(seqs):
        for j in range(per_oligo):
            reads.append(
                ReadRecord(id=f"c{i}_{j}", bases=s, qscores=np.full(152, q, dtype=np.uint8))
            )
    return reads


def test_required_symbols_fits_instance():
    assert required_symbols(DESK) <= N_CODED


@pytest.mark.parametrize("planes", [1, 5])
def test_erasure_solve_matches_brute_force(planes):
    rng = np.random.default_rng(70)
    k = 25
    for _ in range(20):
        rows = [
            np.sort(rng.choice(k, size=int(rng.integers(1, 5)), replace=False))
            for _ in range(int(rng.integers(20, 45)))
        ]
        info_true = rng.integers(0, 2, size=(k, planes), dtype=np.uint8)
        coded = np.stack([info_true[r].sum(axis=0) % 2 for r in rows]).astype(np.uint8)
        info, resolved, consistent = lt_erasure_solve(csr(rows), coded, k)
        b_info, b_resolved, b_consistent = brute_solve_gf2(rows, coded, k)
        assert np.array_equal(resolved, b_resolved)
        assert consistent.all() and b_consistent.all()
        assert np.array_equal(info[resolved], b_info[resolved])
        assert np.array_equal(info[resolved], info_true[resolved])


def test_erasure_solve_flags_inconsistency():
    rows = [np.array([0]), np.array([0]), np.array([1])]
    coded = np.array([[0, 1], [1, 1], [0, 0]], dtype=np.uint8)
    info, resolved, consistent = lt_erasure_solve(csr(rows), coded, 2)
    # plane 0 has contradictory values for bit 0; plane 1 agrees
    assert not consistent[0]
    assert consistent[1]


@pytest.mark.parametrize("value", [0, 1])
def test_erasure_solve_empty_row_reads_zero_equals_value(value):
    # a row with no neighbors is the equation 0 = value
    info, resolved, consistent = lt_erasure_solve(
        csr([np.array([0]), np.array([], dtype=int)]), [[1], [value]], 1
    )
    assert resolved.all() and info[0, 0] == 1
    assert consistent[0] == (value == 0)


def test_erasure_solve_dense_fallback_kicks_in():
    # no degree-1 rows: peeling stalls, inactivation must solve
    rows = [np.array([0, 1]), np.array([1, 2]), np.array([0, 2]), np.array([0, 1, 2])]
    info_true = np.array([[1], [0], [1]], dtype=np.uint8)
    coded = np.stack([info_true[r].sum(axis=0) % 2 for r in rows]).astype(np.uint8)
    info, resolved, consistent = lt_erasure_solve(csr(rows), coded, 3)
    assert resolved.all()
    assert consistent.all()
    assert np.array_equal(info, info_true)


def assert_matches_reference(rows, coded, k):
    info, resolved, consistent = lt_erasure_solve(csr(rows), coded, k)
    r_info, r_resolved, r_consistent = reference_solve(rows, coded, k)
    assert np.array_equal(resolved, r_resolved)
    assert np.array_equal(consistent, r_consistent)
    assert info.shape == r_info.shape and info.dtype == np.uint8
    assert np.array_equal(info[:, consistent], r_info[:, consistent])
    assert not info[~resolved].any()
    return resolved, consistent


@settings(derandomize=True, deadline=None, max_examples=400)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 60),
    # one plane, a word less one, a whole word, a word plus one, the decoders' 256
    planes=st.sampled_from([1, 63, 64, 65, 256]),
    row_factor=st.floats(0.3, 2.0),
    degree_one=st.booleans(),
    duplicates=st.integers(0, 4),
    repeated_neighbor=st.booleans(),
    empty_rows=st.integers(0, 2),
    last_neighbor=st.booleans(),
    contradictions=st.integers(0, 3),
    # edges per block of the non-pivot rows' value gather
    gather_edges=st.sampled_from([1, 5, pipeline._GATHER_EDGES]),
)
def test_erasure_solve_matches_reference(
    seed, k, planes, row_factor, degree_one, duplicates, repeated_neighbor, empty_rows,
    last_neighbor, contradictions, gather_edges,
):
    rng = np.random.default_rng(seed)
    n_rows = max(1, int(row_factor * k))
    # without degree-1 rows peeling cannot start, so elimination does the work
    low = 1 if degree_one or k == 1 else 2
    degrees = rng.integers(low, min(k, 8) + 1, size=n_rows)
    rows = [np.sort(rng.choice(k, size=int(d), replace=False)) for d in degrees]
    if last_neighbor:  # the largest id an edge array holds
        rows[-1] = np.union1d(rows[-1][1:], [k - 1])
    rows += [rows[i].copy() for i in rng.integers(0, n_rows, size=duplicates)]
    truth = rng.integers(0, 2, size=(k, planes), dtype=np.uint8)
    coded = np.stack([truth[r].sum(axis=0) % 2 for r in rows]).astype(np.uint8)
    if repeated_neighbor:  # both solvers count a neighbor listed twice once
        rows[0] = np.append(rows[0], rows[0][0])
        coded[0] = truth[np.unique(rows[0])].sum(axis=0) % 2
    for _ in range(contradictions):
        coded[rng.integers(0, len(rows)), rng.integers(0, planes)] ^= 1
    # rows with no neighbor, each 0 = 0: the reference checks no row that
    # starts empty, so their 0 = 1 form is pinned by its own test
    for at in rng.integers(0, len(rows) + 1, size=empty_rows).tolist():
        rows.insert(at, np.array([], dtype=np.int64))
        coded = np.insert(coded, at, 0, axis=0)
    with mock.patch.object(pipeline, "_GATHER_EDGES", gather_edges):
        resolved, consistent = assert_matches_reference(rows, coded, k)
    if contradictions == 0:
        assert consistent.all()
        info, _, _ = lt_erasure_solve(csr(rows), coded, k)
        assert np.array_equal(info[resolved], truth[resolved])


def test_erasure_solve_matches_reference_on_peeling_and_elimination():
    # a desk-scale LT system whose peel stalls, so both stages resolve bits
    params = SolitonParams(k=1000, c=0.01, delta=0.001)
    sched = SeedSchedule.first_n(1100)
    indptr, indices = seed_expand(sched.seeds, params)
    rows = np.split(indices, indptr[1:-1])
    rng = np.random.default_rng(83)
    truth = rng.integers(0, 2, size=(params.k, 256), dtype=np.uint8)
    coded = np.stack([truth[r].sum(axis=0) % 2 for r in rows]).astype(np.uint8)
    coded[[5, 700], [3, 200]] ^= 1
    resolved, consistent = assert_matches_reference(rows, coded, params.k)
    assert 0 < resolved.sum() <= params.k
    assert (~consistent).sum() in (1, 2)


def assert_paper_geometry_solves(n_picked, seed):
    params = SolitonParams(k=16050, c=0.025, delta=0.001)
    pool = SeedSchedule.first_n(18000)
    rng = np.random.default_rng(seed)
    picked = np.sort(rng.choice(pool.count, size=n_picked, replace=False))
    sched = SeedSchedule(tuple(pool.seeds[i] for i in picked))
    truth = rng.integers(0, 2, size=(params.k, 256), dtype=np.uint8)
    coded = lt_encode(truth, sched, params)
    flips = rng.choice(coded.size, size=3, replace=False)
    coded.reshape(-1)[flips] ^= 1
    rows = seed_expand(sched.seeds, params)
    info, resolved, consistent = lt_erasure_solve(rows, coded, params.k)
    assert resolved.all()
    assert set(np.flatnonzero(~consistent).tolist()) <= set((flips % 256).tolist())
    assert np.array_equal(info[:, consistent], truth[:, consistent])


def test_erasure_solve_paper_geometry_subset():
    # 16,400 of the paper profile's 18,000 oligos: peeling stalls early, so
    # inactivation carries the solve; eliminating the whole residual densely
    # takes about 30 s on this system
    assert_paper_geometry_solves(16400, seed=17)


def test_erasure_solve_paper_geometry_full_peel():
    # 17,500 of the 18,000 oligos, the shape of the paper-scale hard decode:
    # peeling alone resolves every bit, in about 100 levels
    assert_paper_geometry_solves(17500, seed=5)


@pytest.mark.parametrize("n_rows", [0, 3])
def test_erasure_solve_without_edges_resolves_nothing(n_rows):
    # every row is empty, so each reads 0 = its value and no bit is fixed
    coded = np.zeros((n_rows, 2), dtype=np.uint8)
    coded[1:2] = [1, 0]
    info, resolved, consistent = lt_erasure_solve(csr([np.array([], dtype=int)] * n_rows), coded, 4)
    assert info.shape == (4, 2) and not info.any()
    assert resolved.shape == (4,) and not resolved.any()
    assert consistent.tolist() == [n_rows == 0, True]


@pytest.mark.parametrize("bad", [-1, 3])
def test_erasure_solve_rejects_out_of_range_neighbors(bad):
    with pytest.raises(ValueError, match="neighbor indices"):
        lt_erasure_solve(csr([np.array([0, bad]), np.array([1])]), [[0], [1]], 3)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 40),
    planes=st.sampled_from([1, 64, 65]),
    row_factor=st.floats(0.5, 2.0),
    degree_one=st.booleans(),
    contradictions=st.integers(0, 3),
)
def test_erasure_solve_ignores_row_order_and_repeats(
    seed, k, planes, row_factor, degree_one, contradictions
):
    # resolved bits and consistent planes belong to the system, not to the
    # peel order; so does info on the consistent planes
    rng = np.random.default_rng(seed)
    low = 1 if degree_one or k == 1 else 2
    degrees = rng.integers(low, min(k, 6) + 1, size=max(1, int(row_factor * k)))
    rows = [rng.choice(k, size=int(d), replace=False) for d in degrees]
    truth = rng.integers(0, 2, size=(k, planes), dtype=np.uint8)
    coded = np.stack([truth[r].sum(axis=0) % 2 for r in rows]).astype(np.uint8)
    for _ in range(contradictions):
        coded[rng.integers(0, len(rows)), rng.integers(0, planes)] ^= 1
    info, resolved, consistent = lt_erasure_solve(csr(rows), coded, k)

    order = np.concatenate([rng.permutation(len(rows)), rng.integers(0, len(rows), size=3)])
    shuffled = [rng.permutation(rows[i]) for i in order]
    shuffled[0] = np.append(shuffled[0], shuffled[0][-1])  # a repeated neighbor counts once
    info2, resolved2, consistent2 = lt_erasure_solve(csr(shuffled), coded[order], k)
    assert np.array_equal(resolved2, resolved)
    assert np.array_equal(consistent2, consistent)
    assert np.array_equal(info2[:, consistent], info[:, consistent])
    if contradictions == 0:
        assert consistent.all()
        assert np.array_equal(info[resolved], truth[resolved])


def test_zero_noise_soft_decode_succeeds(encoded_world):
    sched, source, coded, seqs = encoded_world
    clusters, disc = cluster_by_seed(clean_reads(seqs), sched)
    assert disc.n_retained == 2 * N_CODED
    params = PipelineParams(soliton=DESK)
    rep = iterative_soft_decode(
        clusters, sched, TransitionTable.uniform(), params, expected_payload=source
    )
    assert rep.success
    assert rep.iterations_performed == 1
    assert rep.clusters_discarded_per_round == []
    assert np.array_equal(rep.recovered_payload, source)


def test_insufficient_clusters_fails_fast(encoded_world):
    sched, source, coded, seqs = encoded_world
    few = clean_reads(seqs[: required_symbols(DESK) - 5], per_oligo=1)
    clusters, _ = cluster_by_seed(few, sched)
    rep = iterative_soft_decode(
        clusters, sched, TransitionTable.uniform(), PipelineParams(soliton=DESK)
    )
    assert not rep.success
    assert rep.reason.startswith("insufficient_clusters")
    assert rep.iterations_performed == 0


def test_insufficient_clusters_builds_no_soft_inputs(encoded_world, monkeypatch):
    sched, source, coded, seqs = encoded_world
    few = clean_reads(seqs[: required_symbols(DESK) - 5], per_oligo=1)
    clusters, _ = cluster_by_seed(few, sched)
    calls = []
    real = pipeline.llr_proposed
    monkeypatch.setattr(pipeline, "llr_proposed", lambda *a: calls.append(a) or real(*a))
    rep = iterative_soft_decode(
        clusters, sched, TransitionTable.uniform(), PipelineParams(soliton=DESK)
    )
    assert len(clusters) == 73 and required_symbols(DESK) == 78
    assert rep.reason == "insufficient_clusters: 73 active < 78 required"
    assert rep.active_clusters == 73
    assert calls == []


def poison_cluster_reads(seqs, victim, ins_pos=100):
    """Singleton cluster carrying a length-preserving indel burst, high Q."""
    seq = seqs[victim]
    b = "ACGT"[("ACGT".index(seq[ins_pos]) + 1) % 4]
    bases = seq[:ins_pos] + b + seq[ins_pos:151]
    return ReadRecord(id=f"poison{victim}", bases=bases, qscores=np.full(152, 38, dtype=np.uint8))


def test_redecoding_removes_poisoned_cluster(encoded_world):
    sched, source, coded, seqs = encoded_world
    reads = clean_reads(seqs, per_oligo=3)
    victim = 7
    vseed_nt = seqs[victim][:16]
    reads = [r for r in reads if r.bases[:16] != vseed_nt]
    reads.append(poison_cluster_reads(seqs, victim))
    clusters, _ = cluster_by_seed(reads, sched)
    table = TransitionTable.uniform()

    with_re = iterative_soft_decode(
        clusters, sched, table, PipelineParams(soliton=DESK, n_re=3),
        expected_payload=source,
    )
    assert with_re.success
    assert sched.seeds[victim] in {s for rr in with_re.removed_seeds_per_round for s in rr}
    assert with_re.iterations_performed <= 4

    without_re = iterative_soft_decode(
        clusters, sched, table, PipelineParams(soliton=DESK, n_re=0),
        expected_payload=source,
    )
    assert not without_re.success
    assert without_re.reason == "rs_failures_without_redecoding"

    disabled = iterative_soft_decode(
        clusters, sched, table,
        PipelineParams(soliton=DESK, n_re=3, redecoding_enabled=False),
        expected_payload=source,
    )
    assert not disabled.success


def test_active_set_strictly_shrinks(encoded_world):
    sched, source, coded, seqs = encoded_world
    reads = clean_reads(seqs, per_oligo=2)
    victims = [3, 11]
    vnts = {seqs[v][:16] for v in victims}
    reads = [r for r in reads if r.bases[:16] not in vnts]
    for v in victims:
        reads.append(poison_cluster_reads(seqs, v, ins_pos=90))
    clusters, _ = cluster_by_seed(reads, sched)
    rep = iterative_soft_decode(
        clusters, sched, TransitionTable.uniform(),
        PipelineParams(soliton=DESK), expected_payload=source,
    )
    assert rep.success
    assert rep.iterations_performed <= PipelineParams(soliton=DESK).n_re + 1
    assert all(c > 0 for c in rep.clusters_discarded_per_round)


def substituted_read(seq, pos, rid, q=40):
    """One high-Q read of seq with the base at pos replaced by the next base."""
    alt = "ACGT"[("ACGT".index(seq[pos]) + 1) % 4]
    return ReadRecord(
        id=rid, bases=seq[:pos] + alt + seq[pos + 1 :], qscores=np.full(152, q, dtype=np.uint8)
    )


def record_rs_outcomes(monkeypatch):
    outcomes = []
    decode = gf_rs.rs_decode

    def recording(word):
        outcomes.append(decode(word))
        return outcomes[-1]

    monkeypatch.setattr(gf_rs, "rs_decode", recording)
    return outcomes


def payload_corrections(outcomes):
    return sum(
        o.status == gf_rs.STATUS_CORRECTED
        and all(4 <= p < 36 for p in o.corrected_positions)
        for o in outcomes
    )


def test_soft_decode_applies_rs_payload_correction_after_removal(encoded_world, monkeypatch):
    sched, source, coded, seqs = encoded_world
    by_seed = sorted(range(N_CODED), key=lambda i: sched.seeds[i])
    # the poisoned cluster sorts before the corrected one, so removing it in
    # round 1 shifts the corrected cluster's row in round 2
    poisoned, corrected = by_seed[5], by_seed[40]
    drop = {seqs[poisoned][:16], seqs[corrected][:16]}
    reads = [r for r in clean_reads(seqs, per_oligo=3) if r.bases[:16] not in drop]
    reads += [poison_cluster_reads(seqs, poisoned), substituted_read(seqs[corrected], 60, "sub")]
    clusters, _ = cluster_by_seed(reads, sched)
    outcomes = record_rs_outcomes(monkeypatch)
    # only words with a nonzero syndrome reach rs_decode, so mark where each
    # round's RS check starts in the recorded outcomes
    round_starts = []
    check = pipeline._rs_check

    def marking(codes, coded):
        round_starts.append(len(outcomes))
        return check(codes, coded)

    monkeypatch.setattr(pipeline, "_rs_check", marking)
    # one BP iteration leaves every coded bit at its channel sign, so the
    # substituted base reaches RS instead of being repaired by BP
    rep = iterative_soft_decode(
        clusters, sched, TransitionTable.uniform(),
        PipelineParams(soliton=DESK, bp_max_iter=1), expected_payload=source,
    )
    assert rep.removed_seeds_per_round == [[sched.seeds[poisoned]]]
    assert rep.iterations_performed == len(round_starts) == 2
    assert payload_corrections(outcomes[round_starts[-1] :]) == 1
    assert rep.success
    assert np.array_equal(rep.recovered_payload, source)


def test_hard_baseline_applies_rs_payload_correction(encoded_world, monkeypatch):
    sched, source, coded, seqs = encoded_world
    reads = clean_reads(seqs, per_oligo=1)
    reads[30] = substituted_read(seqs[30], 90, "sub")
    clusters, _ = cluster_by_seed(reads, sched)
    outcomes = record_rs_outcomes(monkeypatch)
    rep = hard_decode_baseline(
        clusters, sched, PipelineParams(soliton=DESK, decoder="hard"),
        expected_payload=source,
    )
    assert payload_corrections(outcomes) == 1
    assert rep.clusters_discarded_per_round == [0]
    assert rep.success


def test_hard_baseline_noiseless(encoded_world):
    sched, source, coded, seqs = encoded_world
    clusters, _ = cluster_by_seed(clean_reads(seqs), sched)
    rep = hard_decode_baseline(
        clusters, sched, PipelineParams(soliton=DESK, decoder="hard"),
        expected_payload=source,
    )
    assert rep.success
    assert np.array_equal(rep.recovered_payload, source)


def test_hard_baseline_discards_detected_clusters(encoded_world):
    sched, source, coded, seqs = encoded_world
    reads = clean_reads(seqs, per_oligo=1)
    # corrupt two symbols of one cluster's only read: RS detects, cluster dropped
    seq = list(seqs[4])
    for pos in (30, 70):
        seq[pos] = "ACGT"[("ACGT".index(seq[pos]) + 1) % 4]
    reads[4] = ReadRecord(id="bad", bases="".join(seq), qscores=np.full(152, 30, dtype=np.uint8))
    clusters, _ = cluster_by_seed(reads, sched)
    rep = hard_decode_baseline(
        clusters, sched, PipelineParams(soliton=DESK, decoder="hard"),
        expected_payload=source,
    )
    assert rep.clusters_discarded_per_round == [1]
    # enough redundancy remains to finish
    assert rep.success


def seed_miscorrected_read(seq, rid, rng):
    """A high-Q read of seq with two symbol errors in payload or parity that
    RS decodes as one correction inside the seed symbols."""
    word = base_indices_to_symbols(sequence_to_indices(seq))
    while True:
        bad = list(word)
        for p in rng.choice(np.arange(SEED_SYMBOLS, len(word)), size=2, replace=False):
            bad[p] ^= int(rng.integers(1, 256))
        outcome = gf_rs.rs_decode(bad)
        if (
            outcome.status == gf_rs.STATUS_CORRECTED
            and outcome.corrected_positions[0] < SEED_SYMBOLS
        ):
            bases = indices_to_sequence(symbols_to_base_indices(bad))
            return ReadRecord(id=rid, bases=bases, qscores=np.full(152, 40, dtype=np.uint8))


def test_seed_correction_drops_soft_cluster_but_not_hard(encoded_world):
    sched, source, coded, seqs = encoded_world
    victim = 20
    reads = clean_reads(seqs, per_oligo=1)
    reads[victim] = seed_miscorrected_read(seqs[victim], "miscorrected", np.random.default_rng(8))
    clusters, _ = cluster_by_seed(reads, sched)
    assert len(clusters) == N_CODED
    # one BP iteration leaves every coded bit at its channel sign, so the
    # read's errors reach RS unchanged
    soft = iterative_soft_decode(
        clusters, sched, TransitionTable.uniform(),
        PipelineParams(soliton=DESK, bp_max_iter=1), expected_payload=source,
    )
    assert soft.removed_seeds_per_round[0] == [sched.seeds[victim]]
    assert soft.clusters_with_seed_corrections_removed == 1
    assert soft.success
    hard = hard_decode_baseline(
        clusters, sched, PipelineParams(soliton=DESK, decoder="hard"),
        expected_payload=source,
    )
    assert hard.clusters_discarded_per_round == [0]
    assert hard.active_clusters == N_CODED


def test_decode_report_mismatch_flagged(encoded_world):
    sched, source, coded, seqs = encoded_world
    clusters, _ = cluster_by_seed(clean_reads(seqs), sched)
    wrong = source.copy()
    wrong[0, 0] ^= 1
    rep = iterative_soft_decode(
        clusters, sched, TransitionTable.uniform(), PipelineParams(soliton=DESK),
        expected_payload=wrong,
    )
    assert not rep.success
    assert rep.reason == "payload_mismatch"


def test_chandak_mode_requires_crossover():
    # refused when the params are built, before any decode
    with pytest.raises(ValueError, match="requires crossover_p"):
        PipelineParams(soliton=DESK, llr_mode="chandak")
    for bad in (0.0, 0.5, 0.7, -1e-3):
        with pytest.raises(ValueError, match=r"crossover_p must be in \(0, 0.5\)"):
            PipelineParams(soliton=DESK, llr_mode="chandak", crossover_p=bad)
    PipelineParams(soliton=DESK, llr_mode="proposed", crossover_p=0.7)  # unused outside chandak


@pytest.fixture(scope="module")
def noisy_world(encoded_world):
    sched, source, coded, seqs = encoded_world
    cfg = ChannelConfig(sub_rate=2e-3, ins_rate=2e-5, del_rate=2e-5,
                        abundance_sigma=0.5, rng_seed=88)
    rng = np.random.default_rng(88)
    reads = []
    serial = 0
    for i, seq in enumerate(seqs):
        bases_list, q_list, _ = corrupt_batch(seq, 12, cfg, rng)
        for b, q in zip(bases_list, q_list):
            reads.append(ReadRecord(id=f"n{serial}", bases=b, qscores=q))
            serial += 1
    pool = PoolIndex(seqs, dmin_pool_limit=0)
    table = estimate_transitions(reads, pool)
    return sched, source, seqs, reads, table


def test_experiment_sweep_shape_and_trend(noisy_world):
    sched, source, seqs, reads, table = noisy_world
    params = PipelineParams(soliton=DESK)
    variants = {
        "proposed+re": params,
        "proposed-re": PipelineParams(soliton=DESK, redecoding_enabled=False),
        "chandak+re": PipelineParams(soliton=DESK, llr_mode="chandak", crossover_p=1.5e-3),
        "chandak-re": PipelineParams(
            soliton=DESK, llr_mode="chandak", crossover_p=1.5e-3, redecoding_enabled=False
        ),
        "hard": PipelineParams(soliton=DESK, decoder="hard"),
    }
    points = [120, 160, 220, 320, 480, 720]
    rep = experiment_sweep(
        reads, sched, table, points, trials=4, variants=variants,
        rng_seed=55, expected_payload=source,
    )
    assert rep.sampling_points == points
    assert set(rep.variants) == set(variants)
    for name in variants:
        assert len(rep.successes[name]) == len(points)
        assert all(0 <= s <= 4 for s in rep.successes[name])
    # success counts trend upward with the sampling point
    from scipy.stats import spearmanr

    ys = rep.successes["proposed+re"]
    assert ys[-1] > ys[0]
    rho = spearmanr(points, ys).statistic
    assert rho > 0
    # retained reads L_m is below the raw sampling number
    assert all(r <= p for r, p in zip(rep.retained_reads_mean, points))


def test_experiment_sweep_deterministic(noisy_world):
    sched, source, seqs, reads, table = noisy_world
    variants = {"proposed+re": PipelineParams(soliton=DESK)}
    reps = [
        experiment_sweep(reads, sched, table, [400, 700], trials=3,
                         variants=variants, rng_seed=9, expected_payload=source)
        for _ in range(2)
    ]
    assert reps[0].successes == reps[1].successes
    assert reps[0].mean_rounds == reps[1].mean_rounds


def test_sweep_derived_no_redecode_matches_real_run(noisy_world):
    sched, source, seqs, reads, table = noisy_world
    on = PipelineParams(soliton=DESK)
    off = PipelineParams(soliton=DESK, redecoding_enabled=False)
    # "off" is derived from its twin in the first sweep; alone, it runs BP.
    # Subsets depend only on (rng_seed, point index, trial), so both see the same.
    derived = experiment_sweep(
        reads, sched, table, [400, 650], trials=4, variants={"on": on, "off": off},
        rng_seed=13, expected_payload=source,
    )
    real = experiment_sweep(
        reads, sched, table, [400, 650], trials=4, variants={"off": off},
        rng_seed=13, expected_payload=source,
    )
    assert derived.successes["off"] == real.successes["off"]
    assert derived.mean_rounds["off"] == real.mean_rounds["off"]


def test_soft_decode_never_builds_the_dense_posterior(noisy_world, monkeypatch):
    """The soft decoder reads BP's coded bits alone: the dense posterior,
    and the info bits and undetermined counts derived from it, are never
    built, though BP runs."""
    sched, source, seqs, reads, table = noisy_world
    built = []
    lazy = bp_decoder.BpResult.posterior_llrs

    def spy(result):
        built.append(result)
        return lazy.__get__(result)

    monkeypatch.setattr(bp_decoder.BpResult, "posterior_llrs", property(spy))
    clusters, _ = cluster_by_seed(reads, sched)
    bp_calls = []
    real_bp = pipeline.bp_decode
    monkeypatch.setattr(
        pipeline, "bp_decode", lambda *a, **kw: bp_calls.append(1) or real_bp(*a, **kw)
    )
    for params in (
        PipelineParams(soliton=DESK),
        PipelineParams(soliton=DESK, llr_mode="chandak", crossover_p=1.5e-3),
    ):
        rep = iterative_soft_decode(clusters, sched, table, params, expected_payload=source)
        assert rep.success
    assert bp_calls and not built
    # reading a field derived from the posterior builds it
    soft = pipeline.llr_proposed(clusters, table).payload_llrs
    graph = NeighborGraph.expand(sched, DESK)
    out = real_bp(pipeline.build_h(graph, graph.rows_of(clusters.seeds)), soft)
    assert out.undetermined.shape == (256,) and built


# the decoders of a sweep trial, in `oligolab experiment`'s run order
TRIAL = [
    PipelineParams(soliton=DESK),
    PipelineParams(soliton=DESK, llr_mode="chandak", crossover_p=1.5e-3),
    PipelineParams(soliton=DESK, decoder="hard"),
]


def decode(clusters, sched, table, params, source):
    if params.decoder == "hard":
        return hard_decode_baseline(clusters, sched, params, source)
    return iterative_soft_decode(clusters, sched, table, params, source)


def forget_solves():
    """Two unrelated solves, which leave no earlier system in the solve memo."""
    for bit in (0, 1):
        report = DecodeReport(success=False, reason="", iterations_performed=1)
        pipeline._solve_tail(report, csr([np.array([0])]), np.array([[bit]], dtype=np.uint8), 1, None)


def solve_spy(monkeypatch):
    """Replace pipeline.lt_erasure_solve with a spy that lists the k of each
    call, and start from an empty solve memo."""
    calls, real = [], pipeline.lt_erasure_solve
    monkeypatch.setattr(pipeline, "_SOLVED", [])

    def spy(rows, coded_bits, k):
        calls.append(k)
        return real(rows, coded_bits, k)

    monkeypatch.setattr(pipeline, "lt_erasure_solve", spy)
    return calls


def test_trial_solves_each_distinct_system_once(noisy_world, monkeypatch):
    """The decoders of a trial solve each distinct system they accept once,
    and each report equals the one its decoder gives after unrelated solves,
    when the memo cannot serve it."""
    sched, source, seqs, reads, table = noisy_world
    solves = solve_spy(monkeypatch)
    systems, real_tail = [], pipeline._solve_tail

    def tail(report, rows, coded_bits, k, expected_payload):
        systems.append(b"".join(np.asarray(a, np.int64).tobytes() for a in (*rows, coded_bits)))
        real_tail(report, rows, coded_bits, k, expected_payload)

    monkeypatch.setattr(pipeline, "_solve_tail", tail)
    distinct_per_trial = []
    for t in range(4):  # 300-read subsets: the decoders end at one to three systems
        rng = np.random.default_rng([300, t])
        clusters, _ = cluster_by_seed([reads[i] for i in rng.choice(len(reads), 300, False)], sched)
        forget_solves()
        systems.clear(), solves.clear()
        reports = [decode(clusters, sched, table, params, source) for params in TRIAL]
        assert len(systems) == len(TRIAL)
        assert len(solves) == len(set(systems))
        distinct_per_trial.append(len(set(systems)))
        for params, report in zip(TRIAL, reports):
            forget_solves()
            solves.clear()
            again = decode(clusters, sched, table, params, source)
            assert solves == [DESK.k]
            assert again.to_dict(omit_timing=True) == report.to_dict(omit_timing=True)
            assert np.array_equal(again.recovered_payload, report.recovered_payload)
    # some trials share a system between decoders, and some hold several
    assert min(distinct_per_trial) < len(TRIAL) and max(distinct_per_trial) > 1


def test_solve_memo_tells_systems_apart(monkeypatch):
    """A system equal in content is served, read-only; one coded bit or one
    row apart is solved again."""
    solves = solve_spy(monkeypatch)
    rng = np.random.default_rng(12)
    k = 25
    rows = [np.array([i]) for i in range(k)] + [
        np.sort(rng.choice(k, size=3, replace=False)) for _ in range(15)
    ]
    info = rng.integers(0, 2, size=(k, 3), dtype=np.uint8)
    coded = np.array([np.bitwise_xor.reduce(info[r], axis=0) for r in rows])

    def solve(rows, coded):
        report = DecodeReport(success=False, reason="", iterations_performed=1)
        pipeline._solve_tail(report, csr(rows), coded, k, None)
        return report

    first = solve(rows, coded)
    assert first.success and np.array_equal(first.recovered_payload, info)
    again = solve([r.copy() for r in rows], coded.copy())
    assert len(solves) == 1 and again.recovered_payload is first.recovered_payload
    with pytest.raises(ValueError):
        again.recovered_payload[0, 0] ^= 1
    flipped = coded.copy()
    flipped[30, 1] ^= 1
    assert not solve(rows, flipped).success and len(solves) == 2
    moved = rows[:30] + [np.array([0, 1, 2])] + rows[31:]
    solve(moved, coded)
    assert len(solves) == 3
    solve(moved, coded)
    solve(rows, flipped)
    assert len(solves) == 3


@pytest.mark.parametrize("decoder", ["soft", "hard"])
def test_decoders_check_their_seed_table(encoded_world, decoder):
    sched, source, coded, seqs = encoded_world
    clusters, _ = cluster_by_seed(clean_reads(seqs), sched)
    missing = sched.seeds[17]
    short = SeedSchedule(tuple(s for s in sched.seeds if s != missing))
    params = PipelineParams(soliton=DESK, decoder=decoder)
    with pytest.raises(ValueError, match=f"seed {missing} is not in the seed table"):
        decode(clusters, short, TransitionTable.uniform(), params, source)


def test_sweep_expands_its_table_once(noisy_world, monkeypatch):
    """A sweep's decodes share one graph; a decode holds none in its solve
    unless its caller does, and a hard decode builds no column index."""
    sched, source, seqs, reads, table = noisy_world
    expansions, real = [], fountain.seed_expand
    monkeypatch.setattr(fountain, "seed_expand", lambda *a: expansions.append(1) or real(*a))
    variants = dict(zip(["proposed", "chandak", "hard"], TRIAL))
    rep = experiment_sweep(reads, sched, table, [300, 480], 2, variants, rng_seed=4,
                           expected_payload=source)
    assert len(expansions) == 1 and sum(rep.successes["hard"]) > 0

    graphs, real_solve = [], pipeline.lt_erasure_solve

    def spy(rows, coded_bits, k):
        if k == DESK.k:  # not forget_solves' systems
            graphs.append(len(fountain._GRAPHS))
        return real_solve(rows, coded_bits, k)

    monkeypatch.setattr(pipeline, "lt_erasure_solve", spy)
    clusters, _ = cluster_by_seed(reads, sched)
    for params in TRIAL:
        forget_solves()  # so that every decode solves
        assert decode(clusters, sched, table, params, source).success
    held = fountain.neighbor_graph(sched, DESK)
    forget_solves()
    assert hard_decode_baseline(clusters, sched, TRIAL[2], source).success
    assert graphs == [0, 0, 0, 1] and "columns" not in vars(held)


def test_sweep_rejects_oversized_point(noisy_world):
    sched, source, seqs, reads, table = noisy_world
    with pytest.raises(ValueError):
        experiment_sweep(
            reads, sched, table, [len(reads) + 1], trials=1,
            variants={"x": PipelineParams(soliton=DESK)}, rng_seed=1,
        )


def test_sweep_report_serialization(noisy_world):
    sched, source, seqs, reads, table = noisy_world
    rep = experiment_sweep(
        reads, sched, table, [500], trials=2,
        variants={"x": PipelineParams(soliton=DESK)}, rng_seed=3,
        expected_payload=source,
    )
    d = rep.to_dict()
    assert "wall_seconds" in d
    d2 = rep.to_dict(omit_timing=True)
    assert "wall_seconds" not in d2
    rows = rep.plot_rows()
    assert rows[0][0] == 500 and rows[0][1] == "x"


@st.composite
def damaged_words(draw):
    """(n, 38) RS codewords, each with 0-3 symbol errors spread over the
    seed, payload and parity symbols."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 60))
    messages = rng.integers(0, 256, size=(n, 36)).tolist()
    words = np.array([gf_rs.rs_encode(m) for m in messages], dtype=np.uint8).reshape(n, 38)
    regions = [range(0, SEED_SYMBOLS), range(SEED_SYMBOLS, 36), range(36, 38)]
    for r in range(n):
        n_errors = int(rng.choice(4, p=[0.3, 0.3, 0.25, 0.15]))
        spots = {int(rng.choice(regions[rng.integers(3)])) for _ in range(n_errors)}
        for pos in spots:
            words[r, pos] ^= rng.integers(1, 256, dtype=np.uint8)
    return words, rng.integers(0, 2, size=(n, 256), dtype=np.uint8)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(damaged_words())
def test_rs_check_matches_reference(drawn):
    """The syndrome screen gives the per-word loop's masks and coded bits,
    and rs_decode the copied decoder's outcome on every word."""
    words, coded = drawn
    codes = symbols_to_base_indices(words).astype(np.uint8)
    got_coded, want_coded = coded.copy(), coded.copy()
    got = pipeline._rs_check(codes, got_coded)
    want = rs_reference._rs_check(codes, want_coded)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert np.array_equal(got_coded, want_coded)
    for word in words.tolist():
        assert gf_rs.rs_decode(word) == rs_reference.rs_decode(word)


@st.composite
def sweep_reads(draw, seqs):
    """Hand-built reads of the encoded world's oligos, shuffled: clusters of
    1 to 300 members with substitutions and random Q-scores, so that no two
    members are alike, among reads of the wrong length, with N or another
    letter, and with a prefix that names no seed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = rng.integers(1, 8, size=len(seqs))
    sizes[rng.choice(len(seqs), size=2, replace=False)] = [draw(st.integers(1, 300)), 300]
    reads = []
    for seq, size in zip(seqs, sizes.tolist()):
        for _ in range(size):
            codes = sequence_to_indices(seq).copy()
            flip = rng.random(152) < 0.004
            codes[flip] = (codes[flip] + rng.integers(1, 4, size=int(flip.sum()))) % 4
            q = np.where(flip, rng.integers(2, 16, size=152), rng.integers(25, 42, size=152))
            bases = indices_to_sequence(codes)
            kind = rng.choice(["ok"] * 15 + ["short", "long", "n", "other", "prefix"])
            if kind == "short":
                bases = bases[: rng.integers(0, 152)]
            elif kind == "long":
                bases += "ACGT"[: rng.integers(1, 5)]
            elif kind in ("n", "other"):
                at = int(rng.integers(0, 152))
                bases = bases[:at] + ("N" if kind == "n" else "a") + bases[at + 1 :]
            elif kind == "prefix":
                bases = indices_to_sequence(rng.integers(0, 4, size=16)) + bases[16:]
            q = np.resize(q, len(bases)).astype(np.uint8)
            reads.append(ReadRecord(id=str(len(reads)), bases=bases, qscores=q))
    order = rng.permutation(len(reads))
    return [reads[i] for i in order]


@settings(derandomize=True, deadline=None, max_examples=8)
@given(data=st.data(), rng_seed=st.integers(0, 2**16), trials=st.integers(1, 2))
def test_sweep_trials_group_screened_reads_like_their_subsets(
    encoded_world, data, rng_seed, trials
):
    """Each sweep trial's table and discards, grouped from reads screened
    once, are those of clustering the trial's subset of ReadRecords; the
    reads screened are those some trial draws; and the sweep's report is
    that of a plain loop over those subsets and the public decoders."""
    sched, source, _, seqs = encoded_world
    reads = data.draw(sweep_reads(seqs))
    points = sorted(
        data.draw(st.lists(st.integers(1, len(reads)), max_size=1))
        + [data.draw(st.integers(len(reads) // 2, len(reads)))]
    )
    table = TransitionTable.uniform()
    variants = {
        "proposed+re": PipelineParams(soliton=DESK),
        "proposed-re": PipelineParams(soliton=DESK, redecoding_enabled=False),
        "chandak+re": PipelineParams(soliton=DESK, llr_mode="chandak", crossover_p=1e-2),
        "hard": PipelineParams(soliton=DESK, decoder="hard"),
    }
    grouped = []

    def recording(*args, **kwargs):
        grouped.append(cluster_by_seed(*args, **kwargs))
        return grouped[-1]

    screened = []

    def screening(reads, seed_table):
        screened.append(len(reads))
        return screen_reads(reads, seed_table)

    with mock.patch.object(pipeline, "cluster_by_seed", recording), mock.patch.object(
        pipeline, "screen_reads", screening
    ):
        rep = experiment_sweep(reads, sched, table, points, trials, variants, rng_seed, source)

    successes = {n: [0] * len(points) for n in variants}
    rounds = {n: [0.0] * len(points) for n in variants}
    removed = {n: [0.0] * len(points) for n in variants}
    retained = [0.0] * len(points)
    trial_tables = iter(grouped)
    drawn = set()
    for pi, point in enumerate(points):
        for t in range(trials):
            rng = np.random.default_rng(np.random.SeedSequence([rng_seed, pi, t]))
            idx = rng.choice(len(reads), size=point, replace=False)
            drawn.update(idx.tolist())
            clusters, disc = cluster_by_seed([reads[i] for i in idx], sched)
            got, got_disc = next(trial_tables)
            assert got_disc == disc
            for name in ("seeds", "offsets", "codes", "qscores"):
                assert np.array_equal(getattr(got, name), getattr(clusters, name))
            retained[pi] += disc.n_retained / trials
            for name, params in variants.items():
                if params.decoder == "hard":
                    out = hard_decode_baseline(clusters, sched, params, source)
                else:
                    out = iterative_soft_decode(clusters, sched, table, params, source)
                successes[name][pi] += out.success
                rounds[name][pi] += out.iterations_performed / trials
                removed[name][pi] += sum(out.clusters_discarded_per_round) / trials
    assert next(trial_tables, None) is None  # one grouping per trial
    assert screened == [len(drawn)]  # each drawn read screened once, no other
    assert rep.to_dict(omit_timing=True) == {
        "version": 1,
        "sampling_points": points,
        "trials": trials,
        "variants": list(variants),
        "successes": successes,
        "mean_rounds": {n: [round(v, 4) for v in rounds[n]] for n in variants},
        "mean_clusters_removed": {n: [round(v, 4) for v in removed[n]] for n in variants},
        "retained_reads_mean": [round(v, 2) for v in retained],
    }
