import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from expand_reference import seed_expand as reference_expand
from oligolab import fountain
from oligolab.fountain import (
    DegreeDistribution,
    NeighborGraph,
    SeedSchedule,
    SolitonParams,
    lt_encode,
    required_symbols,
    neighbor_graph,
    robust_soliton,
    seed_expand,
)

PAPER = SolitonParams(k=16050, c=0.025, delta=0.001)
SMALL = SolitonParams(k=100, c=0.025, delta=0.001)


def expand_rows(seeds, params):
    """The batched expansion as one neighbor array per seed."""
    indptr, indices = seed_expand(seeds, params)
    return np.split(indices, indptr[1:-1]) if len(seeds) else []


def test_params_validation():
    with pytest.raises(ValueError):
        SolitonParams(k=0)
    with pytest.raises(ValueError):
        SolitonParams(k=10, delta=0.0)
    with pytest.raises(ValueError):
        SolitonParams(k=10, c=-1.0)
    with pytest.raises(ValueError):
        # R >= k is degenerate
        SolitonParams(k=4, c=100.0, delta=0.5)


def test_distribution_sums_to_one():
    for params in (PAPER, SMALL, SolitonParams(k=1000, c=0.01, delta=0.001)):
        dist = robust_soliton(params)
        assert abs(dist.probabilities.sum() - 1.0) < 1e-12
        assert (dist.probabilities >= 0).all()


def test_ideal_soliton_base_case():
    # before adding tau, rho(1) = 1/k: reconstruct rho from the normalized output
    params = SMALL
    dist = robust_soliton(params)
    r = params.ripple
    spike = params.spike
    tau1 = r / params.k if spike >= 2 else 0.0
    beta = 1.0 + sum(r / (i * params.k) for i in range(1, spike)) + r * math.log(
        r / params.delta
    ) / params.k
    rho1 = dist.probabilities[0] * beta - tau1
    assert abs(rho1 - 1.0 / params.k) < 1e-12


def test_spike_location_at_paper_scale():
    assert PAPER.spike == 305
    dist = robust_soliton(PAPER)
    # the spike dominates its neighborhood
    assert dist.probabilities[304] > 5 * dist.probabilities[303]
    assert dist.probabilities[304] > 5 * dist.probabilities[305]


def test_required_symbols_paper_value():
    assert abs(required_symbols(PAPER) - 16951) <= 2


def test_required_symbols_monotone_in_delta():
    ks = [
        required_symbols(SolitonParams(k=16050, c=0.025, delta=d))
        for d in (0.1, 0.01, 0.001, 0.0001)
    ]
    assert ks == sorted(ks)
    assert ks[0] < ks[-1]


def test_required_symbols_small_instance_against_direct_summation():
    params = SMALL
    r = params.ripple
    spike = params.spike
    expected = params.k
    for i in range(1, spike):
        expected += r / i
    expected += r * math.log(r / params.delta)
    assert required_symbols(params) == math.ceil(expected)


def test_seed_expand_deterministic():
    seeds = [0, 1, 12345, 0xFFFFFFFF]
    for a, b in zip(expand_rows(seeds, SMALL), expand_rows(seeds, SMALL)):
        assert np.array_equal(a, b)


def test_seed_expand_indices_distinct_and_in_range():
    for nbrs in expand_rows(range(500), SMALL):
        assert 1 <= len(nbrs) <= SMALL.k
        assert len(set(nbrs.tolist())) == len(nbrs)
        assert nbrs.min() >= 0 and nbrs.max() < SMALL.k


def test_seed_expand_degree_histogram_matches_distribution():
    # chi-square on the degree histogram over 1e5 seeds
    params = SolitonParams(k=50, c=0.05, delta=0.05)
    dist = robust_soliton(params)
    n = 100_000
    indptr, _ = seed_expand(range(n), params)
    counts = np.bincount(np.diff(indptr) - 1, minlength=params.k)
    expected = dist.probabilities * n
    mask = expected >= 5
    chi2 = ((counts[mask] - expected[mask]) ** 2 / expected[mask]).sum()
    dof = mask.sum() - 1
    # 99.9th percentile of chi2 is roughly dof + 4*sqrt(2*dof) at these sizes
    assert chi2 < dof + 5 * math.sqrt(2 * dof)


GOLDEN_PARAMS = SolitonParams(k=1000, c=0.01, delta=0.001)
# frozen expansion vectors; these must never change (encoder/decoder contract)
GOLDEN_VECTORS = {
    0: [27, 109, 177, 250, 330, 401, 431, 529, 560, 712, 763, 772, 952, 970],
    1: [445, 745, 971],
    2: [596, 749, 765],
    42: [40, 159, 279, 345, 868],
}


def test_seed_expand_golden_vectors():
    rows = expand_rows(list(GOLDEN_VECTORS), GOLDEN_PARAMS)
    for (seed, expected), got in zip(GOLDEN_VECTORS.items(), rows):
        assert got.tolist() == expected, f"seed {seed} expansion drifted"


def test_lt_encode_degree_one_copies_neighbor():
    params = SolitonParams(k=10, c=0.1, delta=0.5)
    rng = np.random.default_rng(3)
    source = rng.integers(0, 2, size=(10, 256), dtype=np.uint8)
    # find a degree-1 seed
    rows = expand_rows(range(1000), params)
    seed = next(s for s in range(1000) if len(rows[s]) == 1)
    nbr = rows[seed][0]
    coded = lt_encode(source, SeedSchedule((seed,)), params)
    assert np.array_equal(coded[0], source[nbr])


def test_lt_encode_matches_bruteforce_xor():
    params = SolitonParams(k=10, c=0.1, delta=0.5)
    rng = np.random.default_rng(5)
    source = rng.integers(0, 2, size=(10, 256), dtype=np.uint8)
    seeds = list(range(12))
    coded = lt_encode(source, SeedSchedule(tuple(seeds)), params)
    for row, nbrs in enumerate(expand_rows(seeds, params)):
        acc = np.zeros(256, dtype=np.uint8)
        for idx in nbrs:
            acc ^= source[idx]
        assert np.array_equal(coded[row], acc)


def test_lt_encode_xor_linearity():
    params = SolitonParams(k=10, c=0.1, delta=0.5)
    rng = np.random.default_rng(9)
    a = rng.integers(0, 2, size=(10, 256), dtype=np.uint8)
    b = rng.integers(0, 2, size=(10, 256), dtype=np.uint8)
    seeds = SeedSchedule(tuple(range(8)))
    enc_a = lt_encode(a, seeds, params)
    enc_b = lt_encode(b, seeds, params)
    enc_ab = lt_encode(a ^ b, seeds, params)
    assert np.array_equal(enc_ab, enc_a ^ enc_b)


def test_lt_encode_empty_schedule_rejected():
    params = SolitonParams(k=10, c=0.1, delta=0.5)
    source = np.zeros((10, 256), dtype=np.uint8)
    with pytest.raises(ValueError):
        lt_encode(source, SeedSchedule(()), params)


def test_schedule_roundtrip(tmp_path):
    sched = SeedSchedule.first_n(100)
    path = tmp_path / "seeds.txt"
    sched.save(path)
    loaded = SeedSchedule.load(path)
    assert loaded == sched
    text = path.read_text().splitlines()
    assert text[0] == "00000000"
    assert all(len(line) == 8 for line in text)


def test_seed_sequence_frozen_values():
    # the decoder's pre-determined seed table must be reproducible forever
    from oligolab.fountain import seed_sequence_value

    assert [seed_sequence_value(i) for i in (0, 1, 2, 3, 42)] == [
        0x00000000,
        0x514E28B7,
        0x30F4C306,
        0x85F0B427,
        0x087FCD5C,
    ]


def test_seed_sequence_distinct_and_well_separated():
    sched = SeedSchedule.first_n(20000)
    assert len(set(sched.seeds)) == 20000
    # seed regions must never be a single substitution apart
    from oligolab.dna_codec import indices_to_sequences, seeds_to_base_indices

    regions = indices_to_sequences(seeds_to_base_indices(sched.seeds[:500]))
    for i in range(0, 500, 13):
        for j in range(i + 1, 500):
            ham = sum(a != b for a, b in zip(regions[i], regions[j]))
            assert ham >= 2


def test_schedule_rejects_duplicates():
    with pytest.raises(ValueError):
        SeedSchedule(seeds=(1, 1, 2))


def test_schedule_rejects_seeds_outside_32_bits():
    for bad in (2**32, 0x1FFFFFFFF, -5):
        with pytest.raises(ValueError, match="out of 32-bit range"):
            SeedSchedule(seeds=(1, bad))


def test_seed_expand_rejects_seeds_outside_32_bits():
    for bad in ([2**32], [0, -1], [2**64], np.array([2**63], dtype=np.uint64)):
        with pytest.raises(ValueError, match="out of 32-bit range"):
            seed_expand(bad, SMALL)


def test_params_reject_spike_beyond_k_plus_one():
    # the desk profile's c at k=60: R = 0.85, so the spike k/R lands at 70
    with pytest.raises(ValueError, match="spike=70"):
        SolitonParams(k=60, c=0.01, delta=0.001)
    # spike = k + 1 still builds: tau covers every degree and has no spike term
    params = SolitonParams(k=10, c=0.1, delta=0.5)
    assert params.spike == params.k + 1
    assert abs(robust_soliton(params).probabilities.sum() - 1.0) < 1e-12


# the profiles' codes, the CLI tests' tiny code, and tiny k where most
# Fisher-Yates steps land on a position an earlier step wrote
EXPAND_PARAMS = [
    PAPER,
    GOLDEN_PARAMS,  # also the desk profile's code
    SolitonParams(k=60, c=0.05, delta=0.1),
    SolitonParams(k=10, c=0.1, delta=0.5),
    SolitonParams(k=5, c=0.2, delta=0.5),
    SolitonParams(k=3, c=0.3, delta=0.5),
    SolitonParams(k=2, c=0.3, delta=0.5),
    SolitonParams(k=1, c=0.5, delta=0.3),
]
SEEDS = st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    params=st.sampled_from(EXPAND_PARAMS),
    seeds=st.lists(SEEDS, max_size=40),
    repeats=st.integers(0, 3),
)
def test_seed_expand_matches_reference(params, seeds, repeats):
    seeds = seeds + seeds[:repeats]  # a batch may list a seed more than once
    dist = robust_soliton(params)
    indptr, indices = seed_expand(seeds, params)
    expected = [reference_expand(s, params, dist) for s in seeds]
    assert indptr.tolist() == np.cumsum([0] + [len(e) for e in expected]).tolist()
    assert indices.dtype == np.int64
    for r, e in enumerate(expected):
        assert indices[indptr[r] : indptr[r + 1]].tolist() == e.tolist()


def test_seed_expand_empty_batch():
    indptr, indices = seed_expand([], PAPER)
    assert indptr.tolist() == [0] and indices.dtype == np.int64 and len(indices) == 0


def test_seed_expand_matches_reference_across_batches():
    # more seeds than one internal batch holds, at the paper's k
    seeds = SeedSchedule.first_n(5000).seeds
    dist = robust_soliton(PAPER)
    for got, seed in zip(expand_rows(seeds, PAPER), seeds):
        assert np.array_equal(got, reference_expand(seed, PAPER, dist))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    params=st.sampled_from(EXPAND_PARAMS),
    seeds=st.lists(SEEDS, min_size=1, max_size=30, unique=True),
    source_seed=st.integers(0, 2**32 - 1),
)
def test_lt_encode_matches_reference_xor(params, seeds, source_seed):
    source = np.random.default_rng(source_seed).integers(
        0, 2, size=(params.k, 256), dtype=np.uint8
    )
    coded = lt_encode(source, SeedSchedule(tuple(seeds)), params)
    dist = robust_soliton(params)
    assert coded.shape == (len(seeds), 256) and coded.dtype == np.uint8
    for row, seed in enumerate(seeds):
        expected = np.bitwise_xor.reduce(source[reference_expand(seed, params, dist)], axis=0)
        assert np.array_equal(coded[row], expected)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    k=st.integers(1, 400),
    c=st.sampled_from([0.01, 0.05, 0.2, 0.5]),
    table_seed=st.integers(0, 2**32 - 1),
    n_table=st.integers(0, 60),
    share=st.floats(0.0, 1.0),
    masks=st.lists(st.floats(0.0, 1.0), max_size=3),
)
def test_graph_rows_are_the_expanded_rows(k, c, table_seed, n_table, share, masks):
    """A random subset of a random table, gathered from the table's graph,
    is seed_expand's rows and the reference's, also after redecode-style
    masks; the column index lists each bit's rows, ascending."""
    try:
        params = SolitonParams(k=k, c=c, delta=0.05)
    except ValueError:
        assume(False)
    rng = np.random.default_rng(table_seed)
    table = rng.choice(2**32, size=n_table, replace=False)
    graph = NeighborGraph.expand(SeedSchedule(tuple(table.tolist())), params)
    subset = np.sort(table[rng.random(n_table) < share])
    keep = graph.rows_of(subset)
    dist = robust_soliton(params)
    for drop in [0.0, *masks]:  # each mask drops a share of the rows still kept
        keep[np.flatnonzero(keep)[rng.random(keep.sum()) < drop]] = False
        subset = graph.seeds[keep]
        indptr, indices = graph.take(keep)
        expected = seed_expand(subset, params)
        assert np.array_equal(indptr, expected[0]) and np.array_equal(indices, expected[1])
        for r, seed in enumerate(subset.tolist()):
            row = indices[indptr[r] : indptr[r + 1]]
            assert np.array_equal(row, reference_expand(seed, params, dist))
    col_ptr, col_rows = graph.columns
    rows = np.split(graph.indices, graph.indptr[1:-1]) if n_table else []
    for bit in range(k):
        holding = [r for r, row in enumerate(rows) if bit in row]
        assert col_rows[col_ptr[bit] : col_ptr[bit + 1]].tolist() == holding


def test_graph_names_a_seed_the_table_lacks():
    graph = NeighborGraph.expand(SeedSchedule((5, 9, 2)), SMALL)
    assert graph.seeds.tolist() == [2, 5, 9]
    assert graph.rows_of(np.array([2, 9])).tolist() == [True, False, True]
    for seeds in ([2, 7], [10], [1]):
        with pytest.raises(ValueError, match=f"seed {seeds[-1]} is not in the seed table"):
            graph.rows_of(np.array(seeds))
    with pytest.raises(ValueError, match="seed 3 "):
        NeighborGraph.expand(SeedSchedule(()), SMALL).rows_of(np.array([3]))


def test_graph_is_expanded_once_while_held(monkeypatch):
    """Equal tables share the graph a caller holds; one nobody holds is
    expanded again. The shared arrays are read-only."""
    calls = []
    real = fountain.seed_expand
    monkeypatch.setattr(fountain, "seed_expand", lambda *a: calls.append(1) or real(*a))
    graph = neighbor_graph(SeedSchedule.first_n(50), SMALL)
    assert neighbor_graph(SeedSchedule.first_n(50), SMALL) is graph
    assert neighbor_graph(SeedSchedule.first_n(50), PAPER) is not graph
    assert len(calls) == 2
    with pytest.raises(ValueError):
        graph.indices[0] = 1
    del graph
    neighbor_graph(SeedSchedule.first_n(50), SMALL)
    assert len(calls) == 3
