import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bp_reference import bp_decode as reference_bp_decode
from oligolab import bp_decoder
from oligolab.bp_decoder import bp_decode, build_h
from oligolab.fountain import NeighborGraph, SeedSchedule, SolitonParams, seed_expand


def rows_h(n_info, indptr, indices):
    """build_h over every row of a graph of the CSR rows, in their order."""
    graph = NeighborGraph(n_info, np.arange(len(indptr) - 1), indptr, indices)
    return build_h(graph, np.ones(graph.n_rows, dtype=bool))


def make_h(n_info, rows):
    return rows_h(
        n_info,
        np.cumsum([0] + [len(r) for r in rows]),
        np.concatenate([np.zeros(0, dtype=np.int64), *rows]).astype(np.int64),
    )


def expanded_h(seeds, params):
    return rows_h(params.k, *seed_expand(seeds, params))


def graph_h(seeds, params, drop=()):
    """build_h over the graph of `seeds`, the rows of the seeds in `drop` masked."""
    graph = NeighborGraph.expand(SeedSchedule(tuple(seeds)), params)
    return build_h(graph, graph.rows_of(np.setdiff1d(seeds, drop)))


def row_list(h):
    return np.split(h.indices, h.indptr[1:-1])


def rows_parity_ok(rows, info_bits, coded_bits):
    """True iff every row's info bits XOR to its coded bit."""
    return all(
        sum(int(info_bits[i]) for i in row) % 2 == int(coded_bits[r])
        for r, row in enumerate(rows)
    )


def random_tree_instance(rng, k):
    """Rows forming a cycle-free check/info graph covering all k info bits."""
    order = rng.permutation(k).tolist()
    rows = []
    used = []
    while order:
        d = int(rng.integers(1, 4))
        fresh = [order.pop() for _ in range(min(d, len(order)))]
        row = list(fresh)
        if used and rng.random() < 0.7:
            row.append(int(used[int(rng.integers(len(used)))]))
        rows.append(sorted(row))
        used.extend(fresh)
    # a few extra leaf checks on already-used bits keep the forest property
    for _ in range(int(rng.integers(0, 3))):
        rows.append([int(used[int(rng.integers(len(used)))])])
    return rows


def brute_force_posteriors(rows, k, coded_llrs):
    """Exact bit marginals by enumerating all 2^k info assignments."""
    n_rows = len(rows)
    weights0 = np.zeros(k)
    weights1 = np.zeros(k)
    coded0 = np.zeros(n_rows)
    coded1 = np.zeros(n_rows)
    p_coded0 = 1.0 / (1.0 + np.exp(-np.asarray(coded_llrs)))
    total0 = np.zeros(k + n_rows)
    total1 = np.zeros(k + n_rows)
    for assignment in range(2**k):
        bits = np.array([(assignment >> i) & 1 for i in range(k)], dtype=np.int64)
        coded = np.array([bits[r].sum() % 2 for r in rows], dtype=np.int64)
        w = np.prod(np.where(coded == 0, p_coded0, 1.0 - p_coded0))
        for i in range(k):
            if bits[i] == 0:
                total0[i] += w
            else:
                total1[i] += w
        for r in range(n_rows):
            if coded[r] == 0:
                total0[k + r] += w
            else:
                total1[k + r] += w
    return np.log(total0) - np.log(total1)


def test_build_h_row_weights():
    params = SolitonParams(k=100, c=0.025, delta=0.001)
    seeds = list(range(40))
    h = graph_h(seeds, params)
    for r, seed in enumerate(seeds):
        indptr, _ = seed_expand([seed], params)
        assert h.indptr[r + 1] - h.indptr[r] == indptr[1]
    assert h.n_cols == 100 + 40


def test_build_h_removing_seed_drops_one_row():
    params = SolitonParams(k=50, c=0.05, delta=0.05)
    h_all = graph_h(list(range(30)), params)
    h_less = graph_h(list(range(30)), params, drop=[7])
    assert h_less.n_rows == h_all.n_rows - 1
    assert h_less.n_cols == h_all.n_cols - 1
    rows_all, rows_less = row_list(h_all), row_list(h_less)
    assert all(np.array_equal(a, b) for a, b in zip(rows_all[:7] + rows_all[8:], rows_less))


def cover_all(rows, k):
    covered = set()
    for r in rows:
        covered.update(r)
    return rows + [[i] for i in range(k) if i not in covered]


def test_noiseless_strong_llrs_recover_exactly():
    rng = np.random.default_rng(60)
    k = 30
    rows = cover_all(
        [sorted(rng.choice(k, size=int(rng.integers(1, 5)), replace=False).tolist())
         for _ in range(60)], k)
    h = make_h(k, rows)
    info = rng.integers(0, 2, size=k)
    coded = np.array([info[r].sum() % 2 for r in rows])
    coded_llrs = np.where(coded == 0, 30.0, -30.0)
    out = bp_decode(h, coded_llrs, max_iter=50)
    assert out.converged
    assert out.iterations_used <= 15
    assert np.array_equal(out.info_bits, info)
    assert np.array_equal(out.coded_bits, coded)
    assert rows_parity_ok(rows, out.info_bits, out.coded_bits)


def test_bp_matches_exhaustive_marginals_on_trees():
    rng = np.random.default_rng(61)
    worst = 0.0
    for _ in range(30):
        k = int(rng.integers(4, 13))
        rows = random_tree_instance(rng, k)
        h = make_h(k, rows)
        coded_llrs = rng.uniform(-3.0, 3.0, size=len(rows))
        # exact marginals need settled messages, not just a zero syndrome
        out = bp_decode(h, coded_llrs, max_iter=200, early_stop_on_syndrome=False)
        exact = brute_force_posteriors(rows, k, coded_llrs)
        # keep away from the clip so BP on a tree is exact
        assert np.abs(exact).max() < 25
        worst = max(worst, np.abs(out.posterior_llrs - exact).max())
    assert worst < 1e-6


def test_all_zero_llrs_report_no_convergence():
    h = make_h(4, [[0, 1], [1, 2], [2, 3]])
    out = bp_decode(h, np.zeros(3), max_iter=20)
    assert not out.converged
    assert out.undetermined == 7  # every variable stays at LLR 0
    # the all-zero state is an exact fixed point, caught immediately
    assert out.iterations_used == 1


def test_multi_plane_decoding_and_early_exit():
    rng = np.random.default_rng(62)
    k = 20
    # mixed degrees incl. some 1s: punctured BP needs degree-1 rows to start
    rows = cover_all(
        [sorted(rng.choice(k, size=int(rng.integers(1, 5)), replace=False).tolist())
         for _ in range(50)], k)
    h = make_h(k, rows)
    planes = 8
    info = rng.integers(0, 2, size=(k, planes))
    coded = np.stack([info[r].sum(axis=0) % 2 for r in rows])
    coded_llrs = np.where(coded == 0, 25.0, -25.0) + rng.normal(0, 1.0, coded.shape)
    out = bp_decode(h, coded_llrs, max_iter=100)
    assert out.converged.all()
    assert np.array_equal(out.info_bits, info)
    assert (out.iterations_used < 100).all()


def test_dimension_mismatch_rejected():
    h = make_h(4, [[0, 1], [2, 3]])
    with pytest.raises(ValueError):
        bp_decode(h, np.zeros(3))


def test_hard_decision_tie_is_zero():
    # a lone check with positive and zero llrs: posterior 0 -> bit 0
    h = make_h(1, [[0]])
    out = bp_decode(h, np.array([0.0]), max_iter=5)
    assert out.info_bits[0] == 0
    assert out.coded_bits[0] == 0


def test_permutation_invariance():
    rng = np.random.default_rng(63)
    k = 10
    rows = [sorted(rng.choice(k, size=2, replace=False).tolist()) for _ in range(25)]
    coded_llrs = rng.uniform(-5, 5, size=25)
    h = make_h(k, rows)
    out = bp_decode(h, coded_llrs, max_iter=40)

    perm = rng.permutation(25)
    h_perm = make_h(k, [rows[p] for p in perm])
    out_perm = bp_decode(h_perm, coded_llrs[perm], max_iter=40)
    assert np.array_equal(out.info_bits, out_perm.info_bits)
    assert np.allclose(
        out.posterior_llrs[k:][perm], out_perm.posterior_llrs[k:], atol=1e-9
    )


def test_converged_implies_zero_syndrome():
    rng = np.random.default_rng(64)
    k = 15
    for trial in range(20):
        rows = [sorted(rng.choice(k, size=int(rng.integers(1, 4)), replace=False).tolist())
                for _ in range(k + 8)]
        h = make_h(k, rows)
        coded_llrs = rng.uniform(-8, 8, size=len(rows))
        out = bp_decode(h, coded_llrs, max_iter=60)
        if out.converged:
            assert rows_parity_ok(rows, out.info_bits, out.coded_bits)


def test_runtime_scales_with_total_weight():
    # linear-in-weight regression guard with generous slack
    rng = np.random.default_rng(65)

    def run(k, n_rows, planes):
        # a quarter of the rows have degree 1, so rows wake and BP does work
        # on every iteration; nonzero coded LLRs that fit no codeword keep
        # every plane running
        degrees = np.where(rng.random(n_rows) < 0.25, 1, rng.integers(2, 7, size=n_rows))
        rows = [sorted(rng.choice(k, size=int(d), replace=False).tolist()) for d in degrees]
        h = make_h(k, rows)
        llrs = rng.uniform(-2, 2, size=(n_rows, planes))
        t0 = time.perf_counter()
        out = bp_decode(h, llrs, max_iter=15)
        elapsed = time.perf_counter() - t0
        assert (out.iterations_used > 1).all()
        return elapsed, h.total_weight * planes

    run(50, 60, 8)  # warm-up
    t_small, w_small = run(200, 250, 32)
    t_big, w_big = run(400, 1000, 64)
    work_ratio = w_big / w_small
    assert t_big / t_small < 6 * work_ratio


def assert_bit_identical(out, ref):
    """Every field of two BpResults equal, posteriors bit for bit (sign of zero included)."""
    out_bits = np.asarray(out.posterior_llrs).view(np.uint64)
    assert np.array_equal(out_bits, np.asarray(ref.posterior_llrs).view(np.uint64))
    assert np.array_equal(out.info_bits, ref.info_bits)
    assert np.array_equal(out.coded_bits, ref.coded_bits)
    assert np.array_equal(out.converged, ref.converged)
    assert np.array_equal(out.iterations_used, ref.iterations_used)
    assert np.array_equal(out.undetermined, ref.undetermined)
    assert type(out.converged) is type(ref.converged)
    assert type(out.iterations_used) is type(ref.iterations_used)


def edge_case_llrs(rng, shape, clip):
    """Channel LLRs mixing exact zeros (both signs), the clip value, values
    past it, subnormals and ordinary noise."""
    special = np.array([0.0, -0.0, clip, -clip, 2 * clip, -2 * clip, 5e-324, -1e-320])
    llrs = rng.normal(0.0, 4.0, size=shape)
    pick = rng.random(shape)
    llrs = np.where(pick < 0.35, rng.choice(special, size=shape), llrs)
    return np.where(pick > 0.9, np.sign(llrs) * rng.uniform(2.0, 40.0, size=shape), llrs)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 24),
    n_rows=st.integers(1, 40),
    n_heavy=st.integers(0, 3),
    # past 64 planes the zero and sign bits take a second, padded word
    planes=st.one_of(st.integers(1, 8), st.integers(60, 130)),
    flat=st.booleans(),
    clip=st.sampled_from([30.0, 8.0, 1.5]),
    max_iter=st.integers(0, 40),
    early_stop=st.booleans(),
    # the dense fields are built when first read, whichever is read first
    read_first=st.permutations(["posterior_llrs", "info_bits", "undetermined", "coded_bits"]),
)
def test_bp_matches_reference_kernel_on_random_graphs(
    seed, k, n_rows, n_heavy, planes, flat, clip, max_iter, early_stop, read_first
):
    rng = np.random.default_rng(seed)
    # row weights 1-6 (0-5 information bits plus the coded bit), a few heavy rows
    degrees = list(rng.integers(0, 6, size=n_rows)) + list(rng.integers(6, 25, size=n_heavy))
    rows = [np.sort(rng.choice(k, size=min(int(d), k), replace=False)) for d in degrees]
    h = make_h(k, rows)
    llrs = edge_case_llrs(rng, (len(rows), planes), clip)
    if flat and planes == 1:
        llrs = llrs[:, 0]
    kwargs = dict(max_iter=max_iter, llr_clip=clip, early_stop_on_syndrome=early_stop)
    ref = reference_bp_decode(h, llrs.copy(), **kwargs)
    out = bp_decode(h, llrs, **kwargs)
    llrs[...] = np.nan  # the result no longer depends on the caller's array
    for name in read_first:
        getattr(out, name)
    assert_bit_identical(out, ref)


def test_bp_matches_reference_kernel_on_desk_graph():
    # the desk profile's code over its first 1100 seeds, info bits punctured
    params = SolitonParams(k=1000, c=0.01, delta=0.001)
    h = expanded_h(SeedSchedule.first_n(1100).seeds, params)
    rng = np.random.default_rng(70)
    info = rng.integers(0, 2, size=(params.k, 256))
    coded = np.stack([info[nb].sum(axis=0) % 2 for nb in row_list(h)])
    llrs = (1 - 2 * coded) * rng.uniform(2.0, 40.0, size=coded.shape)
    llrs[rng.random(llrs.shape) < 0.01] *= -1
    llrs[rng.random(llrs.shape) < 0.005] = 0.0
    assert_bit_identical(bp_decode(h, llrs), reference_bp_decode(h, llrs))


def test_bp_matches_reference_kernel_on_bp_active_graph():
    # c = 0.03 leaves enough degree-1 rows for BP to move every row
    params = SolitonParams(k=1000, c=0.03, delta=0.001)
    h = expanded_h(SeedSchedule.first_n(1400).seeds, params)
    rng = np.random.default_rng(71)
    info = rng.integers(0, 2, size=(params.k, 16))
    coded = np.stack([info[nb].sum(axis=0) % 2 for nb in row_list(h)])
    llrs = (2.0 - 4.0 * coded) + rng.normal(0.0, 2.0, size=coded.shape)
    for early_stop in (True, False):
        kwargs = dict(max_iter=40, early_stop_on_syndrome=early_stop)
        out = bp_decode(h, llrs, **kwargs)
        assert_bit_identical(out, reference_bp_decode(h, llrs, **kwargs))


@pytest.mark.parametrize("c, n_seeds, planes", [(0.01, 1122, 256), (0.03, 1400, 16)],
                         ids=["desk", "bp-active"])
def test_bp_on_graph_rows_matches_reference_kernel(c, n_seeds, planes):
    """BP over redecode-style masked rows of a seed table's graph, whose reach
    reads each column's rows from the graph's index, is bit-identical to
    the reference kernel, and reaches the rows that the same rows reach
    as a plain matrix."""
    params = SolitonParams(k=1000, c=c, delta=0.001)
    graph = NeighborGraph.expand(SeedSchedule.first_n(n_seeds), params)
    rng = np.random.default_rng(72)
    h = build_h(graph, rng.random(graph.n_rows) < 0.95)
    assert h.graph is graph and h.n_rows < graph.n_rows
    info = rng.integers(0, 2, size=(params.k, planes))
    coded = np.stack([info[nb].sum(axis=0) % 2 for nb in row_list(h)])
    llrs = (1 - 2 * coded) * rng.uniform(2.0, 40.0, size=coded.shape)
    llrs[rng.random(llrs.shape) < 0.01] *= -1
    llrs[rng.random(llrs.shape) < 0.005] = 0.0
    live = (llrs != 0.0).any(axis=1)
    plain = rows_h(h.n_info, h.indptr, h.indices)
    reach = bp_decoder._reach(h, live)
    assert len(reach[0]) > 0
    assert all(np.array_equal(a, b) for a, b in zip(reach, bp_decoder._reach(plain, live)))
    kwargs = dict(max_iter=40)
    assert_bit_identical(bp_decode(h, llrs, **kwargs), reference_bp_decode(h, llrs, **kwargs))


def reach_graph():
    """60 rows over 40 information bits, each row with at least one of them
    and a fifth with exactly one."""
    rng = np.random.default_rng(80)
    degrees = np.where(rng.random(60) < 0.2, 1, rng.integers(2, 6, size=60))
    return make_h(40, [np.sort(rng.choice(40, size=d, replace=False)) for d in degrees])


def signed_zeros(rng, shape):
    return np.where(rng.random(shape) < 0.5, 0.0, -0.0)


def reach_case_llrs(case, n_rows):
    rng = np.random.default_rng(81)
    if case == "no-row":
        return signed_zeros(rng, (n_rows, 3))
    planes = {"flat": 1, "wide": 130}.get(case, 3)
    llrs = edge_case_llrs(rng, (n_rows, planes), 30.0)
    if case == "plane-union":
        # each plane zeroes its own rows, and row 0 is zero in all of them
        zero = rng.random(llrs.shape) < 0.5
        llrs[zero] = signed_zeros(rng, zero.sum())
        llrs[0] = signed_zeros(rng, planes)
    else:
        dead = rng.random(n_rows) < 0.6
        llrs[dead] = signed_zeros(rng, (dead.sum(), planes))
    return llrs[:, 0] if case == "flat" else llrs


@pytest.mark.parametrize("case", ["partial", "no-row", "plane-union", "flat", "wide"])
@pytest.mark.parametrize("max_iter", [0, 1, 40])
@pytest.mark.parametrize("early_stop", [True, False])
def test_bp_matches_reference_kernel_on_reach_cases(case, max_iter, early_stop):
    h = reach_graph()
    llrs = reach_case_llrs(case, h.n_rows)
    live = llrs.reshape(h.n_rows, -1) != 0.0
    n_reached = len(bp_decoder._reach(h, live.any(axis=1))[0])
    if case == "no-row":
        assert n_reached == 0
    elif case == "plane-union":
        # the union over planes starts from more rows than any one plane
        assert not live[0].any()
        assert all(live.any(axis=1).sum() > plane.sum() for plane in live.T)
    else:
        assert 0 < n_reached < h.n_rows
    kwargs = dict(max_iter=max_iter, early_stop_on_syndrome=early_stop)
    out = bp_decode(h, llrs, **kwargs)
    assert_bit_identical(out, reference_bp_decode(h, llrs, **kwargs))
    if n_reached < h.n_rows:
        assert not np.any(out.converged)


def naive_reach(h, live_coded):
    """The peeling rule applied round by round until nothing changes: the
    rows that join in round r are those with at most one column outside
    the columns reached before round r. -> (rows, their rounds), ascending."""
    reached_cols = set(h.n_info + np.flatnonzero(live_coded))
    rows = [list(r) + [h.n_info + i] for i, r in enumerate(row_list(h))]
    joined = {}
    for rnd in itertools.count():
        new = [i for i, cols in enumerate(rows)
               if i not in joined and sum(c not in reached_cols for c in cols) <= 1]
        if not new:
            break
        for i in new:
            joined[i] = rnd
            reached_cols.update(rows[i])
    order = sorted(joined)
    return order, [joined[i] for i in order]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 30), n_rows=st.integers(1, 50),
       live_share=st.floats(0.0, 1.0))
def test_reach_is_the_peeling_closure(seed, k, n_rows, live_share):
    rng = np.random.default_rng(seed)
    rows = [rng.choice(k, size=min(int(d), k), replace=False) for d in rng.integers(0, 7, n_rows)]
    h = make_h(k, rows)
    live = rng.random(n_rows) < live_share
    reached, rounds = bp_decoder._reach(h, live)
    assert (reached.tolist(), rounds.tolist()) == naive_reach(h, live)
