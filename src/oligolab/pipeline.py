"""Iterative soft decoding with RS-driven redecoding, plus baselines.

The soft path follows the decode loop: BP over all 256 bit-planes, then RS
decoding of every reassembled oligo (table seed + BP payload decision +
cluster parity decision). A round is accepted only if every RS decode is
clean or corrected away from the seed symbols; otherwise the offending
clusters are dropped, the matrix is rebuilt, and BP reruns with the
surviving clusters' original LLRs, up to the redecoding limit. On success
the information bits are recovered from the RS-corrected coded bits by
erasure solving, also the engine of the majority-vote hard baseline: a
level-by-level array peel that inactivates a batch of variables at each
stall, then Gauss-Jordan elimination over those symbols only. A plane on
which the rows disagree fails the decode, so only consistent planes are read.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import fountain, gf_rs
from .bp_decoder import _distinct, _ranges, bp_decode, build_h
from .channel_stats import TransitionTable
from .clustering_llr import (
    ClusterTable,
    cluster_by_seed,
    llr_chandak,
    llr_proposed,
    majority_vote,
)
from .dna_codec import (
    PAYLOAD_SLICE,
    PAYLOAD_SYMBOLS,
    SEED_SYMBOLS,
    base_indices_to_bit_array,
    base_indices_to_symbol_array,
    bit_array_to_base_indices,
    seeds_to_base_indices,
    symbols_to_base_indices,
)
from .fastq_io import ReadRecord
from .fountain import SeedSchedule, SolitonParams, required_symbols

_WORD = np.dtype("<u8")  # packed planes: bit j of word w is plane 64w + j
_INACTIVATE = 16  # variables inactivated per stall of the peel
_GATHER_EDGES = 1 << 15  # edges whose values the solve gathers at once for the non-pivot rows


@dataclass(frozen=True)
class PipelineParams:
    soliton: SolitonParams
    n_re: int = 3
    llr_mode: str = "proposed"  # proposed | chandak
    redecoding_enabled: bool = True
    crossover_p: float | None = None  # required for chandak mode
    bp_max_iter: int = 500
    llr_clip: float = 30.0
    decoder: str = "soft"  # soft | hard

    def __post_init__(self) -> None:
        if self.n_re < 0:
            raise ValueError("n_re must be >= 0")
        if self.llr_mode not in ("proposed", "chandak"):
            raise ValueError(f"unknown llr_mode {self.llr_mode!r}")
        if self.llr_mode == "chandak" and self.crossover_p is None:
            raise ValueError("chandak llr_mode requires crossover_p")
        if self.llr_mode == "chandak" and not 0.0 < self.crossover_p < 0.5:
            raise ValueError(f"crossover_p must be in (0, 0.5), got {self.crossover_p}")
        if self.decoder not in ("soft", "hard"):
            raise ValueError(f"unknown decoder {self.decoder!r}")
        if not 0.0 < self.llr_clip < np.inf:
            raise ValueError(f"llr_clip must be finite and > 0, got {self.llr_clip}")
        if self.bp_max_iter < 1:
            raise ValueError(f"bp_max_iter must be >= 1, got {self.bp_max_iter}")

    @property
    def reads_qscores(self) -> bool:
        """Whether this decode reads Q-scores: only the proposed soft LLR does."""
        return self.decoder == "soft" and self.llr_mode == "proposed"


@dataclass
class DecodeReport:
    success: bool
    reason: str
    iterations_performed: int  # BP rounds executed (1 + redecodes)
    clusters_discarded_per_round: list[int] = field(default_factory=list)
    clusters_with_seed_corrections_removed: int = 0
    seed_corrections_per_round: list[int] = field(default_factory=list)
    removed_seeds_per_round: list[list[int]] = field(default_factory=list)
    recovered_payload: np.ndarray | None = None
    active_clusters: int = 0
    timing: dict = field(default_factory=dict)

    def to_dict(self, omit_timing: bool = False) -> dict:
        return {
            "success": self.success,
            "reason": self.reason,
            "iterations_performed": self.iterations_performed,
            "clusters_discarded_per_round": self.clusters_discarded_per_round,
            "clusters_with_seed_corrections_removed": self.clusters_with_seed_corrections_removed,
            "active_clusters": self.active_clusters,
            "timing": {} if omit_timing else self.timing,
        }


def _words_to_bits(words: np.ndarray, planes: int) -> np.ndarray:
    """(n, n_words) uint64 rows -> (n, planes) uint8 bits."""
    as_bytes = np.ascontiguousarray(words, dtype=_WORD).view(np.uint8)
    return np.unpackbits(as_bytes, axis=1, count=planes, bitorder="little")


def _xor_runs(values: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The XOR of each run of `lengths` consecutive rows of `values` (0 if empty)."""
    out = np.zeros((len(lengths), *values.shape[1:]), dtype=values.dtype)
    full = lengths > 0
    out[full] = np.bitwise_xor.reduceat(values, (np.cumsum(lengths) - lengths)[full], axis=0)
    return out


def _edge_groups(indptr: np.ndarray, var: np.ndarray, k: int) -> list[np.ndarray]:
    """The (variable, row) edges of CSR rows, a repeated neighbor once, as
    [var_ptr, var_row, row_ptr, row_var]: CSR by variable, then by row."""
    n_rows = len(indptr) - 1
    row = np.repeat(np.arange(n_rows), np.diff(indptr))
    groups = []
    for major, minor, n_major, n_minor in ((var, row, k, n_rows), (row, var, n_rows, k)):
        keys = _distinct(major * n_minor + minor)
        groups += [np.searchsorted(keys, np.arange(n_major + 1) * n_minor), keys % max(n_minor, 1)]
    return groups


def _keep_rows(
    rows: tuple[np.ndarray, np.ndarray], keep: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The CSR rows where the boolean mask `keep` is set."""
    indptr, indices = rows
    lengths = np.diff(indptr)
    return np.concatenate([[0], np.cumsum(lengths[keep])]), indices[np.repeat(keep, lengths)]


def lt_erasure_solve(
    rows: tuple[np.ndarray, np.ndarray],
    coded_bits: np.ndarray,
    k: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve info bits from coded-bit rows: XOR(info[nbrs]) = coded[row].

    rows: CSR rows (indptr, indices); row r's neighbors are
    indices[indptr[r]:indptr[r + 1]], each in 0..k-1. A repeated neighbor
    counts once; a row with none reads 0 = its coded value.

    Returns (info (k, P) uint8, resolved (k,) bool, consistent (P,) bool).
    Inactivation decoding (Shokrollahi, "Raptor codes", 2006; RFC 6330
    §5.4), peeled level by level in arrays. Each row keeps its count of
    unknowns and the XOR of their ids, which names the last one. A level
    resolves, from one pivot row each, the variables that rows hold as
    their last unknown, then updates the rows those touch: only these can
    join the next level. At a stall the next `_INACTIVATE` variables with
    the most rows become symbols. Values are uint64 words, plane words then
    symbol words: a pivot's coded value XOR its other neighbors' values.
    The other rows are equations over the symbols. Gauss-Jordan flags the
    planes of any that reduces to 0 = nonzero as inconsistent, and the
    value pass is replayed with the reduced symbols; a variable whose value
    keeps a free symbol is unresolved. Resolved bits and consistent planes
    belong to the system, not to the peel order; on an inconsistent plane
    the rows disagree, so only the consistent planes of `info` are fixed.
    """
    coded = np.asarray(coded_bits, dtype=np.uint8)
    if coded.ndim == 1:
        coded = coded[:, None]
    n_rows, planes = coded.shape
    indptr, indices = rows
    if n_rows != len(indptr) - 1:
        raise ValueError("coded_bits rows do not match neighbor rows")
    var = np.asarray(indices, dtype=np.int64)
    if len(var) and not 0 <= var.min() <= var.max() < k:
        raise ValueError(f"neighbor indices must lie in 0..{k - 1}")

    var_ptr, var_row, row_ptr, row_var = _edge_groups(indptr, var, k)
    row_len, degree = np.diff(row_ptr), np.diff(var_ptr)
    candidates = np.argsort(-degree, kind="stable")[: np.count_nonzero(degree)]

    unknowns = row_len.copy()
    id_xor = _xor_runs(row_var, row_len)
    eliminated = np.zeros(k, dtype=bool)
    is_pivot = np.zeros(n_rows, dtype=bool)
    levels = []  # variables, then pivot rows, their neighbors and run starts
    n_symbols = 0
    ripple = np.flatnonzero(unknowns == 1)
    while True:
        ripple = ripple[unknowns[ripple] == 1]
        if len(ripple):
            v, first = np.unique(id_xor[ripple], return_index=True)
            pivots = ripple[first]
            is_pivot[pivots] = True
            n = row_len[pivots]
            levels.append((v, pivots, row_var[_ranges(row_ptr[pivots], n)], np.cumsum(n) - n))
        else:  # a stall: inactivate, most rows first
            candidates = candidates[~eliminated[candidates]]
            v, candidates = candidates[:_INACTIVATE], candidates[_INACTIVATE:]
            if not len(v):
                break
            levels.append((v, None, None, n_symbols))
            n_symbols += len(v)
        eliminated[v] = True
        n = degree[v]
        touched = var_row[_ranges(var_ptr[v], n)]
        order = np.argsort(touched)
        touched = touched[order]
        starts = np.flatnonzero(np.diff(touched, prepend=-1))
        ripple = touched[starts]
        unknowns[ripple] -= np.diff(np.append(starts, len(touched)))
        id_xor[ripple] ^= np.bitwise_xor.reduceat(np.repeat(v, n)[order], starts)

    n_words = -(-planes // 64)
    width = n_words + -(-n_symbols // 64)
    coded_words = np.zeros((n_rows, width), dtype=_WORD)
    packed = np.packbits(coded, axis=1, bitorder="little")
    coded_words.view(np.uint8)[:, : packed.shape[1]] = packed
    eye = np.eye(n_symbols, 64 * width, 64 * n_words, dtype=bool)  # symbol j is bit j of the tail
    symbols = np.packbits(eye, axis=1, bitorder="little").view(_WORD)

    def substitute(symbol_values: np.ndarray) -> np.ndarray:
        values = np.zeros((k, width), dtype=_WORD)
        for v, pivots, nbrs, starts in levels:
            if pivots is None:  # inactivated as symbols starts, starts + 1, ...
                values[v] = symbol_values[starts : starts + len(v)]
            else:  # a pivot's own variable still reads 0 here
                values[v] = coded_words[pivots] ^ np.bitwise_xor.reduceat(values[nbrs], starts)
        return values

    values = substitute(symbols)
    others = np.flatnonzero(~is_pivot)
    equations = coded_words[others]
    # their neighbors' values are gathered about _GATHER_EDGES edges at a
    # time: at paper scale these rows hold 2/3 of all edges, 8 MB of values
    n = row_len[others]
    block = (np.cumsum(n) - n) // _GATHER_EDGES  # where each row's first edge falls
    bounds = [*np.flatnonzero(np.diff(block, prepend=-1)).tolist(), len(others)]
    for lo, hi in zip(bounds, bounds[1:]):
        nbrs = row_var[_ranges(row_ptr[others[lo:hi]], n[lo:hi])]
        equations[lo:hi] ^= _xor_runs(values[nbrs], n[lo:hi])
    equations = equations[equations.any(axis=1)]  # 0 = 0 says nothing

    # Gauss-Jordan: a symbol's basis row is the only one that holds it
    basis = np.full(n_symbols, -1)
    spare = np.ones(len(equations), dtype=bool)
    for s in range(n_symbols):
        has = (equations[:, n_words + s // 64] >> np.uint64(s % 64) & np.uint64(1)).astype(bool)
        pivot = np.flatnonzero(has & spare)[:1]
        if len(pivot):
            spare[pivot] = has[pivot] = False
            equations[has] ^= equations[pivot]
            basis[s] = pivot[0]
    # the rows left spare hold planes alone: 0 = nonzero contradicts
    consistent = ~_words_to_bits(equations[spare, :n_words], planes).any(axis=0)

    if n_symbols:
        # back-substitute: replay with each symbol's planes and free symbols
        solved = basis >= 0
        symbols[solved] ^= equations[basis[solved]]
        values = substitute(symbols)
    resolved = eliminated & ~values[:, n_words:].any(axis=1)
    info = _words_to_bits(values[:, :n_words] * resolved[:, None], planes)
    return info, resolved, consistent


def _rs_check(codes: np.ndarray, coded: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """RS-check every row of an (n, 152) base-code matrix, one word per row.

    The syndromes of all rows are computed at once; only rows with a
    nonzero syndrome go through `gf_rs.rs_decode`, since a zero syndrome
    is a clean codeword. A correction in the payload symbols is written
    into that row of `coded`, the (n, 256) coded bits. Returns the rows RS
    detected as uncorrectable and the rows whose correction touched a seed
    symbol.
    """
    symbols = base_indices_to_symbol_array(codes)
    detected = np.zeros(len(codes), dtype=bool)
    seed_corrected = np.zeros(len(codes), dtype=bool)
    s0, s1 = gf_rs.rs_syndromes(symbols)
    for r in np.flatnonzero(s0 | s1).tolist():
        outcome = gf_rs.rs_decode(symbols[r].tolist())
        if outcome.status == gf_rs.STATUS_DETECTED:
            detected[r] = True
        elif outcome.status == gf_rs.STATUS_CORRECTED:
            positions = outcome.corrected_positions
            seed_corrected[r] = any(p < SEED_SYMBOLS for p in positions)
            if any(SEED_SYMBOLS <= p < SEED_SYMBOLS + PAYLOAD_SYMBOLS for p in positions):
                fixed = symbols_to_base_indices(outcome.codeword)
                coded[r] = base_indices_to_bit_array(fixed[PAYLOAD_SLICE])
    return detected, seed_corrected


def _solve_tail(
    report: DecodeReport,
    rows: tuple[np.ndarray, np.ndarray],
    coded_bits: np.ndarray,
    k: int,
    expected_payload: np.ndarray | None,
) -> None:
    """Erasure-solve the accepted rows and record the outcome in the report."""
    info, resolved, consistent = lt_erasure_solve(rows, coded_bits, k)
    if not resolved.all():
        report.reason = f"unresolved_info_bits: {int((~resolved).sum())}"
    elif not consistent.all():
        report.reason = f"inconsistent_planes: {int((~consistent).sum())}"
    else:
        report.recovered_payload = info
        if expected_payload is not None and not np.array_equal(
            info, np.asarray(expected_payload, dtype=np.uint8)
        ):
            report.reason = "payload_mismatch"
        else:
            report.success = True
            report.reason = "ok"


def iterative_soft_decode(
    clusters: ClusterTable,
    seed_table: SeedSchedule,
    table: TransitionTable,
    params: PipelineParams,
    expected_payload: np.ndarray | None = None,
) -> DecodeReport:
    """BP-decode, RS-check, drop bad clusters, repeat (at most n_re redecodes)."""
    t_start = time.perf_counter()
    report = DecodeReport(
        success=False, reason="", iterations_performed=0, active_clusters=len(clusters)
    )
    k_required = required_symbols(params.soliton)
    if len(clusters) < k_required:
        # refused before any soft input is built
        report.reason = f"insufficient_clusters: {len(clusters)} active < {k_required} required"
        report.timing["total_seconds"] = time.perf_counter() - t_start
        return report
    max_redecodes = params.n_re if params.redecoding_enabled else 0

    # per-cluster state in ascending seed order; `active` indexes its rows
    seeds = clusters.seeds
    rows = fountain.seed_expand(seeds, params.soliton)  # the active clusters' rows
    if params.llr_mode == "chandak":
        soft = llr_chandak(clusters, params.crossover_p)
    else:
        soft = llr_proposed(clusters, table)
    llrs, parity_codes = soft.payload_llrs, soft.rs_parity_hard
    seed_codes = seeds_to_base_indices(seeds)
    active = np.arange(len(seeds))

    round_idx = 0
    while True:
        if len(active) < k_required:
            report.reason = (
                f"insufficient_clusters: {len(active)} active < {k_required} required"
            )
            break
        h = build_h(rows, params.soliton)
        t_bp = time.perf_counter()
        bp = bp_decode(
            h,
            llrs[active],
            max_iter=params.bp_max_iter,
            llr_clip=params.llr_clip,
        )
        report.timing.setdefault("bp_seconds_per_round", []).append(
            time.perf_counter() - t_bp
        )
        report.iterations_performed = round_idx + 1

        payload_codes = bit_array_to_base_indices(bp.coded_bits)
        coded = bp.coded_bits.astype(np.uint8)  # RS payload corrections go here
        detected, seed_corrected = _rs_check(
            np.concatenate([seed_codes[active], payload_codes, parity_codes[active]], axis=1),
            coded,
        )
        removed = detected | seed_corrected

        if not removed.any():
            _solve_tail(report, rows, coded, params.soliton.k, expected_payload)
            break

        report.clusters_discarded_per_round.append(int(removed.sum()))
        report.removed_seeds_per_round.append(seeds[active[removed]].tolist())
        seed_corrections = int(seed_corrected.sum())
        report.seed_corrections_per_round.append(seed_corrections)
        report.clusters_with_seed_corrections_removed += seed_corrections
        if round_idx == max_redecodes:
            report.reason = (
                "rs_failures_without_redecoding"
                if max_redecodes == 0
                else f"redecode_limit_reached: {max_redecodes}"
            )
            break
        active = active[~removed]
        rows = _keep_rows(rows, ~removed)
        round_idx += 1

    report.active_clusters = len(active)
    report.timing["total_seconds"] = time.perf_counter() - t_start
    return report


def hard_decode_baseline(
    clusters: ClusterTable,
    seed_table: SeedSchedule,
    params: PipelineParams,
    expected_payload: np.ndarray | None = None,
) -> DecodeReport:
    """Majority vote -> RS decode -> discard failures -> LT erasure recovery.

    Only the votes are read after the vote: if the caller handed over its
    only reference to `clusters`, the reads are freed before the RS check."""
    t_start = time.perf_counter()
    seeds, votes = clusters.seeds, majority_vote(clusters)  # (n, 152) base indices, in seed order
    del clusters
    report = DecodeReport(success=False, reason="", iterations_performed=1)
    coded = base_indices_to_bit_array(votes[:, PAYLOAD_SLICE])
    keep = ~_rs_check(votes, coded)[0]  # seed-corrected words are kept
    report.clusters_discarded_per_round = [int((~keep).sum())]
    report.active_clusters = int(keep.sum())
    if keep.any():
        rows = fountain.seed_expand(seeds[keep], params.soliton)
        coded = coded[keep]  # the discarded words' bits are not held through the solve
        _solve_tail(report, rows, coded, params.soliton.k, expected_payload)
    else:
        report.reason = "no_surviving_clusters"
    report.timing["total_seconds"] = time.perf_counter() - t_start
    return report


@dataclass
class SweepReport:
    sampling_points: list[int]
    trials: int
    variants: list[str]
    successes: dict[str, list[int]]
    mean_rounds: dict[str, list[float]]
    mean_clusters_removed: dict[str, list[float]]
    wall_seconds: dict[str, list[float]]
    retained_reads_mean: list[float]

    def to_dict(self, omit_timing: bool = False) -> dict:
        out = {
            "version": 1,
            "sampling_points": self.sampling_points,
            "trials": self.trials,
            "variants": self.variants,
            "successes": self.successes,
            "mean_rounds": self.mean_rounds,
            "mean_clusters_removed": self.mean_clusters_removed,
            "retained_reads_mean": self.retained_reads_mean,
        }
        if not omit_timing:
            out["wall_seconds"] = self.wall_seconds
        return out

    def plot_rows(self) -> list[tuple[int, str, int, int]]:
        rows = []
        for i, point in enumerate(self.sampling_points):
            for name in self.variants:
                rows.append((point, name, self.successes[name][i], self.trials))
        return rows


def _no_redecode_outcome(on_report: DecodeReport) -> DecodeReport:
    """The redecoding-off outcome implied by a redecoding-on run.

    Both algorithms share a deterministic first round, so the off variant
    either fails there (the on run recorded removals) or ends with the on
    run's round-1 result.
    """
    removed_r1 = on_report.clusters_discarded_per_round[:1]
    if removed_r1 and removed_r1[0] > 0:
        return DecodeReport(
            success=False,
            reason="rs_failures_without_redecoding",
            iterations_performed=1,
            clusters_discarded_per_round=removed_r1,
            clusters_with_seed_corrections_removed=on_report.seed_corrections_per_round[0],
            seed_corrections_per_round=on_report.seed_corrections_per_round[:1],
            removed_seeds_per_round=on_report.removed_seeds_per_round[:1],
            active_clusters=on_report.active_clusters,
            timing={"derived_from_redecoding_run": True},
        )
    return DecodeReport(
        success=on_report.success,
        reason=on_report.reason,
        iterations_performed=min(on_report.iterations_performed, 1),
        recovered_payload=on_report.recovered_payload,
        active_clusters=on_report.active_clusters,
        timing={"derived_from_redecoding_run": True},
    )


def experiment_sweep(
    reads: Sequence[ReadRecord],
    seed_table: SeedSchedule,
    table: TransitionTable,
    sampling_points: Sequence[int],
    trials: int,
    variants: Mapping[str, PipelineParams],
    rng_seed: int = 0,
    expected_payload: np.ndarray | None = None,
) -> SweepReport:
    """Random-subset success-count sweep; subsets are shared across variants.

    For every sampling point, `trials` uniform subsets of the raw reads are
    drawn (pre-filter, so the retained count L_m per trial is smaller), and
    every decoder variant runs on the same subset for a paired comparison.
    Trials run one after another, and each adds its counts in trial order.
    When a redecoding-off variant has a twin with equal params except
    redecoding_enabled, its outcome is derived from the twin's first round
    instead of re-running BP; the two computations are identical by
    construction.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    points = list(sampling_points)
    if any(p > len(reads) for p in points):
        raise ValueError(
            f"sampling point exceeds available reads ({max(points)} > {len(reads)})"
        )
    names = list(variants)
    successes = {n: [0] * len(points) for n in names}
    rounds_acc = {n: [0.0] * len(points) for n in names}
    removed_acc = {n: [0.0] * len(points) for n in names}
    wall_acc = {n: [0.0] * len(points) for n in names}
    retained = [0.0] * len(points)

    on_by_params = {
        p: n for n, p in variants.items() if p.decoder == "soft" and p.redecoding_enabled
    }
    derived_from: dict[str, str] = {}
    for n, p in variants.items():
        if p.decoder == "soft" and not p.redecoding_enabled:
            twin = on_by_params.get(dataclasses.replace(p, redecoding_enabled=True))
            if twin is not None:
                derived_from[n] = twin
    run_order = [n for n in names if n not in derived_from] + list(derived_from)

    for pi, point in enumerate(points):
        for t in range(trials):
            rng = np.random.default_rng(np.random.SeedSequence([rng_seed, pi, t]))
            idx = rng.choice(len(reads), size=point, replace=False)
            subset = [reads[i] for i in idx]
            clusters, disc = cluster_by_seed(subset, seed_table)
            retained[pi] += disc.n_retained / trials
            reports: dict[str, DecodeReport] = {}
            for name in run_order:
                params = variants[name]
                t0 = time.perf_counter()
                if name in derived_from:
                    rep = _no_redecode_outcome(reports[derived_from[name]])
                elif params.decoder == "hard":
                    rep = hard_decode_baseline(clusters, seed_table, params, expected_payload)
                else:
                    rep = iterative_soft_decode(
                        clusters, seed_table, table, params, expected_payload
                    )
                wall_acc[name][pi] += time.perf_counter() - t0
                reports[name] = rep
                if rep.success:
                    successes[name][pi] += 1
                rounds_acc[name][pi] += rep.iterations_performed / trials
                removed_acc[name][pi] += sum(rep.clusters_discarded_per_round) / trials

    return SweepReport(
        sampling_points=points,
        trials=trials,
        variants=names,
        successes=successes,
        mean_rounds={n: [round(v, 4) for v in rounds_acc[n]] for n in names},
        mean_clusters_removed={n: [round(v, 4) for v in removed_acc[n]] for n in names},
        wall_seconds={n: [round(v, 3) for v in wall_acc[n]] for n in names},
        retained_reads_mean=[round(v, 2) for v in retained],
    )
