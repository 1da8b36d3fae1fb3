"""Iterative soft decoding with RS-driven redecoding, plus baselines.

The soft path follows the decode loop: BP over all 256 bit-planes, then RS
decoding of every reassembled oligo (table seed + BP payload decision +
cluster parity decision). A round is accepted only if every RS decode is
clean or corrected away from the seed symbols; otherwise the offending
clusters are dropped, the matrix is rebuilt, and BP reruns with the
surviving clusters' original LLRs, up to the redecoding limit. On success
the information bits are recovered from the RS-corrected coded bits by
erasure solving (peeling with inactivation, then Gauss-Jordan elimination
over the inactivated symbols only), which is also the engine behind the
majority-vote hard-decoding baseline.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from . import fountain, gf_rs
from .bp_decoder import bp_decode, build_h
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


def _plane_words(planes: int) -> int:
    return -(-planes // 64)


def _ints_to_words(values: Sequence[int], n_words: int) -> np.ndarray:
    """Python ints (bit p = plane p) -> (len, n_words) little-endian uint64 rows."""
    raw = b"".join(v.to_bytes(8 * n_words, "little") for v in values)
    return np.frombuffer(raw, dtype=_WORD).reshape(len(values), n_words)


def _words_to_bits(words: np.ndarray, planes: int) -> np.ndarray:
    """(n, n_words) uint64 rows -> (n, planes) uint8 bits."""
    as_bytes = np.ascontiguousarray(words, dtype=_WORD).view(np.uint8)
    return np.unpackbits(as_bytes, axis=1, count=planes, bitorder="little")


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
    indices[indptr[r]:indptr[r + 1]].

    Returns (info (k, P) uint8, resolved (k,) bool, consistent (P,) bool).
    Inactivation decoding (Shokrollahi, "Raptor codes", 2006; RFC 6330
    §5.4) over rows held as Python integers. A row keeps its count of
    unknowns, the XOR of their ids (a degree-1 row's is its last unknown)
    and its value: bits 0..P-1 are the planes, bit P + j is inactive
    symbol j. Peeling resolves degree-1 rows and substitutes, one XOR per
    edge. When it stalls, the unresolved variable with the most rows is
    inactivated, that is set to a new symbol, and peeling carries on. A row
    left with no unknowns is an equation over the symbols; Gauss-Jordan
    elimination on those equations flags the planes of any that reduces to
    0 = nonzero as inconsistent. A variable is resolved when its value
    reduces to planes alone against the eliminated equations.
    """
    coded = np.asarray(coded_bits, dtype=np.uint8)
    if coded.ndim == 1:
        coded = coded[:, None]
    n_rows, planes = coded.shape
    indptr, indices = rows
    if n_rows != len(indptr) - 1:
        raise ValueError("coded_bits rows do not match neighbor rows")
    row_bytes = np.packbits(coded, axis=1, bitorder="little")
    raw, width = row_bytes.tobytes(), row_bytes.shape[1]
    row_val = [int.from_bytes(raw[i : i + width], "little") for i in range(0, len(raw), width)]
    coded_val = row_val.copy()

    # the (variable, row) edges, a repeated neighbor once, grouped by variable
    var = np.asarray(indices, dtype=np.int64)
    row = np.repeat(np.arange(n_rows), np.diff(indptr))
    order = np.lexsort((row, var))
    var, row = var[order], row[order]
    new_edge = np.ones(len(var), dtype=bool)
    new_edge[1:] = (var[1:] != var[:-1]) | (row[1:] != row[:-1])
    var, row = var[new_edge], row[new_edge]
    unknowns_left = np.bincount(row, minlength=n_rows).tolist()
    id_xor = np.zeros(n_rows, dtype=np.int64)
    np.bitwise_xor.at(id_xor, row, var)
    id_xor = id_xor.tolist()
    firsts = np.flatnonzero(np.r_[True, var[1:] != var[:-1]]).tolist()
    row_list = row.tolist()
    var_rows = {
        v: row_list[a:b]
        for v, a, b in zip(var[firsts].tolist(), firsts, [*firsts[1:], len(row_list)])
    }

    # a row with no neighbors reads 0 = its coded value
    equations = [row_val[r] for r, n in enumerate(unknowns_left) if n == 0]
    elim_vars: list[int] = []  # in the order peeled or inactivated
    elim_rows: list[int] = []  # the row each was peeled from, -1 if inactivated
    elim_vals: list[int] = []
    eliminated = bytearray(k)
    candidates = None
    symbols = 0
    queue = [r for r, n in enumerate(unknowns_left) if n == 1]
    while True:
        if queue:
            r = queue.pop()
            if unknowns_left[r] != 1:
                continue
            v = id_xor[r]
            value = row_val[r]
        else:
            if candidates is None:  # most rows first, from the first stall on
                candidates = iter(sorted(var_rows, key=lambda u: len(var_rows[u]), reverse=True))
            v = next((u for u in candidates if not eliminated[u]), None)
            if v is None:
                break
            r = -1
            value = 1 << (planes + symbols)
            symbols += 1
        eliminated[v] = 1
        elim_vars.append(v)
        elim_rows.append(r)
        elim_vals.append(value)
        for r2 in var_rows[v]:
            unknowns_left[r2] -= 1
            id_xor[r2] ^= v
            row_val[r2] ^= value
            if unknowns_left[r2] == 1:
                queue.append(r2)
            elif unknowns_left[r2] == 0 and row_val[r2]:  # 0 = 0 says nothing
                equations.append(row_val[r2])

    # Gauss-Jordan on the equations: each basis row is keyed by its pivot,
    # its top symbol bit when it joined, and no other row holds that bit
    contradicted = 0  # bit p set: plane p reduced some row to 0 = 1
    basis: dict[int, int] = {}
    for e in equations:
        for p, b in basis.items():
            if e >> p & 1:
                e ^= b
        if e >> planes == 0:
            contradicted |= e
            continue
        top = e.bit_length() - 1
        for p, b in basis.items():
            if b >> top & 1:
                basis[p] = b ^ e
        basis[top] = e

    if symbols:
        # back-substitute: replay the peel with each symbol's reduced value
        # (its constant planes, plus any symbols the equations leave free)
        symbol_vals = iter([basis.get(p, 0) ^ (1 << p) for p in range(planes, planes + symbols)])
        row_val = coded_val
        elim_vals = []
        for v, r in zip(elim_vars, elim_rows):
            value = row_val[r] if r >= 0 else next(symbol_vals)
            elim_vals.append(value)
            for r2 in var_rows[v]:
                row_val[r2] ^= value

    # a value left with a free symbol does not fix its variable
    fixed_vars = [v for v, value in zip(elim_vars, elim_vals) if value >> planes == 0]
    fixed_vals = [value for value in elim_vals if value >> planes == 0]
    n_words = _plane_words(planes)
    info_words = np.zeros((k, n_words), dtype=_WORD)
    resolved = np.zeros(k, dtype=bool)
    info_words[fixed_vars] = _ints_to_words(fixed_vals, n_words)
    resolved[fixed_vars] = True
    info = _words_to_bits(info_words, planes)
    consistent = _words_to_bits(_ints_to_words([contradicted], n_words), planes)[0] == 0
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
    """Majority vote -> RS decode -> discard failures -> LT erasure recovery."""
    t_start = time.perf_counter()
    report = DecodeReport(success=False, reason="", iterations_performed=1)
    votes = majority_vote(clusters)  # (n, 152) base indices, in seed order
    coded = base_indices_to_bit_array(votes[:, PAYLOAD_SLICE])
    keep = ~_rs_check(votes, coded)[0]  # seed-corrected words are kept
    report.clusters_discarded_per_round = [int((~keep).sum())]
    report.active_clusters = int(keep.sum())
    if keep.any():
        rows = fountain.seed_expand(clusters.seeds[keep], params.soliton)
        _solve_tail(report, rows, coded[keep], params.soliton.k, expected_payload)
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
