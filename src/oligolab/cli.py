"""Command-line surface: encode | simulate | stats | decode | experiment.

Exit codes: 0 success, 1 decode failure, 2 usage/config error, 3 I/O error
or malformed FASTQ, 4 internal error (an unexpected exception, with its
traceback on stderr).
Every report JSON embeds the effective config so runs are reproducible
from their outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .channel_stats import PoolIndex, TransitionTable, estimate_transitions, quality_products
from .channel_sim import MAX_READS, simulate_pool
from .clustering_llr import cluster_by_seed
from .config import (
    ConfigError,
    channel_from,
    load_config,
    pipeline_params_from,
    soliton_from,
    user_input,
)
from .dna_codec import (
    BASES,
    OLIGO_NT,
    assemble_oligo_array,
    indices_to_sequences,
    read_fasta,
    write_fasta,
)
from .fastq_io import FastqFormatError, parse_fastq
from .fountain import SeedSchedule, lt_encode, required_symbols
from .pipeline import experiment_sweep, hard_decode_baseline, iterative_soft_decode

EXIT_OK = 0
EXIT_DECODE_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4

PACKET_BYTES = 32


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@user_input("report config")
def _omit_timing(cfg: dict, args) -> bool:
    return bool(getattr(args, "omit_timing", False) or cfg["report"]["omit_timing"])


def cmd_encode(args, cfg: dict) -> int:
    params = soliton_from(cfg)
    coded_count = int(cfg["code"]["coded_count"])
    capacity = params.k * PACKET_BYTES
    data = Path(args.input).read_bytes()
    if len(data) > capacity:
        raise ConfigError(
            f"input is {len(data)} bytes but the code carries at most "
            f"{capacity} bytes at k={params.k}"
        )
    pad = capacity - len(data)
    payload = data + bytes(pad)
    source_bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8)).reshape(
        params.k, 8 * PACKET_BYTES
    )

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    schedule = SeedSchedule.first_n(coded_count)
    coded = lt_encode(source_bits, schedule, params)
    sequences = indices_to_sequences(assemble_oligo_array(schedule.seeds, coded))
    write_fasta(sequences, outdir / "pool.fasta", args.with_primers)
    schedule.save(outdir / "seeds.txt")
    _write_json(
        outdir / "manifest.json",
        {
            "k": params.k,
            "coded_count": coded_count,
            "input_bytes": len(data),
            "pad_bytes": pad,
            "payload_sha256": _sha256(payload),
            "required_symbols": required_symbols(params),
            "config": cfg,
        },
    )
    print(f"encoded {len(data)} bytes into {coded_count} oligos -> {outdir}")
    return EXIT_OK


def _read_pool(path: str) -> list[str]:
    """The oligo sequences of a pool FASTA; a bad or empty pool is a config error."""
    with user_input(f"pool {path}"):
        sequences = read_fasta(path)
    if not sequences:
        raise ConfigError(f"pool {path}: no oligos")
    return sequences


def cmd_simulate(args, cfg: dict) -> int:
    seqs = _read_pool(args.pool)
    channel = channel_from(cfg)
    with user_input("experiment config"):
        total = args.reads if args.reads is not None else int(cfg["experiment"]["total_reads"])
    if not 1 <= total <= MAX_READS:
        raise ConfigError(f"the read count must be in 1..{MAX_READS}, got {total}")
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    sim = simulate_pool(seqs, total, channel, outdir / "reads.fastq", outdir / "truth.tsv")
    report = {
        "n_reads": sim.n_reads,
        "n_correct_length": sim.n_correct_length,
        "n_substitutions": sim.n_substitutions,
        "n_insertions": sim.n_insertions,
        "n_deletions": sim.n_deletions,
        "measured_sub_rate": sim.measured_sub_rate,
        "measured_indel_rate": sim.measured_indel_rate,
        "config": cfg,
    }
    _write_json(outdir / "sim_report.json", report)
    print(
        f"simulated {sim.n_reads} reads ({sim.n_correct_length} correct-length) -> {outdir}"
    )
    return EXIT_OK


def cmd_stats(args, cfg: dict) -> int:
    pool = PoolIndex(_read_pool(args.pool))
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "quality_vs_errors.tsv", "w") as fh:
        fh.write("read_id\tquality_product\tposition_errors\n")

        def scatter_rows(pairs):
            products = quality_products([rec for rec, _ in pairs]).tolist()
            fh.writelines(
                f"{rec.id}\t{product:.6g}\t{errors}\n"
                for (rec, errors), product in zip(pairs, products)
            )

        table = estimate_transitions(parse_fastq(args.fastq), pool, on_conditioned=scatter_rows)
    table.save_tsv(outdir / "transition.tsv")

    with open(outdir / "transition_curves.tsv", "w") as fh:
        pairs = [(x, y) for y in range(4) for x in range(4) if x != y]
        header = "\t".join(f"{BASES[x]}to{BASES[y]}" for x, y in pairs)
        fh.write(f"position\t{header}\n")
        for i in range(OLIGO_NT):
            vals = "\t".join(f"{table.probs[i, y, x]:.6g}" for x, y in pairs)
            fh.write(f"{i + 1}\t{vals}\n")

    report = {
        "estimator": table.meta,
        "fallback_positions": int(table.fallback.sum()),
        "row_sums_ok": bool(
            np.allclose(table.row_sums()[~table.fallback], 1.0, atol=1e-9)
        ),
        # one scatter row per conditioned read
        "scatter_rows": table.meta["reads_conditioned"],
        "config": cfg,
    }
    _write_json(outdir / "stats_report.json", report)
    print(f"transition table and diagnostics -> {outdir}")
    return EXIT_OK


def cmd_decode(args, cfg: dict) -> int:
    ours = soliton_from(cfg)
    with user_input(f"manifest {args.manifest}"):
        manifest = json.loads(Path(args.manifest).read_text())
        theirs = dataclasses.asdict(soliton_from(manifest["config"]))
        differ = [f"{key} (config {value}, manifest {theirs[key]})"
                  for key, value in dataclasses.asdict(ours).items() if value != theirs[key]]
        if differ:
            raise ConfigError(f"code parameters differ from the manifest: {', '.join(differ)}")
        payload_sha256 = manifest["payload_sha256"]
        k, input_bytes, pad_bytes = (int(manifest[n]) for n in ("k", "input_bytes", "pad_bytes"))
        if k != ours.k:
            raise ValueError(f"k is {k} but the code's k is {ours.k}")
        if min(input_bytes, pad_bytes) < 0 or input_bytes + pad_bytes != k * PACKET_BYTES:
            raise ValueError(
                f"input_bytes {input_bytes} and pad_bytes {pad_bytes} must be >= 0 "
                f"and sum to k x {PACKET_BYTES} = {k * PACKET_BYTES}"
            )
    with user_input(f"seed table {args.seeds}"):
        schedule = SeedSchedule.load(args.seeds)
        if not schedule.seeds:
            raise ValueError("no seeds")
    with user_input(f"transition table {args.transition}"):
        table = (
            TransitionTable.load_tsv(args.transition)
            if args.transition
            else TransitionTable.uniform()
        )
    params = pipeline_params_from(cfg)
    omit_timing = _omit_timing(cfg, args)
    clusters, discard = cluster_by_seed(args.fastq, schedule, qscores=params.reads_qscores)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    if params.decoder == "hard":
        # hand the decode the only reference, so that it drops the reads once
        # it has voted (CPython 3.11+ moves call arguments into the callee)
        handed, clusters = [clusters], None
        report = hard_decode_baseline(handed.pop(), schedule, params)
    else:
        report = iterative_soft_decode(clusters, schedule, table, params)

    checksum_ok = None
    if report.success:
        payload = np.packbits(report.recovered_payload.reshape(-1)).tobytes()
        checksum_ok = _sha256(payload) == payload_sha256
        if checksum_ok:
            (outdir / "recovered.bin").write_bytes(payload[:input_bytes])
        else:
            report.success = False
            report.reason = "payload_checksum_mismatch"

    payload_doc = report.to_dict(omit_timing=omit_timing)
    payload_doc.update(
        {
            "retained_reads": discard.n_retained,
            "discards": {
                "wrong_length": discard.n_wrong_length,
                "with_n": discard.n_with_n,
                "seed_mismatch": discard.n_seed_mismatch,
            },
            "checksum_ok": checksum_ok,
            "config": cfg,
        }
    )
    _write_json(outdir / "decode_report.json", payload_doc)
    if report.success:
        print(f"decode success in {report.iterations_performed} round(s) -> {outdir}")
        return EXIT_OK
    print(f"decode failure: {report.reason}", file=sys.stderr)
    return EXIT_DECODE_FAIL


def cmd_experiment(args, cfg: dict) -> int:
    params = soliton_from(cfg)
    coded_count = int(cfg["code"]["coded_count"])
    with user_input("experiment config"):
        exp = cfg["experiment"]
        total_reads, trials = int(exp["total_reads"]), int(exp["trials"])
        points = [int(p) for p in exp["sampling_points"]]
        rng_seed = int(exp["rng_seed"])
    if (
        not 1 <= total_reads <= MAX_READS
        or trials < 1
        or any(not 0 <= p <= total_reads for p in points)
    ):
        raise ConfigError(
            f"experiment needs total_reads in 1..{MAX_READS}, trials >= 1 and sampling points in "
            f"0..total_reads, got total_reads={total_reads}, trials={trials}, "
            f"sampling_points={points}"
        )
    variants = {
        "proposed+redecode": pipeline_params_from(cfg, "proposed", True),
        "proposed-noredecode": pipeline_params_from(cfg, "proposed", False),
        "chandak+redecode": pipeline_params_from(cfg, "chandak", True),
        "chandak-noredecode": pipeline_params_from(cfg, "chandak", False),
        "hard": pipeline_params_from(cfg, decoder="hard"),
    }
    omit_timing = _omit_timing(cfg, args)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    payload_rng = np.random.default_rng(np.random.SeedSequence([rng_seed, 2**20]))
    source_bits = payload_rng.integers(0, 2, size=(params.k, 256), dtype=np.uint8)
    schedule = SeedSchedule.first_n(coded_count)
    coded = lt_encode(source_bits, schedule, params)
    seqs = indices_to_sequences(assemble_oligo_array(schedule.seeds, coded))

    channel = channel_from(cfg)
    sim = simulate_pool(seqs, total_reads, channel, outdir / "reads.fastq", outdir / "truth.tsv")
    reads = list(parse_fastq(outdir / "reads.fastq"))
    pool = PoolIndex(seqs)
    table = estimate_transitions(reads, pool)
    table.save_tsv(outdir / "transition.tsv")
    sweep = experiment_sweep(
        reads,
        schedule,
        table,
        points,
        trials,
        variants,
        rng_seed=rng_seed,
        expected_payload=source_bits,
    )
    doc = sweep.to_dict(omit_timing=omit_timing)
    doc["simulated_reads"] = sim.n_reads
    doc["config"] = cfg
    _write_json(outdir / "experiment_report.json", doc)
    with open(outdir / "plot_data.tsv", "w") as fh:
        fh.write("sampling_point\tvariant\tsuccesses\ttrials\n")
        for point, name, succ, trials in sweep.plot_rows():
            fh.write(f"{point}\t{name}\t{succ}\t{trials}\n")
    print(f"sweep complete -> {outdir}")
    for name in sweep.variants:
        print(f"  {name}: {sweep.successes[name]}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oligolab",
        description="DNA-storage coding lab: encode, simulate, analyze, decode, benchmark",
    )
    parser.add_argument("--version", action="version", version=f"oligolab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--profile", choices=["desk-scale", "paper-scale"], default=None)
        p.add_argument("--config", default=None, help="YAML/JSON config file")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY.PATH=VALUE",
            help="override a config entry (repeatable)",
        )
        p.add_argument("--omit-timing", action="store_true",
                       help="drop wall-clock fields from reports (byte-stable output)")
        p.add_argument("--outdir", required=True)

    p = sub.add_parser("encode", help="encode a file into an oligo pool")
    common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--with-primers", action="store_true",
                   help="flank FASTA records with the pool primers")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("simulate", help="run the sequencing-channel simulator")
    common(p)
    p.add_argument("--pool", required=True, help="pool FASTA from encode")
    p.add_argument("--reads", type=int, default=None, help="total reads to draw")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("stats", help="estimate channel statistics from reads")
    common(p)
    p.add_argument("--fastq", required=True)
    p.add_argument("--pool", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("decode", help="cluster reads and run the iterative soft decoder")
    common(p)
    p.add_argument("--fastq", required=True)
    p.add_argument("--seeds", required=True, help="seed table from encode")
    p.add_argument("--manifest", required=True, help="manifest.json from encode")
    p.add_argument("--transition", default=None,
                   help="transition table TSV (defaults to the uniform table)")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("experiment", help="end-to-end random-sampling sweep")
    common(p)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.profile, args.config, args.overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args, cfg)
    except FastqFormatError as exc:
        print(f"fastq error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        # a fault in oligolab itself, not in the user's input
        traceback.print_exc()
        print("internal error: the traceback above shows where", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
