"""The benchmark's workloads: set-up, measured rounds and output checks.

Every run repeats whole rounds of the same operations until its time is
used (at least one round), so the failed share is the same in every run.
An operation is one CLI command or one decode that a sweep runs; it fails
when it does not return the source payload.

Untraced runs drive the CLI as a user does, one ``python -m oligolab.cli``
process per command, and report end-to-end metrics. Traced runs call the
same CLI entry point in-process under the tracer and report per-layer
metrics.
"""

from __future__ import annotations

import contextlib
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import tracing

from oligolab import channel_sim, channel_stats, cli, clustering_llr, fastq_io, fountain, pipeline
from oligolab.config import channel_from, load_config, pipeline_params_from, soliton_from
from oligolab.dna_codec import assemble_oligo

# Tiny codes for the smoke mode; the same overrides the CLI tests use.
TINY = {
    "code.k": 60,
    "code.coded_count": 100,
    "code.soliton_c": 0.05,
    "code.soliton_delta": 0.1,
}

# Sweep variants as `oligolab experiment` builds them. The two no-redecode
# variants are derived by experiment_sweep from their twins' first round,
# so they run no decode of their own and are not counted as operations.
TWINS = {"proposed-noredecode": "proposed+redecode", "chandak-noredecode": "chandak+redecode"}
RUN_VARIANTS = ["proposed+redecode", "chandak+redecode", "hard"]


def _profile(name: str, overrides: dict) -> tuple[list[str], dict]:
    """CLI flags and the effective config of a profile with `--set` overrides."""
    sets = [f"{key}={value}" for key, value in overrides.items()]
    flags = ["--profile", name] + [arg for spec in sets for arg in ("--set", spec)]
    return flags, load_config(name, overrides=sets)


def _source_bits(k: int, rng_seed: int) -> np.ndarray:
    """The payload `oligolab experiment` draws for experiment.rng_seed."""
    rng = np.random.default_rng(np.random.SeedSequence([rng_seed, 2**20]))
    return rng.integers(0, 2, size=(k, 256), dtype=np.uint8)


@dataclass
class Round:
    attempted: int = 0
    failed: int = 0
    values: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    expected_retained: int | None = None


class CliRunner:
    """Runs oligolab CLI commands: in subprocesses, or in-process when traced."""

    def __init__(self, root: Path, workdir: Path, in_process: bool):
        self.in_process = in_process
        self.stderr_path = workdir / "cli.stderr"
        path = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}

    def __call__(self, argv: list) -> tuple[int, float, float]:
        """Exit code, wall seconds and peak RSS in MB (0 in-process)."""
        argv = [str(a) for a in argv]
        if self.in_process:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sys.stderr):
                code = cli.main(argv)
            return code, time.perf_counter() - t0, 0.0
        with open(self.stderr_path, "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "oligolab.cli", *argv],
                stdout=subprocess.DEVNULL,
                stderr=err,
                env=self.env,
            )
            # wait4 gives this child's own peak RSS; Popen.wait would not
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0:
            sys.stderr.write(f"oligolab {argv[0]} exited {code}: {self.stderr_path.read_text()}")
        return code, wall, usage.ru_maxrss / 1024.0


class CliChain:
    """encode -> simulate -> stats -> decode (soft) -> decode (hard), at desk scale.

    The input file is the desk-scale profile's experiment payload, not drawn
    from --seed: the `stats` alignment cost depends on the pool, and per-seed
    pools moved the chain's time by as much as the regression bound.
    """

    def __init__(self, seed: int, smoke: bool, workdir: Path, run_cli: CliRunner):
        self.workdir, self.run_cli = workdir, run_cli
        self.reads = 1300 if smoke else 24000
        self.flags, self.cfg = _profile("desk-scale", TINY if smoke else {})
        self.rounds = 0

    def setup(self) -> None:
        source = _source_bits(soliton_from(self.cfg).k, int(self.cfg["experiment"]["rng_seed"]))
        self.data = np.packbits(source.reshape(-1)).tobytes()
        self.input = self.workdir / "input.bin"
        self.input.write_bytes(self.data)

    def round(self) -> Round:
        self.rounds += 1
        d = self.workdir / f"round{self.rounds}"
        enc, sim, stats = d / "enc", d / "sim", d / "stats"
        dec = {"decode_soft": d / "dec-soft", "decode_hard": d / "dec-hard"}
        decode = ["decode", "--fastq", sim / "reads.fastq", "--seeds", enc / "seeds.txt",
                  "--manifest", enc / "manifest.json", "--transition", stats / "transition.tsv"]
        commands = [
            ("encode", ["encode", "--input", self.input, "--outdir", enc]),
            ("simulate", ["simulate", "--pool", enc / "pool.fasta", "--reads", self.reads,
                          "--outdir", sim]),
            ("stats", ["stats", "--fastq", sim / "reads.fastq", "--pool", enc / "pool.fasta",
                       "--outdir", stats]),
            ("decode_soft", decode + ["--outdir", dec["decode_soft"]]),
            ("decode_hard", decode + ["--outdir", dec["decode_hard"],
                                      "--set", "decode.decoder=hard"]),
        ]
        r = Round(attempted=len(commands))
        walls, codes, rss = {}, {}, []
        for name, argv in commands:
            if r.failed:  # every later command needs the earlier outputs
                r.failed += 1
                continue
            codes[name], walls[name], mb = self.run_cli(argv + self.flags)
            rss.append(mb)
            r.failed += codes[name] != 0
        if r.failed == 0:
            r.values = {"round_s": sum(walls.values()), "peak_rss_mb": max(rss)}
        if codes.get("simulate") == 0:
            r.problems += checks.check_record_count(sim / "reads.fastq", self.reads)
        if codes.get("stats") == 0:
            r.problems += checks.check_transition_tsv(stats / "transition.tsv")
        for name, outdir in dec.items():
            if name in codes:
                r.problems += checks.check_decode_output(codes[name], outdir, self.data)
        if "decode_hard" in codes:
            pool = checks.fasta_sequences(enc / "pool.fasta")
            own = checks.retained_count(checks.fastq_sequences(sim / "reads.fastq"), pool)
            r.expected_retained = 2 * own
        shutil.rmtree(d)
        return r

    def final_checks(self) -> Round:
        return Round()


class DeskSweep:
    """experiment_sweep with the five `oligolab experiment` variants, no file I/O."""

    def __init__(self, seed: int, smoke: bool, workdir: Path, run_cli: CliRunner):
        self.seed, self.workdir = seed, workdir
        _, self.cfg = _profile(
            "desk-scale", {**TINY, "experiment.total_reads": 1600} if smoke else {}
        )
        # three of the profile's sampling points, one trial each, so that a
        # run (nine decodes plus nine check decodes) stays near half a minute
        self.points = [260, 420] if smoke else [6600, 7800, 9600]
        self.trials = 1

    def setup(self) -> None:
        cfg = self.cfg
        params = soliton_from(cfg)
        exp = cfg["experiment"]
        self.rng_seed = int(exp["rng_seed"])
        self.source = _source_bits(params.k, self.rng_seed)
        self.schedule = fountain.SeedSchedule.first_n(int(cfg["code"]["coded_count"]))
        coded = fountain.lt_encode(self.source, self.schedule, params)
        seqs = [assemble_oligo(s, coded[r]).sequence for r, s in enumerate(self.schedule.seeds)]
        self.pool = seqs
        fastq = self.workdir / "reads.fastq"
        channel_sim.simulate_pool(seqs, int(exp["total_reads"]), channel_from(cfg), fastq)
        self.reads = list(fastq_io.parse_fastq(fastq))
        self.table = channel_stats.estimate_transitions(self.reads, channel_stats.PoolIndex(seqs))
        self.variants = {
            "proposed+redecode": pipeline_params_from(cfg, "proposed", True),
            "proposed-noredecode": pipeline_params_from(cfg, "proposed", False),
            "chandak+redecode": pipeline_params_from(cfg, "chandak", True),
            "chandak-noredecode": pipeline_params_from(cfg, "chandak", False),
            "hard": pipeline_params_from(cfg, decoder="hard"),
        }

    def round(self) -> Round:
        t0 = time.perf_counter()
        rep = pipeline.experiment_sweep(
            self.reads, self.schedule, self.table, self.points, self.trials,
            self.variants, rng_seed=self.rng_seed, expected_payload=self.source,
        )
        wall = time.perf_counter() - t0
        r = Round(attempted=len(RUN_VARIANTS) * len(self.points) * self.trials)
        r.failed = sum(self.trials - s for n in RUN_VARIANTS for s in rep.successes[n])
        r.values = {
            "round_s": wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        r.problems += checks.check_twins(rep.successes, TWINS)
        return r

    def final_checks(self) -> Round:
        """Decode one subset of the benchmark's own per point with each decoder."""
        chk = Round(expected_retained=0)
        for point in self.points:
            rng = np.random.default_rng(np.random.SeedSequence([self.seed, 3, point]))
            subset = [self.reads[i] for i in rng.choice(len(self.reads), point, replace=False)]
            chk.expected_retained += checks.retained_count((r.bases for r in subset), self.pool)
            clusters, _ = clustering_llr.cluster_by_seed(subset, self.schedule)
            for name in RUN_VARIANTS:
                params = self.variants[name]
                if params.decoder == "hard":
                    rep = pipeline.hard_decode_baseline(clusters, self.schedule, params)
                else:
                    rep = pipeline.iterative_soft_decode(clusters, self.schedule, self.table, params)
                for p in checks.check_payload(rep.success, rep.recovered_payload, self.source):
                    chk.problems.append(f"{name} at {point} reads: {p}")
        return chk


class PaperDecode:
    """Hard `oligolab decode` of 120k reads at the paper-scale geometry (k=16050).

    The world is the paper-scale profile's own (payload and channel seeds
    from the profile), not drawn from --seed: the decode ends in the
    RS-miscorrection fault, and a kept failure must not depend on the seed.
    """

    def __init__(self, seed: int, smoke: bool, workdir: Path, run_cli: CliRunner):
        self.workdir, self.run_cli = workdir, run_cli
        self.flags, self.cfg = _profile(
            "paper-scale", {**TINY, "experiment.total_reads": 1300} if smoke else {}
        )
        self.rounds = 0

    def setup(self) -> None:
        cfg = self.cfg
        exp = cfg["experiment"]
        source = _source_bits(soliton_from(cfg).k, int(exp["rng_seed"]))
        self.data = np.packbits(source.reshape(-1)).tobytes()
        data_path = self.workdir / "data.bin"
        data_path.write_bytes(self.data)
        self.enc = self.workdir / "enc"
        argv = ["encode", "--input", data_path, "--outdir", self.enc] + self.flags
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main([str(a) for a in argv])
        if code != 0:
            raise RuntimeError(f"paper-scale encode exited {code}")
        pool = checks.fasta_sequences(self.enc / "pool.fasta")
        self.fastq = self.workdir / "reads.fastq"
        channel_sim.simulate_pool(pool, int(exp["total_reads"]), channel_from(cfg), self.fastq)
        self.own_retained = checks.retained_count(checks.fastq_sequences(self.fastq), pool)

    def round(self) -> Round:
        self.rounds += 1
        outdir = self.workdir / f"dec{self.rounds}"
        code, wall, mb = self.run_cli(
            ["decode", "--fastq", self.fastq, "--seeds", self.enc / "seeds.txt",
             "--manifest", self.enc / "manifest.json", "--outdir", outdir,
             "--set", "decode.decoder=hard"] + self.flags
        )
        r = Round(attempted=1, failed=int(code != 0), expected_retained=self.own_retained)
        r.problems += checks.check_decode_output(code, outdir, self.data)
        shutil.rmtree(outdir, ignore_errors=True)
        r.values = {"round_s": wall, "peak_rss_mb": mb}
        return r

    def final_checks(self) -> Round:
        return Round()


WORKLOADS = {"cli-chain": CliChain, "desk-sweep": DeskSweep, "paper-decode": PaperDecode}

END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("round_s", "s"),
]


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
        t_start: float, root: Path) -> dict:
    """Set up, measure whole rounds for `seconds`, check, and build the result."""
    workdir = root / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tracer = tracing.Tracer() if trace else None
    problems: list[str] = []
    try:
        if tracer:
            tracer.install()
            for missing in tracer.absent:
                print(f"trace: {missing} is absent, not traced", file=sys.stderr)
        wl = WORKLOADS[name](seed, smoke, workdir, CliRunner(root, workdir, in_process=trace))
        wl.setup()
        setup_s = time.perf_counter() - t_start
        segments = []
        if tracer:
            spans, counts = tracer.take()
            segments.append(("setup", spans))
            setup_agg = tracing.aggregate(spans, counts)
        rounds: list[Round] = []
        layer_rounds: list[dict] = []
        t0 = time.perf_counter()
        while True:
            rnd = wl.round()
            rounds.append(rnd)
            if tracer:
                spans, counts = tracer.take()
                segments.append((f"round{len(rounds)}", spans))
                layer_rounds.append(tracing.layer_metrics(
                    tracing.merge(setup_agg, tracing.aggregate(spans, counts))
                ))
                rnd.problems += tracing.consistency(spans, rnd.expected_retained)
            problems += rnd.problems
            if time.perf_counter() - t0 >= seconds:
                break
        chk = wl.final_checks()
        problems += chk.problems
        if tracer:
            spans, _ = tracer.take()
            segments.append(("checks", spans))
            problems += tracing.consistency(spans, chk.expected_retained)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    if tracer:
        trace_path = root / ".bench_work" / "traces" / f"{name}-seed{seed}.jsonl.gz"
        tracing.write_spans(trace_path, segments, tracer.absent)
        metrics = {
            key: {"value": statistics.median(lr[key] for lr in layer_rounds), "unit": unit}
            for key, unit in tracing.LAYER_METRICS
        }
    else:
        measured = [r.values for r in rounds if r.values]
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
        for key, unit in END_TO_END[1:]:
            vals = [v[key] for v in measured]
            metrics[key] = {"value": statistics.median(vals) if vals else 0.0, "unit": unit}
    print(
        f"{name}: {len(rounds)} round(s), round walls "
        f"{[round(r.values.get('round_s', 0.0), 3) for r in rounds]}",
        file=sys.stderr,
    )
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
