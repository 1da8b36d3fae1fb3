import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

import oligolab
from align_reference import levenshtein
from oligolab.channel_stats import PoolIndex, TransitionTable, quality_products
from oligolab import cli, pipeline
from oligolab.cli import EXIT_DECODE_FAIL, EXIT_INTERNAL, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from oligolab.config import ConfigError, PROFILES, load_config, pipeline_params_from, soliton_from
from oligolab.dna_codec import read_fasta
from oligolab.fastq_io import parse_fastq

TINY = [
    "--set", "code.k=60",
    "--set", "code.coded_count=100",
    "--set", "code.soliton_c=0.05",
    "--set", "code.soliton_delta=0.1",
]


def run(argv):
    return main([str(a) for a in argv])


# ------------------------- config -------------------------

def test_profiles_resolve():
    for name in PROFILES:
        cfg = load_config(profile=name)
        assert cfg["profile"] == name
        soliton_from(cfg)  # must construct cleanly


@pytest.mark.parametrize("name", sorted(PROFILES))
def test_yaml_profile_matches_builtin(name):
    path = Path(__file__).resolve().parents[1] / "configs" / f"{name}.yaml"
    with open(path) as fh:
        assert yaml.safe_load(fh) == PROFILES[name]


def test_override_parsing_and_merge(tmp_path):
    cfg = load_config("desk-scale", overrides=["code.k=77", "channel.qmodel.q_spread=5.5"])
    assert cfg["code"]["k"] == 77
    assert cfg["channel"]["qmodel"]["q_spread"] == 5.5
    assert cfg["channel"]["qmodel"]["q_error_mean"] == 15.0  # untouched sibling


def test_config_file_merges_over_profile(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("profile: desk-scale\ncode:\n  k: 123\n")
    cfg = load_config(path=path)
    assert cfg["code"]["k"] == 123
    assert cfg["code"]["coded_count"] == 1122  # inherited


def test_config_file_without_a_profile_merges_over_desk_scale(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("decode: {n_re: 5}\n")
    cfg = load_config(None, path)
    assert cfg == load_config("desk-scale", path)
    assert cfg["decode"]["n_re"] == 5 and cfg["code"]["k"] == 1000
    assert run(["encode", "--input", path, "--outdir", tmp_path / "enc",
                "--config", path]) == EXIT_OK


def test_bad_override_rejected():
    with pytest.raises(ConfigError):
        load_config("desk-scale", overrides=["nonsense"])


def test_unknown_profile_rejected():
    with pytest.raises(ConfigError):
        load_config("galactic-scale")


def test_config_file_naming_an_unknown_profile_rejected(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("profile: no-such\n")
    with pytest.raises(ConfigError, match="unknown profile"):
        load_config(path=path)


def test_config_file_profile_must_agree_with_the_flag(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text("profile: desk-scale\n")
    assert load_config("desk-scale", path)["code"]["k"] == 1000
    with pytest.raises(ConfigError, match="names profile 'desk-scale'"):
        load_config("paper-scale", path)
    assert run(["encode", "--input", path, "--outdir", tmp_path / "enc",
                "--profile", "paper-scale", "--config", path]) == EXIT_USAGE
    assert not (tmp_path / "enc").exists()


def test_chandak_crossover_derived_from_channel():
    cfg = load_config("desk-scale")
    params = pipeline_params_from(cfg, llr_mode="chandak")
    assert params.crossover_p == pytest.approx(8.352e-4 * 2 / 3)


# ------------------------- encode -------------------------

@pytest.fixture()
def encoded(tmp_path):
    src = tmp_path / "input.bin"
    src.write_bytes(np.random.default_rng(1).integers(0, 256, 1500, dtype=np.uint8).tobytes())
    outdir = tmp_path / "enc"
    code = run(["encode", "--input", src, "--outdir", outdir, "--profile", "desk-scale", *TINY])
    assert code == EXIT_OK
    return src, outdir


def test_encode_outputs(encoded):
    src, outdir = encoded
    assert (outdir / "pool.fasta").exists()
    seeds = (outdir / "seeds.txt").read_text().splitlines()
    assert len(seeds) == 100
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["k"] == 60
    assert manifest["pad_bytes"] == 60 * 32 - 1500
    fasta = (outdir / "pool.fasta").read_text().splitlines()
    assert fasta[0].startswith(">")
    assert len(fasta[1]) == 152


def test_encode_deterministic(tmp_path, encoded):
    src, outdir = encoded
    outdir2 = tmp_path / "enc2"
    assert run(["encode", "--input", src, "--outdir", outdir2,
                "--profile", "desk-scale", *TINY]) == EXIT_OK
    for name in ("pool.fasta", "seeds.txt", "manifest.json"):
        assert (outdir / name).read_bytes() == (outdir2 / name).read_bytes()


def test_encode_empty_file_pads_fully(tmp_path):
    src = tmp_path / "empty.bin"
    src.write_bytes(b"")
    outdir = tmp_path / "enc"
    assert run(["encode", "--input", src, "--outdir", outdir,
                "--profile", "desk-scale", *TINY]) == EXIT_OK
    assert (outdir / "seeds.txt").read_text().count("\n") == 100


def test_encode_oversized_input(tmp_path):
    src = tmp_path / "big.bin"
    src.write_bytes(bytes(60 * 32 + 1))
    assert run(["encode", "--input", src, "--outdir", tmp_path / "x",
                "--profile", "desk-scale", *TINY]) == EXIT_USAGE


def test_encode_degenerate_soliton_spike_is_a_config_error(tmp_path, capsys):
    # the desk profile's c = 0.01 at k = 60 puts the soliton spike at 70 > k + 1
    src = tmp_path / "input.bin"
    src.write_bytes(b"payload")
    assert run(["encode", "--input", src, "--outdir", tmp_path / "enc",
                "--profile", "desk-scale", "--set", "code.k=60"]) == EXIT_USAGE
    assert "spike=70" in capsys.readouterr().err


def test_encode_paper_scale_18000_oligos(tmp_path):
    src = tmp_path / "image.bin"
    src.write_bytes(bytes(513_600))  # 513.6 KB fills k=16050 packets exactly
    outdir = tmp_path / "paper"
    assert run(["encode", "--input", src, "--outdir", outdir,
                "--profile", "paper-scale"]) == EXIT_OK
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["pad_bytes"] == 0
    assert manifest["coded_count"] == 18000
    assert (outdir / "seeds.txt").read_text().count("\n") == 18000


# ------------------------- simulate / stats / decode -------------------------

@pytest.fixture()
def simulated(encoded, tmp_path):
    src, enc = encoded
    outdir = tmp_path / "sim"
    code = run(["simulate", "--pool", enc / "pool.fasta", "--outdir", outdir,
                "--reads", 1300, "--profile", "desk-scale",
                "--set", "channel.rng_seed=5"])
    assert code == EXIT_OK
    return src, enc, outdir


def test_simulate_outputs_and_determinism(simulated, tmp_path):
    src, enc, sim = simulated
    rep = json.loads((sim / "sim_report.json").read_text())
    assert rep["n_reads"] == 1300
    sim2 = tmp_path / "sim2"
    assert run(["simulate", "--pool", enc / "pool.fasta", "--outdir", sim2,
                "--reads", 1300, "--profile", "desk-scale",
                "--set", "channel.rng_seed=5"]) == EXIT_OK
    assert (sim / "reads.fastq").read_bytes() == (sim2 / "reads.fastq").read_bytes()
    assert (sim / "truth.tsv").read_bytes() == (sim2 / "truth.tsv").read_bytes()


def test_stats_outputs(simulated, tmp_path):
    src, enc, sim = simulated
    outdir = tmp_path / "stats"
    assert run(["stats", "--fastq", sim / "reads.fastq", "--pool", enc / "pool.fasta",
                "--outdir", outdir, "--profile", "desk-scale"]) == EXIT_OK
    rep = json.loads((outdir / "stats_report.json").read_text())
    assert rep["row_sums_ok"]
    curves = (outdir / "transition_curves.tsv").read_text().splitlines()
    # columns grouped by observed base, mirroring the per-base panels
    assert curves[0] == (
        "position\tCtoA\tGtoA\tTtoA\tAtoC\tGtoC\tTtoC\tAtoG\tCtoG\tTtoG\tAtoT\tCtoT\tGtoT"
    )
    assert len(curves) == 153


def test_stats_zero_error_gives_fallback_and_empty_scatter(encoded, tmp_path):
    src, enc = encoded
    sim = tmp_path / "sim0"
    assert run(["simulate", "--pool", enc / "pool.fasta", "--outdir", sim,
                "--reads", 400, "--profile", "desk-scale",
                "--set", "channel.sub_rate=0", "--set", "channel.ins_rate=0",
                "--set", "channel.del_rate=0"]) == EXIT_OK
    outdir = tmp_path / "stats0"
    assert run(["stats", "--fastq", sim / "reads.fastq", "--pool", enc / "pool.fasta",
                "--outdir", outdir, "--profile", "desk-scale"]) == EXIT_OK
    rep = json.loads((outdir / "stats_report.json").read_text())
    assert rep["fallback_positions"] == 152 * 4
    assert rep["scatter_rows"] == 0
    scatter = (outdir / "quality_vs_errors.tsv").read_text().splitlines()
    assert len(scatter) == 1  # header only


def test_decode_roundtrip(simulated, tmp_path):
    src, enc, sim = simulated
    stats = tmp_path / "statsd"
    run(["stats", "--fastq", sim / "reads.fastq", "--pool", enc / "pool.fasta",
         "--outdir", stats, "--profile", "desk-scale"])
    outdir = tmp_path / "dec"
    code = run(["decode", "--fastq", sim / "reads.fastq", "--seeds", enc / "seeds.txt",
                "--manifest", enc / "manifest.json", "--transition", stats / "transition.tsv",
                "--outdir", outdir, "--profile", "desk-scale", *TINY])
    assert code == EXIT_OK
    assert (outdir / "recovered.bin").read_bytes() == src.read_bytes()
    rep = json.loads((outdir / "decode_report.json").read_text())
    assert rep["success"] is True
    assert rep["checksum_ok"] is True


def test_primer_flanked_pool_runs_the_chain(simulated, tmp_path):
    src, enc, sim = simulated
    primed = tmp_path / "enc_primed"
    assert run(["encode", "--input", src, "--outdir", primed, "--with-primers",
                "--profile", "desk-scale", *TINY]) == EXIT_OK
    pool = primed / "pool.fasta"
    assert pool.read_bytes() != (enc / "pool.fasta").read_bytes()
    sim_p, stats, dec = tmp_path / "sim_primed", tmp_path / "stats_primed", tmp_path / "dec_p"
    assert run(["simulate", "--pool", pool, "--outdir", sim_p, "--reads", 1300,
                "--profile", "desk-scale", "--set", "channel.rng_seed=5"]) == EXIT_OK
    # the primers are stripped on reading: same oligos, same reads
    assert (sim_p / "reads.fastq").read_bytes() == (sim / "reads.fastq").read_bytes()
    assert run(["stats", "--fastq", sim_p / "reads.fastq", "--pool", pool,
                "--outdir", stats, "--profile", "desk-scale"]) == EXIT_OK
    assert run(["decode", "--fastq", sim_p / "reads.fastq", "--seeds", primed / "seeds.txt",
                "--manifest", primed / "manifest.json", "--transition", stats / "transition.tsv",
                "--outdir", dec, "--profile", "desk-scale", *TINY]) == EXIT_OK
    assert (dec / "recovered.bin").read_bytes() == src.read_bytes()


def test_decode_below_required_seeds_fails(simulated, tmp_path):
    src, enc, sim = simulated
    # keep only a sliver of reads: distinct seeds fall below the required count
    lines = (sim / "reads.fastq").read_text().splitlines(keepends=True)
    few = tmp_path / "few.fastq"
    few.write_text("".join(lines[: 4 * 40]))
    outdir = tmp_path / "dec_fail"
    code = run(["decode", "--fastq", few, "--seeds", enc / "seeds.txt",
                "--manifest", enc / "manifest.json", "--outdir", outdir,
                "--profile", "desk-scale", *TINY])
    assert code == EXIT_DECODE_FAIL
    rep = json.loads((outdir / "decode_report.json").read_text())
    assert rep["reason"].startswith("insufficient_clusters")


_LOADS_SCIPY = """
import sys
from oligolab.cli import main
code = main(sys.argv[1:])
print(code, any(name.split(".")[0] == "scipy" for name in sys.modules))
"""


def test_only_the_soft_decode_loads_scipy(simulated, tmp_path):
    # scipy serves BP alone, so a hard decode must run without importing it
    src, enc, sim = simulated
    env = {**os.environ, "PYTHONPATH": str(Path(oligolab.__file__).parents[1])}

    def decode(decoder):
        argv = ["decode", "--fastq", sim / "reads.fastq", "--seeds", enc / "seeds.txt",
                "--manifest", enc / "manifest.json", "--outdir", tmp_path / decoder,
                "--profile", "desk-scale", *TINY, "--set", f"decode.decoder={decoder}"]
        out = subprocess.run([sys.executable, "-c", _LOADS_SCIPY, *map(str, argv)],
                             env=env, capture_output=True, text=True, check=True)
        return out.stdout.split()[-2:]

    assert decode("hard") == [str(EXIT_OK), "False"]
    assert decode("soft") == [str(EXIT_OK), "True"]


def test_decode_missing_seed_table(simulated, tmp_path):
    src, enc, sim = simulated
    code = run(["decode", "--fastq", sim / "reads.fastq", "--seeds", tmp_path / "nope.txt",
                "--manifest", enc / "manifest.json", "--outdir", tmp_path / "d",
                "--profile", "desk-scale", *TINY])
    assert code == EXIT_IO


def test_stats_scatter_matches_brute_force_alignment(encoded, tmp_path):
    src, enc = encoded
    pool = read_fasta(enc / "pool.fasta")
    # no dmin above the limit: every read with a mismatch takes the exact scan
    assert len(pool) > PoolIndex.DMIN_POOL_LIMIT
    sim = tmp_path / "simx"
    assert run(["simulate", "--pool", enc / "pool.fasta", "--outdir", sim,
                "--reads", 100, "--profile", "desk-scale", "--set", "channel.rng_seed=3",
                "--set", "channel.sub_rate=0.004", "--set", "channel.ins_rate=0.004",
                "--set", "channel.del_rate=0.004"]) == EXIT_OK
    outdir = tmp_path / "statsx"
    assert run(["stats", "--fastq", sim / "reads.fastq", "--pool", enc / "pool.fasta",
                "--outdir", outdir, "--profile", "desk-scale"]) == EXIT_OK

    expected = []
    indel_rows = 0
    for rec in parse_fastq(sim / "reads.fastq"):
        if len(rec.bases) != 152 or "N" in rec.bases or rec.bases in pool:
            continue  # skipped, or edit distance 0 and so no mismatch
        dists = [levenshtein(rec.bases, seq) for seq in pool]
        idx = dists.index(min(dists))
        errors = sum(a != b for a, b in zip(rec.bases, pool[idx]))
        indel_rows += errors > dists[idx]
        expected.append(f"{rec.id}\t{quality_products([rec])[0]:.6g}\t{errors}")
    scatter = (outdir / "quality_vs_errors.tsv").read_text().splitlines()
    assert scatter[1:] == expected
    assert indel_rows > 0  # some rows come from length-preserving indels
    rep = json.loads((outdir / "stats_report.json").read_text())
    assert rep["scatter_rows"] == len(expected)


def test_decode_refuses_code_parameters_differing_from_manifest(simulated, tmp_path, capsys):
    src, enc, sim = simulated
    outdir = tmp_path / "dec"
    code = run(["decode", "--fastq", sim / "reads.fastq", "--seeds", enc / "seeds.txt",
                "--manifest", enc / "manifest.json", "--outdir", outdir,
                "--profile", "desk-scale"])
    assert code == EXIT_USAGE
    assert not (outdir / "recovered.bin").exists()
    err = capsys.readouterr().err
    assert "k (config 1000, manifest 60)" in err
    assert "c (config 0.01, manifest 0.05)" in err
    assert "delta (config 0.001, manifest 0.1)" in err


@pytest.mark.parametrize("key, value", [
    ("pad_bytes", 10**9),
    ("pad_bytes", -1),
    ("input_bytes", 1500 + 1),
    ("k", 60 + 1),
])
def test_inconsistent_manifest_is_a_config_error(simulated, tmp_path, capsys, key, value):
    src, enc, sim = simulated
    manifest = json.loads((enc / "manifest.json").read_text())
    manifest[key] = value
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(manifest))
    outdir = tmp_path / "dec"
    assert run(["decode", "--fastq", sim / "reads.fastq", "--seeds", enc / "seeds.txt",
                "--manifest", bad, "--outdir", outdir, "--profile", "desk-scale",
                *TINY]) == EXIT_USAGE
    assert f"manifest {bad}" in capsys.readouterr().err
    assert not (outdir / "recovered.bin").exists()


def test_decode_config_is_checked_before_the_fastq_is_read(simulated, tmp_path, capsys):
    src, enc, sim = simulated
    lines = (sim / "reads.fastq").read_text().splitlines(keepends=True)
    truncated = tmp_path / "truncated.fastq"
    truncated.write_text("".join(lines[:4 * 10 + 2]))  # ends after a sequence line
    assert run(["decode", "--fastq", truncated, "--seeds", enc / "seeds.txt",
                "--manifest", enc / "manifest.json", "--outdir", tmp_path / "d",
                "--profile", "desk-scale", *TINY,
                "--set", "decode.llr_mode=bogus"]) == EXIT_USAGE
    assert "unknown llr_mode 'bogus'" in capsys.readouterr().err


def test_malformed_fastq_is_an_io_error(simulated, tmp_path):
    src, enc, sim = simulated
    lines = (sim / "reads.fastq").read_text().splitlines(keepends=True)
    truncated = tmp_path / "truncated.fastq"
    truncated.write_text("".join(lines[:4 * 10 + 2]))  # ends after a sequence line
    assert run(["stats", "--fastq", truncated, "--pool", enc / "pool.fasta",
                "--outdir", tmp_path / "s", "--profile", "desk-scale"]) == EXIT_IO
    for decoder in ("soft", "hard"):
        assert run(["decode", "--fastq", truncated, "--seeds", enc / "seeds.txt",
                    "--manifest", enc / "manifest.json", "--outdir", tmp_path / "d",
                    "--profile", "desk-scale", *TINY,
                    "--set", f"decode.decoder={decoder}"]) == EXIT_IO


@pytest.mark.parametrize("command", ["stats", "decode"])
def test_non_utf8_fastq_header_is_an_io_error(simulated, tmp_path, capsys, command):
    src, enc, sim = simulated
    lines = (sim / "reads.fastq").read_bytes().splitlines(keepends=True)
    lines[4 * 10] = b"@read\xff\n"
    bad = tmp_path / "bad.fastq"
    bad.write_bytes(b"".join(lines))
    inputs = (["--pool", enc / "pool.fasta"] if command == "stats"
              else ["--seeds", enc / "seeds.txt", "--manifest", enc / "manifest.json", *TINY])
    for extra in [[]] if command == "stats" else [[], ["--set", "decode.decoder=hard"]]:
        assert run([command, "--fastq", bad, "--outdir", tmp_path / "out",
                    "--profile", "desk-scale", *inputs, *extra]) == EXIT_IO
        err = capsys.readouterr().err
        assert "line 41: header is not UTF-8 text" in err
        assert "Traceback" not in err


def decode_argv(enc, sim, outdir, *extra):
    return ["decode", "--fastq", sim / "reads.fastq", "--seeds", enc / "seeds.txt",
            "--manifest", enc / "manifest.json", "--outdir", outdir,
            "--profile", "desk-scale", *TINY, *extra]


@pytest.mark.parametrize("extra, reads_q", [
    ([], True),
    (["--set", "decode.llr_mode=chandak", "--set", "decode.crossover_p=0.01"], False),
    (["--set", "decode.decoder=hard"], False),
], ids=["proposed", "chandak", "hard"])
def test_only_the_proposed_decode_clusters_q_scores(simulated, tmp_path, monkeypatch, extra, reads_q):
    src, enc, sim = simulated
    asked, real = [], cli.cluster_by_seed

    def spy(reads, seed_table, qscores=True):
        asked.append(qscores)
        return real(reads, seed_table, qscores=qscores)

    monkeypatch.setattr(cli, "cluster_by_seed", spy)
    assert run(decode_argv(enc, sim, tmp_path / "d", *extra)) == EXIT_OK
    assert asked == [reads_q]


def test_hard_decode_holds_no_reads_in_the_erasure_solve(encoded, tmp_path, monkeypatch):
    """The hard decode keeps only the votes once it has voted: when the
    erasure solve starts, the traced memory of the decode is below 152 bytes
    per retained read, so the read matrix is gone."""
    src, enc = encoded
    sim = tmp_path / "sim"
    assert run(["simulate", "--pool", enc / "pool.fasta", "--outdir", sim, "--reads", 20000,
                "--profile", "desk-scale", "--set", "channel.rng_seed=5"]) == EXIT_OK
    held, real = [], pipeline.lt_erasure_solve

    def spy(rows, coded_bits, k):
        held.append(tracemalloc.get_traced_memory()[0])
        return real(rows, coded_bits, k)

    monkeypatch.setattr(pipeline, "lt_erasure_solve", spy)
    tracemalloc.start()
    try:
        code = run(decode_argv(enc, sim, tmp_path / "d", "--set", "decode.decoder=hard"))
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK and len(held) == 1
    retained = json.loads((tmp_path / "d" / "decode_report.json").read_text())["retained_reads"]
    assert retained > 15000
    assert held[0] < 152 * retained


def test_quality_below_phred_range_is_an_io_error_in_a_hard_decode(simulated, tmp_path, capsys):
    # the hard decode reads no Q-scores, but its reader still checks them
    src, enc, sim = simulated
    lines = (sim / "reads.fastq").read_bytes().splitlines(keepends=True)
    lines[4 * 10 + 3] = b" " + lines[4 * 10 + 3][1:]
    (tmp_path / "bad").mkdir()
    (tmp_path / "bad" / "reads.fastq").write_bytes(b"".join(lines))
    code = run(decode_argv(enc, tmp_path / "bad", tmp_path / "d", "--set", "decode.decoder=hard"))
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert "line 44: quality character below Phred+33 range" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("decoder", ["soft", "hard"])
def test_decoder_fault_is_an_internal_error(simulated, tmp_path, monkeypatch, capsys, decoder):
    src, enc, sim = simulated

    def faulty_solve(rows, coded_bits, k):
        raise ValueError("injected decoder fault")

    monkeypatch.setattr(pipeline, "lt_erasure_solve", faulty_solve)
    code = run(decode_argv(enc, sim, tmp_path / "d", "--set", f"decode.decoder={decoder}"))
    assert code == EXIT_INTERNAL
    assert code != EXIT_USAGE
    err = capsys.readouterr().err
    assert "injected decoder fault" in err
    assert "Traceback" in err


@pytest.mark.parametrize("override", [
    "decode.llr_mode=oracle",
    "decode.decoder=psychic",
    "decode.llr_mode=chandak decode.crossover_p=0.7",
    "decode.llr_mode=chandak decode.crossover_p=0",
    "decode.redecodeing=false",
    "decod.decoder=hard",
])
def test_unknown_decoder_setting_is_a_config_error(simulated, tmp_path, capsys, override):
    src, enc, sim = simulated
    sets = [arg for spec in override.split() for arg in ("--set", spec)]
    assert run(decode_argv(enc, sim, tmp_path / "d", *sets)) == EXIT_USAGE
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()  # refused before any output


def test_misspelt_key_in_a_config_file_is_a_config_error(simulated, tmp_path, capsys):
    src, enc, sim = simulated
    path = tmp_path / "run.yaml"
    path.write_text("decode:\n  redecodeing: false\n")
    with pytest.raises(ConfigError, match="unknown key 'decode.redecodeing'"):
        load_config(None, path)
    assert run(decode_argv(enc, sim, tmp_path / "d", "--config", path)) == EXIT_USAGE
    assert "unknown key 'decode.redecodeing'" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("override, message", [
    ("decode.llr_clip=-1", "llr_clip must be finite and > 0"),
    ("decode.llr_clip=0", "llr_clip must be finite and > 0"),
    ("decode.llr_clip=inf", "llr_clip must be finite and > 0"),
    ("decode.bp_max_iter=0", "bp_max_iter must be >= 1"),
])
def test_bp_setting_out_of_range_is_a_config_error(simulated, tmp_path, capsys, override, message):
    src, enc, sim = simulated
    outdir = tmp_path / "d"
    assert run(decode_argv(enc, sim, outdir, "--set", override)) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not outdir.exists()  # refused before any output


@pytest.mark.parametrize("command, override", [
    ("simulate", "channel.qmodel=null"),
    ("decode", "decode=5"),
    ("decode", "report=5"),
])
def test_config_section_that_is_no_mapping_is_a_config_error(
    simulated, tmp_path, capsys, command, override
):
    src, enc, sim = simulated
    outdir = tmp_path / "out"
    argv = (
        decode_argv(enc, sim, outdir, "--set", override)
        if command == "decode"
        else ["simulate", "--pool", enc / "pool.fasta", "--outdir", outdir, "--reads", 100,
              "--profile", "desk-scale", "--set", override]
    )
    assert run(argv) == EXIT_USAGE
    assert "config error" in capsys.readouterr().err
    assert not outdir.exists()  # refused before any output


def test_malformed_seed_table_is_a_config_error(simulated, tmp_path):
    src, enc, sim = simulated
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("not-hex\n")
    argv = decode_argv(enc, sim, tmp_path / "d")
    argv[argv.index(enc / "seeds.txt")] = seeds
    assert run(argv) == EXIT_USAGE


@pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank-lines"])
def test_empty_seed_table_is_a_config_error(simulated, tmp_path, capsys, text):
    src, enc, sim = simulated
    seeds = tmp_path / "seeds.txt"
    seeds.write_text(text)
    outdir = tmp_path / "d"
    argv = decode_argv(enc, sim, outdir)
    argv[argv.index(enc / "seeds.txt")] = seeds
    assert run(argv) == EXIT_USAGE
    assert f"seed table {seeds}: no seeds" in capsys.readouterr().err
    assert not (outdir / "recovered.bin").exists()


@pytest.mark.parametrize("line", ["1ffffffff", "-5"])
def test_out_of_range_seed_table_is_a_config_error(simulated, tmp_path, capsys, line):
    src, enc, sim = simulated
    seeds = tmp_path / "seeds.txt"
    seeds.write_text((enc / "seeds.txt").read_text() + f"{line}\n")
    argv = decode_argv(enc, sim, tmp_path / "d")
    argv[argv.index(enc / "seeds.txt")] = seeds
    assert run(argv) == EXIT_USAGE
    assert "out of 32-bit range" in capsys.readouterr().err


def _position_zero(rows):
    return ["0" + rows[0][1:], *rows[1:]]


def _position_153(rows):
    return [*rows, "153" + rows[-1][3:]]


def _truncated(rows):
    return rows[:-12]


def _set_first_row(rows, column, value):
    parts = rows[0].split("\t")
    parts[column] = value
    return ["\t".join(parts), *rows[1:]]


def _nan_probability(rows):
    return _set_first_row(rows, 5, "nan")


def _negative_probability(rows):
    return _set_first_row(rows, 5, "-5")


def _row_sum_not_one(rows):
    return _set_first_row(rows, 5, "0.5")


def _fallback_flag_two(rows):
    return _set_first_row(rows, 6, "2")


@pytest.mark.parametrize("edit", [
    _position_zero, _position_153, _truncated,
    _nan_probability, _negative_probability, _row_sum_not_one, _fallback_flag_two,
])
def test_malformed_transition_table_is_a_config_error(simulated, tmp_path, capsys, edit):
    src, enc, sim = simulated
    good = tmp_path / "good.tsv"
    TransitionTable.uniform().save_tsv(good)
    header, columns, *rows = good.read_text().splitlines()
    assert rows[0].startswith("1\t") and rows[-1].startswith("152\t")
    bad = tmp_path / "bad.tsv"
    bad.write_text("\n".join([header, columns, *edit(rows)]) + "\n")
    outdir = tmp_path / "d"
    assert run(decode_argv(enc, sim, outdir, "--transition", bad)) == EXIT_USAGE
    assert "transition table" in capsys.readouterr().err
    assert not (outdir / "decode_report.json").exists()


@pytest.mark.parametrize("command", ["simulate", "stats"])
def test_empty_pool_is_a_config_error(tmp_path, capsys, command):
    empty = tmp_path / "empty.fasta"
    empty.write_text("")
    outdir = tmp_path / "out"
    inputs = ["--fastq", tmp_path / "reads.fastq"] if command == "stats" else []
    assert run([command, "--pool", empty, "--outdir", outdir, "--profile", "desk-scale",
                *inputs]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"pool {empty}: no oligos" in err
    assert "Traceback" not in err
    assert not outdir.exists()


@pytest.mark.parametrize("edit, message", [
    (lambda seq: seq[:50] + "X" + seq[51:], "invalid base 'X'"),
    (lambda seq: seq[:147] + "X" + seq[148:], "invalid base 'X'"),  # in the RS parity
    (lambda seq: seq[:-1], "expected 152 nt, got 151"),
])
def test_malformed_pool_record_is_a_config_error(encoded, tmp_path, capsys, edit, message):
    src, enc = encoded
    lines = (enc / "pool.fasta").read_text().splitlines(keepends=True)
    lines[3] = edit(lines[3].rstrip("\n")) + "\n"
    pool = tmp_path / "bad.fasta"
    pool.write_text("".join(lines))
    outdir = tmp_path / "sim"
    assert run(["simulate", "--pool", pool, "--outdir", outdir, "--reads", 10,
                "--profile", "desk-scale"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err
    assert not outdir.exists()


def test_simulate_zero_reads_is_a_config_error(encoded, tmp_path):
    src, enc = encoded
    # read ids have nine digits, so at most 10**9 reads
    for reads in (0, 10**9 + 1):
        outdir = tmp_path / f"sim{reads}"
        assert run(["simulate", "--pool", enc / "pool.fasta", "--outdir", outdir,
                    "--reads", reads, "--profile", "desk-scale"]) == EXIT_USAGE
        assert not outdir.exists()


def test_experiment_reads_above_the_bound_is_a_config_error(tmp_path):
    assert run(["experiment", "--outdir", tmp_path / "exp", "--profile", "desk-scale", *TINY,
                "--set", "experiment.total_reads=1000000001"]) == EXIT_USAGE
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize("override", ["channel.sub_rate=0", "decode.crossover_p=0.6"])
def test_experiment_crossover_outside_the_open_half_interval_is_a_config_error(
    tmp_path, capsys, override
):
    # chandak variants need 0 < crossover_p < 0.5; sub_rate=0 derives crossover 0
    assert run(["experiment", "--outdir", tmp_path / "exp", "--profile", "desk-scale", *TINY,
                "--set", override]) == EXIT_USAGE
    assert "crossover_p must be in (0, 0.5)" in capsys.readouterr().err
    assert not (tmp_path / "exp" / "reads.fastq").exists()


def test_experiment_sampling_point_beyond_total_reads_is_a_config_error(tmp_path):
    assert run(["experiment", "--outdir", tmp_path / "exp", "--profile", "desk-scale", *TINY,
                "--set", "experiment.total_reads=100",
                "--set", "experiment.sampling_points=[50,101]"]) == EXIT_USAGE
    assert not (tmp_path / "exp" / "reads.fastq").exists()


# ------------------------- experiment -------------------------

def test_experiment_small_sweep(tmp_path):
    outdir = tmp_path / "exp"
    code = run(["experiment", "--outdir", outdir, "--profile", "desk-scale", *TINY,
                "--set", "experiment.total_reads=1600",
                "--set", "experiment.sampling_points=[260,420]",
                "--set", "experiment.trials=2",
                "--set", "channel.rng_seed=11"])
    assert code == EXIT_OK
    rep = json.loads((outdir / "experiment_report.json").read_text())
    assert rep["sampling_points"] == [260, 420]
    assert set(rep["successes"]) == {
        "proposed+redecode", "proposed-noredecode",
        "chandak+redecode", "chandak-noredecode", "hard",
    }
    plot = (outdir / "plot_data.tsv").read_text().splitlines()
    assert plot[0] == "sampling_point\tvariant\tsuccesses\ttrials"
    assert len(plot) == 1 + 2 * 5


def test_experiment_report_omit_timing_is_stable(tmp_path):
    args = ["experiment", "--profile", "desk-scale", *TINY,
            "--set", "experiment.total_reads=1200",
            "--set", "experiment.sampling_points=[400]",
            "--set", "experiment.trials=1",
            "--omit-timing"]
    out1, out2 = tmp_path / "e1", tmp_path / "e2"
    assert run(args + ["--outdir", out1]) == EXIT_OK
    assert run(args + ["--outdir", out2]) == EXIT_OK
    assert (out1 / "experiment_report.json").read_bytes() == (
        out2 / "experiment_report.json"
    ).read_bytes()
    assert (out1 / "plot_data.tsv").read_bytes() == (out2 / "plot_data.tsv").read_bytes()
