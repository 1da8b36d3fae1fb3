"""Tests for the benchmark: smoke runs of every workload and its output checks."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from oligolab import pipeline  # noqa: E402
from oligolab.channel_stats import TransitionTable  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(name, trace):
    return workloads.run(name, 5, 0.0, trace, True, time.perf_counter(), ROOT)


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_reports_every_metric(name, trace):
    result = smoke(name, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_desk_sweep_counts_layers():
    metrics = smoke("desk-sweep", True)["metrics"]
    for key in ("bp_decoder.calls", "gf_rs.words", "clustering_llr.llr_clusters",
                "pipeline.solve_calls", "fountain.expansions", "fastq_io.records"):
        assert metrics[key]["value"] > 0, key


def test_command_prints_result_last(tmp_path):
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "paper-decode",
         "--seed", "2", "--seconds", "0", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["attempted"] == 1


def test_command_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-chain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


def test_flipped_byte_in_recovered_bin_is_caught(tmp_path):
    data = bytes(range(200))
    (tmp_path / "recovered.bin").write_bytes(data)
    assert checks.check_decode_output(0, tmp_path, data) == []
    flipped = bytearray(data)
    flipped[17] ^= 0x01
    (tmp_path / "recovered.bin").write_bytes(bytes(flipped))
    assert checks.check_decode_output(0, tmp_path, data)


def test_failed_decode_is_not_an_incorrect_output(tmp_path):
    assert checks.check_decode_output(1, tmp_path, b"x") == []
    assert checks.check_decode_output(0, tmp_path, b"x")  # exit 0 must leave the file


def test_transition_row_not_summing_to_one_is_caught(tmp_path):
    table = TransitionTable.uniform()
    table.fallback[:] = False
    path = tmp_path / "transition.tsv"
    table.save_tsv(path)
    assert checks.check_transition_tsv(path) == []
    lines = path.read_text().splitlines(keepends=True)
    parts = lines[2].split("\t")
    parts[5] = "0.5"
    lines[2] = "\t".join(parts)
    path.write_text("".join(lines))
    assert checks.check_transition_tsv(path)


def test_decode_claiming_success_with_wrong_payload_is_caught(monkeypatch):
    source = np.zeros((4, 256), dtype=np.uint8)
    assert checks.check_payload(True, source.copy(), source) == []
    assert checks.check_payload(False, None, source) == []
    wrong = source.copy()
    wrong[2, 9] = 1
    assert checks.check_payload(True, wrong, source)

    real = pipeline.hard_decode_baseline

    def lying(*args, **kwargs):
        rep = real(*args, **kwargs)
        rep.success = True
        rep.recovered_payload = np.ones((60, 256), dtype=np.uint8)
        return rep

    monkeypatch.setattr(pipeline, "hard_decode_baseline", lying)
    assert smoke("desk-sweep", False)["correct"] is False


def test_twin_check():
    twins = {"off": "on"}
    assert checks.check_twins({"off": [1, 2], "on": [1, 3]}, twins) == []
    assert checks.check_twins({"off": [2, 2], "on": [1, 3]}, twins)


def test_absent_name_is_reported_and_skipped():
    tracer = tracing.Tracer()
    tracer.install([("oligolab.pipeline", "no_such_function", "pipeline.gone", "span")])
    tracer.uninstall()
    assert tracer.absent == ["oligolab.pipeline.no_such_function"]


def test_consistency_flags_mismatched_totals():
    soft = [0, None, "pipeline.soft_decode", 0.0, 1.0, {"removed": 1, "rounds": 2, "reason": "ok"}]
    rs_ok = [1, 0, "gf_rs.decode", 0.1, 0.2, ["clean", False]]
    assert tracing.consistency([soft, rs_ok])
    rs_bad = [2, 0, "gf_rs.decode", 0.3, 0.4, ["corrected", True]]
    assert tracing.consistency([soft, rs_ok, rs_bad]) == []
    bp = [3, None, "bp_decoder.bp", 0.0, 1.0, {
        "edges": 10, "planes": 256, "max_iter": 5, "plane_iterations": 1281,
        "converged": 0, "flipped": 0,
    }]
    assert tracing.consistency([bp])
    cluster = [4, None, "clustering_llr.cluster", 0.0, 1.0, {"retained": 7}]
    assert tracing.consistency([cluster], expected_retained=7) == []
    assert tracing.consistency([cluster], expected_retained=8)


def test_self_time_excludes_children():
    spans = [
        [0, None, "pipeline.hard_decode", 0.0, 10.0, {"removed": 0, "rounds": 1, "reason": "ok"}],
        [1, 0, "pipeline.solve", 2.0, 9.0, None],
    ]
    m = tracing.layer_metrics(tracing.aggregate(spans, {}))
    assert m["pipeline.solve_s"] == pytest.approx(7.0)
    assert m["pipeline.solve_calls"] == 1


def test_spans_of_calls_that_raised_are_timed_but_not_counted():
    spans = [
        [0, None, "clustering_llr.cluster", 0.0, 1.0, None],
        [1, None, "pipeline.soft_decode", 0.0, 2.0, None],
    ]
    m = tracing.layer_metrics(tracing.aggregate(spans, {}))
    assert m["clustering_llr.cluster_s"] == 1.0 and m["clustering_llr.retained_reads"] == 0
    assert tracing.consistency(spans) == []
