"""In-memory span tracing of oligolab's layers, wrapped from outside.

The tracer replaces module attributes at the names callers look them up
(e.g. ``oligolab.pipeline.bp_decode``) with wrappers that record one span
per call: id, parent id, layer name, start, end and a small outcome
record. Spans stay in memory until the benchmark ends. A name that no
longer exists is reported as absent and skipped.

Per-layer metrics come from the spans: a layer's self time is the sum of
its spans' durations minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable

import numpy as np

SEED_SYMBOLS = 4

# (module, attribute, layer, kind). "span" records a span per call, "gen"
# a span per item a generator yields, "count" only counts calls.
TARGETS = [
    ("oligolab.fastq_io", "parse_fastq", "fastq_io.parse", "gen"),
    ("oligolab.cli", "parse_fastq", "fastq_io.parse", "gen"),
    ("oligolab.channel_sim", "simulate_pool", "channel_sim.simulate", "span"),
    ("oligolab.cli", "simulate_pool", "channel_sim.simulate", "span"),
    ("oligolab.channel_stats", "estimate_transitions", "channel_stats.estimate", "span"),
    ("oligolab.cli", "estimate_transitions", "channel_stats.estimate", "span"),
    ("oligolab.cli", "align_read", "channel_stats.align", "span"),
    ("oligolab.channel_stats", "_exact_scan", "channel_stats.slow_path", "count"),
    ("oligolab.fountain", "lt_encode", "fountain.encode", "span"),
    ("oligolab.cli", "lt_encode", "fountain.encode", "span"),
    ("oligolab.fountain", "seed_expand", "fountain.expand", "span"),
    ("oligolab.clustering_llr", "cluster_by_seed", "clustering_llr.cluster", "span"),
    ("oligolab.cli", "cluster_by_seed", "clustering_llr.cluster", "span"),
    ("oligolab.pipeline", "cluster_by_seed", "clustering_llr.cluster", "span"),
    ("oligolab.pipeline", "llr_proposed", "clustering_llr.llr", "span"),
    ("oligolab.pipeline", "llr_chandak", "clustering_llr.llr", "span"),
    ("oligolab.pipeline", "majority_vote", "clustering_llr.vote", "span"),
    ("oligolab.pipeline", "build_h", "bp_decoder.build", "span"),
    ("oligolab.pipeline", "bp_decode", "bp_decoder.bp", "span"),
    ("oligolab.gf_rs", "rs_decode", "gf_rs.decode", "span"),
    ("oligolab.pipeline", "lt_erasure_solve", "pipeline.solve", "span"),
    ("oligolab.pipeline", "iterative_soft_decode", "pipeline.soft_decode", "span"),
    ("oligolab.cli", "iterative_soft_decode", "pipeline.soft_decode", "span"),
    ("oligolab.pipeline", "hard_decode_baseline", "pipeline.hard_decode", "span"),
    ("oligolab.cli", "hard_decode_baseline", "pipeline.hard_decode", "span"),
    ("oligolab.pipeline", "experiment_sweep", "pipeline.sweep", "span"),
]

# Per-layer metrics as named in BENCHMARK.json, in order.
LAYER_METRICS = [
    ("fastq_io.parse_s", "s"),
    ("fastq_io.records", "count"),
    ("channel_sim.simulate_s", "s"),
    ("channel_stats.estimate_s", "s"),
    ("channel_stats.align_s", "s"),
    ("channel_stats.align_calls", "count"),
    ("channel_stats.slow_path_reads", "count"),
    ("fountain.expand_s", "s"),
    ("fountain.expansions", "count"),
    ("fountain.encode_s", "s"),
    ("clustering_llr.cluster_s", "s"),
    ("clustering_llr.retained_reads", "count"),
    ("clustering_llr.llr_s", "s"),
    ("clustering_llr.llr_clusters", "count"),
    ("clustering_llr.vote_s", "s"),
    ("bp_decoder.build_s", "s"),
    ("bp_decoder.bp_s", "s"),
    ("bp_decoder.calls", "count"),
    ("bp_decoder.edges", "count"),
    ("bp_decoder.plane_iterations", "count"),
    ("bp_decoder.ns_per_edge_plane_iter", "ns"),
    ("bp_decoder.converged_planes", "count"),
    ("bp_decoder.flipped_bits", "count"),
    ("gf_rs.decode_s", "s"),
    ("gf_rs.words", "count"),
    ("gf_rs.corrected", "count"),
    ("gf_rs.detected", "count"),
    ("pipeline.solve_s", "s"),
    ("pipeline.solve_calls", "count"),
    ("pipeline.rounds", "count"),
    ("pipeline.clusters_removed", "count"),
    ("pipeline.inconsistent_ends", "count"),
]


def _cluster_info(args, kwargs, out):
    return {"retained": int(out[1].n_retained)}


def _rs_info(args, kwargs, out):
    seed = any(p < SEED_SYMBOLS for p in out.corrected_positions)
    return [out.status, seed]


def _decode_info(args, kwargs, out):
    return {
        "rounds": int(out.iterations_performed),
        "removed": int(sum(out.clusters_discarded_per_round)),
        "reason": out.reason,
    }


def _bp_info_factory(fn: Callable):
    sig = inspect.signature(fn)

    def info(args, kwargs, out):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        llrs = np.asarray(bound.arguments["coded_llrs"])
        planes = llrs.shape[1] if llrs.ndim == 2 else 1
        return {
            "edges": int(bound.arguments["h"].total_weight),
            "planes": planes,
            "max_iter": int(bound.arguments["max_iter"]),
            "plane_iterations": int(np.sum(out.iterations_used)),
            "converged": int(np.sum(out.converged)),
            "flipped": int((np.asarray(out.coded_bits) != (llrs < 0)).sum()),
        }

    return info


# layer -> factory that, given the wrapped function, returns the outcome
# record builder (args, kwargs, result) -> info
INFO = {
    "clustering_llr.cluster": lambda fn: _cluster_info,
    "gf_rs.decode": lambda fn: _rs_info,
    "pipeline.soft_decode": lambda fn: _decode_info,
    "pipeline.hard_decode": lambda fn: _decode_info,
    "bp_decoder.bp": _bp_info_factory,
}


class Tracer:
    """Records spans around the wrapped calls of one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def install(self, targets=TARGETS) -> None:
        for modname, attr, layer, kind in targets:
            mod = importlib.import_module(modname)
            orig = getattr(mod, attr, None)
            if orig is None:
                self.absent.append(f"{modname}.{attr}")
                continue
            setattr(mod, attr, self._wrap(orig, layer, kind))
            self._patches.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def take(self) -> tuple[list[list], Counter]:
        """Hand over the spans and counts recorded so far and start afresh."""
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        out = (self.spans, self.counts)
        self.spans, self.counts = [], Counter()
        return out

    def _open(self, layer: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [len(self.spans), parent, layer, time.perf_counter(), None, None]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list, info=None) -> None:
        span[4] = time.perf_counter()
        span[5] = info
        self._stack.pop()

    def _wrap(self, fn: Callable, layer: str, kind: str) -> Callable:
        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counts[layer] += 1
                return fn(*args, **kwargs)

            return counted

        if kind == "gen":
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                it = iter(fn(*args, **kwargs))
                while True:
                    span = self._open(layer)
                    try:
                        item = next(it)
                    except StopIteration:
                        self._close(span)
                        return
                    except BaseException:
                        self._close(span)
                        raise
                    self._close(span, 1)
                    yield item

            return generator

        info_of = INFO[layer](fn) if layer in INFO else None

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span = self._open(layer)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._close(span)
                raise
            self._close(span, info_of(args, kwargs, out) if info_of else None)
            return out

        return spanned


def aggregate(spans: list[list], counts: Counter) -> dict:
    """Additive per-layer totals of one segment of spans."""
    child = defaultdict(float)
    for s in spans:
        if s[1] is not None:
            child[s[1]] += s[4] - s[3]
    agg: dict = defaultdict(float)
    for s in spans:
        layer, info = s[2], s[5]
        agg[f"self:{layer}"] += (s[4] - s[3]) - child[s[0]]
        agg[f"calls:{layer}"] += 1
        if info is None:  # a call that raised, or a generator's last step
            continue
        if layer == "fastq_io.parse":
            agg["records"] += 1
        elif layer == "clustering_llr.cluster":
            agg["retained"] += info["retained"]
        elif layer == "gf_rs.decode":
            agg["corrected"] += info[0] == "corrected"
            agg["detected"] += info[0] == "detected_uncorrectable"
        elif layer == "bp_decoder.bp":
            agg["edges"] += info["edges"]
            agg["plane_iterations"] += info["plane_iterations"]
            agg["edge_plane_iterations"] += info["edges"] * info["plane_iterations"]
            agg["converged"] += info["converged"]
            agg["flipped"] += info["flipped"]
        elif layer in ("pipeline.soft_decode", "pipeline.hard_decode"):
            agg["clusters_removed"] += info["removed"]
            agg["inconsistent_ends"] += info["reason"].startswith("inconsistent_planes")
            if layer == "pipeline.soft_decode":
                agg["rounds"] += info["rounds"]
    for layer, n in counts.items():
        agg[f"count:{layer}"] += n
    return agg


def merge(*aggs: dict) -> dict:
    out: dict = defaultdict(float)
    for agg in aggs:
        for key, value in agg.items():
            out[key] += value
    return out


def layer_metrics(agg: dict) -> dict[str, float]:
    """Per-layer metric values (see LAYER_METRICS) from additive totals."""
    def g(key: str) -> float:
        return float(agg.get(key, 0.0))

    bp_work = g("edge_plane_iterations")
    return {
        "fastq_io.parse_s": g("self:fastq_io.parse"),
        "fastq_io.records": g("records"),
        "channel_sim.simulate_s": g("self:channel_sim.simulate"),
        "channel_stats.estimate_s": g("self:channel_stats.estimate"),
        "channel_stats.align_s": g("self:channel_stats.align"),
        "channel_stats.align_calls": g("calls:channel_stats.align"),
        "channel_stats.slow_path_reads": g("count:channel_stats.slow_path"),
        "fountain.expand_s": g("self:fountain.expand"),
        "fountain.expansions": g("calls:fountain.expand"),
        "fountain.encode_s": g("self:fountain.encode"),
        "clustering_llr.cluster_s": g("self:clustering_llr.cluster"),
        "clustering_llr.retained_reads": g("retained"),
        "clustering_llr.llr_s": g("self:clustering_llr.llr"),
        "clustering_llr.llr_clusters": g("calls:clustering_llr.llr"),
        "clustering_llr.vote_s": g("self:clustering_llr.vote"),
        "bp_decoder.build_s": g("self:bp_decoder.build"),
        "bp_decoder.bp_s": g("self:bp_decoder.bp"),
        "bp_decoder.calls": g("calls:bp_decoder.bp"),
        "bp_decoder.edges": g("edges"),
        "bp_decoder.plane_iterations": g("plane_iterations"),
        "bp_decoder.ns_per_edge_plane_iter": (
            g("self:bp_decoder.bp") * 1e9 / bp_work if bp_work else 0.0
        ),
        "bp_decoder.converged_planes": g("converged"),
        "bp_decoder.flipped_bits": g("flipped"),
        "gf_rs.decode_s": g("self:gf_rs.decode"),
        "gf_rs.words": g("calls:gf_rs.decode"),
        "gf_rs.corrected": g("corrected"),
        "gf_rs.detected": g("detected"),
        "pipeline.solve_s": g("self:pipeline.solve"),
        "pipeline.solve_calls": g("calls:pipeline.solve"),
        "pipeline.rounds": g("rounds"),
        "pipeline.clusters_removed": g("clusters_removed"),
        "pipeline.inconsistent_ends": g("inconsistent_ends"),
    }


def consistency(spans: list[list], expected_retained: int | None = None) -> list[str]:
    """Totals reached by independent paths must agree within one segment."""
    problems = []
    by_id = {s[0]: s for s in spans}
    rs_removals: Counter = Counter()
    for s in spans:
        if s[2] != "gf_rs.decode" or s[5] is None:
            continue
        status, seed_corrected = s[5]
        if not (status == "detected_uncorrectable" or (status == "corrected" and seed_corrected)):
            continue
        parent = s[1]
        while parent is not None and by_id[parent][2] != "pipeline.soft_decode":
            parent = by_id[parent][1]
        if parent is not None:
            rs_removals[parent] += 1
    retained = 0
    for s in spans:
        layer, info = s[2], s[5]
        if info is None:
            continue
        if layer == "pipeline.soft_decode" and info["removed"] != rs_removals[s[0]]:
            problems.append(
                f"soft decode span {s[0]}: clusters_discarded_per_round totals "
                f"{info['removed']}, RS removals counted at gf_rs {rs_removals[s[0]]}"
            )
        elif layer == "bp_decoder.bp":
            if info["converged"] > min(256, info["planes"]):
                problems.append(f"bp span {s[0]}: {info['converged']} converged planes")
            if info["plane_iterations"] > info["planes"] * info["max_iter"]:
                problems.append(
                    f"bp span {s[0]}: {info['plane_iterations']} plane iterations > "
                    f"{info['planes']} planes x {info['max_iter']}"
                )
        elif layer == "clustering_llr.cluster":
            retained += info["retained"]
    if expected_retained is not None and retained != expected_retained:
        problems.append(
            f"clustering_llr retained {retained} reads, own count is {expected_retained}"
        )
    return problems


def write_spans(path: Path, segments: list[tuple[str, list[list]]], absent: list[str]) -> None:
    """One JSON object per line: the absent names first, then every span."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with gzip.open(path, "wt") as fh:
        fh.write(json.dumps({"absent": absent}) + "\n")
        for segment, spans in segments:
            for sid, parent, name, t0, t1, info in spans:
                fh.write(json.dumps({
                    "segment": segment, "id": sid, "parent": parent, "name": name,
                    "start": t0, "end": t1, "info": info,
                }) + "\n")
