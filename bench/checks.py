"""Output checks made apart from the program.

Each check reads the program's outputs with its own small parser (it does
not reuse oligolab's readers) and returns a list of problems; an empty list
means the output is correct.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

OLIGO_NT = 152
SEED_NT = 16
ROW_SUM_TOL = 1e-9


def fastq_sequences(path: str | Path) -> Iterator[str]:
    """Sequence lines of a 4-line FASTQ file; raises ValueError when malformed."""
    with open(path) as fh:
        while True:
            header = fh.readline()
            if not header:
                return
            seq, plus, qual = fh.readline(), fh.readline(), fh.readline()
            if not header.startswith("@") or not plus.startswith("+") or not qual:
                raise ValueError(f"{path}: malformed FASTQ record {header.strip()!r}")
            seq = seq.rstrip("\n")
            if len(qual.rstrip("\n")) != len(seq):
                raise ValueError(f"{path}: quality length differs in {header.strip()!r}")
            yield seq


def fasta_sequences(path: str | Path) -> list[str]:
    """Sequences of a FASTA file, one per '>' record."""
    seqs: list[str] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith(">"):
                seqs.append("")
            elif line:
                seqs[-1] += line
    return seqs


def retained_count(sequences: Iterable[str], pool: Sequence[str]) -> int:
    """N-free 152-nt reads whose first 16 nt equal the prefix of a pool oligo."""
    prefixes = {s[:SEED_NT] for s in pool}
    return sum(
        1
        for s in sequences
        if len(s) == OLIGO_NT and "N" not in s and s[:SEED_NT] in prefixes
    )


def check_record_count(path: str | Path, expected: int) -> list[str]:
    try:
        n = sum(1 for _ in fastq_sequences(path))
    except (OSError, ValueError) as exc:
        return [f"reads FASTQ unreadable: {exc}"]
    if n != expected:
        return [f"{path}: {n} FASTQ records, {expected} requested"]
    return []


def check_transition_tsv(path: str | Path) -> list[str]:
    """Every non-fallback row (position, observed base) lies in [0, 1] and sums to 1."""
    rows: dict[tuple[str, str], list[float]] = defaultdict(list)
    fallback: dict[tuple[str, str], bool] = {}
    try:
        with open(path) as fh:
            lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    except OSError as exc:
        return [f"transition table unreadable: {exc}"]
    for line in lines[1:]:
        parts = line.split("\t")
        if len(parts) != 7:
            return [f"{path}: malformed row {line!r}"]
        key = (parts[0], parts[2])
        rows[key].append(float(parts[5]))
        fallback[key] = parts[6] == "1"
    if len(rows) != OLIGO_NT * 4:
        return [f"{path}: {len(rows)} rows, expected {OLIGO_NT * 4}"]
    problems = []
    for key, probs in rows.items():
        if fallback[key]:
            continue
        if len(probs) != 3 or any(not 0.0 <= p <= 1.0 for p in probs):
            problems.append(f"{path}: row {key} has probabilities {probs}")
        elif abs(sum(probs) - 1.0) > ROW_SUM_TOL:
            problems.append(f"{path}: row {key} sums to {sum(probs)!r}")
    return problems


def check_decode_output(exit_code: int, outdir: str | Path, expected: bytes) -> list[str]:
    """Exit 0 must leave a recovered.bin equal to the input; exit 1 leaves none."""
    recovered = Path(outdir) / "recovered.bin"
    if exit_code == 0:
        if not recovered.is_file():
            return [f"{outdir}: decode exited 0 without recovered.bin"]
        if recovered.read_bytes() != expected:
            return [f"{recovered}: differs from the encoded input"]
    elif recovered.is_file():
        return [f"{outdir}: decode exited {exit_code} but wrote recovered.bin"]
    return []


def check_payload(success: bool, payload: np.ndarray | None, source_bits: np.ndarray) -> list[str]:
    """A decode reports failure or returns exactly the source bits."""
    if not success:
        return []
    if payload is None or not np.array_equal(payload, source_bits):
        return ["decode reported success with a payload that differs from the source"]
    return []


def check_twins(successes: Mapping[str, Sequence[int]], twins: Mapping[str, str]) -> list[str]:
    """No no-redecode variant succeeds more often than its redecode twin."""
    problems = []
    for off, on in twins.items():
        for i, (s_off, s_on) in enumerate(zip(successes[off], successes[on])):
            if s_off > s_on:
                problems.append(f"point {i}: {off} {s_off} successes > {on} {s_on}")
    return problems
