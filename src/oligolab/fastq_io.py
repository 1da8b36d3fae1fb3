"""Streaming FASTQ reader/writer with Phred+33 qualities.

The parser reads 4-line records a chunk at a time and keeps one chunk in
memory, so multi-million-read files stream in constant memory. A chunk is
checked and converted in bulk; one that fails a check is re-parsed record
by record, which yields the records before the fault and raises with its
line number. Gzipped input is handled transparently by filename suffix.
Only the Phred+33 offset is supported.
"""

from __future__ import annotations

import gzip
import io
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

PHRED_OFFSET = 33
PROB_EPS = 1e-12
VALID_BASES = frozenset("ACGTN")
CHUNK_RECORDS = 1024


class FastqFormatError(ValueError):
    """Malformed FASTQ input; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass(slots=True)
class ReadRecord:
    id: str
    bases: str
    qscores: np.ndarray  # uint8 Phred values, one per base

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReadRecord):
            return NotImplemented
        return (
            self.id == other.id
            and self.bases == other.bases
            and np.array_equal(self.qscores, other.qscores)
        )


def _open_text(path: str | Path) -> IO[str]:
    path = Path(path)
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, "rb"))
    return open(path)


def parse_fastq(source: str | Path | IO[str]) -> Iterator[ReadRecord]:
    """Yield ReadRecords from a path or open text handle."""
    if isinstance(source, (str, Path)):
        with _open_text(source) as fh:
            yield from _parse_handle(fh)
    else:
        yield from _parse_handle(source)


def _parse_handle(fh: IO[str]) -> Iterator[ReadRecord]:
    lineno = 0
    while lines := list(islice(fh, 4 * CHUNK_RECORDS)):
        records = _parse_chunk(lines)
        yield from _parse_records(iter(lines), lineno) if records is None else records
        lineno += len(lines)


def _parse_chunk(lines: list[str]) -> list[ReadRecord] | None:
    """Whole well-formed 4-line records, converted in bulk; None if any check fails."""
    seqs = [s.rstrip("\n") for s in lines[1::4]]
    quals = [q.rstrip("\n") for q in lines[3::4]]
    lengths = [len(s) for s in seqs]
    bases, qual_text = "".join(seqs), "".join(quals)
    if (
        len(lines) % 4
        or not all(h.startswith("@") for h in lines[0::4])
        or not all(p.startswith("+") for p in lines[2::4])
        or lengths != [len(q) for q in quals]
        or not (bases.isascii() and qual_text.isascii())
        or bases.encode("ascii").translate(None, b"ACGTN")
    ):
        return None
    q = np.frombuffer(qual_text.encode("ascii"), dtype=np.uint8)
    if (q < PHRED_OFFSET).any():
        return None
    q = q - PHRED_OFFSET
    ends = np.cumsum(lengths).tolist()
    return [
        ReadRecord(id=h[1:].rstrip("\n"), bases=s, qscores=q[end - len(s) : end])
        for h, s, end in zip(lines[0::4], seqs, ends)
    ]


def _parse_records(lines: Iterator[str], lineno: int) -> Iterator[ReadRecord]:
    """Record-by-record parse of lines that start at line lineno + 1."""
    while True:
        header = next(lines, "")
        if not header:
            return
        lineno += 1
        header = header.rstrip("\n")
        if not header.startswith("@"):
            raise FastqFormatError(f"expected '@' header, got {header[:20]!r}", lineno)
        seq = next(lines, "")
        if not seq:
            raise FastqFormatError("truncated record: missing sequence line", lineno + 1)
        lineno += 1
        seq = seq.rstrip("\n")
        bad = set(seq) - VALID_BASES
        if bad:
            raise FastqFormatError(f"invalid base(s) {sorted(bad)}", lineno)
        plus = next(lines, "")
        if not plus:
            raise FastqFormatError("truncated record: missing '+' line", lineno + 1)
        lineno += 1
        if not plus.startswith("+"):
            raise FastqFormatError(f"expected '+' separator, got {plus[:20]!r}", lineno)
        qual = next(lines, "")
        if not qual:
            raise FastqFormatError("truncated record: missing quality line", lineno + 1)
        lineno += 1
        qual = qual.rstrip("\n")
        if len(qual) != len(seq):
            raise FastqFormatError(
                f"quality length {len(qual)} != sequence length {len(seq)}", lineno
            )
        q = np.frombuffer(qual.encode("ascii"), dtype=np.uint8).astype(np.uint8)
        if (q < PHRED_OFFSET).any():
            raise FastqFormatError("quality character below Phred+33 range", lineno)
        yield ReadRecord(id=header[1:], bases=seq, qscores=q - PHRED_OFFSET)


def write_fastq(records: Iterable[ReadRecord], dest: str | Path | IO[str]) -> int:
    """Write records in normalized 4-line form. Returns the record count."""
    if isinstance(dest, (str, Path)):
        with open(dest, "w") as fh:
            return _write_handle(records, fh)
    return _write_handle(records, dest)


def _write_handle(records: Iterable[ReadRecord], fh: IO[str]) -> int:
    n = 0
    for rec in records:
        qual = (np.asarray(rec.qscores, dtype=np.uint8) + PHRED_OFFSET).tobytes().decode("ascii")
        fh.write(f"@{rec.id}\n{rec.bases}\n+\n{qual}\n")
        n += 1
    return n


def phred_to_prob(q):
    """Probability of a correct basecall: 1 - 10^(-q/10), clipped away from {0, 1}.

    Accepts a scalar or array; rejects negative scores.
    """
    arr = np.asarray(q, dtype=np.float64)
    if (arr < 0).any():
        raise ValueError("negative Q-score")
    p = 1.0 - 10.0 ** (-arr / 10.0)
    p = np.clip(p, PROB_EPS, 1.0 - PROB_EPS)
    if np.isscalar(q) or np.ndim(q) == 0:
        return float(p)
    return p
