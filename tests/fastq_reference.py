"""Reference FASTQ parse path for the chunked-reader property tests.

This is `oligolab.fastq_io.parse_fastq` as it was before the reader took
binary lines: text-mode lines (which turns "\r\n" and a lone "\r" into a
line end), a bulk check and conversion of 1,024 text records at a time,
and a record-by-record parse of a chunk that fails it. The code is
verbatim; it builds the live `ReadRecord` and raises the live
`FastqFormatError`, which are unchanged. The tests require the live
`parse_fastq`, and `cluster_by_seed` given the path, to agree with it.
"""

from __future__ import annotations

import gzip
import io
from itertools import islice
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from oligolab.fastq_io import PHRED_OFFSET, VALID_BASES, FastqFormatError, ReadRecord

CHUNK_RECORDS = 1024


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
