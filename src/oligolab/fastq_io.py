"""Streaming FASTQ reader/writer with Phred+33 qualities.

The reader takes binary lines CHUNK_RECORDS records at a time and keeps
one chunk in memory, so multi-million-read files stream in constant
memory. Line ends are read as in text mode: "\r\n" and a lone "\r" end a
line like "\n". A chunk of whole 4-line records is checked in bulk and
returned as a FastqChunk: the read lengths, the joined letters and the
joined Phred values. A chunk that fails a check is walked record by
record to find its first fault; the records before it are returned, and
the fault is raised with its line number. `parse_fastq` builds
ReadRecords from these chunks; `clustering_llr.cluster_by_seed` reads
them as arrays. Gzipped input is handled transparently by filename
suffix. Only the Phred+33 offset is supported. `write_fastq` writes
records one by one; `record_block` lays out equal-length records in the
same form as one byte matrix.
"""

from __future__ import annotations

import gzip
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

PHRED_OFFSET = 33
PROB_EPS = 1e-12
VALID_BASES = frozenset("ACGTN")
CHUNK_RECORDS = 4096


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


@dataclass(slots=True)
class FastqChunk:
    """Consecutive well-formed records, joined.

    Every header is UTF-8 text, every letter one of ACGTN and every
    quality character ASCII from '!' on.
    """

    headers: list[bytes]  # the header lines as read, '@' and line end included
    lengths: np.ndarray  # (n,) read lengths
    bases: bytes  # the n reads' letters, joined
    phred: np.ndarray  # (len(bases),) uint8 Phred values, joined

    def records(self) -> list[ReadRecord]:
        ids = b"".join(self.headers).decode().split("\n")
        text = self.bases.decode("ascii")
        ends = np.cumsum(self.lengths).tolist()
        return [
            ReadRecord(id=h[1:], bases=text[end - n : end], qscores=self.phred[end - n : end])
            for h, n, end in zip(ids, self.lengths.tolist(), ends)
        ]


def parse_fastq(path: str | Path) -> Iterator[ReadRecord]:
    """Yield the ReadRecords of a FASTQ file."""
    for chunk in fastq_chunks(path):
        yield from chunk.records()


def fastq_chunks(path: str | Path) -> Iterator[FastqChunk]:
    """Yield the records of a FASTQ file as FastqChunks.

    A malformed record raises FastqFormatError after the chunk of the
    well-formed records before it.
    """
    path = Path(path)
    with gzip.open(path, "rb") if path.suffix == ".gz" else open(path, "rb") as fh:
        yield from _chunks(fh)


def _chunks(lines: Iterator[bytes], lineno: int = 0) -> Iterator[FastqChunk]:
    """Chunks of lines that start at line lineno + 1."""
    while chunk_lines := list(islice(lines, 4 * CHUNK_RECORDS)):
        chunk = _bulk_chunk(chunk_lines)
        if chunk is None:
            if any(b"\r" in line for line in chunk_lines):
                # from here on, read with text-mode line ends
                yield from _chunks(_text_line_ends(chain(chunk_lines, lines)), lineno)
                return
            fault = _first_fault(chunk_lines, lineno)
            whole = 4 * ((fault.line_number - lineno - 1) // 4)
            if whole:
                yield _bulk_chunk(chunk_lines[:whole])
            raise fault
        lineno += len(chunk_lines)
        del chunk_lines  # not held while the caller works on the chunk
        yield chunk


def _text_line_ends(lines: Iterable[bytes]) -> Iterator[bytes]:
    """The lines split as text mode splits them: "\r\n" and a lone "\r"
    end a line like "\n" and are read as "\n"."""
    for line in lines:
        if b"\r" in line:
            yield from line.replace(b"\r\n", b"\n").replace(b"\r", b"\n").splitlines(True)
        else:
            yield line


def _bulk_chunk(lines: list[bytes]) -> FastqChunk | None:
    """The records of whole well-formed 4-line records; None if any check
    fails or a line holds a "\r"."""
    if len(lines) % 4:
        return None
    # every line but the file's last ends in its one newline, so a joined
    # group of lines has one line start after each newline but the last
    headers, plus = b"".join(lines[0::4]), b"".join(lines[2::4])
    n = len(lines) // 4
    if (
        not (headers.startswith(b"@") and headers.count(b"\n@") == n - 1)
        or not (plus.startswith(b"+") and plus.count(b"\n+") == n - 1)
        or b"\r" in headers
        or b"\r" in plus
        or not _is_utf8(headers)
    ):
        return None
    seq, qual = b"".join(lines[1::4]), b"".join(lines[3::4])
    if not qual.endswith(b"\n"):
        qual += b"\n"
    # equal read lengths are equal newline positions
    seq_nl = np.frombuffer(seq, dtype=np.uint8) == ord("\n")
    if len(seq) != len(qual) or not np.array_equal(
        seq_nl, np.frombuffer(qual, dtype=np.uint8) == ord("\n")
    ):
        return None
    bases = seq.replace(b"\n", b"")
    del seq  # not held beside the Q-score copies below
    if bases.translate(None, b"ACGTN"):
        return None
    # a character below '!' wraps around, so one bound checks both ends
    phred = np.frombuffer(qual.replace(b"\n", b""), dtype=np.uint8) - PHRED_OFFSET
    if (phred > 127 - PHRED_OFFSET).any():
        return None
    lengths = np.diff(np.flatnonzero(seq_nl), prepend=-1) - 1
    return FastqChunk(headers=lines[0::4], lengths=lengths, bases=bases, phred=phred)


def _is_utf8(data: bytes) -> bool:
    try:
        data.decode()
    except UnicodeDecodeError:
        return False
    return True


def _text(line: bytes) -> str:
    return line.decode(errors="replace")


def _first_fault(lines: list[bytes], lineno: int) -> FastqFormatError:
    """The first fault of lines that start at line lineno + 1 and failed the
    bulk check, walking them record by record."""
    it = iter(lines)
    while header := next(it, b""):
        lineno += 1
        if not _is_utf8(header):
            return FastqFormatError("header is not UTF-8 text", lineno)
        header = header.decode().rstrip("\n")
        if not header.startswith("@"):
            return FastqFormatError(f"expected '@' header, got {header[:20]!r}", lineno)
        seq = next(it, b"")
        if not seq:
            return FastqFormatError("truncated record: missing sequence line", lineno + 1)
        lineno += 1
        seq = _text(seq).rstrip("\n")
        bad = set(seq) - VALID_BASES
        if bad:
            return FastqFormatError(f"invalid base(s) {sorted(bad)}", lineno)
        plus = next(it, b"")
        if not plus:
            return FastqFormatError("truncated record: missing '+' line", lineno + 1)
        lineno += 1
        if not plus.startswith(b"+"):
            return FastqFormatError(f"expected '+' separator, got {_text(plus)[:20]!r}", lineno)
        qual = next(it, b"")
        if not qual:
            return FastqFormatError("truncated record: missing quality line", lineno + 1)
        lineno += 1
        qual = _text(qual).rstrip("\n")
        if len(qual) != len(seq):
            return FastqFormatError(
                f"quality length {len(qual)} != sequence length {len(seq)}", lineno
            )
        if not qual.isascii():
            return FastqFormatError("quality character outside ASCII", lineno)
        if qual and min(qual) < chr(PHRED_OFFSET):
            return FastqFormatError("quality character below Phred+33 range", lineno)
    raise AssertionError("a chunk that failed the bulk check has no faulty record")


def write_fastq(records: Iterable[ReadRecord], path: str | Path) -> int:
    """Write records in normalized 4-line form. Returns the record count."""
    n = 0
    with open(path, "w") as fh:
        for rec in records:
            qual = (np.asarray(rec.qscores, dtype=np.uint8) + PHRED_OFFSET).tobytes().decode("ascii")
            fh.write(f"@{rec.id}\n{rec.bases}\n+\n{qual}\n")
            n += 1
    return n


def record_block(headers: np.ndarray, letters: np.ndarray, qscores: np.ndarray) -> np.ndarray:
    """Equal-size records in the normalized 4-line form of write_fastq, one
    row of bytes per record.

    headers is (n, h) ASCII bytes without the '@', letters (n, L) ASCII
    bytes and qscores (n, L) uint8 Phred values.
    """
    n, h = headers.shape
    length = letters.shape[1]
    out = np.empty((n, h + 2 * length + 6), dtype=np.uint8)
    out[:, 0] = ord("@")
    out[:, 1 : h + 1] = headers
    out[:, h + 1] = ord("\n")
    out[:, h + 2 : h + 2 + length] = letters
    out[:, h + 2 + length : h + 5 + length] = np.frombuffer(b"\n+\n", dtype=np.uint8)
    out[:, h + 5 + length : -1] = qscores + PHRED_OFFSET
    out[:, -1] = ord("\n")
    return out


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
