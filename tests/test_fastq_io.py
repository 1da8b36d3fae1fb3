import gzip
import io

import numpy as np
import pytest

from oligolab.fastq_io import (
    CHUNK_RECORDS,
    FastqFormatError,
    ReadRecord,
    parse_fastq,
    phred_to_prob,
    write_fastq,
)


def make_fastq_text(n, seq="ACGT", qual="II+!"):
    return "".join(f"@r{i}\n{seq}\n+\n{qual}\n" for i in range(n))


def test_parse_basic_scores():
    text = "@r0\nAC\n+\n+I\n"
    (rec,) = list(parse_fastq(io.StringIO(text)))
    assert rec.id == "r0"
    assert rec.bases == "AC"
    # '+' is ASCII 43 -> Q 10; 'I' is ASCII 73 -> Q 40
    assert rec.qscores.tolist() == [10, 40]


def test_roundtrip_byte_identical(tmp_path):
    text = make_fastq_text(100)
    src = tmp_path / "in.fastq"
    dst = tmp_path / "out.fastq"
    src.write_text(text)
    write_fastq(parse_fastq(src), dst)
    assert dst.read_bytes() == src.read_bytes()


def test_gzip_transparent(tmp_path):
    text = make_fastq_text(10)
    path = tmp_path / "in.fastq.gz"
    with gzip.open(path, "wt") as fh:
        fh.write(text)
    records = list(parse_fastq(path))
    assert len(records) == 10
    assert records[3].id == "r3"


def test_streaming_is_lazy(tmp_path):
    # the generator must not consume the whole file up front
    path = tmp_path / "big.fastq"
    path.write_text(make_fastq_text(5000))
    gen = parse_fastq(path)
    first = next(gen)
    assert first.id == "r0"
    gen.close()


def test_length_mismatch_reports_line():
    text = "@r0\nACGT\n+\nII\n"
    with pytest.raises(FastqFormatError) as exc:
        list(parse_fastq(io.StringIO(text)))
    assert exc.value.line_number == 4


def test_bad_header_marker():
    with pytest.raises(FastqFormatError) as exc:
        list(parse_fastq(io.StringIO("rX\nAC\n+\nII\n")))
    assert exc.value.line_number == 1


def test_bad_plus_marker():
    with pytest.raises(FastqFormatError) as exc:
        list(parse_fastq(io.StringIO("@r0\nAC\n-\nII\n")))
    assert exc.value.line_number == 3


def test_truncated_file():
    with pytest.raises(FastqFormatError):
        list(parse_fastq(io.StringIO("@r0\nACGT\n+\n")))


def test_invalid_bases_rejected():
    with pytest.raises(FastqFormatError):
        list(parse_fastq(io.StringIO("@r0\nACXT\n+\nIIII\n")))



@pytest.mark.parametrize(
    "bad_line",
    ["@r\nACGT\n-\nIIII\n", "@r\nACGT\n+\nII I\n", "@r\nAC\n+\nIIII\n"],
    ids=["bad_plus", "low_quality", "length_mismatch"],
)
def test_fault_in_a_later_chunk_keeps_records_and_line_number(bad_line):
    # the records before the fault are yielded, then the error names its line
    before = CHUNK_RECORDS + 2
    text = make_fastq_text(before) + bad_line + make_fastq_text(3)
    gen = parse_fastq(io.StringIO(text))
    got = [next(gen) for _ in range(before)]
    assert [r.id for r in got] == [f"r{i}" for i in range(before)]
    with pytest.raises(FastqFormatError) as exc:
        next(gen)
    assert exc.value.line_number == 4 * before + (3 if "-" in bad_line else 4)


def test_chunked_records_match_record_by_record_values():
    text = "".join(
        f"@r{i} x\n{'ACGTN'[i % 5] * i}\n+\n{chr(33 + i % 60) * i}\n"
        for i in range(2 * CHUNK_RECORDS + 7)
    )
    records = list(parse_fastq(io.StringIO(text)))
    assert len(records) == 2 * CHUNK_RECORDS + 7
    for i, rec in enumerate(records):
        assert rec.id == f"r{i} x"
        assert rec.bases == "ACGTN"[i % 5] * i
        assert rec.qscores.dtype == np.uint8
        assert rec.qscores.tolist() == [i % 60] * i


def test_n_bases_retained():
    (rec,) = list(parse_fastq(io.StringIO("@r0\nACNT\n+\nIIII\n")))
    assert rec.bases == "ACNT"


def test_phred_to_prob_worked_example():
    # Q=10 -> 0.9 exactly (the reference worked example)
    assert phred_to_prob(10) == 0.9


def test_phred_to_prob_clipping_and_values():
    assert phred_to_prob(0) == 1e-12
    assert abs(phred_to_prob(30) - 0.999) < 1e-15
    with pytest.raises(ValueError):
        phred_to_prob(-1)


def test_phred_to_prob_strictly_increasing():
    qs = np.arange(0, 60)
    ps = phred_to_prob(qs)
    assert (np.diff(ps) > 0).all()


def test_phred_to_prob_array():
    out = phred_to_prob(np.array([10, 20]))
    assert isinstance(out, np.ndarray)
    assert abs(out[1] - 0.99) < 1e-15


def test_record_equality():
    a = ReadRecord("x", "ACGT", np.array([1, 2, 3, 4], dtype=np.uint8))
    b = ReadRecord("x", "ACGT", np.array([1, 2, 3, 4], dtype=np.uint8))
    c = ReadRecord("x", "ACGT", np.array([1, 2, 3, 5], dtype=np.uint8))
    assert a == b
    assert a != c
