import gzip
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fastq_reference as ref
from layout_reference import seed_to_bases
from oligolab import fastq_io
from oligolab.clustering_llr import cluster_by_seed
from oligolab.dna_codec import indices_to_sequence
from oligolab.fastq_io import (
    CHUNK_RECORDS,
    FastqFormatError,
    ReadRecord,
    parse_fastq,
    phred_to_prob,
    write_fastq,
)
from oligolab.fountain import SeedSchedule


def make_fastq_text(n, seq="ACGT", qual="II+!"):
    return "".join(f"@r{i}\n{seq}\n+\n{qual}\n" for i in range(n))


def fastq_file(tmp_path, text):
    path = tmp_path / "reads.fastq"
    path.write_text(text)
    return path


def test_parse_basic_scores(tmp_path):
    text = "@r0\nAC\n+\n+I\n"
    (rec,) = list(parse_fastq(fastq_file(tmp_path, text)))
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


def test_length_mismatch_reports_line(tmp_path):
    text = "@r0\nACGT\n+\nII\n"
    with pytest.raises(FastqFormatError) as exc:
        list(parse_fastq(fastq_file(tmp_path, text)))
    assert exc.value.line_number == 4


def test_bad_header_marker(tmp_path):
    with pytest.raises(FastqFormatError) as exc:
        list(parse_fastq(fastq_file(tmp_path, "rX\nAC\n+\nII\n")))
    assert exc.value.line_number == 1


def test_bad_plus_marker(tmp_path):
    with pytest.raises(FastqFormatError) as exc:
        list(parse_fastq(fastq_file(tmp_path, "@r0\nAC\n-\nII\n")))
    assert exc.value.line_number == 3


def test_truncated_file(tmp_path):
    with pytest.raises(FastqFormatError):
        list(parse_fastq(fastq_file(tmp_path, "@r0\nACGT\n+\n")))


def test_invalid_bases_rejected(tmp_path):
    with pytest.raises(FastqFormatError):
        list(parse_fastq(fastq_file(tmp_path, "@r0\nACXT\n+\nIIII\n")))



@pytest.mark.parametrize(
    "bad_line",
    ["@r\nACGT\n-\nIIII\n", "@r\nACGT\n+\nII I\n", "@r\nAC\n+\nIIII\n"],
    ids=["bad_plus", "low_quality", "length_mismatch"],
)
def test_fault_in_a_later_chunk_keeps_records_and_line_number(bad_line, tmp_path):
    # the records before the fault are yielded, then the error names its line
    before = CHUNK_RECORDS + 2
    text = make_fastq_text(before) + bad_line + make_fastq_text(3)
    gen = parse_fastq(fastq_file(tmp_path, text))
    got = [next(gen) for _ in range(before)]
    assert [r.id for r in got] == [f"r{i}" for i in range(before)]
    with pytest.raises(FastqFormatError) as exc:
        next(gen)
    assert exc.value.line_number == 4 * before + (3 if "-" in bad_line else 4)


def test_chunked_records_match_record_by_record_values(tmp_path):
    text = "".join(
        f"@r{i} x\n{'ACGTN'[i % 5] * i}\n+\n{chr(33 + i % 60) * i}\n"
        for i in range(2 * CHUNK_RECORDS + 7)
    )
    records = list(parse_fastq(fastq_file(tmp_path, text)))
    assert len(records) == 2 * CHUNK_RECORDS + 7
    for i, rec in enumerate(records):
        assert rec.id == f"r{i} x"
        assert rec.bases == "ACGTN"[i % 5] * i
        assert rec.qscores.dtype == np.uint8
        assert rec.qscores.tolist() == [i % 60] * i


def test_n_bases_retained(tmp_path):
    (rec,) = list(parse_fastq(fastq_file(tmp_path, "@r0\nACNT\n+\nIIII\n")))
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


def test_non_utf8_header_is_a_format_error(tmp_path):
    path = tmp_path / "bad.fastq"
    path.write_bytes(make_fastq_text(5).encode() + b"@r\xff\nACGT\n+\nIIII\n")
    gen = parse_fastq(path)
    assert [next(gen).id for _ in range(5)] == [f"r{i}" for i in range(5)]
    with pytest.raises(FastqFormatError, match="UTF-8") as exc:
        next(gen)
    assert exc.value.line_number == 21
    with pytest.raises(FastqFormatError, match="UTF-8") as exc:
        cluster_by_seed(path, SeedSchedule((0,)))
    assert exc.value.line_number == 21


def test_utf8_header_kept(tmp_path):
    path = tmp_path / "utf8.fastq"
    path.write_bytes("@r\u00e9 \u4e2d\nACGT\n+\nIIII\n".encode())
    (rec,) = parse_fastq(path)
    assert rec.id == "r\u00e9 \u4e2d"


@pytest.mark.parametrize("encoding", ["utf-8", "latin-1"])
def test_non_ascii_quality_is_a_format_error(tmp_path, encoding):
    # the text-mode parser raised UnicodeEncodeError or UnicodeDecodeError here
    path = tmp_path / "q.fastq"
    path.write_bytes("@r\nACG\n+\nII\u00e9\n".encode(encoding))
    with pytest.raises(FastqFormatError, match="line 4: quality character outside ASCII"):
        list(parse_fastq(path))


# seeds for the reads' prefixes; random prefixes almost never hit one
FQ_SEEDS = SeedSchedule.first_n(5)
FAULTS = [
    "header", "plus", "length", "lowercase", "letter", "non_ascii_base", "low_quality",
    "truncate_seq", "truncate_plus", "truncate_qual", "blank_line", "lone_cr",
]


@st.composite
def fastq_files(draw):
    """FASTQ text: reads of several lengths with N, quality lines that
    start with '@' or '+', at most one fault, LF or CRLF line ends, and a
    final line end or none."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lines = []
    for i in range(int(rng.integers(0, 15))):
        seed = int(rng.choice(FQ_SEEDS.seeds)) if rng.random() < 0.8 else int(rng.integers(2**32))
        length = int(rng.choice([152, 152, 152, 152, 0, 20, 151, 153]))
        seq = list((seed_to_bases(seed) + indices_to_sequence(rng.integers(0, 4, size=136))) * 2)
        seq = seq[:length]
        if length and rng.random() < 0.2:
            seq[rng.integers(length)] = "N"
        qual = "".join(map(chr, rng.integers(33, 128, size=length)))
        if length and rng.random() < 0.3:
            qual = str(rng.choice(["@", "+"])) + qual[1:]
        header = f"@r{i}" + str(rng.choice(["", " x=1", " \u00e9"]))
        plus = "+" + (header[1:] if rng.random() < 0.3 else "")
        lines += [header, "".join(seq), plus, qual]
    fault = draw(st.sampled_from([None, None, None, *FAULTS]))
    if fault and lines:
        r = 4 * int(rng.integers(len(lines) // 4))
        seq = lines[r + 1]
        at = int(rng.integers(len(seq))) if seq else 0
        if fault == "header":
            lines[r] = lines[r][1:]
        elif fault == "plus":
            lines[r + 2] = "-"
        elif fault == "length":
            lines[r + 3] += "I"
        elif fault in ("lowercase", "letter", "non_ascii_base") and seq:
            letter = {"lowercase": seq[at].lower(), "letter": "X"}.get(fault, "\u00e9")
            lines[r + 1] = seq[:at] + letter + seq[at + 1 :]
        elif fault == "low_quality" and seq:
            lines[r + 3] = lines[r + 3][:at] + " " + lines[r + 3][at + 1 :]
        elif fault.startswith("truncate"):
            keep = {"truncate_seq": 1, "truncate_plus": 2, "truncate_qual": 3}[fault]
            lines = lines[: len(lines) - 4 + keep]
        elif fault == "blank_line":
            lines.insert(r + 4, "")
        elif fault == "lone_cr":
            lines[r] += "\rx"
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + (newline if lines and draw(st.booleans()) else "")
    return text.encode(), draw(st.booleans())


def parse_until_fault(parse, path):
    records = []
    try:
        for rec in parse(path):
            records.append(rec)
    except FastqFormatError as exc:
        return records, str(exc)
    return records, None


@settings(derandomize=True, deadline=None, max_examples=200)
@given(fastq_files(), st.sampled_from([1, 2, 3, CHUNK_RECORDS]))
def test_chunked_reader_matches_reference(drawn, chunk_records):
    data, gz = drawn
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / ("reads.fastq.gz" if gz else "reads.fastq")
        path.write_bytes(gzip.compress(data) if gz else data)
        want, want_error = parse_until_fault(ref.parse_fastq, path)
        with mock.patch.object(fastq_io, "CHUNK_RECORDS", chunk_records):
            got, got_error = parse_until_fault(fastq_io.parse_fastq, path)
            assert (got, got_error) == (want, want_error)
            if want_error is not None:
                for qscores in (True, False):  # the reader checks every quality line
                    with pytest.raises(FastqFormatError) as exc:
                        cluster_by_seed(path, FQ_SEEDS, qscores=qscores)
                    assert str(exc.value) == want_error
                return
            clusters, report = cluster_by_seed(path, FQ_SEEDS)
            codes_only, codes_only_report = cluster_by_seed(path, FQ_SEEDS, qscores=False)
    want_clusters, want_report = cluster_by_seed(want, FQ_SEEDS)
    assert report == want_report == codes_only_report
    assert list(clusters) == list(want_clusters) == list(codes_only)
    assert np.array_equal(codes_only.offsets, want_clusters.offsets)
    assert codes_only.qscores is None
    for seed, w in want_clusters.items():
        assert np.array_equal(clusters[seed].codes, w.codes)
        assert np.array_equal(codes_only[seed].codes, w.codes)
        assert np.array_equal(clusters[seed].qscores, w.qscores)
