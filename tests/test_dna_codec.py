import numpy as np
import pytest
from hypothesis import given, strategies as st

from oligolab import dna_codec, gf_rs
from oligolab.dna_codec import (
    Oligo,
    assemble_oligo,
    bases_to_bits,
    bits_to_bases,
    parse_oligo,
    read_fasta,
    seed_to_bases,
    write_fasta,
)


def rs_symbols(sequence):
    """The 38 RS symbols of a 152-nt sequence."""
    return dna_codec.base_indices_to_symbols(dna_codec.sequence_to_indices(sequence))


def test_mapping_paper_example():
    assert bits_to_bases("00011011") == "ACGT"


def test_mapping_empty():
    assert bits_to_bases("") == ""


def test_mapping_rejects_odd_length():
    with pytest.raises(ValueError):
        bits_to_bases("010")


@given(st.text(alphabet="01", min_size=0, max_size=64).filter(lambda s: len(s) % 2 == 0))
def test_mapping_roundtrip(bits):
    assert bases_to_bits(bits_to_bases(bits)) == bits


def test_symbol_packing_msb_first():
    # ACGT = indices 0,1,2,3 = bits 00 01 10 11 = 0x1B
    idx = dna_codec.sequence_to_indices("ACGT")
    assert dna_codec.base_indices_to_symbols(idx) == [0x1B]
    back = dna_codec.symbols_to_base_indices([0x1B])
    assert dna_codec.indices_to_sequence(back) == "ACGT"


def test_assemble_all_zero_is_all_a():
    oligo = assemble_oligo(0, np.zeros(256, dtype=np.uint8))
    assert oligo.sequence == "A" * 152


def test_assemble_parse_roundtrip():
    rng = np.random.default_rng(23)
    for _ in range(50):
        seed = int(rng.integers(0, 2**32))
        payload = rng.integers(0, 2, size=256, dtype=np.uint8)
        oligo = assemble_oligo(seed, payload)
        assert len(oligo.sequence) == 152
        got_seed, got_payload, got_oligo = parse_oligo(oligo.sequence)
        assert got_seed == seed
        assert np.array_equal(got_payload, payload)
        assert got_oligo == oligo


def test_assembled_oligo_is_rs_clean():
    rng = np.random.default_rng(29)
    for _ in range(50):
        oligo = assemble_oligo(
            int(rng.integers(0, 2**32)), rng.integers(0, 2, size=256, dtype=np.uint8)
        )
        out = gf_rs.rs_decode(rs_symbols(oligo.sequence))
        assert out.status == gf_rs.STATUS_CLEAN


def test_single_base_corruption_is_rs_corrected():
    rng = np.random.default_rng(31)
    oligo = assemble_oligo(12345, rng.integers(0, 2, size=256, dtype=np.uint8))
    clean = rs_symbols(oligo.sequence)
    for pos in range(0, 152, 7):
        seq = list(oligo.sequence)
        seq[pos] = "ACGT"[("ACGT".index(seq[pos]) + 1) % 4]
        out = gf_rs.rs_decode(rs_symbols("".join(seq)))
        assert out.status == gf_rs.STATUS_CORRECTED
        assert out.codeword == clean


def test_seed_to_bases_range():
    assert seed_to_bases(0) == "A" * 16
    assert seed_to_bases(2**32 - 1) == "T" * 16
    with pytest.raises(ValueError):
        seed_to_bases(2**32)


def test_fasta_roundtrip(tmp_path):
    rng = np.random.default_rng(37)
    oligos = [
        assemble_oligo(int(s), rng.integers(0, 2, size=256, dtype=np.uint8))
        for s in range(10)
    ]
    path = tmp_path / "pool.fasta"
    assert write_fasta(oligos, path) == 10
    assert read_fasta(path) == oligos
    first = path.read_text().splitlines()[0]
    assert first == ">00000000"


def test_fasta_with_primers(tmp_path):
    oligo = assemble_oligo(7, np.zeros(256, dtype=np.uint8))
    path = tmp_path / "pool.fasta"
    write_fasta([oligo], path, with_primers=True)
    seq = path.read_text().splitlines()[1]
    assert seq.startswith(dna_codec.PRIMER_5)
    assert seq.endswith(dna_codec.PRIMER_3)
    assert len(seq) == 152 + len(dna_codec.PRIMER_5) + len(dna_codec.PRIMER_3)


def test_oligo_validates_lengths():
    with pytest.raises(ValueError):
        Oligo(seed_nt="A" * 15, payload_nt="A" * 128, parity_nt="A" * 8)
