import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import layout_reference as ref
from oligolab import dna_codec, gf_rs
from oligolab.dna_codec import (
    Oligo,
    assemble_oligo,
    assemble_oligo_array,
    base_indices_to_bit_array,
    base_indices_to_seeds,
    base_indices_to_symbols,
    bit_array_to_base_indices,
    encode_bases,
    indices_to_sequence,
    indices_to_sequences,
    read_fasta,
    seeds_to_base_indices,
    sequence_to_indices,
    symbols_to_base_indices,
    write_fasta,
)

SEEDS = st.integers(0, 2**32 - 1)


def rs_symbols(sequence):
    """The 38 RS symbols of a 152-nt sequence."""
    return dna_codec.base_indices_to_symbols(dna_codec.sequence_to_indices(sequence))


def bit_array(text):
    """'0'/'1' characters -> uint8 bit array."""
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")


def test_mapping_paper_example():
    assert indices_to_sequence(bit_array_to_base_indices(bit_array("00011011"))) == "ACGT"
    assert np.array_equal(
        base_indices_to_bit_array(sequence_to_indices("ACGT")), bit_array("00011011")
    )


def test_mapping_empty():
    assert indices_to_sequence(bit_array_to_base_indices(bit_array(""))) == ""


def test_mapping_rejects_odd_length():
    with pytest.raises(ValueError):
        bit_array_to_base_indices(bit_array("010"))


@given(st.text(alphabet="01", min_size=0, max_size=64).filter(lambda s: len(s) % 2 == 0))
def test_mapping_roundtrip(bits):
    bases = indices_to_sequence(bit_array_to_base_indices(bit_array(bits)))
    assert np.array_equal(base_indices_to_bit_array(sequence_to_indices(bases)), bit_array(bits))


def test_sequence_to_indices_names_first_invalid_base():
    assert np.array_equal(encode_bases("ANé"), [0, 255, 255])
    with pytest.raises(ValueError, match="invalid base 'N'"):
        sequence_to_indices("ACNGé")
    with pytest.raises(ValueError, match="invalid base 'é'"):
        sequence_to_indices("ACéGN")


def test_encode_bases_matches_table_lookup():
    # every character 0-255 and a non-ASCII one, against a numpy table lookup
    text = "".join(map(chr, range(256))) + "é" + "TGCA"
    lookup = dna_codec._CODE_LUT[np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)]
    codes = encode_bases(text)
    assert codes.dtype == np.uint8 and codes.flags.writeable
    assert np.array_equal(codes, lookup)
    assert np.array_equal(codes[-4:], [3, 2, 1, 0]) and (codes[:-4] != 255).sum() == 4


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(SEEDS, max_size=20))
def test_seed_layout_matches_reference(drawn):
    seeds = [0, 2**32 - 1, *drawn]
    want = [ref.seed_to_bases(s) for s in seeds]
    assert indices_to_sequences(seeds_to_base_indices(seeds)) == want
    assert base_indices_to_seeds(seeds_to_base_indices(seeds)).tolist() == seeds
    assert [int(base_indices_to_seeds(sequence_to_indices(w))) for w in want] == seeds


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.one_of(st.integers(max_value=-1), st.integers(min_value=2**32)))
def test_seed_out_of_range_raises_like_reference(seed):
    with pytest.raises(ValueError):
        ref.seed_to_bases(seed)
    with pytest.raises(ValueError):
        seeds_to_base_indices([seed])
    with pytest.raises(ValueError):
        seeds_to_base_indices([1, seed])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(SEEDS, st.binary(min_size=32, max_size=32))
def test_oligo_layout_matches_reference(seed, payload):
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
    want = ref.assemble_oligo(seed, bits)
    got = assemble_oligo(seed, bits)
    assert (got.seed_nt, got.payload_nt, got.parity_nt) == (
        want.seed_nt,
        want.payload_nt,
        want.parity_nt,
    )
    want_seed, want_bits, _ = ref.parse_oligo(want.sequence)
    codes = sequence_to_indices(want.sequence)
    assert int(base_indices_to_seeds(codes[:16])) == want_seed == seed
    assert np.array_equal(base_indices_to_bit_array(codes[dna_codec.PAYLOAD_SLICE]), want_bits)
    assert Oligo.split(want.sequence) == got


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.lists(st.tuples(SEEDS, st.binary(min_size=32, max_size=32)), max_size=12))
def test_oligo_array_matches_single_oligos(drawn):
    seeds = [seed for seed, _ in drawn]
    bits = np.unpackbits(np.frombuffer(b"".join(p for _, p in drawn), dtype=np.uint8))
    bits = bits.reshape(len(drawn), 256)
    codes = assemble_oligo_array(seeds, bits)
    assert codes.dtype == np.uint8 and codes.shape == (len(drawn), 152)
    assert indices_to_sequences(codes) == [
        assemble_oligo(seed, row).sequence for seed, row in zip(seeds, bits)
    ]
    with pytest.raises(ValueError):
        assemble_oligo_array(seeds + [0], bits)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    hnp.arrays(
        np.uint8,
        hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=5).map(
            lambda shape: (*shape[:-1], 4 * shape[-1])
        ),
        elements=st.integers(0, 3),
    )
)
def test_code_matrix_conversions_match_reference(codes):
    bits = base_indices_to_bit_array(codes)
    symbols = base_indices_to_symbols(codes)
    assert bits.shape == (*codes.shape[:-1], 2 * codes.shape[-1])
    for idx in np.ndindex(codes.shape[:-1]):
        row_symbols = symbols
        for i in idx:
            row_symbols = row_symbols[i]
        assert bits[idx].tolist() == ref.base_indices_to_bit_array(codes[idx]).tolist()
        assert row_symbols == ref.base_indices_to_symbols(codes[idx])
    assert np.array_equal(bit_array_to_base_indices(bits), codes)
    symbol_shape = (*codes.shape[:-1], codes.shape[-1] // 4)
    symbol_array = np.array(symbols, dtype=np.uint8).reshape(symbol_shape)
    assert np.array_equal(symbols_to_base_indices(symbol_array), codes)
    if codes.ndim == 2:
        assert indices_to_sequences(codes) == [ref.indices_to_sequence(r) for r in codes]


def test_symbol_packing_matches_the_bit_matrix_form_for_every_code():
    # every uint8 code in every lane of a symbol, 255 (a letter other than
    # ACGT) included, packs as the base bits packed by np.packbits
    codes = np.arange(256, dtype=np.uint8)
    quads = np.stack([np.roll(codes, lane) for lane in range(4)], axis=-1)
    rng = np.random.default_rng(11)
    wide = rng.integers(0, 256, size=(3, 5, 160), dtype=np.uint8)
    for indices in (quads, quads[::-1], wide, wide[:, ::-2, 4:156], codes[None, :]):
        want = np.packbits(base_indices_to_bit_array(indices), axis=-1)
        got = dna_codec.base_indices_to_symbol_array(indices)
        assert got.shape == want.shape and np.array_equal(got, want)
    assert np.array_equal(
        base_indices_to_seeds(wide[..., :16]),
        np.packbits(base_indices_to_bit_array(wide[..., :16]), axis=-1).view(">u4")[..., 0],
    )
    # and every symbol unpacks to the bases of its bits
    symbols = np.stack([codes, codes[::-1]])
    want = bit_array_to_base_indices(np.unpackbits(symbols, axis=-1))
    assert np.array_equal(symbols_to_base_indices(symbols), want)


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
        codes = sequence_to_indices(oligo.sequence)
        assert int(base_indices_to_seeds(codes[:16])) == seed
        assert np.array_equal(base_indices_to_bit_array(codes[dna_codec.PAYLOAD_SLICE]), payload)
        assert Oligo.split(oligo.sequence) == oligo


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
    assert indices_to_sequences(seeds_to_base_indices([0, 2**32 - 1])) == ["A" * 16, "T" * 16]
    with pytest.raises(ValueError):
        seeds_to_base_indices([2**32])


def test_fasta_roundtrip(tmp_path):
    rng = np.random.default_rng(37)
    sequences = [
        assemble_oligo(int(s), rng.integers(0, 2, size=256, dtype=np.uint8)).sequence
        for s in range(10)
    ]
    path = tmp_path / "pool.fasta"
    assert write_fasta(sequences, path) == 10
    assert read_fasta(path) == sequences
    first = path.read_text().splitlines()[0]
    assert first == ">00000000"


def test_fasta_with_primers(tmp_path):
    oligo = assemble_oligo(7, np.zeros(256, dtype=np.uint8)).sequence
    path = tmp_path / "pool.fasta"
    write_fasta([oligo], path, with_primers=True)
    seq = path.read_text().splitlines()[1]
    assert seq.startswith(dna_codec.PRIMER_5)
    assert seq.endswith(dna_codec.PRIMER_3)
    assert len(seq) == 152 + len(dna_codec.PRIMER_5) + len(dna_codec.PRIMER_3)
    assert read_fasta(path) == [oligo]


@pytest.mark.parametrize("position", [3, 50, 147])
def test_read_fasta_rejects_a_letter_other_than_acgt(tmp_path, position):
    seq = assemble_oligo(7, np.zeros(256, dtype=np.uint8)).sequence
    path = tmp_path / "pool.fasta"
    path.write_text(f">00000007\n{seq[:position]}X{seq[position + 1:]}\n")
    with pytest.raises(ValueError, match="invalid base 'X'"):
        read_fasta(path)


@pytest.mark.parametrize("length", [151, 153])
def test_read_fasta_rejects_a_record_of_the_wrong_length(tmp_path, length):
    seq = assemble_oligo(7, np.zeros(256, dtype=np.uint8)).sequence
    path = tmp_path / "pool.fasta"
    path.write_text(f">00000007\n{(seq * 2)[:length]}\n")
    with pytest.raises(ValueError, match=f"record '00000007': expected 152 nt, got {length}"):
        read_fasta(path)


def test_oligo_validates_lengths():
    with pytest.raises(ValueError):
        Oligo(seed_nt="A" * 15, payload_nt="A" * 128, parity_nt="A" * 8)
