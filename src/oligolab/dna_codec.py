"""The oligo layout: letters, base codes, bits, RS symbols and seeds; FASTA
I/O of the 152-nt sequences.

This module is the only one that knows how these map onto each other.
Bases are coded A=0, C=1, G=2, T=3, two bits per base with the high bit
first (00=A, 01=C, 10=G, 11=T). An oligo is 152 nt: 16 nt seed + 128 nt
payload + 8 nt RS parity, where one RS symbol is 8 bits = 4 bases packed
MSB-first, so a seed's four RS symbols are its big-endian bytes. The array
conversions take any leading axes and convert along the last one.
Sequencing primers are carried as pool metadata only; all coding operates
on the 152-nt region.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import gf_rs

BASES = "ACGT"

SEED_NT = 16
PAYLOAD_NT = 128
PARITY_NT = 8
OLIGO_NT = SEED_NT + PAYLOAD_NT + PARITY_NT
PAYLOAD_SLICE = slice(SEED_NT, SEED_NT + PAYLOAD_NT)
PARITY_SLICE = slice(SEED_NT + PAYLOAD_NT, OLIGO_NT)

SEED_BITS = 32
PAYLOAD_BITS = 256
SEED_SYMBOLS = SEED_NT // 4
PAYLOAD_SYMBOLS = PAYLOAD_NT // 4

# amplification/sequencing primers from the pool this layout comes from
PRIMER_5 = "GTTCAGAGTTCTACAGTCCGACGATC"
PRIMER_3 = "TGGAATTCTCGGGTGCCAAGG"
_PRIMED_NT = len(PRIMER_5) + OLIGO_NT + len(PRIMER_3)

_BASE_BYTES = np.frombuffer(BASES.encode("ascii"), dtype=np.uint8)  # code -> letter
_CODE_LUT = np.full(256, 255, dtype=np.uint8)  # letter -> code, 255 for anything else
_CODE_LUT[_BASE_BYTES] = np.arange(len(BASES))
_CODE_TABLE = _CODE_LUT.tobytes()  # the same map for bytes.translate
# code -> letter for bytes.translate, 255 for a code above 3
_LETTER_TABLE = _BASE_BYTES.tobytes() + bytes([255]) * (256 - len(BASES))


def encode_bases(seq: str | bytes) -> np.ndarray:
    """ACGT string or letter bytes -> uint8 codes 0..3 (255 marks anything else)."""
    if isinstance(seq, str):
        # "replace" keeps one byte per character, so positions stay aligned
        seq = seq.encode("ascii", "replace")
    # the bytearray copy makes the array writable
    return np.frombuffer(bytearray(seq.translate(_CODE_TABLE)), dtype=np.uint8)


def encode_base_matrix(seqs: Sequence[str], length: int) -> np.ndarray:
    """Equal-length strings -> (len(seqs), length) codes, as encode_bases."""
    return encode_bases("".join(seqs)).reshape(len(seqs), length)


def sequence_to_indices(seq: str) -> np.ndarray:
    """ACGT string -> uint8 codes; a ValueError names the first other character."""
    codes = encode_bases(seq)
    if codes.max(initial=0) == 255:
        raise ValueError(f"invalid base {seq[int(np.argmax(codes == 255))]!r}")
    return codes


def _letter_bytes(codes: Sequence[int] | np.ndarray) -> bytes:
    """Base codes -> their letters; a code above 3 gives a non-ASCII byte."""
    return np.asarray(codes, dtype=np.uint8).tobytes().translate(_LETTER_TABLE)


def base_letters(codes: np.ndarray) -> np.ndarray:
    """Base codes -> their ASCII letters, as a uint8 array of the same shape."""
    return np.frombuffer(_letter_bytes(codes), dtype=np.uint8).reshape(np.shape(codes))


def indices_to_sequence(indices: Sequence[int] | np.ndarray) -> str:
    return _letter_bytes(indices).decode("ascii")


def indices_to_sequences(codes: np.ndarray) -> list[str]:
    """(n, length) codes -> n strings."""
    n, length = np.shape(codes)
    text = indices_to_sequence(np.ravel(codes))
    return [text[r * length : (r + 1) * length] for r in range(n)]


def bit_array_to_base_indices(bits: np.ndarray) -> np.ndarray:
    """(..., 2n) 0/1 array -> (..., n) base codes; first bit of each pair is high."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim == 0 or bits.shape[-1] % 2 != 0:
        raise ValueError("bits must have an even-length last axis")
    return (bits[..., 0::2] << 1) | bits[..., 1::2]


def base_indices_to_bit_array(indices: np.ndarray) -> np.ndarray:
    """(..., n) base codes -> (..., 2n) bits, high bit first."""
    indices = np.asarray(indices, dtype=np.uint8)
    bits = np.empty((*indices.shape[:-1], 2 * indices.shape[-1]), dtype=np.uint8)
    bits[..., 0::2] = indices >> 1
    bits[..., 1::2] = indices & 1
    return bits


def base_indices_to_symbol_array(indices: np.ndarray) -> np.ndarray:
    """(..., 4n) base codes -> (..., n) uint8 RS symbols.

    A symbol is the 8 bits of its 4 bases c0..c3, MSB-first:
    c0 << 6 | c1 << 4 | c2 << 2 | c3. A code above 3 (255 marks a letter
    other than ACGT) packs as G if even and as T if odd.
    """
    indices = np.asarray(indices, dtype=np.uint8)
    if indices.ndim == 0 or indices.shape[-1] % 4 != 0:
        raise ValueError("base count must be a multiple of 4")
    codes = np.bitwise_and(indices, 1, order="C")  # min(code, 2 + low bit) is 0..3
    codes += 2
    np.minimum(codes, indices, out=codes)
    # a symbol's codes are the bytes of one little-endian uint32, c0 lowest;
    # times 2^30 + 2^20 + 2^10 + 1 its top byte is the symbol, since every
    # other product lies below bit 22 or above bit 31
    words = codes.view("<u4")
    words *= 0x40100401
    words >>= 24
    return words.astype(np.uint8)


def base_indices_to_symbols(indices: np.ndarray) -> list:
    """base_indices_to_symbol_array as (nested) lists of ints."""
    return base_indices_to_symbol_array(indices).tolist()


def symbols_to_base_indices(symbols: Sequence[int]) -> np.ndarray:
    """(..., n) RS symbols -> (..., 4n) base codes."""
    symbols = np.asarray(symbols, dtype=np.uint8)
    codes = np.empty((*symbols.shape, 4), dtype=np.uint8)
    for lane, shift in enumerate((6, 4, 2, 0)):
        np.right_shift(symbols, shift, out=codes[..., lane])
    codes &= 3
    return codes.reshape(*symbols.shape[:-1], 4 * symbols.shape[-1])


def seeds_to_base_indices(seeds: Sequence[int]) -> np.ndarray:
    """32-bit seeds -> (len(seeds), 16) base codes of their big-endian bytes."""
    for s in seeds:
        if not 0 <= s < 2**SEED_BITS:
            raise ValueError(f"seed out of 32-bit range: {s}")
    return symbols_to_base_indices(np.array(seeds, dtype=">u4").reshape(-1, 1).view(np.uint8))


def base_indices_to_seeds(indices: np.ndarray) -> np.ndarray:
    """(..., 16) base codes -> (...) uint32 seeds, the inverse of seeds_to_base_indices."""
    return base_indices_to_symbol_array(indices).view(">u4")[..., 0].astype(np.uint32)


@dataclass(frozen=True)
class Oligo:
    """One encoded 152-nt sequence."""

    seed_nt: str
    payload_nt: str
    parity_nt: str

    def __post_init__(self) -> None:
        if len(self.seed_nt) != SEED_NT:
            raise ValueError(f"seed must be {SEED_NT} nt")
        if len(self.payload_nt) != PAYLOAD_NT:
            raise ValueError(f"payload must be {PAYLOAD_NT} nt")
        if len(self.parity_nt) != PARITY_NT:
            raise ValueError(f"parity must be {PARITY_NT} nt")

    @classmethod
    def split(cls, sequence: str) -> Oligo:
        return cls(sequence[:SEED_NT], sequence[PAYLOAD_SLICE], sequence[PARITY_SLICE])

    @property
    def sequence(self) -> str:
        return self.seed_nt + self.payload_nt + self.parity_nt


def assemble_oligo_array(seeds: Sequence[int], payload_bits: np.ndarray) -> np.ndarray:
    """(n,) seeds and (n, 256) payload bits -> (n, 152) base codes of the
    full oligos: RS parity is computed over each seed+payload's symbols."""
    payload_bits = np.asarray(payload_bits, dtype=np.uint8)
    if payload_bits.shape != (len(seeds), PAYLOAD_BITS):
        raise ValueError(
            f"payload must be {len(seeds)} x {PAYLOAD_BITS} bits, got {payload_bits.shape}"
        )
    message = np.concatenate(
        [seeds_to_base_indices(seeds), bit_array_to_base_indices(payload_bits)], axis=1
    )
    codewords = gf_rs.rs_encode_array(base_indices_to_symbol_array(message))
    return np.concatenate(
        [message, symbols_to_base_indices(codewords[:, gf_rs.N_MESSAGE :])], axis=1
    )


def assemble_oligo(seed: int, payload_bits: np.ndarray) -> Oligo:
    """Build the full oligo: RS parity is computed over seed+payload symbols."""
    payload_bits = np.asarray(payload_bits, dtype=np.uint8)
    if payload_bits.shape != (PAYLOAD_BITS,):
        raise ValueError(f"payload must be {PAYLOAD_BITS} bits, got {payload_bits.shape}")
    return Oligo.split(indices_to_sequence(assemble_oligo_array([seed], payload_bits[None])[0]))


def write_fasta(
    sequences: Sequence[str], path: str | Path, with_primers: bool = False
) -> int:
    """One record per 152-nt sequence, id = 8-hex-digit seed. Returns the record count."""
    seeds = base_indices_to_seeds(encode_base_matrix([s[:SEED_NT] for s in sequences], SEED_NT))
    flank5, flank3 = (PRIMER_5, PRIMER_3) if with_primers else ("", "")
    with open(path, "w") as fh:
        fh.writelines(
            f">{seed:08x}\n{flank5}{seq}{flank3}\n" for seed, seq in zip(seeds.tolist(), sequences)
        )
    return len(sequences)


def read_fasta(path: str | Path) -> list[str]:
    """The 152-nt sequences of a pool written by write_fasta, with or without primers.

    A record flanked by exactly PRIMER_5 and PRIMER_3 is stripped to its
    152-nt oligo. A record of another length, or a letter other than ACGT,
    raises ValueError.
    """
    sequences = []
    header = None
    seq_parts: list[str] = []

    def flush() -> None:
        if header is None:
            return
        seq = "".join(seq_parts)
        if len(seq) == _PRIMED_NT and seq.startswith(PRIMER_5) and seq.endswith(PRIMER_3):
            seq = seq[len(PRIMER_5) : -len(PRIMER_3)]
        if len(seq) != OLIGO_NT:
            raise ValueError(
                f"record {header!r}: expected {OLIGO_NT} nt, got {len(seq)}"
            )
        sequences.append(seq)

    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith(">"):
                flush()
                header = line[1:]
                seq_parts = []
            else:
                seq_parts.append(line)
        flush()
    sequence_to_indices("".join(sequences))
    return sequences
