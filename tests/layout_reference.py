"""Reference oligo layout for the layout property tests.

This is the layout code of `oligolab.dna_codec` as it was when seeds and
bases were converted through strings of '0'/'1' characters, one base at a
time: `bits_to_bases`, `bases_to_bits`, `seed_to_bases`, `assemble_oligo`,
`parse_oligo` and the 1-D array conversions they call. The tests require
the array codec to give the same results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from oligolab import gf_rs

BASES = "ACGT"
BASE_TO_INDEX = {b: i for i, b in enumerate(BASES)}

SEED_NT = 16
PAYLOAD_NT = 128
PARITY_NT = 8
OLIGO_NT = SEED_NT + PAYLOAD_NT + PARITY_NT

SEED_BITS = 32
PAYLOAD_BITS = 256


def bits_to_bases(bits: str) -> str:
    """Map an even-length 0/1 string to bases, two bits per base."""
    if len(bits) % 2 != 0:
        raise ValueError(f"bit string length must be even, got {len(bits)}")
    out = []
    for i in range(0, len(bits), 2):
        pair = bits[i : i + 2]
        try:
            idx = int(pair, 2)
        except ValueError:
            raise ValueError(f"invalid bit pair {pair!r} at offset {i}") from None
        out.append(BASES[idx])
    return "".join(out)


def bases_to_bits(bases: str) -> str:
    out = []
    for b in bases:
        try:
            idx = BASE_TO_INDEX[b]
        except KeyError:
            raise ValueError(f"invalid base {b!r}") from None
        out.append(format(idx, "02b"))
    return "".join(out)


def bit_array_to_base_indices(bits: np.ndarray) -> np.ndarray:
    """(2n,) 0/1 array -> (n,) base indices; first bit of each pair is high."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 1 or len(bits) % 2 != 0:
        raise ValueError("bits must be a 1-D even-length array")
    return (bits[0::2] << 1) | bits[1::2]


def base_indices_to_bit_array(indices: np.ndarray) -> np.ndarray:
    indices = np.asarray(indices, dtype=np.uint8)
    bits = np.empty(2 * len(indices), dtype=np.uint8)
    bits[0::2] = indices >> 1
    bits[1::2] = indices & 1
    return bits


def base_indices_to_symbols(indices: np.ndarray) -> list[int]:
    """Pack base indices into 8-bit RS symbols, 4 bases per symbol, MSB-first."""
    indices = np.asarray(indices, dtype=np.uint8)
    if len(indices) % 4 != 0:
        raise ValueError("base count must be a multiple of 4")
    quads = indices.reshape(-1, 4).astype(np.int64)
    syms = (quads[:, 0] << 6) | (quads[:, 1] << 4) | (quads[:, 2] << 2) | quads[:, 3]
    return syms.tolist()


def symbols_to_base_indices(symbols: Sequence[int]) -> np.ndarray:
    syms = np.asarray(symbols, dtype=np.int64)
    out = np.empty(4 * len(syms), dtype=np.uint8)
    out[0::4] = (syms >> 6) & 3
    out[1::4] = (syms >> 4) & 3
    out[2::4] = (syms >> 2) & 3
    out[3::4] = syms & 3
    return out


def sequence_to_indices(seq: str) -> np.ndarray:
    try:
        return np.array([BASE_TO_INDEX[b] for b in seq], dtype=np.uint8)
    except KeyError as exc:
        raise ValueError(f"invalid base {exc.args[0]!r}") from None


def indices_to_sequence(indices: Iterable[int]) -> str:
    return "".join(BASES[int(i)] for i in indices)


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

    @property
    def sequence(self) -> str:
        return self.seed_nt + self.payload_nt + self.parity_nt

    @property
    def seed_value(self) -> int:
        return int(bases_to_bits(self.seed_nt), 2)


def seed_to_bases(seed: int) -> str:
    """Render a 32-bit seed as its 16-nt prefix, MSB-first."""
    if not 0 <= seed < 2**SEED_BITS:
        raise ValueError(f"seed out of 32-bit range: {seed}")
    return bits_to_bases(format(seed, "032b"))


def assemble_oligo(seed: int, payload_bits: np.ndarray) -> Oligo:
    """Build the full oligo: RS parity is computed over seed+payload symbols."""
    payload_bits = np.asarray(payload_bits, dtype=np.uint8)
    if payload_bits.shape != (PAYLOAD_BITS,):
        raise ValueError(f"payload must be {PAYLOAD_BITS} bits, got {payload_bits.shape}")
    seed_nt = seed_to_bases(seed)
    seed_idx = sequence_to_indices(seed_nt)
    payload_idx = bit_array_to_base_indices(payload_bits)
    message = base_indices_to_symbols(np.concatenate([seed_idx, payload_idx]))
    codeword = gf_rs.rs_encode(message)
    parity_idx = symbols_to_base_indices(codeword[gf_rs.N_MESSAGE :])
    return Oligo(
        seed_nt=seed_nt,
        payload_nt=indices_to_sequence(payload_idx),
        parity_nt=indices_to_sequence(parity_idx),
    )


def parse_oligo(sequence: str) -> tuple[int, np.ndarray, Oligo]:
    """Split a 152-nt sequence back into (seed value, payload bits, Oligo)."""
    if len(sequence) != OLIGO_NT:
        raise ValueError(f"oligo must be {OLIGO_NT} nt, got {len(sequence)}")
    oligo = Oligo(
        seed_nt=sequence[:SEED_NT],
        payload_nt=sequence[SEED_NT : SEED_NT + PAYLOAD_NT],
        parity_nt=sequence[SEED_NT + PAYLOAD_NT :],
    )
    payload_bits = base_indices_to_bit_array(sequence_to_indices(oligo.payload_nt))
    return oligo.seed_value, payload_bits, oligo
