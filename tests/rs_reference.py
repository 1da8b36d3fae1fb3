"""Reference RS encoder and check for the batched property tests.

These are `oligolab.pipeline._rs_check`, `oligolab.gf_rs.rs_decode` and
`oligolab.gf_rs._syndromes` as they were before the syndromes of all words
were computed at once: one pure-Python `rs_decode` per word, clean words
included, with Horner syndromes. The code is verbatim; `gf_rs` below
names the copies and the live module's constants, so `_rs_check` calls
the copied `rs_decode`. The tests require the live check to return the
same masks and coded bits, and the live `rs_decode` the same outcome.

`rs_encode` (with its generator constants) is `oligolab.gf_rs.rs_encode`
as it was before the encoder became one linear map over a whole array of
messages: a per-symbol division by the generator polynomial. The tests
require `gf_rs.rs_encode_array` to return the same codewords.

The field's list tables `_EXP`/`_LOG`, `_init_tables` and `gf_mul` are
copied verbatim from `oligolab.gf_rs` as it was before the module kept
only its numpy tables, so this reference does not share them.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Sequence

import numpy as np

from oligolab.dna_codec import (
    PAYLOAD_SLICE,
    PAYLOAD_SYMBOLS,
    SEED_SYMBOLS,
    base_indices_to_bit_array,
    base_indices_to_symbols,
    symbols_to_base_indices,
)
from oligolab.gf_rs import (
    GF_GENERATOR,
    GF_PRIM,
    N_MESSAGE,
    N_SYMBOLS,
    STATUS_CLEAN,
    STATUS_CORRECTED,
    STATUS_DETECTED,
    RsDecodeOutcome,
)

# log/antilog tables; _EXP is doubled so products need no modular reduction.
_EXP = [0] * 512
_LOG = [0] * 256


def _init_tables() -> None:
    x = 1
    for i in range(255):
        _EXP[i] = x
        _LOG[x] = i
        x <<= 1
        if x & 0x100:
            x ^= GF_PRIM
    for i in range(255, 512):
        _EXP[i] = _EXP[i - 255]


_init_tables()


def gf_mul(a: int, b: int) -> int:
    """Product of two field elements."""
    if a == 0 or b == 0:
        return 0
    return _EXP[_LOG[a] + _LOG[b]]


# Generator polynomial g(x) = (x - a^0)(x - a^1), roots a^0 and a^1.
# Coefficients highest degree first: x^2 + g1*x + g2.
_G1 = 1 ^ GF_GENERATOR                 # a^0 + a^1
_G2 = gf_mul(1, GF_GENERATOR)          # a^0 * a^1


def rs_encode(message: Sequence[int]) -> list[int]:
    """Systematic encode of 36 symbols into a 38-symbol codeword.

    The message is treated as a polynomial with the first symbol as the
    highest-degree coefficient; the two parity symbols are the remainder
    of message(x) * x^2 modulo the generator polynomial.
    """
    if len(message) != N_MESSAGE:
        raise ValueError(f"message must have {N_MESSAGE} symbols, got {len(message)}")
    r0 = 0
    r1 = 0
    for m in message:
        if not 0 <= m <= 255:
            raise ValueError(f"symbol out of range: {m}")
        t = r0 ^ m
        r0 = r1 ^ gf_mul(t, _G1)
        r1 = gf_mul(t, _G2)
    return list(message) + [r0, r1]


def _syndromes(word: Sequence[int]) -> tuple[int, int]:
    # S_t = word(a^t) with word[0] the highest-degree coefficient.
    s0 = 0
    s1 = 0
    for w in word:
        s0 ^= w
        s1 = gf_mul(s1, GF_GENERATOR) ^ w
    return s0, s1


def rs_decode(word: Sequence[int]) -> RsDecodeOutcome:
    """Decode a 38-symbol word: fix one symbol error or flag the word as bad.

    With distance 3 any single error is located directly from the two
    syndromes (position = log ratio, magnitude = S0). Double errors either
    produce an out-of-range position (detected) or masquerade as a single
    error at a wrong position (miscorrection, inherent to the code); they
    can never produce an all-zero syndrome, so a corrupted word is never
    reported clean.
    """
    if len(word) != N_SYMBOLS:
        raise ValueError(f"word must have {N_SYMBOLS} symbols, got {len(word)}")
    s0, s1 = _syndromes(word)
    if s0 == 0 and s1 == 0:
        return RsDecodeOutcome(STATUS_CLEAN, [], list(word))
    if s0 == 0 or s1 == 0:
        # a single error yields two nonzero syndromes; this needs >= 2 errors
        return RsDecodeOutcome(STATUS_DETECTED)
    degree = (_LOG[s1] - _LOG[s0]) % 255
    if degree >= N_SYMBOLS:
        return RsDecodeOutcome(STATUS_DETECTED)
    pos = N_SYMBOLS - 1 - degree
    fixed = list(word)
    fixed[pos] ^= s0
    return RsDecodeOutcome(STATUS_CORRECTED, [pos], fixed)


gf_rs = SimpleNamespace(
    rs_decode=rs_decode, STATUS_DETECTED=STATUS_DETECTED, STATUS_CORRECTED=STATUS_CORRECTED
)


def _rs_check(codes: np.ndarray, coded: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """RS-decode every row of an (n, 152) base-code matrix, one word per row.

    A correction in the payload symbols is written into that row of
    `coded`, the (n, 256) coded bits. Returns the rows RS detected as
    uncorrectable and the rows whose correction touched a seed symbol.
    """
    detected = np.zeros(len(codes), dtype=bool)
    seed_corrected = np.zeros(len(codes), dtype=bool)
    for r, word in enumerate(base_indices_to_symbols(codes)):
        outcome = gf_rs.rs_decode(word)
        if outcome.status == gf_rs.STATUS_DETECTED:
            detected[r] = True
        elif outcome.status == gf_rs.STATUS_CORRECTED:
            positions = outcome.corrected_positions
            seed_corrected[r] = any(p < SEED_SYMBOLS for p in positions)
            if any(SEED_SYMBOLS <= p < SEED_SYMBOLS + PAYLOAD_SYMBOLS for p in positions):
                fixed = symbols_to_base_indices(outcome.codeword)
                coded[r] = base_indices_to_bit_array(fixed[PAYLOAD_SLICE])
    return detected, seed_corrected
