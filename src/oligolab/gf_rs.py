"""GF(2^8) arithmetic and the (38, 36) Reed-Solomon intra-oligo code.

The field uses the primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D)
with generator element a = 2, the common convention for byte-oriented RS
codes. Symbols are ints in [0, 255]; addition is XOR, and products go
through one pair of log/antilog tables. A word is a polynomial with
word[0] the highest-degree coefficient, and the codewords are the words
that vanish at a^0 and a^1: minimum distance 3, so the decoder corrects
any single-symbol error and never reports a double-symbol error clean.

Encoding, checking and correcting all come from the two syndromes
S0 = word(a^0) and S1 = word(a^1), which `rs_syndromes` computes for a
whole (n, 38) array of words at once:
- encode: the codeword m(x) * x^2 + p0 * x + p1 vanishes at a^0 and a^1,
  so with (S0, S1) the syndromes of the message padded with two zero
  symbols, p0 = (S0 + S1) / (1 + a) and p1 = S0 + p0;
- check: a word is a codeword exactly when S0 = S1 = 0;
- correct: a single error of magnitude S0 sits at degree log S1 - log S0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

GF_PRIM = 0x11D
GF_GENERATOR = 2

N_SYMBOLS = 38
N_MESSAGE = 36


def _powers() -> list[int]:
    """a^0, a^1, ..., a^254."""
    out = [1]
    for _ in range(254):
        x = out[-1] << 1
        out.append(x ^ GF_PRIM if x & 0x100 else x)
    return out


# antilog table, doubled so a sum of two logs needs no modular reduction;
# log table, with the undefined log of 0 read as 0
_EXP_TABLE = np.resize(np.array(_powers(), dtype=np.uint8), 512)
_LOG_TABLE = np.zeros(256, dtype=np.int16)
_LOG_TABLE[_EXP_TABLE[:255]] = np.arange(255)
# the degree of each symbol's term, word[0] the highest
_DEGREES = np.arange(N_SYMBOLS - 1, -1, -1, dtype=np.int16)


def rs_encode_array(messages: np.ndarray) -> np.ndarray:
    """(n, 36) message symbols -> their (n, 38) systematic codewords, uint8.

    The parity symbols are the ones that zero both syndromes (see the
    module docstring).
    """
    messages = np.asarray(messages)
    if messages.ndim != 2 or messages.shape[1] != N_MESSAGE:
        raise ValueError(f"message must have {N_MESSAGE} symbols, got {messages.shape[-1]}")
    bad = (messages < 0) | (messages > 255)
    if bad.any():
        raise ValueError(f"symbol out of range: {messages[bad][0]}")
    words = np.zeros((len(messages), N_SYMBOLS), dtype=np.uint8)
    words[:, :N_MESSAGE] = messages
    s0, s1 = rs_syndromes(words)
    total = s0 ^ s1
    quotient = _EXP_TABLE[_LOG_TABLE[total] + 255 - _LOG_TABLE[1 ^ GF_GENERATOR]]
    words[:, N_MESSAGE] = np.where(total != 0, quotient, 0)
    words[:, N_MESSAGE + 1] = s0 ^ words[:, N_MESSAGE]
    return words


def rs_encode(message: Sequence[int]) -> list[int]:
    """Systematic encode of 36 symbols into a 38-symbol codeword."""
    return rs_encode_array([message]).tolist()[0]


def rs_syndromes(symbols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, 38) uint8 words -> their syndromes S0 and S1, each (n,) uint8.

    S_t = word(a^t) with word[0] the highest-degree coefficient; a word is
    a codeword exactly when both are zero.
    """
    symbols = np.asarray(symbols, dtype=np.uint8)
    s0 = np.bitwise_xor.reduce(symbols, axis=1)
    terms = np.where(symbols != 0, _EXP_TABLE[_LOG_TABLE[symbols] + _DEGREES], 0)
    return s0, np.bitwise_xor.reduce(terms, axis=1)


STATUS_CLEAN = "clean"
STATUS_CORRECTED = "corrected"
STATUS_DETECTED = "detected_uncorrectable"


@dataclass
class RsDecodeOutcome:
    status: str
    corrected_positions: list[int] = field(default_factory=list)
    codeword: list[int] | None = None


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
    s0, s1 = (int(s[0]) for s in rs_syndromes([word]))
    if s0 == 0 and s1 == 0:
        return RsDecodeOutcome(STATUS_CLEAN, [], list(word))
    if s0 == 0 or s1 == 0:
        # a single error yields two nonzero syndromes; this needs >= 2 errors
        return RsDecodeOutcome(STATUS_DETECTED)
    degree = int(_LOG_TABLE[s1] - _LOG_TABLE[s0]) % 255
    if degree >= N_SYMBOLS:
        return RsDecodeOutcome(STATUS_DETECTED)
    pos = N_SYMBOLS - 1 - degree
    fixed = list(word)
    fixed[pos] ^= s0
    return RsDecodeOutcome(STATUS_CORRECTED, [pos], fixed)
