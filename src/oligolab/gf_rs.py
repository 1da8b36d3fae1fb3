"""GF(2^8) arithmetic and the (38, 36) Reed-Solomon intra-oligo code.

The field uses the primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D)
with generator element 2, the common convention for byte-oriented RS codes.
The code has two parity symbols (minimum distance 3), so the decoder
corrects any single-symbol error and detects double-symbol errors.
Symbols are ints in [0, 255]; addition is XOR. `rs_syndromes` checks a
whole (n, 38) array of words at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

GF_PRIM = 0x11D
GF_GENERATOR = 2
FIELD_SIZE = 256

N_SYMBOLS = 38
N_MESSAGE = 36
N_PARITY = 2

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


_EXP_TABLE = np.array(_EXP, dtype=np.uint8)
_LOG_TABLE = np.array(_LOG, dtype=np.int16)
# the degree of each symbol's term, word[0] the highest
_DEGREES = np.arange(N_SYMBOLS - 1, -1, -1, dtype=np.int16)


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
    degree = (_LOG[s1] - _LOG[s0]) % 255
    if degree >= N_SYMBOLS:
        return RsDecodeOutcome(STATUS_DETECTED)
    pos = N_SYMBOLS - 1 - degree
    fixed = list(word)
    fixed[pos] ^= s0
    return RsDecodeOutcome(STATUS_CORRECTED, [pos], fixed)
