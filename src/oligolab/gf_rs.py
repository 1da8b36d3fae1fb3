"""GF(2^8) arithmetic and the (38, 36) Reed-Solomon intra-oligo code.

The field uses the primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D)
with generator element 2, the common convention for byte-oriented RS codes.
The code has two parity symbols (minimum distance 3), so the decoder
corrects any single-symbol error and detects double-symbol errors.
Symbols are ints in [0, 255]; addition is XOR. `rs_encode_array` encodes
a whole (n, 36) array of messages and `rs_syndromes` checks a whole
(n, 38) array of words at once.
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


_EXP_TABLE = np.array(_EXP, dtype=np.uint8)
_LOG_TABLE = np.array(_LOG, dtype=np.int16)
# the degree of each symbol's term, word[0] the highest
_DEGREES = np.arange(N_SYMBOLS - 1, -1, -1, dtype=np.int16)


def _parity_tables() -> np.ndarray:
    """(36, 256, 2) uint8: the two parity symbols that each value of each
    message symbol contributes.

    The parity is the remainder of message(x) * x^2 modulo the generator
    polynomial g(x) = (x - a^0)(x - a^1) = x^2 + g1*x + g2, a linear map of
    the message; symbol i is the coefficient of x^(37 - i) in message(x) * x^2.
    """
    g1, g2 = 1 ^ GF_GENERATOR, gf_mul(1, GF_GENERATOR)
    # x^2, x^3, ..., x^37 mod g(x) as (x^1, x^0) coefficients: symbols 35 down to 0
    units = []
    hi, lo = 1, 0  # x^1
    for _ in range(N_MESSAGE):
        # x * (hi*x + lo) = hi*x^2 + lo*x, and x^2 = g1*x + g2 mod g(x)
        hi, lo = gf_mul(hi, g1) ^ lo, gf_mul(hi, g2)
        units.append((hi, lo))
    units = np.array(units[::-1])[:, None, :]
    values = np.arange(FIELD_SIZE)[None, :, None]
    products = _EXP_TABLE[_LOG_TABLE[values] + _LOG_TABLE[units]]
    return np.where((values != 0) & (units != 0), products, 0).astype(np.uint8)


_PARITY_TABLES = _parity_tables()


def rs_encode_array(messages: np.ndarray) -> np.ndarray:
    """(n, 36) message symbols -> their (n, 38) systematic codewords, uint8.

    A message is a polynomial with the first symbol as the highest-degree
    coefficient; the two parity symbols are the XOR of each symbol's
    entries in _PARITY_TABLES.
    """
    messages = np.asarray(messages)
    if messages.ndim != 2 or messages.shape[1] != N_MESSAGE:
        raise ValueError(f"message must have {N_MESSAGE} symbols, got {messages.shape[-1]}")
    bad = (messages < 0) | (messages > 255)
    if bad.any():
        raise ValueError(f"symbol out of range: {messages[bad][0]}")
    messages = messages.astype(np.uint8)
    parity = np.zeros((len(messages), N_PARITY), dtype=np.uint8)
    for i, table in enumerate(_PARITY_TABLES):
        parity ^= table[messages[:, i]]
    return np.concatenate([messages, parity], axis=1)


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
    degree = (_LOG[s1] - _LOG[s0]) % 255
    if degree >= N_SYMBOLS:
        return RsDecodeOutcome(STATUS_DETECTED)
    pos = N_SYMBOLS - 1 - degree
    fixed = list(word)
    fixed[pos] ^= s0
    return RsDecodeOutcome(STATUS_CORRECTED, [pos], fixed)
