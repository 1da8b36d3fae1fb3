import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rs_reference

from oligolab import gf_rs
from oligolab.gf_rs import (
    STATUS_CLEAN,
    STATUS_CORRECTED,
    STATUS_DETECTED,
    gf_mul,
    rs_decode,
    rs_encode,
)

elements = st.integers(min_value=0, max_value=255)


def gf_pow(a, n):
    # a^n by repeated multiplication, not through the field's log table
    out = 1
    for _ in range(n):
        out = gf_mul(out, a)
    return out


def syndromes(word):
    # independent syndrome oracle: evaluate at a^0 and a^1 by direct powers
    s0 = 0
    s1 = 0
    n = len(word)
    for i, w in enumerate(word):
        deg = n - 1 - i
        s0 ^= gf_mul(w, gf_pow(gf_rs.GF_GENERATOR, 0 * deg))
        s1 ^= gf_mul(w, gf_pow(gf_rs.GF_GENERATOR, deg))
    return s0, s1


def syndrome_is_zero(word):
    return syndromes(word) == (0, 0)


def test_gf_mul_zero_annihilates():
    for x in range(256):
        assert gf_mul(0, x) == 0
        assert gf_mul(x, 0) == 0


def test_gf_mul_identity():
    for x in range(256):
        assert gf_mul(1, x) == x


def test_gf_mul_two_times_two():
    # x * x = x^2, no reduction needed
    assert gf_mul(2, 2) == 4


@given(elements, elements)
def test_gf_mul_commutative(a, b):
    assert gf_mul(a, b) == gf_mul(b, a)


@given(elements, elements, elements)
def test_gf_mul_associative(a, b, c):
    assert gf_mul(gf_mul(a, b), c) == gf_mul(a, gf_mul(b, c))


@given(elements, elements, elements)
def test_gf_mul_distributive_over_xor(a, b, c):
    assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)


def test_every_nonzero_element_has_inverse():
    # x^254 is the inverse of x, since the multiplicative group has order 255
    for x in range(1, 256):
        assert gf_mul(x, gf_pow(x, 254)) == 1


def test_encode_rejects_wrong_length():
    with pytest.raises(ValueError):
        rs_encode([0] * 35)
    with pytest.raises(ValueError):
        rs_encode([0] * 37)


def test_decode_rejects_wrong_length():
    with pytest.raises(ValueError):
        rs_decode([0] * 37)


def test_all_zero_message_gives_all_zero_codeword():
    assert rs_encode([0] * 36) == [0] * 38


def test_random_codewords_have_zero_syndrome():
    rng = np.random.default_rng(7)
    for _ in range(200):
        msg = rng.integers(0, 256, size=36).tolist()
        cw = rs_encode(msg)
        assert syndrome_is_zero(cw)
        assert rs_decode(cw).status == STATUS_CLEAN


def test_minimum_distance_three_on_random_pairs():
    rng = np.random.default_rng(11)
    for _ in range(300):
        msg = rng.integers(0, 256, size=36).tolist()
        other = list(msg)
        pos = int(rng.integers(36))
        other[pos] ^= int(rng.integers(1, 256))
        a = rs_encode(msg)
        b = rs_encode(other)
        dist = sum(x != y for x, y in zip(a, b))
        assert dist >= 3


def test_single_error_exhaustive_positions():
    rng = np.random.default_rng(13)
    msg = rng.integers(0, 256, size=36).tolist()
    cw = rs_encode(msg)
    for pos in range(38):
        for val in (1, 0x80, 0xFF):
            word = list(cw)
            word[pos] ^= val
            out = rs_decode(word)
            assert out.status == STATUS_CORRECTED
            assert out.corrected_positions == [pos]
            assert out.codeword == cw


def test_single_error_random_sample():
    rng = np.random.default_rng(17)
    for _ in range(2000):
        msg = rng.integers(0, 256, size=36).tolist()
        cw = rs_encode(msg)
        word = list(cw)
        pos = int(rng.integers(38))
        word[pos] ^= int(rng.integers(1, 256))
        out = rs_decode(word)
        assert out.status == STATUS_CORRECTED
        assert out.corrected_positions == [pos]
        assert out.codeword == cw


def test_double_error_never_clean():
    rng = np.random.default_rng(19)
    n_detected = 0
    for _ in range(2000):
        msg = rng.integers(0, 256, size=36).tolist()
        cw = rs_encode(msg)
        word = list(cw)
        p1, p2 = rng.choice(38, size=2, replace=False)
        word[int(p1)] ^= int(rng.integers(1, 256))
        word[int(p2)] ^= int(rng.integers(1, 256))
        assert not syndrome_is_zero(word)
        out = rs_decode(word)
        assert out.status in (STATUS_DETECTED, STATUS_CORRECTED)
        if out.status == STATUS_CORRECTED:
            # a miscorrection lands on some other valid codeword, never the original
            assert out.codeword != cw
            assert syndrome_is_zero(out.codeword)
        else:
            n_detected += 1
    # detection should be the dominant outcome
    assert n_detected > 1500


def test_rs_syndromes_match_brute_force_oracle():
    rng = np.random.default_rng(23)
    words = rng.integers(0, 256, size=(300, 38), dtype=np.uint8)
    words[:100] = [rs_encode(m) for m in rng.integers(0, 256, size=(100, 36)).tolist()]
    words[100:110] = 0
    words[110:120, :] = rng.integers(1, 256, size=(10, 1))
    s0, s1 = gf_rs.rs_syndromes(words)
    assert s0.dtype == s1.dtype == np.uint8
    assert list(zip(s0.tolist(), s1.tolist())) == [syndromes(w) for w in words.tolist()]
    assert not (s0[:110] | s1[:110]).any()


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(0, 2**32 - 1), st.integers(0, 40), st.sampled_from([0.0, 0.3, 0.9]))
def test_rs_encode_array_matches_reference(seed, n, zeros):
    """The linear-map batch encoder gives the per-symbol division's codewords;
    zero symbols, whose log is undefined, are drawn often."""
    rng = np.random.default_rng(seed)
    messages = rng.integers(0, 256, size=(n, 36), dtype=np.uint8)
    messages[rng.random((n, 36)) < zeros] = 0
    got = gf_rs.rs_encode_array(messages)
    assert got.dtype == np.uint8 and got.shape == (n, 38)
    want = [rs_reference.rs_encode(m) for m in messages.tolist()]
    assert got.tolist() == want
    assert [rs_encode(m) for m in messages.tolist()] == want


def test_rs_encode_rejects_symbols_out_of_range():
    for bad in (256, -1):
        with pytest.raises(ValueError, match="symbol out of range"):
            rs_encode([0] * 35 + [bad])
