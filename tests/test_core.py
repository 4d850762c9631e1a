import random
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aeslab import core
from aeslab.core import (
    add_round_key,
    decrypt_block,
    encrypt_block,
    inv_mix_columns,
    inv_shift_rows,
    inv_sub_bytes,
    key_expansion,
    load_state,
    mix_columns,
    shift_rows,
    store_state,
    sub_bytes,
)
from aeslab.modes import cbc_decrypt, ecb_encrypt
from aeslab.variants import decrypt_block_variant, encrypt_block_variant, make_plan

from reference import (
    MIX_INV,
    aes_decrypt_oracle,
    aes_encrypt_oracle,
    key_words_oracle,
    poly_mul_mod,
)

# FIPS-197 appendix C vectors, cross-checked against the flat-list oracle
# in test_kat_vectors_agree_with_oracle below.
KAT_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")
KAT_VECTORS = [
    ("000102030405060708090a0b0c0d0e0f",
     "69c4e0d86a7b0430d8cdb78070b4c55a"),
    ("000102030405060708090a0b0c0d0e0f1011121314151617",
     "dda97ca4864cdfe06eaf70a0ec0d7191"),
    ("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
     "8ea2b7ca516745bfeafc49904b496089"),
]


def random_state(rng):
    return [[rng.randrange(256) for _ in range(4)] for _ in range(4)]


# ---------------------------------------------------------------------------
# State layout

def test_state_is_column_major():
    s = load_state(bytes(range(16)))
    for r in range(4):
        for c in range(4):
            assert s[r][c] == r + 4 * c


def test_state_roundtrip():
    rng = random.Random(11)
    for _ in range(1000):
        block = rng.randbytes(16)
        assert store_state(load_state(block)) == block


def test_state_rejects_wrong_length():
    with pytest.raises(ValueError):
        load_state(b"\x00" * 15)


# ---------------------------------------------------------------------------
# Key expansion

def test_key_expansion_w4_zero_key():
    ks = key_expansion(bytes(16), 10)
    # word w[4] is column 0 of round key 1
    assert [core.round_keys(ks)[1][i][0] for i in range(4)] == [0x62, 0x63, 0x63, 0x63]
    assert [b for w in key_words_oracle(bytes(16), 10)[4:5] for b in w] == [0x62, 0x63, 0x63, 0x63]


def test_key_expansion_w4_sequential_key():
    key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    ks = key_expansion(key, 10)
    assert [core.round_keys(ks)[1][i][0] for i in range(4)] == [0xD6, 0xAA, 0x74, 0xFD]
    assert list(key_words_oracle(key, 10)[4]) == [0xD6, 0xAA, 0x74, 0xFD]


def test_key_expansion_single_round_length():
    ks = key_expansion(bytes(16), 1)
    assert len(core.round_keys(ks)) == 2
    assert ks.n_r == 1


@pytest.mark.parametrize("key_len", [0, 15, 17, 20, 31, 33])
def test_key_expansion_rejects_bad_lengths(key_len):
    with pytest.raises(ValueError):
        key_expansion(bytes(key_len))


def _column_words(m):
    return tuple(int.from_bytes(bytes(m[i][j] for i in range(4)), "big")
                 for j in range(4))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(key_bytes=st.sampled_from((16, 24, 32)), n_r=st.integers(1, 14),
       key=st.binary(min_size=32, max_size=32))
@example(key_bytes=32, n_r=14, key=bytes(range(32)))  # N_k = 8 SubWord step
@example(key_bytes=16, n_r=1, key=bytes(32))  # no middle round keys
def test_key_expansion_property(key_bytes, n_r, key):
    # round_keys against the oracle, enc_words packing them, dec_words
    # as the equivalent inverse cipher's keys (FIPS-197 5.3.5)
    key = key[:key_bytes]
    ks = key_expansion(key, n_r)
    round_keys, dec_words = core.round_keys(ks), core.dec_words(ks)
    flat = [rk[i][j] for rk in round_keys for j in range(4) for i in range(4)]
    assert flat == [b for w in key_words_oracle(key, n_r) for b in w]
    assert ks.enc_words == tuple(_column_words(rk) for rk in round_keys)
    assert len(dec_words) == n_r + 1
    assert dec_words[0] == ks.enc_words[0]
    assert dec_words[n_r] == ks.enc_words[n_r]
    for r in range(1, n_r):
        assert dec_words[r] == _column_words(inv_mix_columns(round_keys[r]))


def test_key_schedule_is_frozen():
    # Before and after the derived fields are filled.
    for derive in (False, True):
        ks = key_expansion(bytes(16))
        if derive:
            core.round_keys(ks), core.dec_words(ks)
        for name in ("round_keys", "dec_words", "enc_words", "n_r"):
            with pytest.raises(AttributeError):
                setattr(ks, name, ks.enc_words)


def _oracle_schedule(key, n_r):
    """Round-key matrices and decrypt key words from the oracle's words."""
    words = key_words_oracle(key, n_r)
    n_r = len(words) // 4 - 1
    round_keys = [[[words[4 * r + j][i] for j in range(4)] for i in range(4)]
                  for r in range(n_r + 1)]
    dec_words = []
    for r in range(n_r + 1):
        cols = words[4 * r:4 * r + 4]
        if 0 < r < n_r:
            cols = [[poly_mul_mod(m[0], c[0]) ^ poly_mul_mod(m[1], c[1])
                     ^ poly_mul_mod(m[2], c[2]) ^ poly_mul_mod(m[3], c[3]) for m in MIX_INV]
                    for c in cols]
        dec_words.append(tuple(int.from_bytes(bytes(c), "big") for c in cols))
    return round_keys, tuple(dec_words)


def test_key_schedule_derived_fields_are_kept():
    ks = key_expansion(bytes(range(24)))
    assert core.round_keys(ks) is core.round_keys(ks) is ks.round_keys
    assert core.dec_words(ks) is core.dec_words(ks) is ks.dec_words


@pytest.mark.parametrize("order", [("dec_words", "round_keys"), ("round_keys", "dec_words")])
@pytest.mark.parametrize("key_bytes,n_r", [(16, None), (24, None), (32, None), (16, 1), (32, 3)])
def test_key_schedule_derived_fields_in_either_order(order, key_bytes, n_r):
    key = random.Random(key_bytes).randbytes(key_bytes)
    ks = key_expansion(key, n_r)
    expected = dict(zip(("round_keys", "dec_words"), _oracle_schedule(key, n_r)))
    for name in order:
        assert getattr(core, name)(ks) == expected[name]


def test_key_schedule_concurrent_first_reads():
    # Threads released together derive dec_words (and round_keys) of one
    # fresh schedule, with a short switch interval so their derivations
    # interleave; every thread must see the oracle's values.
    rng = random.Random(20)
    cases = [(rng.randbytes(rng.choice([16, 24, 32])), rng.randrange(1, 15)) for _ in range(20)]
    n_threads = 6
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for key, n_r in cases:
            ks = key_expansion(key, n_r)
            barrier = threading.Barrier(n_threads, timeout=10)
            seen = [None] * n_threads

            def read(i, ks=ks, barrier=barrier, seen=seen):
                barrier.wait()
                seen[i] = (core.dec_words(ks), core.round_keys(ks))

            threads = [threading.Thread(target=read, args=(i,)) for i in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            expected_rk, expected_dec = _oracle_schedule(key, n_r)
            assert seen == [(expected_dec, expected_rk)] * n_threads
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("key_hex,ct_hex", KAT_VECTORS)
def test_optf_on_fresh_schedules_round_trips(key_hex, ct_hex):
    # Each call gets a schedule no one has read a derived field of, so
    # the first block derives dec_words inside the kernel.
    key = bytes.fromhex(key_hex)
    plan = make_plan("optf", key_expansion(key).n_r)
    ct = encrypt_block_variant(KAT_PLAINTEXT, key_expansion(key), plan)
    assert ct.hex() == ct_hex
    assert decrypt_block_variant(ct, key_expansion(key), plan) == KAT_PLAINTEXT


def test_only_baseline_stages_derive_round_key_matrices():
    key = bytes(range(16))
    data = bytes(range(64))
    ks = key_expansion(key)
    plan = make_plan("optf", ks.n_r)
    ecb_encrypt(data, ks, plan)
    cbc_decrypt(data, ks, bytes(16), plan)
    assert ks.round_keys is None
    encrypt_block_variant(data[:16], ks, make_plan("opt1", ks.n_r))
    assert ks.round_keys is not None


def test_key_expansion_rejects_zero_rounds():
    with pytest.raises(ValueError):
        key_expansion(bytes(16), 0)


def test_key_expansion_matches_oracle():
    rng = random.Random(12)
    cases = [(bytes.fromhex(k), None) for k, _ in KAT_VECTORS]
    cases += [(rng.randbytes(rng.choice([16, 24, 32])), rng.randrange(1, 15))
              for _ in range(30)]
    for key, n_r in cases:
        ks = key_expansion(key, n_r)
        words = key_words_oracle(key, n_r)
        flat = [core.round_keys(ks)[r][i][j]
                for r in range(ks.n_r + 1) for j in range(4) for i in range(4)]
        assert flat == [b for w in words for b in w]


def test_standard_round_counts():
    assert key_expansion(bytes(16)).n_r == 10
    assert key_expansion(bytes(24)).n_r == 12
    assert key_expansion(bytes(32)).n_r == 14


# ---------------------------------------------------------------------------
# Round transformations

def test_add_round_key_identity_and_involution():
    rng = random.Random(13)
    zero = [[0] * 4 for _ in range(4)]
    for _ in range(100):
        s = random_state(rng)
        rk = random_state(rng)
        assert add_round_key(s, zero) == s
        assert add_round_key(add_round_key(s, rk), rk) == s
    ones = [[0xFF] * 4 for _ in range(4)]
    assert add_round_key(ones, ones) == zero


def test_sub_bytes_known_values():
    assert sub_bytes([[0x00] * 4 for _ in range(4)]) == [[0x63] * 4 for _ in range(4)]
    assert sub_bytes([[0x53] * 4 for _ in range(4)]) == [[0xED] * 4 for _ in range(4)]


def test_sub_bytes_inverts():
    rng = random.Random(14)
    for _ in range(200):
        s = random_state(rng)
        assert inv_sub_bytes(sub_bytes(s)) == s


def test_shift_rows_offsets():
    s = [[0xA0, 0xA1, 0xA2, 0xA3], [1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]]
    out = shift_rows(s)
    assert out[0] == [0xA0, 0xA1, 0xA2, 0xA3]  # row 0 untouched
    assert out[1] == [2, 3, 4, 1]
    assert out[2] == [7, 8, 5, 6]
    assert out[3] == [12, 9, 10, 11]


def test_shift_rows_inverts():
    rng = random.Random(15)
    for _ in range(200):
        s = random_state(rng)
        assert inv_shift_rows(shift_rows(s)) == s


def test_mix_columns_known_column():
    # one well-known column in every column slot, checked against the
    # polynomial-division oracle
    col = [0xDB, 0x13, 0x53, 0x45]
    expected = [0x8E, 0x4D, 0xA1, 0xBC]
    from aeslab.core import MIX_MATRIX
    for i in range(4):
        assert expected[i] == (
            poly_mul_mod(MIX_MATRIX[i][0], col[0])
            ^ poly_mul_mod(MIX_MATRIX[i][1], col[1])
            ^ poly_mul_mod(MIX_MATRIX[i][2], col[2])
            ^ poly_mul_mod(MIX_MATRIX[i][3], col[3])
        )
    s = [[col[i]] * 4 for i in range(4)]
    assert mix_columns(s) == [[expected[i]] * 4 for i in range(4)]


def test_mix_columns_fixed_point():
    # row coefficients 02 ^ 03 ^ 01 ^ 01 = 01, so uniform columns are fixed
    s = [[0x5A] * 4 for _ in range(4)]
    assert mix_columns(s) == s


def test_mix_columns_inverts():
    rng = random.Random(16)
    for _ in range(200):
        s = random_state(rng)
        assert inv_mix_columns(mix_columns(s)) == s


# ---------------------------------------------------------------------------
# Whole blocks

@pytest.mark.parametrize("key_hex,ct_hex", KAT_VECTORS)
def test_encrypt_known_answers(key_hex, ct_hex):
    ks = key_expansion(bytes.fromhex(key_hex))
    assert encrypt_block(KAT_PLAINTEXT, ks).hex() == ct_hex


@pytest.mark.parametrize("key_hex,ct_hex", KAT_VECTORS)
def test_decrypt_known_answers(key_hex, ct_hex):
    ks = key_expansion(bytes.fromhex(key_hex))
    assert decrypt_block(bytes.fromhex(ct_hex), ks) == KAT_PLAINTEXT


@pytest.mark.parametrize("key_hex,ct_hex", KAT_VECTORS)
def test_kat_vectors_agree_with_oracle(key_hex, ct_hex):
    key = bytes.fromhex(key_hex)
    assert aes_encrypt_oracle(KAT_PLAINTEXT, key).hex() == ct_hex
    assert aes_decrypt_oracle(bytes.fromhex(ct_hex), key) == KAT_PLAINTEXT


def test_encrypt_matches_oracle_on_random_inputs():
    rng = random.Random(17)
    for _ in range(150):
        key = rng.randbytes(rng.choice([16, 24, 32]))
        n_r = rng.choice([1, 2, 4, 6, 8, 10, 12, 14])
        block = rng.randbytes(16)
        ks = key_expansion(key, n_r)
        assert encrypt_block(block, ks) == aes_encrypt_oracle(block, key, n_r)
        assert decrypt_block(block, ks) == aes_decrypt_oracle(block, key, n_r)


def test_roundtrip_random_keys_blocks_rounds():
    rng = random.Random(18)
    for _ in range(1000):
        key = rng.randbytes(rng.choice([16, 24, 32]))
        n_r = rng.choice([1, 2, 4, 6, 8, 10, 12, 14])
        block = rng.randbytes(16)
        ks = key_expansion(key, n_r)
        assert decrypt_block(encrypt_block(block, ks), ks) == block


def test_avalanche_band():
    # flipping one plaintext bit should flip roughly half the ciphertext
    # bits; 40..88 of 128 is a deliberately loose band
    rng = random.Random(19)
    ks = key_expansion(rng.randbytes(16), 10)
    total = 0
    trials = 1000
    for _ in range(trials):
        block = bytearray(rng.randbytes(16))
        base = encrypt_block(bytes(block), ks)
        bit = rng.randrange(128)
        block[bit // 8] ^= 1 << (bit % 8)
        flipped = encrypt_block(bytes(block), ks)
        total += sum((a ^ b).bit_count() for a, b in zip(base, flipped))
    mean = total / trials
    assert 40 <= mean <= 88, mean
