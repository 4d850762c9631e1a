import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aeslab.core import (
    add_round_key,
    decrypt_block,
    encrypt_block,
    inv_shift_rows,
    key_expansion,
    load_state,
    mix_columns,
    shift_rows,
    store_state,
    sub_bytes,
)
from aeslab.gf256 import INV_S_BOX, S_BOX, T_DEC_LANES, T_ENC_LANES
from aeslab.modes import decrypt_blob, encrypt_blob, pkcs7_pad
from aeslab.variants import (
    T_DEC,
    T_ENC,
    VARIANT_IDS,
    VariantPlan,
    build_t_tables,
    decrypt_block_variant,
    encrypt_block_variant,
    make_plan,
    table_mix_columns,
    unrolled_add_round_key,
    unrolled_shift_rows,
    unrolled_sub_bytes,
)

from reference import SBOX_REF, aes_decrypt_oracle, aes_encrypt_oracle, poly_mul_mod


def random_state(rng):
    return [[rng.randrange(256) for _ in range(4)] for _ in range(4)]


# ---------------------------------------------------------------------------
# T-tables

def test_t_tables_footprint():
    enc, dec = build_t_tables()
    for tables in (enc, dec):
        assert [len(table) for table in tables] == [256] * 4
    assert 4 * sum(map(len, enc + dec)) == 8192


def test_t_table_entry_for_zero():
    # S(0) = 0x63; entry = [02*S, S, S, 03*S]
    s = SBOX_REF[0]
    expected = bytes([poly_mul_mod(2, s), s, s, poly_mul_mod(3, s)])
    assert expected == bytes([0xC6, 0x63, 0x63, 0xA5])
    assert T_ENC[0][0].to_bytes(4, "big") == expected


def test_t_table_entries_match_oracle():
    rng = random.Random(30)
    for x in [0, 1, 0x53, 0xFF] + [rng.randrange(256) for _ in range(32)]:
        s = SBOX_REF[x]
        col = [poly_mul_mod(2, s), s, s, poly_mul_mod(3, s)]
        for t in range(4):
            # table t is table 0 rotated right by t bytes
            assert list(T_ENC[t][x].to_bytes(4, "big")) == col[-t:] + col[:-t]


def test_t_table_lanes_are_the_bytes_of_table_0():
    # The window form of the fused round translates by these lanes.
    for lanes, tables in ((T_ENC_LANES, T_ENC), (T_DEC_LANES, T_DEC)):
        assert [len(lane) for lane in lanes] == [256] * 4
        for x in range(256):
            assert bytes(lane[x] for lane in lanes) == tables[0][x].to_bytes(4, "big")


def test_shift_rows_as_strided_slices():
    # Byte 4c + r of ShiftRows is input byte 5(4c + r) mod 16, and of
    # InvShiftRows input byte 13(4c + r) mod 16, as the optimized final
    # rounds read them.
    rng = random.Random(30)
    for x in [bytes(range(16))] + [rng.randbytes(16) for _ in range(1000)]:
        assert (x * 5)[::5] == store_state(shift_rows(load_state(x)))
        assert (x * 13)[::13] == store_state(inv_shift_rows(load_state(x)))


def single_stage_plan(n_r, stage):
    """Plan whose only optimized stage is stage (0-based round flag)."""
    return VariantPlan(tuple(i == stage for i in range(n_r)))


def test_t_round_equals_baseline_round_composition():
    # One fused (or optimized final) round between baseline rounds: the
    # block also crosses the matrix -> words -> matrix boundary.
    rng = random.Random(31)
    for _ in range(1000):
        n_r = rng.randrange(1, 15)
        ks = key_expansion(rng.randbytes(rng.choice([16, 24, 32])), n_r)
        block = rng.randbytes(16)
        plan = single_stage_plan(n_r, rng.randrange(n_r))
        assert encrypt_block_variant(block, ks, plan) == encrypt_block(block, ks)


def test_d_round_equals_baseline_inverse_composition():
    rng = random.Random(32)
    for _ in range(1000):
        n_r = rng.randrange(1, 15)
        ks = key_expansion(rng.randbytes(rng.choice([16, 24, 32])), n_r)
        block = rng.randbytes(16)
        plan = single_stage_plan(n_r, rng.randrange(n_r))
        assert decrypt_block_variant(block, ks, plan) == decrypt_block(block, ks)


# ---------------------------------------------------------------------------
# Loop-unrolled transforms

def test_unrolled_transforms_match_baseline():
    rng = random.Random(33)
    for _ in range(10_000):
        s = random_state(rng)
        rk = random_state(rng)
        assert unrolled_add_round_key(s, rk) == add_round_key(s, rk)
        assert unrolled_sub_bytes(s) == sub_bytes(s)
        assert unrolled_shift_rows(s) == shift_rows(s)


def test_unrolled_shift_rows_offsets():
    s = [[9, 9, 9, 9], [1, 2, 3, 4], [5, 6, 7, 8], [10, 11, 12, 13]]
    assert unrolled_shift_rows(s)[1] == [2, 3, 4, 1]


def test_unrolled_add_round_key_zero_identity():
    rng = random.Random(34)
    zero = [[0] * 4 for _ in range(4)]
    s = random_state(rng)
    assert unrolled_add_round_key(s, zero) == s


def test_table_mix_columns_matches_baseline():
    rng = random.Random(35)
    for _ in range(10_000):
        s = random_state(rng)
        assert table_mix_columns(s) == mix_columns(s)


def test_table_mix_columns_known_column_and_fixed_point():
    col = [0xDB, 0x13, 0x53, 0x45]
    s = [[col[i]] * 4 for i in range(4)]
    assert table_mix_columns(s) == [[v] * 4 for v in (0x8E, 0x4D, 0xA1, 0xBC)]
    uniform = [[0x31] * 4 for _ in range(4)]
    assert table_mix_columns(uniform) == uniform


# ---------------------------------------------------------------------------
# Plans

def test_make_plan_base_and_optf():
    assert make_plan("base", 10).round_flags == (False,) * 10
    assert make_plan("optf", 10).round_flags == (True,) * 10


def test_make_plan_opt1_alternates():
    assert make_plan("opt1", 4).round_flags == (True, False, True, False)
    for n_r in range(1, 15):
        flags = make_plan("opt1", n_r).round_flags
        assert sum(flags) == (n_r + 1) // 2  # ceil(n_r / 2) rounds optimized


def test_make_plan_opt2_period_four():
    assert make_plan("opt2", 10).round_flags == (
        True, True, False, False, True, True, False, False, True, True,
    )


def test_make_plan_rejects_bad_input():
    with pytest.raises(ValueError):
        make_plan("turbo", 10)
    with pytest.raises(ValueError, match="unknown variant 'multable'"):
        make_plan("multable", 10)
    # the ids are the exact lower-case names BenchConfig also accepts
    with pytest.raises(ValueError, match="unknown variant 'OptF'"):
        make_plan("OptF", 10)
    with pytest.raises(ValueError):
        make_plan("base", 0)


# ---------------------------------------------------------------------------
# Variant block cipher

def test_variants_reproduce_kat():
    key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    pt = bytes.fromhex("00112233445566778899aabbccddeeff")
    ct = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")
    ks = key_expansion(key)
    for vid in VARIANT_IDS:
        plan = make_plan(vid, ks.n_r)
        assert encrypt_block_variant(pt, ks, plan) == ct, vid
        assert decrypt_block_variant(ct, ks, plan) == pt, vid


def test_variant_equivalence_random_cases():
    rng = random.Random(37)
    for _ in range(300):
        key = rng.randbytes(rng.choice([16, 24, 32]))
        n_r = rng.randrange(1, 15)
        block = rng.randbytes(16)
        ks = key_expansion(key, n_r)
        base_ct = encrypt_block(block, ks)
        for vid in VARIANT_IDS:
            plan = make_plan(vid, n_r)
            ct = encrypt_block_variant(block, ks, plan)
            assert ct == base_ct, (vid, n_r)
            assert decrypt_block_variant(ct, ks, plan) == block, (vid, n_r)
            assert decrypt_block(ct, ks) == block


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    vid=st.sampled_from(VARIANT_IDS),
    mode=st.sampled_from(("ecb", "cbc")),
    key_bytes=st.sampled_from((16, 24, 32)),
    n_r=st.integers(1, 14),
    key=st.binary(min_size=32, max_size=32),
    iv=st.binary(min_size=16, max_size=16),
    message=st.binary(max_size=80),
)
def test_variant_blob_matches_baseline_property(vid, mode, key_bytes, n_r, key, iv, message):
    key = key[:key_bytes]
    ks = key_expansion(key, n_r)
    plan = make_plan(vid, n_r)
    iv = iv if mode == "cbc" else None
    ct = encrypt_blob(message, ks, mode, plan, iv)
    assert ct == oracle_blob(message, key, n_r, iv)
    assert decrypt_blob(ct, ks, mode, plan) == message


def oracle_blob(message, key, n_r, iv):
    """The raw-file layout built from the independent reference cipher:
    ECB when iv is None, else CBC chaining behind the IV prefix."""
    padded = pkcs7_pad(message)
    out = [] if iv is None else [iv]
    for i in range(0, len(padded), 16):
        block = padded[i:i + 16]
        if iv is not None:
            block = bytes(a ^ b for a, b in zip(block, out[-1]))
        out.append(aes_encrypt_oracle(block, key, n_r))
    return b"".join(out)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    flags=st.lists(st.booleans(), min_size=1, max_size=14),
    key_bytes=st.sampled_from((16, 24, 32)),
    key=st.binary(min_size=32, max_size=32),
    block=st.binary(min_size=16, max_size=16),
)
def test_any_plan_matches_baseline_property(flags, key_bytes, key, block):
    # Arbitrary flag tuples give every run layout: one run or many, and
    # runs of length 1 at either end, with either final-round path.  The
    # kernels' baseline stages run core's round loop, so both are also
    # held to the independent oracle.
    key = key[:key_bytes]
    ks = key_expansion(key, len(flags))
    plan = VariantPlan(tuple(flags))
    ct = encrypt_block_variant(block, ks, plan)
    assert ct == encrypt_block(block, ks) == aes_encrypt_oracle(block, key, len(flags))
    assert decrypt_block_variant(ct, ks, plan) == block
    pt = decrypt_block_variant(block, ks, plan)
    assert pt == decrypt_block(block, ks) == aes_decrypt_oracle(block, key, len(flags))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(flags=st.lists(st.booleans(), min_size=1, max_size=14))
def test_plan_runs_cover_middle_rounds(flags):
    plan = VariantPlan(tuple(flags))
    n_r = len(flags)
    rounds = []
    for i, (fused, first, stop) in enumerate(plan.runs):
        assert first < stop
        assert all(flags[r - 1] == fused for r in range(first, stop))
        if i:
            assert plan.runs[i - 1][0] != fused
        rounds += range(first, stop)
    assert rounds == list(range(1, n_r))


def test_plan_length_mismatch_rejected():
    ks = key_expansion(bytes(16), 10)
    plan = make_plan("optf", 9)
    with pytest.raises(ValueError):
        encrypt_block_variant(bytes(16), ks, plan)
    with pytest.raises(ValueError):
        decrypt_block_variant(bytes(16), ks, plan)


@pytest.mark.parametrize("length", [0, 15, 17])
def test_wrong_block_length_rejected(length):
    ks = key_expansion(bytes(16), 10)
    plan = make_plan("optf", 10)
    with pytest.raises(ValueError):
        encrypt_block_variant(bytes(length), ks, plan)
    with pytest.raises(ValueError):
        decrypt_block_variant(bytes(length), ks, plan)


# ---------------------------------------------------------------------------
# Footprint accounting

def test_optf_footprint_at_least_double_base():
    # Base keeps the two S-boxes resident; OptF adds the T-tables.
    base_total = len(S_BOX) + len(INV_S_BOX)
    optf_total = base_total + 4 * sum(map(len, T_ENC + T_DEC))
    assert optf_total >= 2 * base_total
