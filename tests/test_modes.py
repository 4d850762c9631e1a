import functools
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aeslab import analysis, bmp, modes
from aeslab.core import decrypt_block, encrypt_block, key_expansion
from aeslab.modes import (
    CHUNK,
    PaddingError,
    cbc_decrypt,
    cbc_encrypt,
    decrypt_blob,
    decrypt_pieces,
    decrypt_with_residual,
    ecb_decrypt,
    ecb_encrypt,
    encrypt_blob,
    encrypt_pieces,
    encrypt_with_residual,
    pkcs7_pad,
    pkcs7_unpad,
    random_iv,
)
from aeslab.variants import VARIANT_IDS, VariantPlan, make_plan

from reference import aes_decrypt_oracle, aes_encrypt_oracle, cbc_encrypt_oracle

# The AES-128 Base plan: the core round functions on every round.
BASE = make_plan("base", 10)
# AES-128 with every round fused but the final one: a per-block plan, so
# the modes run it through the memo loop at any length.
PER_BLOCK = VariantPlan((True,) * 9 + (False,))
KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


@pytest.fixture(scope="module")
def ks():
    return key_expansion(KEY)


# ---------------------------------------------------------------------------
# PKCS#7

def test_pad_aligned_input_adds_full_block():
    out = pkcs7_pad(b"A" * 16)
    assert len(out) == 32
    assert out[16:] == b"\x10" * 16


def test_pad_fifteen_bytes():
    out = pkcs7_pad(b"B" * 15)
    assert len(out) == 16
    assert out[-1] == 0x01


def test_unpad_inverts_pad_for_random_lengths():
    rng = random.Random(40)
    for _ in range(1000):
        data = rng.randbytes(rng.randrange(0, 100))
        assert pkcs7_unpad(pkcs7_pad(data)) == data


def test_unpad_rejects_bad_patterns():
    with pytest.raises(PaddingError):
        pkcs7_unpad(b"\x00" * 16)  # pad byte 0 is invalid
    with pytest.raises(PaddingError):
        pkcs7_unpad(b"\x01" * 15 + b"\x11")  # 17 > block size
    with pytest.raises(PaddingError):
        pkcs7_unpad(b"A" * 14 + b"\x01\x02")  # tail disagrees with count
    with pytest.raises(ValueError):
        pkcs7_unpad(b"A" * 15)  # not a multiple of the block size
    with pytest.raises(ValueError):
        pkcs7_unpad(b"")


# ---------------------------------------------------------------------------
# ECB

def test_ecb_identical_blocks_leak(ks):
    data = b"\xAB" * 32
    ct = ecb_encrypt(data, ks, BASE)
    assert ct[:16] == ct[16:]


def test_ecb_single_block_is_encrypt_block(ks):
    block = bytes(range(16))
    assert ecb_encrypt(block, ks, BASE) == encrypt_block(block, ks)


def test_ecb_roundtrip(ks):
    rng = random.Random(41)
    for _ in range(50):
        data = rng.randbytes(16 * rng.randrange(1, 9))
        assert ecb_decrypt(ecb_encrypt(data, ks, BASE), ks, BASE) == data


def test_ecb_rejects_misaligned(ks):
    with pytest.raises(ValueError):
        ecb_encrypt(b"x" * 15, ks, BASE)
    with pytest.raises(ValueError):
        ecb_decrypt(b"x" * 17, ks, BASE)


def test_ecb_is_stateless_across_blocks(ks):
    rng = random.Random(42)
    blocks = [rng.randbytes(16) for _ in range(8)]
    ct_blocks = [ecb_encrypt(b"".join(blocks), ks, BASE)[i * 16:(i + 1) * 16] for i in range(8)]
    order = list(range(8))
    rng.shuffle(order)
    permuted_ct = ecb_encrypt(b"".join(blocks[i] for i in order), ks, BASE)
    assert permuted_ct == b"".join(ct_blocks[i] for i in order)


# ---------------------------------------------------------------------------
# CBC

def test_cbc_zero_iv_single_block_equals_ecb(ks):
    block = bytes(range(16))
    assert cbc_encrypt(block, ks, bytes(16), BASE) == ecb_encrypt(block, ks, BASE)


# NIST SP 800-38A F.1.1/F.2.1 four-block message
SP800_38A_PT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)
SP800_38A_ECB_CT = bytes.fromhex(
    "3ad77bb40d7a3660a89ecaf32466ef97"
    "f5d3d58503b9699de785895a96fdbaaf"
    "43b1cd7f598ece23881b00e3ed030688"
    "7b0c785e27e8ad3f8223207104725dd4"
)
SP800_38A_CBC_CT = bytes.fromhex(
    "7649abac8119b246cee98e9b12e9197d"
    "5086cb9b507219ee95db113a917678b2"
    "73bed6b8e3c1743b7116e69e22229516"
    "3ff1caa1681fac09120eca307586e1a7"
)


def test_ecb_known_answer(ks):
    ct = ecb_encrypt(SP800_38A_PT, ks, BASE)
    assert ct == SP800_38A_ECB_CT
    assert ecb_decrypt(ct, ks, BASE) == SP800_38A_PT


def test_cbc_known_answer(ks):
    # re-derived from the chaining equation composed with the reference
    # cipher, so the frozen bytes are checked from two directions
    iv = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    assert cbc_encrypt_oracle(SP800_38A_PT, key, iv) == SP800_38A_CBC_CT
    assert cbc_encrypt(SP800_38A_PT, ks, iv, BASE) == SP800_38A_CBC_CT
    assert cbc_decrypt(SP800_38A_CBC_CT, ks, iv, BASE) == SP800_38A_PT


def test_cbc_hides_identical_blocks():
    rng = random.Random(43)
    data = b"\x77" * 32
    for _ in range(1000):
        ks2 = key_expansion(rng.randbytes(16))
        ct = cbc_encrypt(data, ks2, rng.randbytes(16), BASE)
        assert ct[:16] != ct[16:]


def test_cbc_definitional_recompute(ks):
    rng = random.Random(44)
    for _ in range(100):
        n_blocks = rng.randrange(1, 65)
        data = rng.randbytes(16 * n_blocks)
        iv = rng.randbytes(16)
        ct = cbc_encrypt(data, ks, iv, BASE)
        prev = iv
        for i in range(n_blocks):
            m = data[i * 16:(i + 1) * 16]
            c = ct[i * 16:(i + 1) * 16]
            assert c == encrypt_block(bytes(a ^ b for a, b in zip(m, prev)), ks)
            prev = c
        assert cbc_decrypt(ct, ks, iv, BASE) == data


def test_cbc_with_variant_plan_matches_base(ks):
    rng = random.Random(45)
    data = rng.randbytes(16 * 8)
    iv = rng.randbytes(16)
    base_ct = cbc_encrypt(data, ks, iv, BASE)
    for vid in ("opt1", "opt2", "optf"):
        plan = make_plan(vid, ks.n_r)
        assert cbc_encrypt(data, ks, iv, plan) == base_ct
        assert cbc_decrypt(base_ct, ks, iv, plan) == data


def test_cbc_rejects_bad_iv_and_length(ks):
    with pytest.raises(ValueError):
        cbc_encrypt(bytes(16), ks, bytes(15), BASE)
    with pytest.raises(ValueError):
        cbc_decrypt(bytes(15), ks, bytes(16), BASE)


def test_cbc_empty_input(ks):
    iv = bytes(range(16))
    assert cbc_encrypt(b"", ks, iv, BASE) == b""
    assert cbc_decrypt(b"", ks, iv, BASE) == b""


# ---------------------------------------------------------------------------
# IVs

def test_random_iv_properties():
    seen = {random_iv() for _ in range(1000)}
    assert len(seen) == 1000  # 128-bit birthday bound makes collisions absurd
    assert all(len(iv) == 16 for iv in seen)


# ---------------------------------------------------------------------------
# Raw-file blob layout

def test_blob_roundtrip_ecb(ks):
    data = b"attack at dawn"
    blob = encrypt_blob(data, ks, "ecb", BASE)
    assert len(blob) == len(pkcs7_pad(data))
    assert decrypt_blob(blob, ks, "ecb", BASE) == data


def test_blob_roundtrip_cbc_with_iv_prefix(ks):
    rng = random.Random(46)
    data = rng.randbytes(100)
    blob = encrypt_blob(data, ks, "cbc", BASE, rng.randbytes(16))
    iv, ct = blob[:16], blob[16:]
    assert len(ct) == len(pkcs7_pad(data))
    assert cbc_decrypt(ct, ks, iv, BASE) == pkcs7_pad(data)
    assert decrypt_blob(blob, ks, "cbc", BASE) == data
    # A caller holding the IV apart from the ciphertext: cbc_decrypt, then unpad.
    assert pkcs7_unpad(cbc_decrypt(ct, ks, iv, BASE)) == data


def test_blob_wrong_key_fails_padding(ks):
    blob = encrypt_blob(b"payload", ks, "cbc", BASE, random.Random(47).randbytes(16))
    other = key_expansion(bytes(16))
    with pytest.raises(PaddingError):
        decrypt_blob(blob, other, "cbc", BASE)


def test_blob_ecb_refuses_iv(ks):
    with pytest.raises(ValueError):
        encrypt_blob(b"x", ks, "ecb", BASE, iv=bytes(16))


@functools.lru_cache(maxsize=None)
def _oracle_block(block: bytes) -> bytes:
    # Prefixes of one message share their blocks, CBC chain included.
    return aes_encrypt_oracle(block, KEY)


def raw_layout_oracle(data: bytes, iv) -> bytes:
    """[IV ||] the reference cipher's blocks over pkcs7_pad(data), in
    ECB (iv None) or CBC."""
    padded = pkcs7_pad(data)
    out = [] if iv is None else [iv]
    for i in range(0, len(padded), 16):
        block = padded[i:i + 16]
        if iv is not None:  # chain from the IV or the previous block
            block = bytes(a ^ b for a, b in zip(block, out[-1]))
        out.append(_oracle_block(block))
    return b"".join(out)


PIECE_LENGTHS = [0, 1] + [k * CHUNK + d for k in (1, 2)
                          for d in (-17, -16, -1, 0, 1, 15, 16, 17)]


@pytest.mark.parametrize("mode", ["ecb", "cbc"])
def test_piece_boundaries_are_invisible(ks, mode):
    # Lengths on and beside one and two piece boundaries give the same
    # layout as the reference cipher over the whole padded message.
    plan = make_plan("optf", ks.n_r)
    message = random.Random(50).randbytes(2 * CHUNK + 17)
    iv = bytes(range(16)) if mode == "cbc" else None
    for n in PIECE_LENGTHS:
        data = message[:n]
        blob = encrypt_blob(data, ks, mode, plan, iv)
        assert blob == raw_layout_oracle(data, iv), n
        pieces = list(encrypt_pieces(data, ks, mode, plan, iv))
        assert b"".join(pieces) == blob
        assert max(map(len, pieces)) <= CHUNK + 16
        assert decrypt_blob(blob, ks, mode, plan) == data  # embedded IV, if any
        plain = list(decrypt_pieces(blob, ks, mode, plan))
        assert b"".join(plain) == data and max(map(len, plain)) <= CHUNK
        if mode == "cbc":  # the IV held apart from the stripped ciphertext
            assert pkcs7_unpad(cbc_decrypt(blob[16:], ks, iv, plan)) == data


@pytest.mark.parametrize("mode", ["ecb", "cbc"])
def test_piece_errors_raise_before_the_first_piece(ks, mode):
    # A long body's last block is decrypted and unpadded first, so no
    # piece is produced for a ciphertext that fails its padding check.
    plan = make_plan("optf", ks.n_r)
    iv = bytes(range(16)) if mode == "cbc" else None
    blob = bytearray(encrypt_blob(bytes(CHUNK + 40), ks, mode, plan, iv))
    blob[-1] ^= 1
    with pytest.raises(PaddingError):
        next(decrypt_pieces(bytes(blob), ks, mode, plan))
    with pytest.raises(ValueError, match="not a multiple of 16"):
        next(decrypt_pieces(bytes(blob[:-1]), ks, mode, plan))
    with pytest.raises(ValueError):
        next(encrypt_pieces(b"x", ks, mode, plan, None if iv else bytes(16)))
    if mode == "cbc":
        with pytest.raises(ValueError, match="shorter than its IV prefix"):
            next(decrypt_pieces(bytes(15), ks, mode, plan))
        with pytest.raises(ValueError, match="IV must be 16 bytes"):
            next(encrypt_pieces(b"x", ks, mode, plan, bytes(15)))


# ---------------------------------------------------------------------------
# Residual (image-mode) layout

def test_residual_preserves_length_and_tail(ks):
    rng = random.Random(48)
    data = rng.randbytes(1000)  # 62 blocks + 8-byte tail
    out = encrypt_with_residual(data, ks, "ecb", BASE)
    assert len(out) == len(data)
    assert out[-8:] == data[-8:]
    assert out[:992] != data[:992]
    assert decrypt_with_residual(out, ks, "ecb", BASE) == data


def residual_oracle(data, key, n_r, iv, decrypt):
    """The residual layout from the reference cipher: whole blocks in ECB
    (iv None) or CBC, the sub-block tail passed through."""
    cut = len(data) - len(data) % 16
    out = []
    prev = iv
    for i in range(0, cut, 16):
        block = data[i:i + 16]
        if decrypt:
            plain = aes_decrypt_oracle(block, key, n_r)
            if iv is not None:
                plain = bytes(a ^ b for a, b in zip(plain, prev))
                prev = block
            out.append(plain)
        else:
            if iv is not None:
                block = bytes(a ^ b for a, b in zip(block, prev))
            prev = aes_encrypt_oracle(block, key, n_r)
            out.append(prev)
    return b"".join(out) + data[cut:]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    vid=st.sampled_from(VARIANT_IDS),
    mode=st.sampled_from(("ecb", "cbc")),
    key_bytes=st.sampled_from((16, 24, 32)),
    n_r=st.integers(1, 14),
    key=st.binary(min_size=32, max_size=32),
    iv=st.binary(min_size=16, max_size=16),
    data=st.binary(max_size=80),
)
@example(vid="optf", mode="cbc", key_bytes=16, n_r=10, key=bytes(32), iv=bytes(range(16)), data=b"")
@example(vid="base", mode="cbc", key_bytes=16, n_r=1, key=bytes(32), iv=bytes(16), data=bytes(15))
def test_residual_matches_oracle_property(vid, mode, key_bytes, n_r, key, iv, data):
    # Lengths below one block reach the mode loops with no whole block.
    key = key[:key_bytes]
    ks = key_expansion(key, n_r)
    plan = make_plan(vid, n_r)
    iv = iv if mode == "cbc" else None
    ct = encrypt_with_residual(data, ks, mode, plan, iv)
    assert ct == residual_oracle(data, key, n_r, iv, decrypt=False)
    assert decrypt_with_residual(data, ks, mode, plan, iv) == residual_oracle(data, key, n_r, iv, decrypt=True)
    assert decrypt_with_residual(ct, ks, mode, plan, iv) == data


def test_residual_cbc_needs_iv(ks):
    with pytest.raises(ValueError):
        encrypt_with_residual(bytes(32), ks, "cbc", BASE)
    iv = bytes(range(16))
    out = encrypt_with_residual(bytes(33), ks, "cbc", BASE, iv=iv)
    assert decrypt_with_residual(out, ks, "cbc", BASE, iv=iv) == bytes(33)


# ---------------------------------------------------------------------------
# Repeated blocks: ECB and CBC decryption compute each distinct block
# once among those since the memo was last cleared

@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    vid=st.sampled_from(VARIANT_IDS),
    key_bytes=st.sampled_from((16, 24, 32)),
    n_r=st.sampled_from((1, 10, 14)),
    key=st.binary(min_size=32, max_size=32),
    iv=st.binary(min_size=16, max_size=16),
    block=st.binary(min_size=16, max_size=16),
    flips=st.lists(st.tuples(st.sampled_from(range(16)), st.integers(1, 255)),
                   min_size=2, max_size=5),
    bound=st.sampled_from((1, 2, 3, modes.MEMO_BLOCKS)),
    runs=st.lists(st.tuples(st.integers(0, 5), st.integers(1, 4)), max_size=40),
)
@example(vid="optf", key_bytes=16, n_r=10, key=bytes(32), iv=bytes(16), block=bytes(16),
         flips=[(0, 1), (15, 1)], bound=modes.MEMO_BLOCKS, runs=[(0, 1), (1, 1)] * 20)
@example(vid="base", key_bytes=32, n_r=14, key=bytes(range(32)), iv=bytes(range(16)),
         block=bytes(range(16)), flips=[(7, 0x80), (8, 0x80)], bound=modes.MEMO_BLOCKS,
         runs=[(0, 4), (2, 3), (2, 1), (1, 2)])
@example(vid="opt1", key_bytes=24, n_r=10, key=bytes(range(32)), iv=bytes(16),
         block=bytes(16), flips=[(0, 1), (1, 1), (2, 1), (3, 1)], bound=2,
         runs=[(0, 1), (1, 1), (2, 1), (0, 2), (3, 1), (4, 1), (1, 3), (0, 1)])
def test_block_runs_match_per_block_property(vid, key_bytes, n_r, key, iv, block, flips, bound, runs):
    # Up to 40 blocks made of runs of 1-4 equal blocks from a pool of
    # 3-6, which differ from the first in one byte each, so blocks repeat
    # apart as well as in runs.  A memo bound of 1-3 blocks, no larger
    # than the pool, is cleared along the way.  Every output block is
    # the block cipher of its own input block.
    ks = key_expansion(key[:key_bytes], n_r)
    plan = make_plan(vid, n_r)
    pool = [block]
    for at, bit in flips:
        near = bytearray(block)
        near[at] ^= bit
        pool.append(bytes(near))
    blocks = [pool[j % len(pool)] for j, length in runs for _ in range(length)][:40]
    data = b"".join(blocks)
    enc = {b: encrypt_block(b, ks) for b in pool}
    dec = {b: decrypt_block(b, ks) for b in pool}
    chain = [iv] + blocks[:-1]
    with mock.patch.object(modes, "MEMO_BLOCKS", bound):
        assert ecb_encrypt(data, ks, plan) == b"".join(enc[b] for b in blocks)
        assert ecb_decrypt(data, ks, plan) == b"".join(dec[b] for b in blocks)
        assert cbc_decrypt(data, ks, iv, plan) == b"".join(
            bytes(a ^ c for a, c in zip(dec[b], prev)) for b, prev in zip(blocks, chain))


def test_blocks_one_byte_apart_are_not_a_run(ks):
    # A block that differs from one seen before in any single byte is
    # computed, not taken from the memo.
    plan = make_plan("optf", ks.n_r)
    block = bytes(range(16))
    for at in range(16):
        near = bytearray(block)
        near[at] ^= 0x80
        blocks = [block, bytes(near), bytes(near), block]
        data = b"".join(blocks)
        assert ecb_encrypt(data, ks, plan) == b"".join(encrypt_block(b, ks) for b in blocks), at
        assert ecb_decrypt(data, ks, plan) == b"".join(decrypt_block(b, ks) for b in blocks), at


def test_run_across_a_piece_boundary_round_trips(ks):
    # 1027 zero blocks: the run crosses the CHUNK boundary and the
    # padded piece starts with a run of its own.
    plan = make_plan("optf", ks.n_r)
    data = bytes(CHUNK + 48)
    blob = encrypt_blob(data, ks, "ecb", plan)
    assert blob == raw_layout_oracle(data, None)
    assert b"".join(decrypt_pieces(blob, ks, "ecb", plan)) == data


def test_residual_tail_equal_to_a_block_prefix_passes_through(ks):
    # The 8-byte tail is the prefix of the repeated block; it is not a
    # block and is neither encrypted nor taken from the memo.
    block = bytes(range(16))
    data = block * 3 + block[:8]
    plan = make_plan("opt2", ks.n_r)
    for mode, iv in (("ecb", None), ("cbc", bytes(16))):
        ct = encrypt_with_residual(data, ks, mode, plan, iv)
        assert ct == residual_oracle(data, KEY, ks.n_r, iv, decrypt=False)
        assert ct[-8:] == block[:8]
        assert decrypt_with_residual(ct, ks, mode, plan, iv) == data


@pytest.fixture
def count_calls(monkeypatch):
    """count(run, *args) is (run(*args), the block-function calls it made)."""
    calls = [0]
    for name in ("encrypt_block_variant", "decrypt_block_variant"):
        fn = getattr(modes, name)

        def counting(*args, fn=fn):
            calls[0] += 1
            return fn(*args)

        monkeypatch.setattr(modes, name, counting)

    def count(run, *args):
        calls[0] = 0
        return run(*args), calls[0]

    return count


def test_block_calls_for_repeated_blocks(ks, count_calls):
    plan = PER_BLOCK
    zeros = bytes(16 * 64)
    ct, n = count_calls(ecb_encrypt, zeros, ks, plan)
    assert n == 1
    assert count_calls(ecb_decrypt, ct, ks, plan) == (zeros, 1)
    # A,B,A,B: the second A and B are taken from the memo.
    abab = (bytes(16) + bytes(range(16))) * 2
    ct, n = count_calls(ecb_encrypt, abab, ks, plan)
    assert n == 2
    assert count_calls(ecb_decrypt, ct, ks, plan) == (abab, 2)
    # CBC encryption's chained inputs differ, and so does its ciphertext.
    iv = bytes(range(16))
    ct, n = count_calls(cbc_encrypt, zeros, ks, iv, plan)
    assert n == 64
    assert count_calls(cbc_decrypt, ct, ks, iv, plan) == (zeros, 64)


def test_memo_holds_at_most_its_bound(ks, count_calls):
    # n distinct blocks, then the first one again.  256 fit in the memo,
    # so the first block is taken from it.  A 257th fills the memo past
    # its 256 entries, which clears it, so the first block is computed
    # again, and so it is after 300.
    assert modes.MEMO_BLOCKS == 256
    plan = PER_BLOCK
    distinct = [i.to_bytes(16, "big") for i in range(300)]
    for n, calls in ((256, 256), (257, 258), (300, 301)):
        blocks = distinct[:n] + distinct[:1]
        data = b"".join(blocks)
        ct, made = count_calls(ecb_encrypt, data, ks, plan)
        assert made == calls, n
        assert ct == b"".join(encrypt_block(b, ks) for b in blocks), n
        assert count_calls(ecb_decrypt, ct, ks, plan) == (data, calls), n


@pytest.mark.parametrize("size", (33, 200))
@pytest.mark.parametrize("pattern", bmp.TEST_PATTERNS)
def test_image_block_calls_are_its_distinct_blocks(ks, count_calls, pattern, size):
    # At these sizes each test bitmap has at most MEMO_BLOCKS distinct
    # blocks or none that repeats, so ECB of the residual layout computes
    # each distinct block exactly once.
    pixels = bmp.make_test_image(pattern, size, size).pixels
    distinct = analysis.duplicate_block_ratio(pixels).distinct_blocks
    plan = PER_BLOCK
    ct, n = count_calls(encrypt_with_residual, pixels, ks, "ecb", plan)
    assert n == distinct
    assert count_calls(decrypt_with_residual, ct, ks, "ecb", plan) == (pixels, distinct)


@pytest.mark.parametrize("mode", ["ecb", "cbc"])
def test_multi_piece_decrypt_computes_each_block_once(ks, count_calls, mode):
    # The last block is decrypted and unpadded before the pieces ahead
    # of it, and not again after them.  Random blocks do not repeat, so
    # the memo skips none: one call per ciphertext block.
    plan = PER_BLOCK
    data = random.Random(53).randbytes(3 * CHUNK + 4 * 16 + 3)  # padded: 3 * CHUNK + 5 blocks
    iv = bytes(range(16)) if mode == "cbc" else None
    blob = encrypt_blob(data, ks, mode, plan, iv)
    body = len(blob) - (16 if iv else 0)
    assert body == 3 * CHUNK + 5 * 16
    assert count_calls(decrypt_blob, blob, ks, mode, plan) == (data, body // 16)


# ---------------------------------------------------------------------------
# The window path: an all-fused plan over at least WINDOW_MIN_BLOCKS
# blocks runs fused_window on windows of WINDOW_BLOCKS blocks

@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    key_bytes=st.sampled_from((16, 24, 32)),
    n_r=st.integers(1, 14),
    key=st.binary(min_size=32, max_size=32),
    iv=st.binary(min_size=16, max_size=16),
    pool=st.lists(st.binary(min_size=16, max_size=16), min_size=2, max_size=6, unique=True),
    blocks=st.one_of(st.sampled_from((15, 16, 17, 255, 256, 257)), st.integers(0, 600)),
    seed=st.integers(0, 2**32 - 1),
)
@example(key_bytes=16, n_r=10, key=bytes(32), iv=bytes(16), pool=[bytes(16), bytes(range(16))],
         blocks=16, seed=0)
@example(key_bytes=24, n_r=1, key=bytes(range(32)), iv=bytes(range(16)),
         pool=[bytes(16), bytes([1] * 16)], blocks=257, seed=1)
@example(key_bytes=32, n_r=14, key=bytes(range(32)), iv=bytes(16),
         pool=[bytes(range(16)), bytes(range(16, 32)), bytes(16)], blocks=600, seed=2)
def test_window_path_matches_oracle_property(key_bytes, n_r, key, iv, pool, blocks, seed):
    # The blocks are drawn from a pool of 2-6 in random order, so the
    # reference cipher runs once per pool block, while the window path
    # computes every block, repeats included.  Both ECB directions and
    # CBC decryption's D(C) take it from 16 blocks on.
    key = key[:key_bytes]
    ks = key_expansion(key, n_r)
    plan = make_plan("optf", n_r)
    order = random.Random(seed).choices(pool, k=blocks)
    data = b"".join(order)
    enc = {b: aes_encrypt_oracle(b, key, n_r) for b in pool}
    dec = {b: aes_decrypt_oracle(b, key, n_r) for b in pool}
    assert ecb_encrypt(data, ks, plan) == b"".join(enc[b] for b in order)
    assert ecb_decrypt(data, ks, plan) == b"".join(dec[b] for b in order)
    chain = [iv] + order[:-1]
    assert cbc_decrypt(data, ks, iv, plan) == b"".join(
        bytes(a ^ c for a, c in zip(dec[b], prev)) for b, prev in zip(order, chain))


def test_window_path_runs_from_16_blocks_once_per_window(ks, monkeypatch):
    # Each call is recorded as (name, blocks it computes).  Random blocks
    # do not repeat, so the memo loop calls its block function once per
    # block.
    assert (modes.WINDOW_MIN_BLOCKS, modes.WINDOW_BLOCKS) == (16, 256)
    calls = []
    for name in ("encrypt_block_variant", "decrypt_block_variant", "fused_window"):
        fn = getattr(modes, name)

        def recording(x, *args, fn=fn, name=name):
            calls.append((name, len(x) // 16))
            return fn(x, *args)

        monkeypatch.setattr(modes, name, recording)
    optf = make_plan("optf", ks.n_r)
    iv = bytes(range(16))
    rng = random.Random(29)
    for blocks, windows in ((1, ()), (15, ()), (16, (16,)), (17, (17,)), (256, (256,)),
                            (257, (256, 1)), (600, (256, 256, 88))):
        data = rng.randbytes(16 * blocks)
        for run, args, block_fn in ((ecb_encrypt, (optf,), "encrypt_block_variant"),
                                    (ecb_decrypt, (optf,), "decrypt_block_variant"),
                                    (cbc_decrypt, (iv, optf), "decrypt_block_variant")):
            calls.clear()
            run(data, ks, *args)
            if blocks < 16:
                assert calls == [(block_fn, 1)] * blocks, (run.__name__, blocks)
            else:
                assert calls == [("fused_window", n) for n in windows], (run.__name__, blocks)
    # A plan with a Base round, and CBC encryption, stay per block.
    data = rng.randbytes(16 * 300)
    for run, args, block_fn in ((ecb_encrypt, (PER_BLOCK,), "encrypt_block_variant"),
                                (ecb_decrypt, (PER_BLOCK,), "decrypt_block_variant"),
                                (cbc_decrypt, (iv, PER_BLOCK), "decrypt_block_variant"),
                                (cbc_encrypt, (iv, optf), "encrypt_block_variant")):
        calls.clear()
        run(data, ks, *args)
        assert calls == [(block_fn, 1)] * 300, run.__name__


# ---------------------------------------------------------------------------
# Mode/IV rules, each enforced by the wrapper that takes the mode

def test_wrappers_enforce_mode_rules(ks):
    with pytest.raises(ValueError, match="CBC requires an IV"):
        encrypt_with_residual(bytes(32), ks, "cbc", BASE)
    with pytest.raises(ValueError, match="CBC requires an IV"):
        decrypt_with_residual(bytes(32), ks, "cbc", BASE)
    with pytest.raises(ValueError, match="CBC requires an IV"):
        encrypt_blob(b"x", ks, "cbc", BASE)
    with pytest.raises(ValueError, match="ECB must not carry an IV"):
        encrypt_blob(b"x", ks, "ecb", BASE, iv=bytes(16))
    with pytest.raises(ValueError, match="IV must be 16 bytes"):
        cbc_encrypt(bytes(16), ks, bytes(8), BASE)
    with pytest.raises(ValueError, match="unknown mode 'ctr'"):
        encrypt_blob(b"x", ks, "ctr", BASE)
    with pytest.raises(ValueError, match="unknown mode 'ctr'"):
        decrypt_blob(bytes(32), ks, "ctr", BASE)
    with pytest.raises(ValueError, match="unknown mode 'ctr'"):
        encrypt_with_residual(bytes(32), ks, "ctr", BASE)
    with pytest.raises(ValueError, match="unknown mode 'ctr'"):
        decrypt_with_residual(bytes(32), ks, "ctr", BASE)


# ---------------------------------------------------------------------------
# Memory and return type: each mode loop appends its blocks to one buffer

def test_mode_loops_peak_memory_and_return_bytes(ks):
    # One appended buffer plus its bytes copy is about 2x the data, and
    # CBC decrypt's whole-message XOR adds its int operands; per-block
    # bytes objects would cost about 49 B of every 16.
    rng = random.Random(49)
    data = rng.randbytes(16 * 4096)
    iv = rng.randbytes(16)
    plan = make_plan("optf", ks.n_r)
    runs = (
        (ecb_encrypt, (plan,), 2.5),
        (ecb_decrypt, (plan,), 2.5),
        (cbc_encrypt, (iv, plan), 2.5),
        (cbc_decrypt, (iv, plan), 5),
    )
    for fn, rest, bound in runs:
        fn(data[:16], ks, *rest)  # derive the schedule's fields first
        tracemalloc.start()
        try:
            out = fn(data, ks, *rest)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert type(out) is bytes and len(out) == len(data)
        assert peak <= bound * len(data), (fn.__name__, peak / len(data))
        assert type(fn(b"", ks, *rest)) is bytes
    for data in (b"", bytes(40)):
        for mode, mode_iv in (("ecb", None), ("cbc", iv)):
            blob = encrypt_blob(data, ks, mode, plan, mode_iv)
            out = encrypt_with_residual(data, ks, mode, plan, mode_iv)
            assert type(blob) is bytes and type(out) is bytes
            assert type(decrypt_blob(blob, ks, mode, plan)) is bytes
            assert type(decrypt_with_residual(out, ks, mode, plan, mode_iv)) is bytes


# ---------------------------------------------------------------------------
# Traced names: span tracers replace these module attributes, so every
# call must look them up in the modes module when it runs

def test_layout_wrappers_call_through_module_globals(ks, monkeypatch):
    calls = {}

    def counting(name):
        fn = getattr(modes, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)

        monkeypatch.setattr(modes, name, wrapper)

    for name in ("ecb_encrypt", "cbc_decrypt", "encrypt_block_variant",
                 "decrypt_block_variant"):
        counting(name)
    plan = make_plan("opt1", ks.n_r)
    iv = bytes(range(16))
    data = bytes(40)  # 2 whole blocks + 8-byte tail; padded: 3 blocks
    for mode, mode_iv in (("ecb", None), ("cbc", iv)):
        blob = encrypt_blob(data, ks, mode, plan, mode_iv)
        assert decrypt_blob(blob, ks, mode, plan) == data  # CBC: IV prefix
        out = encrypt_with_residual(data, ks, mode, plan, mode_iv)
        assert decrypt_with_residual(out, ks, mode, plan, mode_iv) == data
    # ECB runs encrypt_blob and encrypt_with_residual through ecb_encrypt,
    # CBC runs decrypt_blob and decrypt_with_residual through cbc_decrypt;
    # each mode moves 3 + 2 blocks per direction.  ECB computes the two
    # equal zero blocks (and their equal ciphertext blocks) once: 2 calls
    # for the padded blob's 3 blocks, 1 for the residual's 2.  CBC's
    # chained blocks all differ: 3 + 2 calls.  Per direction,
    # ECB (2 + 1) + CBC (3 + 2) = 8.
    assert calls == {
        "ecb_encrypt": 2,
        "cbc_decrypt": 2,
        "encrypt_block_variant": (2 + 1) + (3 + 2),
        "decrypt_block_variant": (2 + 1) + (3 + 2),
    }
