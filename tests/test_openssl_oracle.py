"""OpenSSL's AES, through the cryptography package, as a second oracle
beside tests/reference.py, which this repository wrote itself.  OpenSSL
runs only the standard round counts, so other counts stay with the
reference.  Its PKCS#7 padder pads the raw layout independently of
modes.pkcs7_pad."""

import random

import pytest

pytest.importorskip("cryptography")

from cryptography.hazmat.primitives import padding  # noqa: E402
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms  # noqa: E402
from cryptography.hazmat.primitives.ciphers import modes as openssl_modes  # noqa: E402
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from aeslab.core import key_expansion  # noqa: E402
from aeslab.modes import (  # noqa: E402
    CHUNK,
    cbc_decrypt,
    cbc_encrypt,
    decrypt_blob,
    decrypt_with_residual,
    ecb_decrypt,
    ecb_encrypt,
    encrypt_blob,
    encrypt_with_residual,
)
from aeslab.variants import VARIANT_IDS, make_plan  # noqa: E402


def openssl(key: bytes, iv: bytes | None, data: bytes, decrypt: bool) -> bytes:
    """OpenSSL's ECB (iv None) or CBC over whole blocks, unpadded."""
    mode = openssl_modes.ECB() if iv is None else openssl_modes.CBC(iv)
    cipher = Cipher(algorithms.AES(key), mode)
    ctx = cipher.decryptor() if decrypt else cipher.encryptor()
    return ctx.update(data) + ctx.finalize()


def openssl_pad(data: bytes) -> bytes:
    padder = padding.PKCS7(128).padder()
    return padder.update(data) + padder.finalize()


def raw_layout(key: bytes, iv: bytes | None, data: bytes) -> bytes:
    """The raw-file layout from OpenSSL: CBC's IV, then the ciphertext of
    the padded data."""
    return (iv or b"") + openssl(key, iv, openssl_pad(data), decrypt=False)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    vid=st.sampled_from(VARIANT_IDS),
    mode=st.sampled_from(("ecb", "cbc")),
    key_bytes=st.sampled_from((16, 24, 32)),
    key=st.binary(min_size=32, max_size=32),
    iv=st.binary(min_size=16, max_size=16),
    length=st.integers(0, 2000),
    seed=st.integers(0, 2**32 - 1),
)
@example(vid="optf", mode="ecb", key_bytes=16, key=bytes(32), iv=bytes(16), length=2000, seed=0)
@example(vid="optf", mode="cbc", key_bytes=32, key=bytes(range(32)), iv=bytes(16), length=255, seed=1)
@example(vid="base", mode="cbc", key_bytes=24, key=bytes(range(32)), iv=bytes(16), length=0, seed=2)
def test_modes_match_openssl_property(vid, mode, key_bytes, key, iv, length, seed):
    # Random bytes serve as plaintext and as ciphertext: the mode
    # functions on their whole blocks, both ways, and the raw and image
    # layouts.
    key = key[:key_bytes]
    ks = key_expansion(key)
    plan = make_plan(vid, ks.n_r)
    data = random.Random(seed).randbytes(length)
    blocks = data[:length - length % 16]
    if mode == "ecb":
        iv = None
        assert ecb_encrypt(blocks, ks, plan) == openssl(key, iv, blocks, decrypt=False)
        assert ecb_decrypt(blocks, ks, plan) == openssl(key, iv, blocks, decrypt=True)
    else:
        assert cbc_encrypt(blocks, ks, iv, plan) == openssl(key, iv, blocks, decrypt=False)
        assert cbc_decrypt(blocks, ks, iv, plan) == openssl(key, iv, blocks, decrypt=True)
    blob = raw_layout(key, iv, data)
    assert encrypt_blob(data, ks, mode, plan, iv) == blob
    assert decrypt_blob(blob, ks, mode, plan) == data
    # The image layout: whole blocks through the mode, the tail as is.
    image = openssl(key, iv, blocks, decrypt=False) + data[len(blocks):]
    assert encrypt_with_residual(data, ks, mode, plan, iv) == image
    assert decrypt_with_residual(image, ks, mode, plan, iv) == data


@pytest.mark.parametrize("mode", ["ecb", "cbc"])
@pytest.mark.parametrize("key_bytes", [16, 24, 32])
def test_raw_layout_across_pieces_matches_openssl(mode, key_bytes):
    # The raw layout runs CHUNK-byte pieces, CBC chaining from one piece
    # into the next; lengths on and beside the piece boundaries.
    rng = random.Random(key_bytes)
    key = rng.randbytes(key_bytes)
    iv = rng.randbytes(16) if mode == "cbc" else None
    ks = key_expansion(key)
    plan = make_plan("optf", ks.n_r)
    for length in (CHUNK - 17, CHUNK - 1, CHUNK, CHUNK + 1, CHUNK + 1603, 2 * CHUNK + 16,
                   2 * CHUNK + 128, 3 * CHUNK - 5):
        data = rng.randbytes(length)
        blob = raw_layout(key, iv, data)
        assert encrypt_blob(data, ks, mode, plan, iv) == blob, length
        assert decrypt_blob(blob, ks, mode, plan) == data, length
