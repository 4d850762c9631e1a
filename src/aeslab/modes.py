"""ECB and CBC modes over any cipher variant, PKCS#7 padding, and IV
handling.

Raw-file ciphertext layout: [16-byte IV || ciphertext] for CBC,
[ciphertext] for ECB.  The IV travels in clear with the ciphertext;
only its unpredictability matters.
"""

import os

from .core import BLOCK_SIZE, KeySchedule
from .variants import VariantPlan, decrypt_block_variant, encrypt_block_variant

MODES = ("ecb", "cbc")


class PaddingError(ValueError):
    """Ciphertext decrypted to an invalid PKCS#7 padding pattern."""


def pkcs7_pad(data: bytes, block_size: int = BLOCK_SIZE) -> bytes:
    """Append k bytes of value k so the length reaches the next multiple
    of block_size (a full extra block when already aligned)."""
    k = block_size - len(data) % block_size
    return data + bytes([k]) * k


def pkcs7_unpad(data: bytes, block_size: int = BLOCK_SIZE) -> bytes:
    if len(data) == 0 or len(data) % block_size != 0:
        raise ValueError(f"padded data length {len(data)} is not a positive multiple of {block_size}")
    k = data[-1]
    if k < 1 or k > block_size or data[-k:] != bytes([k]) * k:
        raise PaddingError("invalid PKCS#7 padding")
    return data[:-k]


def _xor_block(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(BLOCK_SIZE, "big")


def _require_aligned(data: bytes) -> None:
    if len(data) % BLOCK_SIZE != 0:
        raise ValueError(
            f"data length {len(data)} is not a multiple of {BLOCK_SIZE}"
        )


# The loops below look the block functions up in this module's globals
# once per call, so a wrapper set on this module (a tracer) sees every
# block.


def ecb_encrypt(data: bytes, ks: KeySchedule, plan: VariantPlan) -> bytes:
    """Each block encrypted independently; equal plaintext blocks give
    equal ciphertext blocks."""
    _require_aligned(data)
    enc = encrypt_block_variant
    return b"".join([enc(data[i:i + 16], ks, plan) for i in range(0, len(data), 16)])


def ecb_decrypt(data: bytes, ks: KeySchedule, plan: VariantPlan) -> bytes:
    _require_aligned(data)
    dec = decrypt_block_variant
    return b"".join([dec(data[i:i + 16], ks, plan) for i in range(0, len(data), 16)])


def cbc_encrypt(data: bytes, ks: KeySchedule, iv: bytes, plan: VariantPlan) -> bytes:
    """C_i = E_k(M_i xor C_{i-1}) with C_0 = IV."""
    _require_aligned(data)
    if len(iv) != BLOCK_SIZE:
        raise ValueError(f"IV must be {BLOCK_SIZE} bytes, got {len(iv)}")
    enc = encrypt_block_variant
    out = []
    prev = iv
    for i in range(0, len(data), 16):
        prev = enc(_xor_block(data[i:i + 16], prev), ks, plan)
        out.append(prev)
    return b"".join(out)


def cbc_decrypt(data: bytes, ks: KeySchedule, iv: bytes, plan: VariantPlan) -> bytes:
    _require_aligned(data)
    if len(iv) != BLOCK_SIZE:
        raise ValueError(f"IV must be {BLOCK_SIZE} bytes, got {len(iv)}")
    dec = decrypt_block_variant
    out = []
    prev = iv
    for i in range(0, len(data), 16):
        block = data[i:i + 16]
        out.append(_xor_block(dec(block, ks, plan), prev))
        prev = block
    return b"".join(out)


def random_iv(rng: "random.Random | None" = None) -> bytes:
    """Fresh 16-byte IV from os.urandom, or from a seeded generator for
    reproducible tests.  Entropy failure raises; never a fixed IV."""
    if rng is not None:
        return rng.randbytes(BLOCK_SIZE)
    return os.urandom(BLOCK_SIZE)


def _check_iv(mode: str, iv: bytes | None) -> None:
    """ECB carries no IV, CBC needs one; any other mode is unknown."""
    if mode == "ecb":
        if iv is not None:
            raise ValueError("ECB must not carry an IV")
    elif mode == "cbc":
        if iv is None:
            raise ValueError("CBC requires an IV")
    else:
        raise ValueError(f"unknown mode {mode!r}")


def encrypt_blob(
    data: bytes,
    ks: KeySchedule,
    mode: str,
    plan: VariantPlan,
    iv: bytes | None = None,
    rng: "random.Random | None" = None,
) -> bytes:
    """Pad and encrypt a message into the raw-file layout.  CBC draws a
    fresh IV unless one is passed."""
    if mode == "cbc" and iv is None:
        iv = random_iv(rng)
    _check_iv(mode, iv)
    padded = pkcs7_pad(data)
    if iv is None:
        return ecb_encrypt(padded, ks, plan)
    return iv + cbc_encrypt(padded, ks, iv, plan)


def decrypt_blob(
    blob: bytes,
    ks: KeySchedule,
    mode: str,
    plan: VariantPlan,
    iv: bytes | None = None,
) -> bytes:
    """Invert encrypt_blob.  For CBC the IV is read from the 16-byte file
    prefix unless one is passed explicitly."""
    if mode == "cbc" and iv is None:
        if len(blob) < BLOCK_SIZE:
            raise ValueError("CBC blob shorter than its IV prefix")
        iv, blob = blob[:BLOCK_SIZE], blob[BLOCK_SIZE:]
    _check_iv(mode, iv)
    if iv is None:
        return pkcs7_unpad(ecb_decrypt(blob, ks, plan))
    return pkcs7_unpad(cbc_decrypt(blob, ks, iv, plan))


def encrypt_with_residual(
    data: bytes,
    ks: KeySchedule,
    mode: str,
    plan: VariantPlan,
    iv: bytes | None = None,
) -> bytes:
    """Encrypt all whole blocks and pass the sub-block tail through
    unchanged, preserving the exact byte length (image-mode encryption;
    the IV is NOT embedded and must travel out of band for CBC)."""
    _check_iv(mode, iv)
    cut = len(data) - len(data) % BLOCK_SIZE
    head, tail = data[:cut], data[cut:]
    if iv is None:
        return ecb_encrypt(head, ks, plan) + tail
    return cbc_encrypt(head, ks, iv, plan) + tail


def decrypt_with_residual(
    data: bytes,
    ks: KeySchedule,
    mode: str,
    plan: VariantPlan,
    iv: bytes | None = None,
) -> bytes:
    _check_iv(mode, iv)
    cut = len(data) - len(data) % BLOCK_SIZE
    head, tail = data[:cut], data[cut:]
    if iv is None:
        return ecb_decrypt(head, ks, plan) + tail
    return cbc_decrypt(head, ks, iv, plan) + tail
