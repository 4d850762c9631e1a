"""ECB and CBC modes over any cipher variant, PKCS#7 padding, and IV
handling.

Raw-file ciphertext layout: [16-byte IV || ciphertext] for CBC,
[ciphertext] for ECB.  The IV travels in clear with the ciphertext;
only its unpredictability matters.
"""

import os
import random

from .core import BLOCK_SIZE, KeySchedule, decrypt_block, encrypt_block
from .variants import VariantPlan, decrypt_block_variant, encrypt_block_variant


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


def _block_fns(ks: KeySchedule, plan: VariantPlan | None):
    if plan is None:
        return (lambda b: encrypt_block(b, ks)), (lambda b: decrypt_block(b, ks))
    return (
        lambda b: encrypt_block_variant(b, ks, plan),
        lambda b: decrypt_block_variant(b, ks, plan),
    )


def _xor_block(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(BLOCK_SIZE, "big")


def _require_aligned(data: bytes) -> None:
    if len(data) % BLOCK_SIZE != 0:
        raise ValueError(
            f"data length {len(data)} is not a multiple of {BLOCK_SIZE}"
        )


def ecb_encrypt(data: bytes, ks: KeySchedule, plan: VariantPlan | None = None) -> bytes:
    """Each block encrypted independently; equal plaintext blocks give
    equal ciphertext blocks."""
    _require_aligned(data)
    enc, _ = _block_fns(ks, plan)
    return b"".join(enc(data[i:i + 16]) for i in range(0, len(data), 16))


def ecb_decrypt(data: bytes, ks: KeySchedule, plan: VariantPlan | None = None) -> bytes:
    _require_aligned(data)
    _, dec = _block_fns(ks, plan)
    return b"".join(dec(data[i:i + 16]) for i in range(0, len(data), 16))


def cbc_encrypt(data: bytes, ks: KeySchedule, iv: bytes, plan: VariantPlan | None = None) -> bytes:
    """C_i = E_k(M_i xor C_{i-1}) with C_0 = IV."""
    _require_aligned(data)
    if len(iv) != BLOCK_SIZE:
        raise ValueError(f"IV must be {BLOCK_SIZE} bytes, got {len(iv)}")
    enc, _ = _block_fns(ks, plan)
    out = []
    prev = iv
    for i in range(0, len(data), 16):
        prev = enc(_xor_block(data[i:i + 16], prev))
        out.append(prev)
    return b"".join(out)


def cbc_decrypt(data: bytes, ks: KeySchedule, iv: bytes, plan: VariantPlan | None = None) -> bytes:
    _require_aligned(data)
    if len(iv) != BLOCK_SIZE:
        raise ValueError(f"IV must be {BLOCK_SIZE} bytes, got {len(iv)}")
    _, dec = _block_fns(ks, plan)
    out = []
    prev = iv
    for i in range(0, len(data), 16):
        block = data[i:i + 16]
        out.append(_xor_block(dec(block), prev))
        prev = block
    return b"".join(out)


def random_iv(rng: random.Random | None = None) -> bytes:
    """Fresh 16-byte IV from os.urandom, or from a seeded generator for
    reproducible tests.  Entropy failure raises; never a fixed IV."""
    if rng is not None:
        return rng.randbytes(BLOCK_SIZE)
    return os.urandom(BLOCK_SIZE)


def encrypt_blob(
    data: bytes,
    ks: KeySchedule,
    mode: str,
    plan: VariantPlan | None = None,
    iv: bytes | None = None,
    rng: random.Random | None = None,
) -> bytes:
    """Pad and encrypt a message into the raw-file layout."""
    padded = pkcs7_pad(data)
    if mode == "ecb":
        if iv is not None:
            raise ValueError("ECB must not carry an IV")
        return ecb_encrypt(padded, ks, plan)
    if mode == "cbc":
        if iv is None:
            iv = random_iv(rng)
        return iv + cbc_encrypt(padded, ks, iv, plan)
    raise ValueError(f"unknown mode {mode!r}")


def decrypt_blob(
    blob: bytes,
    ks: KeySchedule,
    mode: str,
    plan: VariantPlan | None = None,
    iv: bytes | None = None,
) -> bytes:
    """Invert encrypt_blob.  For CBC the IV is read from the 16-byte file
    prefix unless one is passed explicitly."""
    if mode == "ecb":
        if iv is not None:
            raise ValueError("ECB must not carry an IV")
        return pkcs7_unpad(ecb_decrypt(blob, ks, plan))
    if mode == "cbc":
        if iv is None:
            if len(blob) < BLOCK_SIZE:
                raise ValueError("CBC blob shorter than its IV prefix")
            iv, blob = blob[:BLOCK_SIZE], blob[BLOCK_SIZE:]
        return pkcs7_unpad(cbc_decrypt(blob, ks, iv, plan))
    raise ValueError(f"unknown mode {mode!r}")


def encrypt_with_residual(
    data: bytes,
    ks: KeySchedule,
    mode: str,
    plan: VariantPlan | None = None,
    iv: bytes | None = None,
) -> bytes:
    """Encrypt all whole blocks and pass the sub-block tail through
    unchanged, preserving the exact byte length (image-mode encryption;
    the IV is NOT embedded and must travel out of band for CBC)."""
    cut = len(data) - len(data) % BLOCK_SIZE
    head, tail = data[:cut], data[cut:]
    if mode == "ecb":
        if iv is not None:
            raise ValueError("ECB must not carry an IV")
        return ecb_encrypt(head, ks, plan) + tail
    if mode == "cbc":
        if iv is None:
            raise ValueError("CBC requires an IV")
        return cbc_encrypt(head, ks, iv, plan) + tail
    raise ValueError(f"unknown mode {mode!r}")


def decrypt_with_residual(
    data: bytes,
    ks: KeySchedule,
    mode: str,
    plan: VariantPlan | None = None,
    iv: bytes | None = None,
) -> bytes:
    cut = len(data) - len(data) % BLOCK_SIZE
    head, tail = data[:cut], data[cut:]
    if mode == "ecb":
        if iv is not None:
            raise ValueError("ECB must not carry an IV")
        return ecb_decrypt(head, ks, plan) + tail
    if mode == "cbc":
        if iv is None:
            raise ValueError("CBC requires an IV")
        return cbc_decrypt(head, ks, iv, plan) + tail
    raise ValueError(f"unknown mode {mode!r}")
