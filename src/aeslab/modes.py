"""ECB and CBC modes over any cipher variant, PKCS#7 padding, and IV
handling.

Raw-file ciphertext layout: [16-byte IV || ciphertext] for CBC,
[ciphertext] for ECB.  The IV travels in clear with the ciphertext;
only its unpredictability matters.

CBC encryption chains each block before encrypting it, so it runs block
by block.  CBC decryption does not: with D the block decryption applied
to every block of the ciphertext C, the plaintext is
D(C) xor (IV || C[:-16]), one XOR over the whole message.

ECB in both directions and CBC decryption's D(C) take one of two paths.
An all-fused (OptF) plan over at least WINDOW_MIN_BLOCKS blocks runs
variants.fused_window, the fused T-table rounds over every block of a
window at once, on windows of at most WINDOW_BLOCKS blocks; the window
path computes every block, repeats included.  Any other plan, and a
shorter input, runs the block loop, which computes each distinct input
block once among those since its memo was last cleared; the memo is
cleared at MEMO_BLOCKS blocks, so it stays small whatever the input.
The block functions are pure, so the output is the same on either path.
What the block loop skips depends only on which input blocks are equal:
for ECB encryption equal plaintext blocks are equal ciphertext blocks,
which the output already shows, and for decryption the input is the
ciphertext itself.  A flat bitmap is mostly repeated blocks, so under a
per-block plan its ECB runs faster for the same reason it leaks; under
OptF its rate is the cipher's.  CBC encryption's chained inputs do not
repeat, and it calls the block function for every block, OptF included.

Each block loop appends its blocks to one bytearray and returns its
bytes: about twice its input in transient memory (4-5x for CBC
decryption's whole-message XOR on ints), where a list of blocks joined
at the end peaks near 10x.  Slice stores into a preallocated buffer
would use less memory but about twice the per-block loop overhead of
an append.  The window path stores each window into a buffer of the
input's length, so it holds that buffer and its bytes copy, plus the
round keys repeated over one window (4 KiB per round key) and a few
window-sized temporaries: about 2.3x a 64 KiB input for AES-128.

The raw-file layout runs those loops on pieces of at most CHUNK bytes.
encrypt_pieces/decrypt_pieces yield it piece by piece, CBC carrying the
chaining block from one piece to the next, so a caller that writes each
piece as it comes holds its input plus about one piece: `aeslab
encrypt/decrypt` peaks near 1.1x a 1 MiB file.  encrypt_blob and
decrypt_blob join the pieces.
"""

import os

from .core import BLOCK_SIZE, KeySchedule
from .variants import (
    VariantPlan,
    decrypt_block_variant,
    encrypt_block_variant,
    fused_window,
    window_keys,
)

MODES = ("ecb", "cbc")

# Raw-layout piece size: 1024 blocks, small beside a file and large
# beside the per-call overhead of a mode loop.
CHUNK = 16 * 1024

# Most input blocks _each_block keeps with their outputs: about 34 KB.
MEMO_BLOCKS = 256

# An all-fused plan over at least WINDOW_MIN_BLOCKS blocks runs
# fused_window on windows of at most WINDOW_BLOCKS blocks.  Measured
# against the block loop, the window form is slower at 8 blocks and
# faster from 16; a 256-block window costs 10-20% more per block than a
# 1024-block one, for well under half the transient memory (about 2.3x
# against 6x a 64 KiB input).
WINDOW_MIN_BLOCKS = 16
WINDOW_BLOCKS = 256


class PaddingError(ValueError):
    """Ciphertext decrypted to an invalid PKCS#7 padding pattern."""


def pkcs7_pad(data: bytes) -> bytes:
    """Append k bytes of value k so the length reaches the next multiple
    of BLOCK_SIZE (a full extra block when already aligned)."""
    k = BLOCK_SIZE - len(data) % BLOCK_SIZE
    return data + bytes([k]) * k


def pkcs7_unpad(data: bytes) -> bytes:
    if len(data) == 0 or len(data) % BLOCK_SIZE != 0:
        raise ValueError(f"padded data length {len(data)} is not a positive multiple of {BLOCK_SIZE}")
    k = data[-1]
    if k < 1 or k > BLOCK_SIZE or data[-k:] != bytes([k]) * k:
        raise PaddingError("invalid PKCS#7 padding")
    return data[:-k]


def _xor_block(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(BLOCK_SIZE, "big")


def _require_aligned(n: int) -> None:
    if n % BLOCK_SIZE != 0:
        raise ValueError(f"data length {n} is not a multiple of {BLOCK_SIZE}")


def _require_iv(iv: bytes) -> None:
    if len(iv) != BLOCK_SIZE:
        raise ValueError(f"IV must be {BLOCK_SIZE} bytes, got {len(iv)}")


# The modes look the block functions and the window routine up in this
# module's globals when they run, so a wrapper set on this module (a
# tracer) sees every block or window they compute.


def _each_block(fn, data: bytes, ks: KeySchedule, plan: VariantPlan) -> bytearray:
    """fn applied to every block of data, appended to one buffer.

    fn is a pure function of (block, ks, plan), so a block seen since
    the memo was last cleared appends the output kept for it instead of
    calling fn again: each distinct block among those costs one call,
    and every block one dict probe.  The memo is cleared when it holds
    MEMO_BLOCKS blocks, so its memory is bounded whatever the input."""
    out = bytearray()
    memo = {}
    for i in range(0, len(data), 16):
        block = data[i:i + 16]
        result = memo.get(block)
        if result is None:
            if len(memo) == MEMO_BLOCKS:
                memo.clear()
            result = memo[block] = fn(block, ks, plan)
        out += result
    return out


def _each_window(data: bytes, ks: KeySchedule, inverse: bool) -> bytearray:
    """fused_window over successive windows of WINDOW_BLOCKS blocks of
    data (the last may be shorter), stored into one buffer of the
    data's length."""
    out = bytearray(len(data))
    step = WINDOW_BLOCKS * BLOCK_SIZE
    full = window_keys(ks, WINDOW_BLOCKS, inverse) if len(data) >= step else None
    for i in range(0, len(data), step):
        x = data[i:i + step]
        keys = full if len(x) == step else window_keys(ks, len(x) // BLOCK_SIZE, inverse)
        out[i:i + step] = fused_window(x, keys, inverse)
    return out


def _all_blocks(data: bytes, ks: KeySchedule, plan: VariantPlan, inverse: bool) -> bytearray:
    """The block cipher (its inverse when inverse) of every block of
    data: the window path for an all-fused plan over at least
    WINDOW_MIN_BLOCKS blocks, the memo loop otherwise."""
    if len(data) >= WINDOW_MIN_BLOCKS * BLOCK_SIZE and all(plan.round_flags):
        return _each_window(data, ks, inverse)
    fn = decrypt_block_variant if inverse else encrypt_block_variant
    return _each_block(fn, data, ks, plan)


def ecb_encrypt(data: bytes, ks: KeySchedule, plan: VariantPlan) -> bytes:
    """Each block encrypted independently; equal plaintext blocks give
    equal ciphertext blocks."""
    _require_aligned(len(data))
    return bytes(_all_blocks(data, ks, plan, False))


def ecb_decrypt(data: bytes, ks: KeySchedule, plan: VariantPlan) -> bytes:
    _require_aligned(len(data))
    return bytes(_all_blocks(data, ks, plan, True))


def cbc_encrypt(data: bytes, ks: KeySchedule, iv: bytes, plan: VariantPlan) -> bytes:
    """C_i = E_k(M_i xor C_{i-1}) with C_0 = IV."""
    _require_aligned(len(data))
    _require_iv(iv)
    enc = encrypt_block_variant
    out = bytearray()
    prev = iv
    for i in range(0, len(data), 16):
        prev = enc(_xor_block(data[i:i + 16], prev), ks, plan)
        out += prev
    return bytes(out)


def cbc_decrypt(data: bytes, ks: KeySchedule, iv: bytes, plan: VariantPlan) -> bytes:
    """M_i = D_k(C_i) xor C_{i-1} with C_0 = IV, all blocks at once."""
    _require_aligned(len(data))
    _require_iv(iv)
    n = len(data)
    out = _all_blocks(data, ks, plan, True)
    # IV || C[:-16] as one int: IV above C, shifted down one block.
    chain = (int.from_bytes(iv, "big") << 8 * n | int.from_bytes(data, "big")) >> 128
    return (int.from_bytes(out, "big") ^ chain).to_bytes(n, "big")


def random_iv() -> bytes:
    """Fresh, unpredictable 16-byte IV from os.urandom.  Entropy failure
    raises; never a fixed IV.  A reproducible run passes its own IV."""
    return os.urandom(BLOCK_SIZE)


def _check_iv(mode: str, iv: bytes | None) -> None:
    """ECB carries no IV, CBC needs a 16-byte one; any other mode is
    unknown."""
    if mode == "ecb":
        if iv is not None:
            raise ValueError("ECB must not carry an IV")
    elif mode == "cbc":
        if iv is None:
            raise ValueError("CBC requires an IV")
        _require_iv(iv)
    else:
        raise ValueError(f"unknown mode {mode!r}")


def _encrypt(piece: bytes, ks: KeySchedule, plan: VariantPlan, iv: bytes | None) -> bytes:
    """ECB when iv is None, else CBC chained from iv."""
    if iv is None:
        return ecb_encrypt(piece, ks, plan)
    return cbc_encrypt(piece, ks, iv, plan)


def _decrypt(piece: bytes, ks: KeySchedule, plan: VariantPlan, iv: bytes | None) -> bytes:
    """ECB when iv is None, else CBC chained from iv."""
    if iv is None:
        return ecb_decrypt(piece, ks, plan)
    return cbc_decrypt(piece, ks, iv, plan)


def encrypt_pieces(
    data: bytes,
    ks: KeySchedule,
    mode: str,
    plan: VariantPlan,
    iv: bytes | None,
):
    """Yield the raw-file layout of data in order: CBC's IV, then the
    ciphertext of successive CHUNK-byte slices, the last one padded.
    IV misuse raises before the first yield."""
    _check_iv(mode, iv)
    if iv is not None:
        yield iv
    last = len(data) - len(data) % CHUNK  # where the padded piece starts
    for i in range(0, last + 1, CHUNK):
        piece = data[i:i + CHUNK] if i < last else pkcs7_pad(data[last:])
        piece = _encrypt(piece, ks, plan, iv)
        if iv is not None:
            iv = piece[-BLOCK_SIZE:]
        yield piece


def decrypt_pieces(blob: bytes, ks: KeySchedule, mode: str, plan: VariantPlan):
    """Yield the plaintext of a raw-file layout in order.  For CBC the IV
    is the blob's 16-byte prefix.

    Every error (a short or misaligned blob, an unknown mode, bad
    padding) raises before the first yield: the last block is decrypted
    and unpadded first and yielded after the blocks before it.  A body
    of at most CHUNK bytes is one piece."""
    iv, start = None, 0  # start: where the ciphertext begins; not sliced off
    if mode == "cbc":
        if len(blob) < BLOCK_SIZE:
            raise ValueError("CBC blob shorter than its IV prefix")
        iv, start = blob[:BLOCK_SIZE], BLOCK_SIZE
    _check_iv(mode, iv)
    if len(blob) - start <= CHUNK:
        yield pkcs7_unpad(_decrypt(blob[start:], ks, plan, iv))
        return
    _require_aligned(len(blob) - start)
    last = len(blob) - BLOCK_SIZE
    tail = pkcs7_unpad(_decrypt(
        blob[last:], ks, plan, None if iv is None else blob[last - BLOCK_SIZE:last]))
    for i in range(start, last, CHUNK):
        j = min(i + CHUNK, last)
        yield _decrypt(blob[i:j], ks, plan, iv)
        if iv is not None:
            iv = blob[j - BLOCK_SIZE:j]
    yield tail


def encrypt_blob(
    data: bytes,
    ks: KeySchedule,
    mode: str,
    plan: VariantPlan,
    iv: bytes | None = None,
) -> bytes:
    """Pad and encrypt a message into the raw-file layout, as
    encrypt_pieces does: CBC needs an IV (random_iv draws one), ECB
    takes none."""
    return b"".join(encrypt_pieces(data, ks, mode, plan, iv))


def decrypt_blob(blob: bytes, ks: KeySchedule, mode: str, plan: VariantPlan) -> bytes:
    """Invert encrypt_blob; for CBC the IV is the 16-byte prefix (an IV
    held apart from its ciphertext goes to cbc_decrypt)."""
    return b"".join(decrypt_pieces(blob, ks, mode, plan))


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
    return _encrypt(data[:cut], ks, plan, iv) + data[cut:]


def decrypt_with_residual(
    data: bytes,
    ks: KeySchedule,
    mode: str,
    plan: VariantPlan,
    iv: bytes | None = None,
) -> bytes:
    _check_iv(mode, iv)
    cut = len(data) - len(data) % BLOCK_SIZE
    return _decrypt(data[:cut], ks, plan, iv) + data[cut:]
