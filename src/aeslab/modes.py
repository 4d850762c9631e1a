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
input's length, so while it runs it holds that buffer, the round keys
repeated over one window (4 KiB per round key) and a few window-sized
temporaries, and at the end that buffer and its bytes copy.  A direct
call builds those keys once, for its own windows.  Its tracemalloc
peaks over a 64 KiB input are 2.29x to encrypt and 2.33x to decrypt in
ECB for AES-128, 2.43x and 2.46x for AES-192 and 2.56x and 2.60x for
AES-256.

The raw-file layout runs those loops on pieces of at most CHUNK bytes,
starting at multiples of CHUNK from the start of the ciphertext.
encrypt_pieces/decrypt_pieces yield it piece by piece on that one grid,
a CBC piece chaining from the ciphertext block before it.  Decryption
decrypts and unpads the last piece, which holds the padding, first and
yields it last, so a caller that writes each piece as it comes holds
its input plus a piece (two to decrypt).  One raw-file operation builds
the window keys of each window length once and holds them for its
duration: 44 KiB for AES-128, plus the keys of a short tail window.
`aeslab encrypt/decrypt` of a 1 MiB file peaks at 1.10-1.20x the file
under tracemalloc (identity block kernels, AES-128).  encrypt_blob and
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
# against the block loop, the window form is about as fast at 6 blocks,
# 1.09-1.36x at 7 and at least 1.25x from 8 in both directions, where it
# starts.  A 256-block window costs 7-18% more per block than a
# 1024-block one, for well under half the transient memory (2.29-2.33x
# against 6.07-6.20x a 64 KiB input).
WINDOW_MIN_BLOCKS = 8
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


# The window keys pass from the raw layout down to _each_window as keys,
# a dict or None: by position, since a tracer's wrapper may forward
# positional arguments only, and unannotated, since each `dict | None`
# annotation builds a union object at import, and seven of them moved a
# garbage collection into perfbench's timed set-up.


def _each_window(data: bytes, ks: KeySchedule, inverse: bool, keys) -> bytearray:
    """fused_window over successive windows of WINDOW_BLOCKS blocks of
    data (the last may be shorter), stored into one buffer of the
    data's length.

    keys maps a window's block count to its window_keys in this
    direction, and gains each length the first time a window of it
    comes.  A raw-file operation passes one dict to every piece, so it
    builds each length's keys once and holds them until it ends: 44 KiB
    for AES-128's 256-block windows, plus the keys of a short tail
    window.  None builds them for this call alone."""
    if keys is None:
        keys = {}
    out = bytearray(len(data))
    step = WINDOW_BLOCKS * BLOCK_SIZE
    for i in range(0, len(data), step):
        x = data[i:i + step]
        blocks = len(x) // BLOCK_SIZE
        k = keys.get(blocks)
        if k is None:
            k = keys[blocks] = window_keys(ks, blocks, inverse)
        out[i:i + step] = fused_window(x, k, inverse)
    return out


def _all_blocks(data: bytes, ks: KeySchedule, plan: VariantPlan, inverse: bool, keys) -> bytearray:
    """The block cipher (its inverse when inverse) of every block of
    data: the window path, on keys, for an all-fused plan over at least
    WINDOW_MIN_BLOCKS blocks, the memo loop otherwise."""
    if len(data) >= WINDOW_MIN_BLOCKS * BLOCK_SIZE and all(plan.round_flags):
        return _each_window(data, ks, inverse, keys)
    fn = decrypt_block_variant if inverse else encrypt_block_variant
    return _each_block(fn, data, ks, plan)


def ecb_encrypt(data: bytes, ks: KeySchedule, plan: VariantPlan, keys=None) -> bytes:
    """Each block encrypted independently; equal plaintext blocks give
    equal ciphertext blocks.  keys: _each_window's, to share window
    keys across calls."""
    _require_aligned(len(data))
    return bytes(_all_blocks(data, ks, plan, False, keys))


def ecb_decrypt(data: bytes, ks: KeySchedule, plan: VariantPlan, keys=None) -> bytes:
    _require_aligned(len(data))
    return bytes(_all_blocks(data, ks, plan, True, keys))


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


def cbc_decrypt(data: bytes, ks: KeySchedule, iv: bytes, plan: VariantPlan, keys=None) -> bytes:
    """M_i = D_k(C_i) xor C_{i-1} with C_0 = IV, all blocks at once.
    keys: as for ecb_encrypt."""
    _require_aligned(len(data))
    _require_iv(iv)
    n = len(data)
    out = _all_blocks(data, ks, plan, True, keys)
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


def _encrypt(piece: bytes, ks: KeySchedule, plan: VariantPlan, iv: bytes | None, keys=None) -> bytes:
    """ECB when iv is None, else CBC chained from iv (which computes no
    window, so takes no keys)."""
    if iv is None:
        return ecb_encrypt(piece, ks, plan, keys)
    return cbc_encrypt(piece, ks, iv, plan)


def _decrypt(piece: bytes, ks: KeySchedule, plan: VariantPlan, iv: bytes | None, keys=None) -> bytes:
    """ECB when iv is None, else CBC chained from iv."""
    if iv is None:
        return ecb_decrypt(piece, ks, plan, keys)
    return cbc_decrypt(piece, ks, iv, plan, keys)


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
    keys = {}  # one window-key set per window length, for every piece
    last = len(data) - len(data) % CHUNK  # where the padded piece starts
    for i in range(0, last + 1, CHUNK):
        piece = data[i:i + CHUNK] if i < last else pkcs7_pad(data[last:])
        piece = _encrypt(piece, ks, plan, iv, keys)
        if iv is not None:
            iv = piece[-BLOCK_SIZE:]
        yield piece


def decrypt_pieces(blob: bytes, ks: KeySchedule, mode: str, plan: VariantPlan):
    """Yield the plaintext of a raw-file layout in order, one piece per
    ciphertext piece encrypt_pieces wrote: pieces start at multiples of
    CHUNK from the start of the ciphertext.  For CBC the IV is the
    blob's 16-byte prefix, and each piece chains from the 16 bytes
    before it, so the first chains from the IV.

    Every error (a short or misaligned blob, an unknown mode, bad
    padding) raises before the first yield: the last piece, which holds
    the padding, is decrypted and unpadded first and yielded last."""
    iv, start = None, 0  # start: where the ciphertext begins; not sliced off
    if mode == "cbc":
        if len(blob) < BLOCK_SIZE:
            raise ValueError("CBC blob shorter than its IV prefix")
        iv, start = blob[:BLOCK_SIZE], BLOCK_SIZE
    _check_iv(mode, iv)
    _require_aligned(len(blob) - start)
    keys = {}  # one window-key set per window length, for every piece
    last = start + max(len(blob) - start - 1, 0) // CHUNK * CHUNK  # where the padded piece starts
    # iv and ...: None for ECB, the block before the piece for CBC.
    tail = pkcs7_unpad(_decrypt(blob[last:], ks, plan, iv and blob[last - BLOCK_SIZE:last], keys))
    for i in range(start, last, CHUNK):
        yield _decrypt(blob[i:i + CHUNK], ks, plan, iv and blob[i - BLOCK_SIZE:i], keys)
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
