"""Baseline Rijndael cipher: key expansion, the four round transformations
written as plain nested loops, and whole-block encrypt/decrypt.

The state is a 4x4 byte matrix indexed [row][column].  A 16-byte block
loads column-major: byte i lands at row i % 4, column i // 4.  All
transformations are pure functions returning a fresh state.

key_expansion runs on packed 32-bit words: the word loop of FIPS-197
5.2 (RotWord, SubWord, Rcon) gives the encrypt key words, the
round-key matrices are sliced from their bytes, and the equivalent
inverse cipher's key words (FIPS-197 5.3.5) come from one InvMixColumns
pass over all middle round keys held as a single int, with no table.
It builds the whole KeySchedule before it returns.  The schedule is
read-only (assigning a field raises) and nothing in the package mutates
its contents afterwards, so threads sharing one schedule only ever read
it: encrypt/decrypt are safe for concurrent use.
"""

import struct

from .gf256 import SBOX_PAIR, ReadOnly, gf_mul, xtime

S_BOX = SBOX_PAIR.forward
INV_S_BOX = SBOX_PAIR.inverse

MIX_MATRIX = ((0x02, 0x03, 0x01, 0x01),
              (0x01, 0x02, 0x03, 0x01),
              (0x01, 0x01, 0x02, 0x03),
              (0x03, 0x01, 0x01, 0x02))

INV_MIX_MATRIX = ((0x0E, 0x0B, 0x0D, 0x09),
                  (0x09, 0x0E, 0x0B, 0x0D),
                  (0x0D, 0x09, 0x0E, 0x0B),
                  (0x0B, 0x0D, 0x09, 0x0E))

BLOCK_SIZE = 16

ROUNDS_BY_KEY_BYTES = {16: 10, 24: 12, 32: 14}
KEY_BITS = tuple(8 * n for n in ROUNDS_BY_KEY_BYTES)

State = list  # 4 rows of 4 ints


class KeySchedule(ReadOnly):
    """Expanded round keys, complete when key_expansion returns, and
    read-only: assigning a field raises dataclasses.FrozenInstanceError
    (an AttributeError).

    round_keys holds (n_r + 1) 4x4 matrices for the baseline rounds.
    enc_words[r] is round key r as four big-endian column words, and
    dec_words[r] is the equivalent inverse cipher's key (FIPS-197
    5.3.5): round keys 0 and n_r as they are, round keys 1..n_r-1
    through InvMixColumns, so a fused decrypt round can add its key
    after InvMixColumns.  Both are tuples of 4-tuples of ints.
    """

    __slots__ = ("round_keys", "key_size_bits", "n_r", "enc_words", "dec_words")

    def __init__(self, round_keys: list, key_size_bits: int, n_r: int,
                 enc_words: tuple, dec_words: tuple):
        set_field = object.__setattr__
        set_field(self, "round_keys", round_keys)
        set_field(self, "key_size_bits", key_size_bits)
        set_field(self, "n_r", n_r)
        set_field(self, "enc_words", enc_words)
        set_field(self, "dec_words", dec_words)

    def __setattr__(self, name, value):
        # Imported only here: dataclasses pulls in inspect, ast and dis,
        # which take longer to import than the whole package.
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")


def load_state(block: bytes) -> State:
    """16-byte block -> 4x4 state, column-major."""
    if len(block) != BLOCK_SIZE:
        raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
    return [[block[r + 4 * c] for c in range(4)] for r in range(4)]


def store_state(state: State) -> bytes:
    """4x4 state -> 16-byte block, inverse of load_state."""
    return bytes(state[i % 4][i // 4] for i in range(16))


def key_expansion(key: bytes, n_r: int | None = None) -> KeySchedule:
    """Standard Rijndael key expansion into 4*(n_r + 1) words.

    n_r defaults to the standard round count for the key size (10/12/14)
    but may be any count >= 1 for round-reduced or round-extended
    experiments; the expansion simply runs long enough.
    """
    if len(key) not in ROUNDS_BY_KEY_BYTES:
        raise ValueError(
            f"key must be 16, 24, or 32 bytes, got {len(key)}"
        )
    if n_r is None:
        n_r = ROUNDS_BY_KEY_BYTES[len(key)]
    if n_r < 1:
        raise ValueError(f"round count must be >= 1, got {n_r}")

    # FIPS-197 5.2 on big-endian words: RotWord, SubWord and Rcon.
    nk = len(key) // 4
    n_words = 4 * (n_r + 1)
    sbox = S_BOX
    w = list(struct.unpack(f">{nk}I", key))
    rc = 1
    for i in range(nk, n_words):
        t = w[i - 1]
        if i % nk == 0:
            t = ((sbox[t >> 16 & 0xFF] ^ rc) << 24 | sbox[t >> 8 & 0xFF] << 16
                 | sbox[t & 0xFF] << 8 | sbox[t >> 24])
            rc = xtime(rc)
        elif nk > 6 and i % nk == 4:
            t = (sbox[t >> 24] << 24 | sbox[t >> 16 & 0xFF] << 16
                 | sbox[t >> 8 & 0xFF] << 8 | sbox[t & 0xFF])
        w.append(w[i - nk] ^ t)

    # Row i of round key r holds byte i of its four column words.
    kb = struct.pack(f">{n_words}I", *w)
    kl = list(kb)
    round_keys = [[kl[o:o + 16:4], kl[o + 1:o + 16:4], kl[o + 2:o + 16:4],
                   kl[o + 3:o + 16:4]] for o in range(0, 4 * n_words, 16)]
    # Tuples are built from lists, not generators.  CPython grows a tuple
    # from a generator by resizing it, which skips the per-size tuple
    # free list when allocating but refills it on release, so each
    # schedule would park its tuples there (about 1 MB at steady state).
    enc_words = tuple([tuple(w[o:o + 4]) for o in range(0, n_words, 4)])

    # FIPS-197 5.3.5: InvMixColumns of round keys 1..n_r-1, every column
    # at once on one int whose 32-bit lanes are the column words.  x2, x4
    # and x8 apply xtime to every byte; n9, nb, nd and ne are the byte
    # products with 09, 0b, 0d and 0e.  Row j of INV_MIX_MATRIX is row 0
    # rotated right j places, so each column becomes
    # ne ^ rotl8(nb) ^ rotl16(nd) ^ rotl24(n9), rotating within its lane.
    n = 4 * n_r - 4
    v = int.from_bytes(kb[16:16 * n_r], "big")
    lanes = int.from_bytes(b"\0\0\0\1" * n, "big")
    ones = lanes * 0x01010101
    low7 = ones * 0x7F
    x2 = (v & low7) << 1 ^ (v >> 7 & ones) * 0x1B
    x4 = (x2 & low7) << 1 ^ (x2 >> 7 & ones) * 0x1B
    x8 = (x4 & low7) << 1 ^ (x4 >> 7 & ones) * 0x1B
    n9 = x8 ^ v
    nb = n9 ^ x2
    nd = n9 ^ x4
    ne = x8 ^ x4 ^ x2
    inv = struct.unpack(f">{n}I", (
        ne
        ^ (nb << 8 & lanes * 0xFFFFFF00 | nb >> 24 & lanes * 0xFF)
        ^ (nd << 16 & lanes * 0xFFFF0000 | nd >> 16 & lanes * 0xFFFF)
        ^ (n9 << 24 & lanes * 0xFF000000 | n9 >> 8 & lanes * 0xFFFFFF)
    ).to_bytes(4 * n, "big"))
    dec_words = (
        enc_words[0],
        *[inv[o:o + 4] for o in range(0, n, 4)],
        enc_words[n_r],
    )
    return KeySchedule(round_keys, len(key) * 8, n_r, enc_words, dec_words)


def add_round_key(state: State, round_key: list) -> State:
    out = [row[:] for row in state]
    for i in range(4):
        for j in range(4):
            out[i][j] ^= round_key[i][j]
    return out


def sub_bytes(state: State) -> State:
    out = [row[:] for row in state]
    for i in range(4):
        for j in range(4):
            out[i][j] = S_BOX[out[i][j]]
    return out


def inv_sub_bytes(state: State) -> State:
    out = [row[:] for row in state]
    for i in range(4):
        for j in range(4):
            out[i][j] = INV_S_BOX[out[i][j]]
    return out


def shift_rows(state: State) -> State:
    """Cyclically rotate row r left by r positions (row 0 unchanged)."""
    out = [row[:] for row in state]
    for i in range(1, 4):
        for j in range(4):
            out[i][j] = state[i][(j + i) % 4]
    return out


def inv_shift_rows(state: State) -> State:
    out = [row[:] for row in state]
    for i in range(1, 4):
        for j in range(4):
            out[i][j] = state[i][(j - i) % 4]
    return out


def mix_columns(state: State) -> State:
    """Multiply each column by the fixed circulant matrix over GF(2^8)."""
    out = [[0] * 4 for _ in range(4)]
    for j in range(4):
        for i in range(4):
            acc = 0
            for k in range(4):
                acc ^= gf_mul(state[k][j], MIX_MATRIX[i][k])
            out[i][j] = acc
    return out


def inv_mix_columns(state: State) -> State:
    out = [[0] * 4 for _ in range(4)]
    for j in range(4):
        for i in range(4):
            acc = 0
            for k in range(4):
                acc ^= gf_mul(state[k][j], INV_MIX_MATRIX[i][k])
            out[i][j] = acc
    return out


def encrypt_block(block: bytes, ks: KeySchedule) -> bytes:
    """Initial AddRoundKey, n_r - 1 full rounds, final round without MixColumns."""
    s = load_state(block)
    rk = ks.round_keys
    s = add_round_key(s, rk[0])
    for r in range(1, ks.n_r):
        s = sub_bytes(s)
        s = shift_rows(s)
        s = mix_columns(s)
        s = add_round_key(s, rk[r])
    s = sub_bytes(s)
    s = shift_rows(s)
    s = add_round_key(s, rk[ks.n_r])
    return store_state(s)


def decrypt_block(block: bytes, ks: KeySchedule) -> bytes:
    """Exact inverse of encrypt_block under the same schedule."""
    s = load_state(block)
    rk = ks.round_keys
    s = add_round_key(s, rk[ks.n_r])
    for r in range(ks.n_r - 1, 0, -1):
        s = inv_shift_rows(s)
        s = inv_sub_bytes(s)
        s = add_round_key(s, rk[r])
        s = inv_mix_columns(s)
    s = inv_shift_rows(s)
    s = inv_sub_bytes(s)
    s = add_round_key(s, rk[0])
    return store_state(s)
