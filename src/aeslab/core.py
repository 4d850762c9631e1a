"""Baseline Rijndael cipher: key expansion, the four round transformations
written as plain nested loops, and whole-block encrypt/decrypt.

The state is a 4x4 byte matrix indexed [row][column].  A 16-byte block
loads column-major: byte i lands at row i % 4, column i // 4.  All
transformations are pure functions returning a fresh state.

key_expansion builds the whole KeySchedule, round-key matrices and the
packed words the fused rounds use, before it returns.  The schedule is
a frozen dataclass and nothing in the package writes to it afterwards,
so threads sharing one schedule only ever read it: encrypt/decrypt are
safe for concurrent use.
"""

from dataclasses import dataclass

from .gf256 import MUL_TABLE, SBOX_PAIR, gf_mul, xtime

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

State = list  # 4 rows of 4 ints


@dataclass(frozen=True)
class KeySchedule:
    """Expanded round keys, complete when key_expansion returns.

    round_keys holds (n_r + 1) 4x4 matrices for the baseline rounds.
    enc_words[r] is round key r as four big-endian column words, and
    dec_words[r] is the equivalent inverse cipher's key (FIPS-197
    5.3.5): round keys 0 and n_r as they are, round keys 1..n_r-1
    through InvMixColumns, so a fused decrypt round can add its key
    after InvMixColumns.  Both are tuples of 4-tuples of ints.
    """

    round_keys: list
    key_size_bits: int
    n_r: int
    enc_words: tuple
    dec_words: tuple


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

    nk = len(key) // 4
    words = [list(key[4 * i:4 * (i + 1)]) for i in range(nk)]
    rc = 1
    for i in range(nk, 4 * (n_r + 1)):
        temp = words[i - 1]
        if i % nk == 0:
            temp = temp[1:] + temp[:1]
            temp = [S_BOX[b] for b in temp]
            temp[0] ^= rc
            rc = xtime(rc)
        elif nk > 6 and i % nk == 4:
            temp = [S_BOX[b] for b in temp]
        words.append([words[i - nk][j] ^ temp[j] for j in range(4)])

    round_keys = []
    for r in range(n_r + 1):
        cols = words[4 * r:4 * r + 4]
        round_keys.append([[cols[j][i] for j in range(4)] for i in range(4)])
    # Tuples are built from lists, not generators.  CPython grows a tuple
    # from a generator by resizing it, which skips the per-size tuple
    # free list when allocating but refills it on release, so each
    # schedule would park its tuples there (about 1 MB at steady state).
    packed = [(a << 24) | (b << 16) | (c << 8) | d for a, b, c, d in words]
    enc_words = tuple([tuple(packed[4 * r:4 * r + 4]) for r in range(n_r + 1)])
    # InvMixColumns of each column of round keys 1..n_r-1.
    m9, mb, md, me = (MUL_TABLE[c] for c in (0x09, 0x0B, 0x0D, 0x0E))
    inv = [
        ((me[a] ^ mb[b] ^ md[c] ^ m9[d]) << 24)
        | ((m9[a] ^ me[b] ^ mb[c] ^ md[d]) << 16)
        | ((md[a] ^ m9[b] ^ me[c] ^ mb[d]) << 8)
        | (mb[a] ^ md[b] ^ m9[c] ^ me[d])
        for a, b, c, d in words[4:4 * n_r]
    ]
    dec_words = (
        enc_words[0],
        *(tuple(inv[4 * r:4 * r + 4]) for r in range(n_r - 1)),
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
