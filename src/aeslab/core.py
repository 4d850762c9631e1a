"""Baseline Rijndael cipher: key expansion, the four round transformations
written as plain nested loops, the round loops over them, and whole-block
encrypt/decrypt.

The state is a 4x4 byte matrix indexed [row][column].  A 16-byte block
loads column-major: byte i lands at row i % 4, column i // 4.
load_state and store_state are the package's one conversion between
block and matrix; the schedule's round-key matrices come from them too.
All transformations are pure functions returning a fresh state.

encrypt_rounds and decrypt_rounds are the baseline round loop, for any
span of rounds: the final round (the one adding the last round key)
skips MixColumns, and the inverse stage adding round key 0 skips
InvMixColumns.  encrypt_block and decrypt_block run them over every
round; the variants' block kernels run them for their baseline rounds.

key_expansion runs the word loop of FIPS-197 5.2 (RotWord, SubWord,
Rcon) on packed 32-bit words and returns a KeySchedule holding only the
encrypt key words.  The two other key forms are derived from those words
on first read: the round-key matrices that the baseline rounds add, and
the equivalent inverse cipher's key words (FIPS-197 5.3.5), whose
middle round keys go through InvMixColumns as the fused decrypt rounds
apply it: four lookups in gf256's T_DEC per column, by the S-box images
of the key bytes.  An all-fused (OptF) encrypt reads neither, and only
the variants' decrypt kernels read the second.

The schedule is read-only: assigning or deleting a field raises
AttributeError, and nothing in the package mutates a field's contents.
Threads may share one schedule.  Two threads reading a derived field
for the first time may both derive it; both get equal values, and its
slot is only ever written with a finished list or tuple, so
encrypt/decrypt are safe for concurrent use.
"""

import struct

from .gf256 import INV_S_BOX, S_BOX, T_DEC, ReadOnly, gf_mul, xtime

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
    """Expanded round keys, read-only: assigning or deleting a field
    raises AttributeError.

    enc_words[r] is round key r as four big-endian column words, a tuple
    of 4-tuples of ints, complete when key_expansion returns.
    round_keys and dec_words are derived from enc_words on first read
    (__getattr__, which Python calls only while a slot is empty) and
    kept in their slots, so later reads are plain slot reads returning
    the same object:
    round_keys holds (n_r + 1) 4x4 matrices (lists) for the baseline
    rounds, and dec_words[r] is the equivalent inverse cipher's key
    (FIPS-197 5.3.5), round keys 0 and n_r as they are and round keys
    1..n_r-1 through InvMixColumns, so a fused decrypt round can add its
    key after InvMixColumns.  Two threads reading a derived field first
    may both derive it; they get equal values, and the slot is written
    only with the finished value.
    """

    __slots__ = ("n_r", "enc_words", "round_keys", "dec_words")

    def __init__(self, n_r: int, enc_words: tuple):
        set_field = object.__setattr__
        set_field(self, "n_r", n_r)
        set_field(self, "enc_words", enc_words)

    def __getattr__(self, name: str):
        if name == "round_keys":
            value = self._derive_round_keys()
        elif name == "dec_words":
            value = self._derive_dec_words()
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        object.__setattr__(self, name, value)
        return value

    def _key_bytes(self, first: int, stop: int) -> bytes:
        """Round keys first..stop-1 as packed big-endian column words."""
        words = [w for rk in self.enc_words[first:stop] for w in rk]
        return struct.pack(f">{len(words)}I", *words)

    def _derive_round_keys(self) -> list:
        kb = self._key_bytes(0, self.n_r + 1)
        return [load_state(kb[o:o + 16]) for o in range(0, len(kb), 16)]

    def _derive_dec_words(self) -> tuple:
        # FIPS-197 5.3.5: round keys 1..n_r-1 through InvMixColumns, with
        # the fused decrypt rounds' tables.  T_DEC[j][x] is column j of
        # InvMixColumns times INV_S_BOX[x], so T_DEC[j][S_BOX[b]] is that
        # column times b, and each key column is the XOR of four lookups.
        n_r = self.n_r
        d0, d1, d2, d3 = T_DEC
        it = iter(self._key_bytes(1, n_r).translate(S_BOX))
        return (
            self.enc_words[0],
            *[(d0[b0] ^ d1[b1] ^ d2[b2] ^ d3[b3], d0[b4] ^ d1[b5] ^ d2[b6] ^ d3[b7],
               d0[b8] ^ d1[b9] ^ d2[b10] ^ d3[b11], d0[b12] ^ d1[b13] ^ d2[b14] ^ d3[b15])
              for b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15
              in zip(*[it] * 16)],
            self.enc_words[n_r],
        )


def load_state(block: bytes) -> State:
    """16-byte block -> 4x4 state, column-major: row r holds bytes
    r, r + 4, r + 8 and r + 12."""
    if len(block) != BLOCK_SIZE:
        raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
    b = list(block)
    return [b[0::4], b[1::4], b[2::4], b[3::4]]


def store_state(state: State) -> bytes:
    """4x4 state -> 16-byte block, inverse of load_state."""
    r0, r1, r2, r3 = state
    return bytes((r0[0], r1[0], r2[0], r3[0], r0[1], r1[1], r2[1], r3[1],
                  r0[2], r1[2], r2[2], r3[2], r0[3], r1[3], r2[3], r3[3]))


def key_expansion(key: bytes, n_r: int | None = None) -> KeySchedule:
    """Standard Rijndael key expansion into 4*(n_r + 1) words.

    n_r defaults to the standard round count for the key size (10/12/14)
    but may be any count >= 1 for round-reduced or round-extended
    experiments; the expansion simply runs long enough.  The schedule
    derives its round-key matrices and decrypt key words on first read.
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

    # Tuples are built from lists, not generators.  CPython grows a tuple
    # from a generator by resizing it, which skips the per-size tuple
    # free list when allocating but refills it on release, so each
    # schedule would park its tuples there (about 1 MB at steady state).
    return KeySchedule(n_r, tuple([tuple(w[o:o + 4]) for o in range(0, n_words, 4)]))


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


def encrypt_rounds(state: State, rk: list, first: int, stop: int) -> State:
    """Rounds first..stop-1 on the round-key matrices rk.  The round
    that adds the last key of rk is the final round: no MixColumns."""
    last = len(rk) - 1
    for r in range(first, stop):
        state = sub_bytes(state)
        state = shift_rows(state)
        if r != last:
            state = mix_columns(state)
        state = add_round_key(state, rk[r])
    return state


def decrypt_rounds(state: State, rk: list, first: int, stop: int) -> State:
    """The inverse stages that add round keys stop-1 down to first.  The
    stage that adds round key 0 is the last one: no InvMixColumns."""
    for r in range(stop - 1, first - 1, -1):
        state = inv_shift_rows(state)
        state = inv_sub_bytes(state)
        state = add_round_key(state, rk[r])
        if r:
            state = inv_mix_columns(state)
    return state


def encrypt_block(block: bytes, ks: KeySchedule) -> bytes:
    """Initial AddRoundKey, n_r - 1 full rounds, final round without MixColumns."""
    rk = ks.round_keys
    s = add_round_key(load_state(block), rk[0])
    return store_state(encrypt_rounds(s, rk, 1, ks.n_r + 1))


def decrypt_block(block: bytes, ks: KeySchedule) -> bytes:
    """Exact inverse of encrypt_block under the same schedule."""
    rk = ks.round_keys
    s = add_round_key(load_state(block), rk[ks.n_r])
    return store_state(decrypt_rounds(s, rk, 0, ks.n_r))
