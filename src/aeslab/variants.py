"""The optimization ladder over the baseline cipher.

Three tiers, all bit-compatible with the baseline:

* loop-unrolled transformations (the per-function optimizations);
* table-driven MixColumns (table_mix_columns) via the 6x256 product
  table, with no shift-and-xor multiplication.  Only the transform
  microbenchmarks run it: every Base round, Opt1's and Opt2's
  included, multiplies with core's gf_mul;
* fused T-table rounds: one set of four 256x4-byte tables per direction
  combines SubBytes, ShiftRows, and MixColumns into four lookups plus
  XORs per output column (8 KiB total for both directions).

The T-tables are the plain tuples T_ENC and T_DEC, which gf256 builds
with the other tables and this module imports.  The VARIANTS table
is the one registry of the ladder: each row is a variant's round
pattern, a tuple of flags that repeats over the rounds.  make_plan
expands it into a VariantPlan, which selects per round between the
baseline path and the T-table path, yielding the Base / Opt1 / Opt2 /
OptF scenarios.

The block kernels pass the state between stages as the packed 16-byte
block x, byte 4c + i holding row i of column c, and XOR the schedule's
packed key words.  Each plan groups its middle rounds into runs of one
path (VariantPlan.runs).  In a fused run, every round takes the 16
bytes of x as names, indexes the T-tables by them and packs the four
XORed column words back into x with struct.  The optimized final round
has no table to index: ShiftRows of x is the strided slice
(x * 5)[::5], since byte 4c + r of the result is byte 5(4c + r) mod 16
of x and 5 is prime to 16, and SubBytes is one translate through the
S-box; decryption takes stride 13 (InvShiftRows, 13 = -3 mod 16) and
the inverse S-box.  A baseline run, and a baseline final round, is
core's own round loop (encrypt_rounds / decrypt_rounds) on the 4x4
matrix that core.load_state makes of x, stored back into x by
core.store_state, the one conversion between block and matrix.  Only
these baseline stages call core.round_keys, so an all-fused (OptF)
plan never derives the schedule's round-key matrices.  The
per-transform functions below work on the matrix and serve the
transform microbenchmarks.

OptF also has a window form, fused_window, which the modes run on
every block of a window at once.  It is the same fused round with the
same tables and key words, taken byte lane by byte lane on the window
transposed into row-major byte planes, plane 4i + c holding row i of
column c of every block: byte i of an output column word is the XOR
over k of lane (i - k) mod 4 of T-table 0 at byte k of the shifted
column, so lane l of row k belongs in row k + l.  The lanes are the
(Inv)MixColumns coefficients times the (inverse) S-box output, so the
window reads no T-table.  A round is (Inv)ShiftRows as one join of
contiguous plane slices, one translate through the (inverse) S-box,
MixColumns as the {02} multiple by xtime on every byte of the window
at once (xtime_window) and whole-row rotations of the window as one
int, and the round key, repeated once per block in plane order.
Decryption runs the equivalent inverse cipher on dec_words, as
decrypt_block_variant's fused stages do, and its InvMixColumns is the
same MixColumns after one step: rows k and k + 2 both gain {04} times
their XOR, by two more xtime_window over half the window.
"""

import struct
from itertools import groupby

from .core import (
    BLOCK_SIZE,
    KeySchedule,
    State,
    dec_words,
    decrypt_rounds,
    encrypt_rounds,
    load_state,
    round_keys,
    store_state,
)
from .gf256 import INV_S_BOX, MUL_TABLE, S_BOX, T_DEC, T_ENC, ReadOnly
# perfbench's table timing is now this re-export's only reader (ROADMAP
# item 7 drops it).
from .gf256 import build_t_tables  # noqa: F401


class VariantPlan(ReadOnly):
    """Per-round strategy: round_flags[r-1] is True when round r (1-based)
    takes the optimized path.

    runs groups rounds 1..n_r-1 into maximal runs that take the same
    path, as (fused, first, stop) for rounds first..stop-1 in order; the
    final round, which has no MixColumns, is not part of any run.
    """

    __slots__ = ("round_flags", "runs")

    def __init__(self, round_flags: tuple):
        runs, first = [], 1
        for fused, group in groupby(round_flags[:-1]):
            stop = first + len(tuple(group))
            runs.append((fused, first, stop))
            first = stop
        object.__setattr__(self, "round_flags", round_flags)
        object.__setattr__(self, "runs", tuple(runs))

    @property
    def n_r(self) -> int:
        return len(self.round_flags)


# Each row is a round pattern: round i + 1 takes the T-table path when
# pattern[i % len(pattern)] is True.
#
# Base: no optimized rounds.  Opt1: every other round, starting with
# round 1.  Opt2: period-4 pattern of two optimized then two baseline
# rounds.  OptF: all rounds optimized.
VARIANTS = {
    "base": (False,),
    "opt1": (True, False),
    "opt2": (True, True, False, False),
    "optf": (True,),
}

VARIANT_IDS = tuple(VARIANTS)


def make_plan(variant_id: str, n_r: int) -> VariantPlan:
    """The per-round plan of a variant (one of VARIANT_IDS)."""
    if n_r < 1:
        raise ValueError(f"round count must be >= 1, got {n_r}")
    try:
        pattern = VARIANTS[variant_id]
    except KeyError:
        raise ValueError(f"unknown variant {variant_id!r}") from None
    return VariantPlan(tuple(pattern[i % len(pattern)] for i in range(n_r)))


# ---------------------------------------------------------------------------
# Loop-unrolled transformations (bit-identical to the baseline loops)

def unrolled_add_round_key(state: State, round_key: list) -> State:
    out = []
    for row, krow in zip(state, round_key):
        out.append([row[0] ^ krow[0], row[1] ^ krow[1],
                    row[2] ^ krow[2], row[3] ^ krow[3]])
    return out


def unrolled_sub_bytes(state: State) -> State:
    box = S_BOX
    out = []
    for row in state:
        out.append([box[row[0]], box[row[1]], box[row[2]], box[row[3]]])
    return out


def unrolled_shift_rows(state: State) -> State:
    r0, r1, r2, r3 = state
    return [
        r0[:],
        [r1[1], r1[2], r1[3], r1[0]],
        [r2[2], r2[3], r2[0], r2[1]],
        [r3[3], r3[0], r3[1], r3[2]],
    ]


def table_mix_columns(state: State) -> State:
    """MixColumns with all field products taken from the 6x256 table."""
    m2, m3 = MUL_TABLE[:2]
    out = [[0] * 4 for _ in range(4)]
    for j in range(4):
        a0 = state[0][j]
        a1 = state[1][j]
        a2 = state[2][j]
        a3 = state[3][j]
        out[0][j] = m2[a0] ^ m3[a1] ^ a2 ^ a3
        out[1][j] = a0 ^ m2[a1] ^ m3[a2] ^ a3
        out[2][j] = a0 ^ a1 ^ m2[a2] ^ m3[a3]
        out[3][j] = m3[a0] ^ a1 ^ a2 ^ m2[a3]
    return out


# ---------------------------------------------------------------------------
# Block kernels over the packed state

_BLOCK_WORDS = struct.Struct(">4I")


def encrypt_block_variant(block: bytes, ks: KeySchedule, plan: VariantPlan) -> bytes:
    """Encrypt one block, choosing per round between the baseline path and
    the T-table path.  Ciphertext is bit-identical for every plan.

    The packed state x passes between stages as 16 bytes, byte 4c + i
    holding row i of column c.  The rounds run as plan.runs.  A fused
    round takes the 16 bytes of x as names, does SubBytes + ShiftRows +
    MixColumns + AddRoundKey as 16 T-table lookups by them plus XORs,
    and packs the four column words back into x.  A baseline run is
    core's round loop, core.encrypt_rounds, on the state loaded from x.
    The final round has no MixColumns, so its optimized path is
    ShiftRows as the strided slice (x * 5)[::5], then SubBytes as
    x.translate(S_BOX), then the key words; its baseline path is
    core.encrypt_rounds for that one round.
    """
    if len(block) != BLOCK_SIZE:
        raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
    flags = plan.round_flags
    w = ks.enc_words
    n_r = ks.n_r
    if len(flags) != n_r:
        raise ValueError(f"plan covers {len(flags)} rounds but schedule has {n_r}")
    pack = _BLOCK_WORDS.pack
    t0, t1, t2, t3 = T_ENC
    s0, s1, s2, s3 = _BLOCK_WORDS.unpack(block)
    k0, k1, k2, k3 = w[0]
    x = pack(s0 ^ k0, s1 ^ k1, s2 ^ k2, s3 ^ k3)
    for fused, first, stop in plan.runs:
        if fused:
            for k0, k1, k2, k3 in w[first:stop]:
                b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15 = x
                x = pack(t0[b0] ^ t1[b5] ^ t2[b10] ^ t3[b15] ^ k0,
                         t0[b4] ^ t1[b9] ^ t2[b14] ^ t3[b3] ^ k1,
                         t0[b8] ^ t1[b13] ^ t2[b2] ^ t3[b7] ^ k2,
                         t0[b12] ^ t1[b1] ^ t2[b6] ^ t3[b11] ^ k3)
        else:
            x = store_state(encrypt_rounds(load_state(x), round_keys(ks), first, stop))
    if not flags[-1]:
        return store_state(encrypt_rounds(load_state(x), round_keys(ks), n_r, n_r + 1))
    k0, k1, k2, k3 = w[n_r]
    s0, s1, s2, s3 = _BLOCK_WORDS.unpack((x * 5)[::5].translate(S_BOX))
    return pack(s0 ^ k0, s1 ^ k1, s2 ^ k2, s3 ^ k3)


def decrypt_block_variant(block: bytes, ks: KeySchedule, plan: VariantPlan) -> bytes:
    """Inverse of encrypt_block_variant for the same schedule and any plan.

    Decryption consumes the round flags in reverse stage order: the flag
    for round r selects the path of the stage that adds round key r, and
    the flag for round n_r selects the path of the trailing
    InvShiftRows/InvSubBytes/AddRoundKey stage, which adds round key 0.
    So plan.runs runs last to first, and a fused run takes its key words
    last to first.  As in encryption, the packed state x passes between
    stages as 16 bytes.  A fused stage is InvShiftRows + InvSubBytes +
    AddRoundKey + InvMixColumns as 16 lookups by the bytes of x; it
    adds dec_words(ks)[r], the InvMixColumns image of round key r, after
    the lookups, since InvMixColumns is linear.  A baseline run is
    core.decrypt_rounds on the state loaded from x.  The optimized
    trailing stage is InvShiftRows as the strided slice (x * 13)[::13],
    then x.translate(INV_S_BOX), then round key 0; its baseline path is
    core.decrypt_rounds for round key 0 alone.
    """
    if len(block) != BLOCK_SIZE:
        raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
    flags = plan.round_flags
    w = dec_words(ks)
    n_r = ks.n_r
    if len(flags) != n_r:
        raise ValueError(f"plan covers {len(flags)} rounds but schedule has {n_r}")
    pack = _BLOCK_WORDS.pack
    d0, d1, d2, d3 = T_DEC
    s0, s1, s2, s3 = _BLOCK_WORDS.unpack(block)
    k0, k1, k2, k3 = w[n_r]
    x = pack(s0 ^ k0, s1 ^ k1, s2 ^ k2, s3 ^ k3)
    for fused, first, stop in reversed(plan.runs):
        if fused:
            for k0, k1, k2, k3 in reversed(w[first:stop]):
                b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15 = x
                x = pack(d0[b0] ^ d1[b13] ^ d2[b10] ^ d3[b7] ^ k0,
                         d0[b4] ^ d1[b1] ^ d2[b14] ^ d3[b11] ^ k1,
                         d0[b8] ^ d1[b5] ^ d2[b2] ^ d3[b15] ^ k2,
                         d0[b12] ^ d1[b9] ^ d2[b6] ^ d3[b3] ^ k3)
        else:
            x = store_state(decrypt_rounds(load_state(x), round_keys(ks), first, stop))
    if not flags[-1]:
        return store_state(decrypt_rounds(load_state(x), round_keys(ks), 0, 1))
    k0, k1, k2, k3 = w[0]
    s0, s1, s2, s3 = _BLOCK_WORDS.unpack((x * 13)[::13].translate(INV_S_BOX))
    return pack(s0 ^ k0, s1 ^ k1, s2 ^ k2, s3 ^ k3)


# ---------------------------------------------------------------------------
# The fused rounds over a window of blocks at once

def window_keys(ks: KeySchedule, blocks: int, inverse: bool) -> tuple:
    """The round keys of an all-fused plan in the order fused_window adds
    them, as ints in its plane layout for a window of the given number
    of blocks: plane q = 4i + c is byte i of key word c repeated once
    per block.  enc_words first to last, or for decryption the
    equivalent inverse cipher's dec_words last to first."""
    words = dec_words(ks)[::-1] if inverse else ks.enc_words
    # Plane q of the index holds 4c + i, so a translate through a key's
    # 16 packed bytes (padded to a table) spreads them over the planes.
    index = b"".join([bytes((4 * c + i,)) * blocks for i in range(4) for c in range(4)])
    pad = bytes(240)
    return tuple(int.from_bytes(index.translate(_BLOCK_WORDS.pack(*k) + pad), "big")
                 for k in words)


def xtime_window(z: int, m80: int) -> int:
    """xtime on every byte of z at once, m80 holding 0x80 in each of
    them: each byte shifts left within itself, and a byte whose high
    bit fell out takes {1B}."""
    h = z & m80
    z = (z ^ h) << 1
    h >>= 7
    h *= 0x1B
    return z ^ h


def fused_window(x: bytes, keys: tuple, inverse: bool) -> bytearray:
    """Every block of x through an all-fused plan at once, bit-identical
    to encrypt_block_variant (decrypt_block_variant when inverse) on each
    block, as a bytearray; keys is window_keys for len(x) // 16 blocks.

    The window is transposed once into row-major byte planes: plane
    q = 4i + c holds row i of column c of every block, plane 0 most
    significant, so over m blocks each row is 32m bits of one int.  A
    middle round is the block kernels' fused round, byte lane by byte
    lane: (Inv)ShiftRows as one join of contiguous plane slices, one
    translate through the (inverse) S-box to u, the lanes' multiples of
    u by xtime_window, and the round key.  Lane l of row k belongs in
    row k + l, and R, the rotation that moves every row down one and
    the last row to the top, is z >> row ^ (z & low) << up.  MixColumns
    sums its lanes {02}u, u, u, {03}u by Horner's rule in R.
    InvMixColumns is MixColumns after the circulant {05, 00, 04, 00}
    (Daemen and Rijmen, AES Proposal: Rijndael, section 4.1.3), so
    decryption first adds {04}(u ^ R^2 u) to u, R^2 swapping rows k and
    k + 2, and then runs the same MixColumns; that multiple is equal in
    rows k and k + 2, so it is taken once, over the last two rows.  The
    final round is
    (Inv)ShiftRows, a translate through the (inverse) S-box and the last
    key, and the window is transposed back out."""
    n = len(x)
    m = n // BLOCK_SIZE
    row = 32 * m
    low = (1 << row) - 1
    up = 3 * row
    # (Inv)ShiftRows turns row i of the state left (right) by i planes:
    # output plane (i, c) is input plane (i, c + i) ((i, c - i)).
    cuts = []
    for i in range(4):
        start, turn = 4 * i * m, (-i if inverse else i) % 4 * m
        cuts += (slice(start + turn, start + 4 * m), slice(start, start + turn))
    v = int.from_bytes(b"".join([x[4 * c + i::16] for i in range(4) for c in range(4)]),
                       "big") ^ keys[0]
    # The round state is dropped once turned into bytes, the bytes once
    # translated, and each multiple after its last use: beside the round
    # keys, window-sized temporaries are what the window path adds to
    # its output's memory.
    box = INV_S_BOX if inverse else S_BOX
    m80 = int.from_bytes(b"\x80" * n, "big")
    if inverse:
        half = 2 * row
        low2 = (1 << half) - 1
    for key in keys[1:-1]:
        y = v.to_bytes(n, "big")
        del v
        u = int.from_bytes(b"".join([y[s] for s in cuts]).translate(box), "big")
        del y
        if inverse:
            # circulant({05}, {00}, {04}, {00}): rows k and k + 2 both
            # gain {04}(u_k ^ u_{k+2}), d in the last two rows.
            d = xtime_window(xtime_window(u >> half ^ u & low2, m80), m80)
            u ^= d ^ d << half
            del d
        # Lanes 1 and 2 are u itself and lane 3, {03}u, is lane 0
        # ({02}u) XOR u.
        a = xtime_window(u, m80)
        z = a ^ u
        for _ in 1, 2:
            z = (z >> row ^ (z & low) << up) ^ u
        v = a ^ (z >> row ^ (z & low) << up) ^ key
        del a, z, u
    y = v.to_bytes(n, "big")
    del v
    y = (int.from_bytes(b"".join([y[s] for s in cuts]).translate(box), "big")
         ^ keys[-1]).to_bytes(n, "big")
    out = bytearray(n)
    for i in range(4):
        for c in range(4):
            q = (4 * i + c) * m
            out[4 * c + i::16] = y[q:q + m]
    return out
