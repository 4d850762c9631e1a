"""The optimization ladder over the baseline cipher.

Three tiers, all bit-compatible with the baseline:

* loop-unrolled transformations (the per-function optimizations);
* table-driven MixColumns via the 6x256 product table, so no
  shift-and-xor multiplication executes on the data path;
* fused T-table rounds: one set of four 256x4-byte tables per direction
  combines SubBytes, ShiftRows, and MixColumns into four lookups plus
  XORs per output column (8 KiB total for both directions).

The VARIANTS table is the one registry of the ladder: each entry's
rule picks its fused rounds, and its table list gives its static
footprint.  A VariantPlan selects per round between the baseline path
and the T-table path, yielding the Base / Opt1 / Opt2 / OptF scenarios.

The block kernels keep the state as four 32-bit column words (big-endian,
row 0 in the top byte), unpacked from and packed into the block with
struct, and XOR the schedule's packed key words.  Each plan groups its
middle rounds into runs of one path (VariantPlan.runs).  In a fused
run, every round takes its 16 state bytes from one struct pack of the
four words (byte 4c + i is row i of column c) and indexes the T-tables
by them.  The optimized final round has no table to index: ShiftRows
of the packed state x is the strided slice (x * 5)[::5], since byte
4c + r of the result is byte 5(4c + r) mod 16 of x and 5 is prime to
16, and SubBytes is one translate through the S-box; decryption takes
stride 13 (InvShiftRows, 13 = -3 mod 16) and the inverse S-box.  The
state becomes the baseline 4x4 matrix only for a baseline run, which
calls the core round functions, and is packed back into words after
it.  The per-transform functions below work on the matrix and
serve the transform microbenchmarks.
"""

import struct
from itertools import groupby

from .core import (
    BLOCK_SIZE,
    INV_S_BOX,
    S_BOX,
    KeySchedule,
    State,
    add_round_key,
    inv_mix_columns,
    inv_shift_rows,
    inv_sub_bytes,
    mix_columns,
    shift_rows,
    store_state,
    sub_bytes,
)
from .gf256 import MUL_TABLE, SBOX_PAIR, ReadOnly


class TTables(ReadOnly):
    """Fused round tables: 4 encrypt + 4 decrypt tables of 256 4-byte entries.

    Entries are stored as packed big-endian words; byte 0 of an entry is
    the row-0 contribution of that table's column of the (Inv)MixColumns
    matrix applied to the (inverse) S-box output.
    """

    __slots__ = ("enc", "dec")

    def __init__(self, enc: tuple, dec: tuple):
        object.__setattr__(self, "enc", enc)
        object.__setattr__(self, "dec", dec)

    @property
    def footprint_bytes(self) -> int:
        return sum(4 * len(t) for t in (*self.enc, *self.dec))


class VariantPlan(ReadOnly):
    """Per-round strategy: round_flags[r-1] is True when round r (1-based)
    takes the optimized path.

    runs groups rounds 1..n_r-1 into maximal runs that take the same
    path, as (fused, first, stop) for rounds first..stop-1 in order; the
    final round, which has no MixColumns, is not part of any run.
    all_fused is True when every round takes the optimized path, so the
    block kernels never read the schedule's round-key matrices.
    """

    __slots__ = ("round_flags", "runs", "all_fused")

    def __init__(self, round_flags: tuple):
        runs, first = [], 1
        for fused, group in groupby(round_flags[:-1]):
            stop = first + len(tuple(group))
            runs.append((fused, first, stop))
            first = stop
        object.__setattr__(self, "round_flags", round_flags)
        object.__setattr__(self, "runs", tuple(runs))
        object.__setattr__(self, "all_fused", all(round_flags))

    @property
    def n_r(self) -> int:
        return len(self.round_flags)


_TABLE_WORDS = struct.Struct(">256I")


def _rotations(lanes: tuple) -> tuple:
    """Four tables of 256 big-endian words from the byte lanes of table
    0 (lanes[i][x] is byte i of entry x): table k is table 0 rotated
    right by k bytes, so byte i of its entries is lane (i - k) mod 4."""
    words = bytearray(4 * 256)
    tables = []
    for k in range(4):
        for i in range(4):
            words[i::4] = lanes[(i - k) % 4]
        tables.append(list(_TABLE_WORDS.unpack(words)))
    return tuple(tables)


def build_t_tables() -> TTables:
    """Derive both table sets from the S-boxes and the MUL_TABLE rows."""
    sbox = SBOX_PAIR.forward
    inv_sbox = SBOX_PAIR.inverse
    # Table 0 applies column 0 of (Inv)MixColumns to the (inverse)
    # S-box output: bytes {02}s, s, s, {03}s and {0E}t, {09}t, {0D}t, {0B}t.
    enc = (sbox.translate(MUL_TABLE[0x02]), sbox, sbox, sbox.translate(MUL_TABLE[0x03]))
    dec = tuple(inv_sbox.translate(MUL_TABLE[c]) for c in (0x0E, 0x09, 0x0D, 0x0B))
    return TTables(enc=_rotations(enc), dec=_rotations(dec))


T_TABLES = build_t_tables()


class Variant(ReadOnly):
    """One row of VARIANTS, read-only like the package's other records.
    fused(i) is True when round i + 1 takes the T-table path; None marks
    a footprint-only configuration with no round plan.  tables names the
    lookup-table categories the variant keeps resident."""

    __slots__ = ("fused", "tables")

    def __init__(self, fused, tables: tuple):
        object.__setattr__(self, "fused", fused)
        object.__setattr__(self, "tables", tables)


# Base: no optimized rounds.  Opt1: every other round, starting with
# round 1.  Opt2: period-4 pattern of two optimized then two baseline
# rounds.  OptF: all rounds optimized.  multable: S-boxes plus the 6x256
# product table, with MixColumns kept as a separate (table-driven) step;
# it is reported in the footprint table only.
VARIANTS = {
    "base": Variant(lambda i: False, ("sbox",)),
    "opt1": Variant(lambda i: i % 2 == 0, ("sbox", "t_tables")),
    "opt2": Variant(lambda i: i % 4 < 2, ("sbox", "t_tables")),
    "optf": Variant(lambda i: True, ("sbox", "t_tables")),
    "multable": Variant(None, ("sbox", "mul_table")),
}

VARIANT_IDS = tuple(vid for vid, v in VARIANTS.items() if v.fused is not None)


def _variant(variant_id: str) -> Variant:
    try:
        return VARIANTS[variant_id.lower()]
    except KeyError:
        raise ValueError(f"unknown variant {variant_id!r}") from None


def make_plan(variant_id: str, n_r: int) -> VariantPlan:
    """The per-round plan of a runnable variant (one of VARIANT_IDS)."""
    if n_r < 1:
        raise ValueError(f"round count must be >= 1, got {n_r}")
    fused = _variant(variant_id).fused
    if fused is None:
        raise ValueError(f"variant {variant_id!r} has no round plan")
    return VariantPlan(tuple(fused(i) for i in range(n_r)))


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
    m2 = MUL_TABLE[0x02]
    m3 = MUL_TABLE[0x03]
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
# Block kernels over packed column words

_BLOCK_WORDS = struct.Struct(">4I")


def _matrix(s0: int, s1: int, s2: int, s3: int) -> State:
    """Four column words -> 4x4 state (byte 0 of a word is row 0)."""
    return [
        [s0 >> 24, s1 >> 24, s2 >> 24, s3 >> 24],
        [s0 >> 16 & 0xFF, s1 >> 16 & 0xFF, s2 >> 16 & 0xFF, s3 >> 16 & 0xFF],
        [s0 >> 8 & 0xFF, s1 >> 8 & 0xFF, s2 >> 8 & 0xFF, s3 >> 8 & 0xFF],
        [s0 & 0xFF, s1 & 0xFF, s2 & 0xFF, s3 & 0xFF],
    ]


def _columns(state: State) -> tuple:
    """4x4 state -> four column words, inverse of _matrix."""
    r0, r1, r2, r3 = state
    return (
        r0[0] << 24 | r1[0] << 16 | r2[0] << 8 | r3[0],
        r0[1] << 24 | r1[1] << 16 | r2[1] << 8 | r3[1],
        r0[2] << 24 | r1[2] << 16 | r2[2] << 8 | r3[2],
        r0[3] << 24 | r1[3] << 16 | r2[3] << 8 | r3[3],
    )


def encrypt_block_variant(block: bytes, ks: KeySchedule, plan: VariantPlan) -> bytes:
    """Encrypt one block, choosing per round between the baseline path and
    the T-table path.  Ciphertext is bit-identical for every plan.

    The rounds run as plan.runs.  A fused run takes each round's 16 state
    bytes from one struct pack of the column words, then does
    SubBytes + ShiftRows + MixColumns + AddRoundKey as 16 T-table
    lookups by those bytes plus XORs.  A baseline run turns the words
    into the 4x4 matrix, runs the core round functions and packs the
    words back.  The final round has no MixColumns, so its optimized
    path is ShiftRows as the strided slice (x * 5)[::5] of the packed
    state x, then SubBytes as x.translate(S_BOX), then the key words.
    """
    if len(block) != BLOCK_SIZE:
        raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
    flags = plan.round_flags
    # n_r comes from the key words, not ks.n_r: KeySchedule defines
    # __getattr__, so CPython does not specialize reads of its fields.
    w = ks.enc_words
    n_r = len(w) - 1
    if len(flags) != n_r:
        raise ValueError(f"plan covers {len(flags)} rounds but schedule has {n_r}")
    rk = None if plan.all_fused else ks.round_keys
    pack = _BLOCK_WORDS.pack
    t0, t1, t2, t3 = T_TABLES.enc
    s0, s1, s2, s3 = _BLOCK_WORDS.unpack(block)
    k0, k1, k2, k3 = w[0]
    s0 ^= k0
    s1 ^= k1
    s2 ^= k2
    s3 ^= k3
    for fused, first, stop in plan.runs:
        if fused:
            for k0, k1, k2, k3 in w[first:stop]:
                (b0, b1, b2, b3, b4, b5, b6, b7,
                 b8, b9, b10, b11, b12, b13, b14, b15) = pack(s0, s1, s2, s3)
                s0 = t0[b0] ^ t1[b5] ^ t2[b10] ^ t3[b15] ^ k0
                s1 = t0[b4] ^ t1[b9] ^ t2[b14] ^ t3[b3] ^ k1
                s2 = t0[b8] ^ t1[b13] ^ t2[b2] ^ t3[b7] ^ k2
                s3 = t0[b12] ^ t1[b1] ^ t2[b6] ^ t3[b11] ^ k3
        else:
            s = _matrix(s0, s1, s2, s3)
            for r in range(first, stop):
                s = sub_bytes(s)
                s = shift_rows(s)
                s = mix_columns(s)
                s = add_round_key(s, rk[r])
            s0, s1, s2, s3 = _columns(s)
    if not flags[-1]:
        s = _matrix(s0, s1, s2, s3)
        s = sub_bytes(s)
        s = shift_rows(s)
        s = add_round_key(s, rk[n_r])
        return store_state(s)
    k0, k1, k2, k3 = w[n_r]
    s0, s1, s2, s3 = _BLOCK_WORDS.unpack((pack(s0, s1, s2, s3) * 5)[::5].translate(S_BOX))
    return pack(s0 ^ k0, s1 ^ k1, s2 ^ k2, s3 ^ k3)


def decrypt_block_variant(block: bytes, ks: KeySchedule, plan: VariantPlan) -> bytes:
    """Inverse of encrypt_block_variant for the same schedule and any plan.

    Decryption consumes the round flags in reverse stage order: the flag
    for round r selects the path of the fused stage that uses round key
    r, and the flag for round n_r selects the path of the trailing
    InvShiftRows/InvSubBytes/AddRoundKey stage.  So plan.runs runs last
    to first, and a fused run takes its key words last to first.  A
    fused stage is InvShiftRows + InvSubBytes + AddRoundKey +
    InvMixColumns as 16 lookups by the bytes of one struct pack; it adds
    ks.dec_words[r], the InvMixColumns image of round key r, after the
    lookups, since InvMixColumns is linear.  The optimized trailing stage
    is InvShiftRows as the strided slice (x * 13)[::13], then
    x.translate(INV_S_BOX), then round key 0.
    """
    if len(block) != BLOCK_SIZE:
        raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
    flags = plan.round_flags
    w = ks.dec_words
    n_r = len(w) - 1
    if len(flags) != n_r:
        raise ValueError(f"plan covers {len(flags)} rounds but schedule has {n_r}")
    rk = None if plan.all_fused else ks.round_keys
    pack = _BLOCK_WORDS.pack
    d0, d1, d2, d3 = T_TABLES.dec
    s0, s1, s2, s3 = _BLOCK_WORDS.unpack(block)
    k0, k1, k2, k3 = w[n_r]
    s0 ^= k0
    s1 ^= k1
    s2 ^= k2
    s3 ^= k3
    for fused, first, stop in reversed(plan.runs):
        if fused:
            for k0, k1, k2, k3 in reversed(w[first:stop]):
                (b0, b1, b2, b3, b4, b5, b6, b7,
                 b8, b9, b10, b11, b12, b13, b14, b15) = pack(s0, s1, s2, s3)
                s0 = d0[b0] ^ d1[b13] ^ d2[b10] ^ d3[b7] ^ k0
                s1 = d0[b4] ^ d1[b1] ^ d2[b14] ^ d3[b11] ^ k1
                s2 = d0[b8] ^ d1[b5] ^ d2[b2] ^ d3[b15] ^ k2
                s3 = d0[b12] ^ d1[b9] ^ d2[b6] ^ d3[b3] ^ k3
        else:
            s = _matrix(s0, s1, s2, s3)
            for r in range(stop - 1, first - 1, -1):
                s = inv_shift_rows(s)
                s = inv_sub_bytes(s)
                s = add_round_key(s, rk[r])
                s = inv_mix_columns(s)
            s0, s1, s2, s3 = _columns(s)
    if not flags[-1]:
        s = _matrix(s0, s1, s2, s3)
        s = inv_shift_rows(s)
        s = inv_sub_bytes(s)
        s = add_round_key(s, rk[0])
        return store_state(s)
    k0, k1, k2, k3 = w[0]
    s0, s1, s2, s3 = _BLOCK_WORDS.unpack((pack(s0, s1, s2, s3) * 13)[::13].translate(INV_S_BOX))
    return pack(s0 ^ k0, s1 ^ k1, s2 ^ k2, s3 ^ k3)


def static_footprint(variant_id: str) -> dict:
    """Bytes of static lookup tables resident for a variant.

    Reported per table category: the two S-boxes, the 6x256 product
    table, and the fused round tables.  (Compiled code size is
    toolchain-dependent and not reported.)
    """
    tables = _variant(variant_id).tables
    sizes = {
        "sbox": SBOX_PAIR.footprint_bytes,
        "mul_table": MUL_TABLE.footprint_bytes,
        "t_tables": T_TABLES.footprint_bytes,
    }
    return {name: size if name in tables else 0 for name, size in sizes.items()}
