"""The optimization ladder over the baseline cipher.

Three tiers, all bit-compatible with the baseline:

* loop-unrolled transformations (the per-function optimizations);
* table-driven MixColumns via the 6x256 product table, so no
  shift-and-xor multiplication executes on the data path;
* fused T-table rounds: one set of four 256x4-byte tables per direction
  combines SubBytes, ShiftRows, and MixColumns into four lookups plus
  XORs per output column (8 KiB total for both directions).

The T-tables are the plain tuples T_ENC and T_DEC, which gf256 builds
with the other tables and this module imports.  The VARIANTS table
is the one registry of the ladder: each row is a (fused, tables) tuple,
whose rule picks the variant's fused rounds and whose table list gives
its static footprint, which static_footprint, the one code that sizes
the tables, reports.  A VariantPlan selects per round between the
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
these baseline stages read the schedule's round-key matrices, so an
all-fused (OptF) plan never derives them.  The per-transform functions
below work on the matrix and serve the transform microbenchmarks.
"""

import struct
from itertools import groupby

from .core import (
    BLOCK_SIZE,
    KeySchedule,
    State,
    decrypt_rounds,
    encrypt_rounds,
    load_state,
    store_state,
)
from .gf256 import INV_S_BOX, MUL_TABLE, S_BOX, T_DEC, T_ENC, ReadOnly
# Read here by the package's public names and by perfbench's table timings.
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


# Each row is (fused, tables): fused(i) is True when round i + 1 takes
# the T-table path, and None marks a footprint-only configuration with
# no round plan; tables names the lookup-table categories the variant
# keeps resident.
#
# Base: no optimized rounds.  Opt1: every other round, starting with
# round 1.  Opt2: period-4 pattern of two optimized then two baseline
# rounds.  OptF: all rounds optimized.  multable: S-boxes plus the 6x256
# product table, with MixColumns kept as a separate (table-driven) step;
# it is reported in the footprint table only.
VARIANTS = {
    "base": (lambda i: False, ("sbox",)),
    "opt1": (lambda i: i % 2 == 0, ("sbox", "t_tables")),
    "opt2": (lambda i: i % 4 < 2, ("sbox", "t_tables")),
    "optf": (lambda i: True, ("sbox", "t_tables")),
    "multable": (None, ("sbox", "mul_table")),
}

VARIANT_IDS = tuple(vid for vid, (fused, _) in VARIANTS.items() if fused is not None)


def _variant(variant_id: str) -> tuple:
    try:
        return VARIANTS[variant_id.lower()]
    except KeyError:
        raise ValueError(f"unknown variant {variant_id!r}") from None


def make_plan(variant_id: str, n_r: int) -> VariantPlan:
    """The per-round plan of a runnable variant (one of VARIANT_IDS)."""
    if n_r < 1:
        raise ValueError(f"round count must be >= 1, got {n_r}")
    fused, _ = _variant(variant_id)
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
    # n_r comes from the key words, not ks.n_r: KeySchedule defines
    # __getattr__, so CPython does not specialize reads of its fields.
    w = ks.enc_words
    n_r = len(w) - 1
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
            x = store_state(encrypt_rounds(load_state(x), ks.round_keys, first, stop))
    if not flags[-1]:
        return store_state(encrypt_rounds(load_state(x), ks.round_keys, n_r, n_r + 1))
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
    adds ks.dec_words[r], the InvMixColumns image of round key r, after
    the lookups, since InvMixColumns is linear.  A baseline run is
    core.decrypt_rounds on the state loaded from x.  The optimized
    trailing stage is InvShiftRows as the strided slice (x * 13)[::13],
    then x.translate(INV_S_BOX), then round key 0; its baseline path is
    core.decrypt_rounds for round key 0 alone.
    """
    if len(block) != BLOCK_SIZE:
        raise ValueError(f"block must be {BLOCK_SIZE} bytes, got {len(block)}")
    flags = plan.round_flags
    w = ks.dec_words
    n_r = len(w) - 1
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
            x = store_state(decrypt_rounds(load_state(x), ks.round_keys, first, stop))
    if not flags[-1]:
        return store_state(decrypt_rounds(load_state(x), ks.round_keys, 0, 1))
    k0, k1, k2, k3 = w[0]
    s0, s1, s2, s3 = _BLOCK_WORDS.unpack((x * 13)[::13].translate(INV_S_BOX))
    return pack(s0 ^ k0, s1 ^ k1, s2 ^ k2, s3 ^ k3)


def static_footprint(variant_id: str) -> dict:
    """Bytes of static lookup tables resident for a variant.

    Reported per table category: the two S-boxes, the 6x256 product
    table, and the fused round tables.  (Compiled code size is
    toolchain-dependent and not reported.)
    """
    _, tables = _variant(variant_id)
    sizes = {
        "sbox": len(S_BOX) + len(INV_S_BOX),
        "mul_table": sum(map(len, MUL_TABLE.rows)),
        "t_tables": 4 * sum(map(len, T_ENC + T_DEC)),
    }
    return {name: size if name in tables else 0 for name, size in sizes.items()}
