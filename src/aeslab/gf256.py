"""GF(2^8) arithmetic and lookup-table generation for the Rijndael cipher.

All arithmetic is over the field defined by the reduction polynomial
x^8 + x^4 + x^3 + x + 1 (0x11B).  Field elements are plain ints in
0..255.  The S-boxes, the fixed-multiplicand table and the fused
round tables are generated at import time rather than hard-coded, and
this module is the one that builds them.  All are plain immutable
values: the S-boxes are the bytes S_BOX and INV_S_BOX; the product
table MUL_TABLE is a tuple of six bytes rows, one per coefficient in
MUL_TABLE_COEFFICIENTS order; the T-tables are the tuples T_ENC and
T_DEC, four tuples of 256 big-endian words per direction.  The window
form of the fused round reads no T-table: it translates by an S-box
and takes every other multiple by xtime on the whole window.

Generation runs on exponent and logarithm tables over the generator
{03}, filled in 255 xtime steps (x * {03} = x ^ xtime(x)) once per
import and kept as module constants.  The inverse of a nonzero a is
exp[255 - log a]; product row c holds exp[log c + log x].  Both are
read out of the log table with bytes.translate, so no per-entry
multiplication runs.  The S-box applies the affine map to all 256
inverses at once, as rotations within the bytes of one 2048-bit int,
and its inverse is the permutation bytes.maketrans reads off it.  The
T-tables take their byte lanes from the S-boxes and the product rows.
xtime and gf_mul compute the same products from first principles, one
element at a time, and remain the reference the tests check the product
rows against.
"""

import struct

REDUCTION_POLY = 0x11B

# The six non-identity multiplicands that appear in MixColumns ({02, 03})
# and InvMixColumns ({09, 0B, 0D, 0E}), in the row order of MUL_TABLE;
# its readers unpack the rows in this order.
MUL_TABLE_COEFFICIENTS = (0x02, 0x03, 0x09, 0x0B, 0x0D, 0x0E)

AFFINE_CONSTANT = 0x63


def xtime(a: int) -> int:
    """Multiply by {02}: shift left, reduce once if the high bit falls out."""
    a <<= 1
    if a & 0x100:
        a ^= REDUCTION_POLY
    return a


def gf_mul(a: int, b: int) -> int:
    """Shift-and-xor product of two field elements."""
    p = 0
    while b:
        if b & 1:
            p ^= a
        a <<= 1
        if a & 0x100:
            a ^= REDUCTION_POLY
        b >>= 1
    return p


class ReadOnly:
    """Base of the package's two records, the key schedule and the round
    plan; tables are plain bytes and tuples instead.  __init__ fills the
    slots with object.__setattr__, as core's derive functions do for a
    schedule's derived fields; any assignment or deletion through the
    instance raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only")


def _exp_log() -> tuple:
    """(exp, log) as bytes: exp[i] = {03}^i for i in 0..509, twice round
    the cycle of 255 so that a sum of two logs needs no reduction, and
    log[x] for x != 0.  log[0] is 255, a power no element has, so a
    translate table indexed by log gives the image of 0 in entry 255."""
    exp = bytearray(510)
    log = bytearray(256)
    log[0] = 255
    x = 1
    for i in range(255):
        exp[i] = exp[i + 255] = x
        log[x] = i
        x ^= xtime(x)
    return bytes(exp), bytes(log)


_EXP, _LOG = _exp_log()


def build_sbox() -> tuple:
    """(forward, inverse): the S-box as affine(inverse(x)) and its
    permutation inverse, each 256 bytes."""
    # exp[255 - log x] for each x, as one int whose bytes are the 256
    # inverses; the appended 0 is the inverse of 0.
    b = int.from_bytes(_LOG.translate(_EXP[255:0:-1] + b"\0"), "big")
    ones = int.from_bytes(b"\1" * 256, "big")
    # b'_i = b_i ^ b_{i+4} ^ ... ^ b_{i+7} ^ c_i (indices mod 8) is b ^
    # rotl1(b) ^ ... ^ rotl4(b) ^ c, each rotation kept within its byte.
    s = b ^ ones * AFFINE_CONSTANT
    for k in range(1, 5):
        s ^= b << k & ones * (0xFF << k & 0xFF) | b >> 8 - k & ones * (0xFF >> 8 - k)
    forward = s.to_bytes(256, "big")
    return forward, bytes.maketrans(forward, bytes(range(256)))


def build_mul_table() -> tuple:
    """c * x for the six fixed MixColumns/InvMixColumns coefficients: one
    256-byte row per coefficient, in MUL_TABLE_COEFFICIENTS order, so
    row[x] == gf_mul(c, x) (1536 bytes)."""
    # Row c maps x to exp[log c + log x]; the appended 0 is c * 0.
    return tuple(
        _LOG.translate(_EXP[_LOG[c]:_LOG[c] + 255] + b"\0") for c in MUL_TABLE_COEFFICIENTS
    )


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
        tables.append(_TABLE_WORDS.unpack(words))
    return tuple(tables)


def build_t_tables() -> tuple:
    """(enc, dec): the fused round tables derived from the S-boxes and
    the MUL_TABLE rows, four tables of 256 4-byte entries per direction.

    Each entry is a big-endian word.  Byte i of table 0's entries is row
    i of column 0 of (Inv)MixColumns applied to the (inverse) S-box
    output: {02}s, s, s, {03}s and {0E}t, {09}t, {0D}t, {0B}t.  Table k
    is table 0 rotated right by k bytes.
    """
    m2, m3, m9, mb, md, me = MUL_TABLE
    enc = (S_BOX.translate(m2), S_BOX, S_BOX, S_BOX.translate(m3))
    dec = tuple(INV_S_BOX.translate(m) for m in (me, m9, md, mb))
    return _rotations(enc), _rotations(dec)


# Shared singletons; read-only, safe for concurrent reads.
S_BOX, INV_S_BOX = build_sbox()
MUL_TABLE = build_mul_table()
T_ENC, T_DEC = build_t_tables()
