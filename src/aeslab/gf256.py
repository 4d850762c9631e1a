"""GF(2^8) arithmetic and lookup-table generation for the Rijndael cipher.

All arithmetic is over the field defined by the reduction polynomial
x^8 + x^4 + x^3 + x + 1 (0x11B).  Field elements are plain ints in
0..255.  The S-boxes, the fixed-multiplicand table and the fused
round tables are generated at import time rather than hard-coded, and
this module is the one that builds them.  The S-boxes are the plain
bytes values S_BOX and INV_S_BOX; the product table is the MulTable
MUL_TABLE, which looks up its rows by coefficient; the T-tables are the
tuples T_ENC and T_DEC, four tuples of 256 big-endian words per
direction.

Generation runs on exponent and logarithm tables over the generator
{03}, filled in 255 xtime steps (x * {03} = x ^ xtime(x)) once per
import and kept as module constants.  The inverse of a nonzero a is
exp[255 - log a]; product row c holds exp[log c + log x].  Both are
read out of the log table with bytes.translate, so no per-entry
multiplication runs.  The S-box applies the affine map to all 256
inverses at once, as rotations within the bytes of one 2048-bit int,
and its inverse is the permutation bytes.maketrans reads off it.  The
T-tables take their byte lanes from the S-boxes and the product rows.
xtime, gf_mul, gf_inverse and _affine compute the same values from
first principles, one element at a time, and remain the reference the
tests check the tables against.
"""

import struct

REDUCTION_POLY = 0x11B

# The six non-identity multiplicands that appear in MixColumns ({02, 03})
# and InvMixColumns ({09, 0B, 0D, 0E}).  This tuple fixes the row order
# of MulTable; consumers index rows by coefficient, never by row number.
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


def gf_inverse(a: int) -> int:
    """Multiplicative inverse, with 0 mapped to 0 (Rijndael convention)."""
    if a == 0:
        return 0
    # a^254 = a^-1 in GF(2^8), by Fermat's little theorem for fields.
    result = 1
    base = a
    e = 254
    while e:
        if e & 1:
            result = gf_mul(result, base)
        base = gf_mul(base, base)
        e >>= 1
    return result


def _affine(x: int) -> int:
    # b'_i = b_i + b_{i+4} + b_{i+5} + b_{i+6} + b_{i+7} + c_i (indices mod 8)
    out = 0
    for i in range(8):
        bit = (
            (x >> i)
            ^ (x >> ((i + 4) % 8))
            ^ (x >> ((i + 5) % 8))
            ^ (x >> ((i + 6) % 8))
            ^ (x >> ((i + 7) % 8))
            ^ (AFFINE_CONSTANT >> i)
        ) & 1
        out |= bit << i
    return out


class ReadOnly:
    """Base of the package's records with behaviour: the product table,
    the key schedule and the round plan; plain tables are bytes and
    tuples instead.  __init__ fills the slots with object.__setattr__,
    and a record may fill a slot the same way when it derives a field
    on first read (as KeySchedule does); any assignment or deletion
    through the instance raises AttributeError.  A derived slot is
    written only with a finished value, equal whichever thread derives
    it, so shared instances may be read concurrently."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is read-only")


class MulTable(ReadOnly):
    """Products of every byte with each fixed MixColumns coefficient.

    Six rows of 256 bytes each (1536 bytes total), ordered per
    MUL_TABLE_COEFFICIENTS.  table[c][x] == gf_mul(c, x); table[c]
    raises ValueError for a coefficient with no row, such as 0x01.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: tuple):
        object.__setattr__(self, "rows", rows)

    def __getitem__(self, coefficient: int) -> bytes:
        i = MUL_TABLE_COEFFICIENTS.index(coefficient)
        return self.rows[i]


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
    # _affine's b_i ^ b_{i+4} ^ ... ^ b_{i+7} ^ c_i is b ^ rotl1(b) ^ ...
    # ^ rotl4(b) ^ c, each rotation kept within its byte by the masks.
    s = b ^ ones * AFFINE_CONSTANT
    for k in range(1, 5):
        s ^= b << k & ones * (0xFF << k & 0xFF) | b >> 8 - k & ones * (0xFF >> 8 - k)
    forward = s.to_bytes(256, "big")
    return forward, bytes.maketrans(forward, bytes(range(256)))


def build_mul_table() -> MulTable:
    """Tabulate c * x for the six fixed MixColumns/InvMixColumns
    coefficients, as a MulTable whose rows follow MUL_TABLE_COEFFICIENTS."""
    # Row c maps x to exp[log c + log x]; the appended 0 is c * 0.
    return MulTable(tuple(
        _LOG.translate(_EXP[_LOG[c]:_LOG[c] + 255] + b"\0") for c in MUL_TABLE_COEFFICIENTS
    ))


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

    Each entry is a big-endian word; byte 0 of an entry is the row-0
    contribution of that table's column of the (Inv)MixColumns matrix
    applied to the (inverse) S-box output.
    """
    # Table 0 applies column 0 of (Inv)MixColumns to the (inverse)
    # S-box output: bytes {02}s, s, s, {03}s and {0E}t, {09}t, {0D}t, {0B}t.
    enc = (S_BOX.translate(MUL_TABLE[0x02]), S_BOX, S_BOX, S_BOX.translate(MUL_TABLE[0x03]))
    dec = tuple(INV_S_BOX.translate(MUL_TABLE[c]) for c in (0x0E, 0x09, 0x0D, 0x0B))
    return _rotations(enc), _rotations(dec)


# Shared singletons; read-only, safe for concurrent reads.
S_BOX, INV_S_BOX = build_sbox()
MUL_TABLE = build_mul_table()
T_ENC, T_DEC = build_t_tables()
