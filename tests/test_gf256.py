import random

import pytest

from aeslab.gf256 import (
    MUL_TABLE_COEFFICIENTS,
    _affine,
    build_mul_table,
    build_sbox,
    gf_inverse,
    gf_mul,
    xtime,
)

from reference import (
    SBOX_REF,
    affine_oracle,
    gf_inverse_exhaustive,
    poly_mul_mod,
)


@pytest.mark.parametrize("a,expected", [
    (0x00, 0x00),  # zero annihilates
    (0x57, 0xAE),
    (0x80, 0x1B),  # exercises the reduction branch
])
def test_xtime_examples(a, expected):
    assert poly_mul_mod(a, 2) == expected  # oracle agrees with frozen value
    assert xtime(a) == expected


def test_xtime_is_mul_by_two_everywhere():
    for a in range(256):
        assert xtime(a) == gf_mul(a, 0x02)


@pytest.mark.parametrize("a,b,expected", [
    (0x57, 0x13, 0xFE),
    (0x57, 0x01, 0x57),  # multiplicative identity
    (0x00, 0xC3, 0x00),  # zero annihilates
])
def test_gf_mul_examples(a, b, expected):
    assert poly_mul_mod(a, b) == expected
    assert gf_mul(a, b) == expected


def test_gf_mul_matches_bruteforce_exhaustively():
    for a in range(256):
        for b in range(256):
            assert gf_mul(a, b) == poly_mul_mod(a, b)


def test_gf_mul_commutes_and_distributes():
    rng = random.Random(2024)
    for _ in range(10_000):
        a, b, c = rng.randrange(256), rng.randrange(256), rng.randrange(256)
        assert gf_mul(a, b) == gf_mul(b, a)
        assert gf_mul(a, b ^ c) == gf_mul(a, b) ^ gf_mul(a, c)


def test_gf_inverse_examples():
    assert gf_inverse(0x01) == 0x01
    assert gf_inverse(0x00) == 0x00  # Rijndael convention
    assert gf_mul(0x53, gf_inverse(0x53)) == 1


def test_gf_inverse_matches_exhaustive_search():
    for a in range(256):
        assert gf_inverse(a) == gf_inverse_exhaustive(a)
        if a:
            assert gf_mul(a, gf_inverse(a)) == 1


def test_sbox_known_entries():
    pair = build_sbox()
    assert pair.forward[0x00] == 0x63
    assert pair.forward[0x53] == 0xED
    # same values out of the independent bit-matrix oracle
    assert affine_oracle(gf_inverse_exhaustive(0x00)) == 0x63
    assert affine_oracle(gf_inverse_exhaustive(0x53)) == 0xED


def test_sbox_matches_affine_oracle_everywhere():
    pair = build_sbox()
    for x in range(256):
        assert pair.forward[x] == affine_oracle(gf_inverse_exhaustive(x))


def test_tables_match_first_principles_functions():
    # The log-table generation against the element-wise reference path.
    pair = build_sbox()
    table = build_mul_table()
    for x in range(256):
        assert pair.forward[x] == _affine(gf_inverse(x))
        for c in MUL_TABLE_COEFFICIENTS:
            assert table[c][x] == gf_mul(c, x)


def test_sbox_matches_standard_table():
    assert build_sbox().forward == SBOX_REF


def test_sbox_is_bijective_and_inverse_inverts():
    pair = build_sbox()
    assert sorted(pair.forward) == list(range(256))
    for x in range(256):
        assert pair.inverse[pair.forward[x]] == x
    assert pair.footprint_bytes == 512


def test_mul_table_examples():
    table = build_mul_table()
    assert table[0x02][0x57] == 0xAE
    assert table[0x03][0x01] == 0x03
    assert table[0x0E][0x00] == 0x00


def test_mul_table_matches_oracle_exhaustively():
    table = build_mul_table()
    for c in MUL_TABLE_COEFFICIENTS:
        row = table[c]
        for x in range(256):
            assert row[x] == poly_mul_mod(c, x)


def test_mul_table_footprint_and_row_set():
    table = build_mul_table()
    assert table.footprint_bytes == 1536
    assert MUL_TABLE_COEFFICIENTS == (0x02, 0x03, 0x09, 0x0B, 0x0D, 0x0E)
    with pytest.raises(ValueError):
        table[0x01]  # identity row is deliberately absent
