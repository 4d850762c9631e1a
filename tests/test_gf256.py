import random

import pytest

from aeslab.gf256 import (
    MUL_TABLE_COEFFICIENTS,
    build_mul_table,
    build_sbox,
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


def test_sbox_known_entries():
    forward, _ = build_sbox()
    assert forward[0x00] == 0x63
    assert forward[0x53] == 0xED
    # same values out of the independent bit-matrix oracle
    assert affine_oracle(gf_inverse_exhaustive(0x00)) == 0x63
    assert affine_oracle(gf_inverse_exhaustive(0x53)) == 0xED


def test_sbox_matches_affine_oracle_everywhere():
    forward, _ = build_sbox()
    for x in range(256):
        assert forward[x] == affine_oracle(gf_inverse_exhaustive(x))


def test_tables_match_first_principles_functions():
    # The log-table generation against the element-wise reference path;
    # the S-box is checked against affine_oracle above.
    table = build_mul_table()
    for x in range(256):
        for c, row in zip(MUL_TABLE_COEFFICIENTS, table, strict=True):
            assert row[x] == gf_mul(c, x)


def test_sbox_matches_standard_table():
    forward, _ = build_sbox()
    assert forward == SBOX_REF


def test_sbox_is_bijective_and_inverse_inverts():
    forward, inverse = build_sbox()
    assert sorted(forward) == list(range(256))
    for x in range(256):
        assert inverse[forward[x]] == x
    assert len(forward) + len(inverse) == 512


def test_mul_table_examples():
    m2, m3, _, _, _, me = build_mul_table()
    assert m2[0x57] == 0xAE
    assert m3[0x01] == 0x03
    assert me[0x00] == 0x00


def test_mul_table_matches_oracle_exhaustively():
    table = build_mul_table()
    for c, row in zip(MUL_TABLE_COEFFICIENTS, table, strict=True):
        for x in range(256):
            assert row[x] == poly_mul_mod(c, x)


def test_mul_table_footprint_and_row_set():
    table = build_mul_table()
    assert sum(map(len, table)) == 1536
    assert MUL_TABLE_COEFFICIENTS == (0x02, 0x03, 0x09, 0x0B, 0x0D, 0x0E)
    # identity row is deliberately absent
    assert 0x01 not in MUL_TABLE_COEFFICIENTS and len(table) == 6
