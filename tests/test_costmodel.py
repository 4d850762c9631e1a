import random

import pytest
import sympy

from aeslab.costmodel import (
    CostParams,
    decrypt_cycles,
    encrypt_cycle_coefficients,
    encrypt_cycles,
    mixcol_delta,
)


def test_encrypt_cycles_substitution():
    p = CostParams(4, 10, 1, 1, 1)
    assert encrypt_cycles(p) == 1720 + 1268 + 3180 == 6168


def test_encrypt_cycles_zero_costs():
    assert encrypt_cycles(CostParams(4, 10, 0, 0, 0)) == 0


def test_encrypt_coefficients_at_reference_point():
    assert encrypt_cycle_coefficients(4, 10) == (1720, 1268, 3180)


def test_encrypt_coefficients_match_symbolic_expansion():
    # independent symbolic oracle: expand the closed form with sympy and
    # read off the unit-cost coefficients
    nb, nr, ta, to, ts = sympy.symbols("nb nr ta to ts")
    total = sympy.expand(
        (46 * nb * nr - 30 * nb) * ta
        + (31 * nb * nr + 12 * (nr - 1) - 20 * nb) * to
        + (64 * nb * nr + 96 * (nr - 1) - 61 * nb) * ts
    )
    rng = random.Random(50)
    for _ in range(20):
        nb_v, nr_v = rng.randrange(1, 9), rng.randrange(1, 15)
        subs = {nb: nb_v, nr: nr_v}
        expected = (
            int(total.coeff(ta).subs(subs)),
            int(total.coeff(to).subs(subs)),
            int(total.coeff(ts).subs(subs)),
        )
        assert encrypt_cycle_coefficients(nb_v, nr_v) == expected


def test_mixcol_delta_substitution():
    assert mixcol_delta(CostParams(4, 10, 1, 1, 1)) == 384 + 288 - 128 == 544


def test_mixcol_delta_can_go_negative():
    assert mixcol_delta(CostParams(4, 10, t_a=0, t_o=0, t_s=5)) < 0


def test_cost_params_validation():
    with pytest.raises(ValueError):
        CostParams(0, 10)
    with pytest.raises(ValueError):
        CostParams(4, 0)
    for bad in (-1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            CostParams(4, 10, t_a=bad)
        with pytest.raises(ValueError):
            CostParams(4, 10, t_s=bad)
    # Finite unit costs, cycle counts past the largest float: refused,
    # not returned as inf or nan.
    huge = CostParams(4, 10, 1e308, 1e308, 1e308)
    with pytest.raises(ValueError, match="not finite"):
        encrypt_cycles(huge)
    with pytest.raises(ValueError, match="not finite"):
        decrypt_cycles(huge)
    # Encryption fits, InvMixColumns' extra 9 * 384 * 1e305 does not.
    p = CostParams(4, 10, t_a=1e305)
    assert encrypt_cycles(p) == pytest.approx(1.72e308)
    with pytest.raises(ValueError, match="not finite"):
        decrypt_cycles(p)


def test_decrypt_cycles_substitution():
    p = CostParams(4, 10, 1, 1, 1)
    assert decrypt_cycles(p) == 6168 + 544 * 9 == 11064


def test_decrypt_equals_encrypt_at_one_round():
    p = CostParams(4, 1, 3, 5, 7)
    assert decrypt_cycles(p) == encrypt_cycles(p)


def test_decrypt_exceeds_encrypt_when_delta_positive():
    p = CostParams(4, 10, 1, 1, 1)
    assert mixcol_delta(p) > 0
    assert decrypt_cycles(p) > encrypt_cycles(p)


def test_decrypt_minus_encrypt_identity_under_fuzzing():
    rng = random.Random(51)
    for _ in range(500):
        p = CostParams(
            rng.randrange(1, 9),
            rng.randrange(1, 20),
            rng.uniform(0, 10),
            rng.uniform(0, 10),
            rng.uniform(0, 10),
        )
        lhs = decrypt_cycles(p) - encrypt_cycles(p)
        rhs = mixcol_delta(p) * (p.n_r - 1)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-9)


def test_encrypt_cycles_monotonic_in_rounds():
    prev = None
    for n_r in range(1, 15):
        total = encrypt_cycles(CostParams(4, n_r, 1, 1, 1))
        if prev is not None:
            assert total > prev
        prev = total


def test_linearity_in_unit_costs():
    rng = random.Random(52)
    for _ in range(100):
        ta, to, ts = rng.uniform(0, 5), rng.uniform(0, 5), rng.uniform(0, 5)
        k = rng.uniform(0.1, 9)
        p1 = CostParams(4, 10, ta, to, ts)
        pk = CostParams(4, 10, k * ta, k * to, k * ts)
        assert encrypt_cycles(pk) == pytest.approx(k * encrypt_cycles(p1))
        assert decrypt_cycles(pk) == pytest.approx(k * decrypt_cycles(p1))
