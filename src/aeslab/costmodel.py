"""Analytic operation-cost model for one-block AES encryption/decryption.

A pure calculator over the block-length parameter N_b, the round count
N_r, and the unit costs of bitwise AND (T_a), OR (T_o), and shift (T_s).
It is not asserted to match measured instruction counts of this
package's own code paths; reports juxtapose its predictions with
measured timings for qualitative comparison only.
"""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class CostParams:
    n_b: int
    n_r: int
    t_a: float = 1.0
    t_o: float = 1.0
    t_s: float = 1.0

    def __post_init__(self):
        if self.n_b < 1:
            raise ValueError(f"n_b must be >= 1, got {self.n_b}")
        if self.n_r < 1:
            raise ValueError(f"n_r must be >= 1, got {self.n_r}")
        if not all(0 <= t < math.inf for t in (self.t_a, self.t_o, self.t_s)):
            raise ValueError("unit costs must be finite and nonnegative")


def encrypt_cycle_coefficients(n_b: int, n_r: int) -> tuple:
    """(AND, OR, shift) coefficients of the one-block encryption total."""
    c_a = 46 * n_b * n_r - 30 * n_b
    c_o = 31 * n_b * n_r + 12 * (n_r - 1) - 20 * n_b
    c_s = 64 * n_b * n_r + 96 * (n_r - 1) - 61 * n_b
    return (c_a, c_o, c_s)


def _finite(total: float) -> float:
    if not math.isfinite(total):
        raise ValueError(f"cycle count {total} is not finite: unit costs too large")
    return total


def encrypt_cycles(p: CostParams) -> float:
    c_a, c_o, c_s = encrypt_cycle_coefficients(p.n_b, p.n_r)
    return _finite(c_a * p.t_a + c_o * p.t_o + c_s * p.t_s)


def mixcol_delta(p: CostParams) -> float:
    """Extra cost of one InvMixColumns over one MixColumns (may go
    negative when shifts dominate)."""
    return 96 * p.n_b * p.t_a + 72 * p.n_b * p.t_o - 32 * p.n_b * p.t_s


def decrypt_cycles(p: CostParams) -> float:
    return _finite(encrypt_cycles(p) + mixcol_delta(p) * (p.n_r - 1))
