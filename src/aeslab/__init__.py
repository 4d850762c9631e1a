"""From-scratch Rijndael/AES cipher lab.

Core block cipher with an optimization ladder of bit-identical
table-driven variants, ECB/CBC modes, an analytic operation-cost model,
a benchmark harness, a minimal 24-bit BMP codec, and ciphertext
statistics for the ECB-leakage demonstrations.
"""

from .core import KeySchedule, decrypt_block, encrypt_block, key_expansion
from .gf256 import build_mul_table, build_sbox, build_t_tables, gf_mul, xtime
from .modes import (
    cbc_decrypt,
    cbc_encrypt,
    decrypt_blob,
    ecb_decrypt,
    ecb_encrypt,
    encrypt_blob,
    pkcs7_pad,
    pkcs7_unpad,
    random_iv,
)
from .variants import (
    VariantPlan,
    decrypt_block_variant,
    encrypt_block_variant,
    make_plan,
)

__version__ = "0.1.0"

__all__ = [
    "KeySchedule",
    "VariantPlan",
    "build_mul_table",
    "build_sbox",
    "build_t_tables",
    "cbc_decrypt",
    "cbc_encrypt",
    "decrypt_blob",
    "decrypt_block",
    "decrypt_block_variant",
    "ecb_decrypt",
    "ecb_encrypt",
    "encrypt_blob",
    "encrypt_block",
    "encrypt_block_variant",
    "gf_mul",
    "key_expansion",
    "make_plan",
    "pkcs7_pad",
    "pkcs7_unpad",
    "random_iv",
    "xtime",
]
