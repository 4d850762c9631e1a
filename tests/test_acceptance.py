"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with `pytest tests/test_acceptance.py -v -s` to see them).

The performance criterion asserts relative orderings only; the measured
percentages are printed next to the originally reported ones for
comparison.
"""

import random
import time
from contextlib import contextmanager

from aeslab.analysis import (
    CHI2_255_PCTL_999,
    duplicate_block_ratio,
    flatness_chi_square,
    histogram,
    shannon_entropy,
)
from aeslab.bench import (
    BenchConfig,
    run_matrix,
    sweep_growth_lines,
)
from aeslab.bmp import BmpImage, make_test_image, parse_bmp, serialize_bmp
from aeslab.core import decrypt_block, encrypt_block, key_expansion
from aeslab.costmodel import CostParams, decrypt_cycles, encrypt_cycles, mixcol_delta
from aeslab.gf256 import INV_S_BOX, MUL_TABLE, S_BOX, T_DEC, T_ENC
from aeslab.modes import cbc_encrypt, encrypt_with_residual
from aeslab.variants import (
    VARIANT_IDS,
    encrypt_block_variant,
    make_plan,
)

KAT_PLAINTEXT = bytes.fromhex("00112233445566778899aabbccddeeff")
KAT_VECTORS = [
    ("000102030405060708090a0b0c0d0e0f",
     "69c4e0d86a7b0430d8cdb78070b4c55a"),
    ("000102030405060708090a0b0c0d0e0f1011121314151617",
     "dda97ca4864cdfe06eaf70a0ec0d7191"),
    ("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
     "8ea2b7ca516745bfeafc49904b496089"),
]


@contextmanager
def criterion(name):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL ({time.perf_counter() - started:.1f}s)")
        raise
    print(f"ACCEPTANCE {name}: PASS ({time.perf_counter() - started:.1f}s)")


def test_known_answer_correctness():
    with criterion("known-answer correctness"):
        t0 = time.perf_counter()
        for key_hex, ct_hex in KAT_VECTORS:
            ks = key_expansion(bytes.fromhex(key_hex))
            ct = bytes.fromhex(ct_hex)
            assert encrypt_block(KAT_PLAINTEXT, ks) == ct
            assert decrypt_block(ct, ks) == KAT_PLAINTEXT
        assert time.perf_counter() - t0 < 1.0


def test_variant_equivalence():
    with criterion("variant equivalence (10^4 cases)"):
        t0 = time.perf_counter()
        rng = random.Random(1001)
        mismatches = 0
        for _ in range(10_000):
            key = rng.randbytes(rng.choice([16, 24, 32]))
            n_r = rng.choice([1, 2, 4, 6, 8, 10, 12, 14])
            block = rng.randbytes(16)
            ks = key_expansion(key, n_r)
            base_ct = encrypt_block(block, ks)
            for vid in VARIANT_IDS:
                if encrypt_block_variant(block, ks, make_plan(vid, n_r)) != base_ct:
                    mismatches += 1
        assert mismatches == 0
        assert time.perf_counter() - t0 < 30.0


def test_cbc_definitional_property():
    with criterion("CBC definitional property (10^3 messages)"):
        rng = random.Random(1002)
        violations = 0
        for _ in range(1000):
            ks = key_expansion(rng.randbytes(16))
            n_blocks = rng.randrange(2, 17)
            data = rng.randbytes(16 * n_blocks)
            iv = rng.randbytes(16)
            ct = cbc_encrypt(data, ks, iv, make_plan("base", ks.n_r))
            # recompute each C_i = E_k(M_i xor C_{i-1}) from the stored
            # ciphertext, independently of the chaining loop
            for i in range(n_blocks):
                m = data[i * 16:(i + 1) * 16]
                prev = iv if i == 0 else ct[(i - 1) * 16:i * 16]
                expected = encrypt_block(bytes(a ^ b for a, b in zip(m, prev)), ks)
                if ct[i * 16:(i + 1) * 16] != expected:
                    violations += 1
        assert violations == 0


def test_ecb_leakage_reproduction():
    with criterion("ECB leakage / CBC scrambling"):
        t0 = time.perf_counter()
        img = make_test_image("constant-color", 200, 200)
        ks = key_expansion(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
        plan = make_plan("optf", ks.n_r)
        iv = bytes.fromhex("000102030405060708090a0b0c0d0e0f")

        ecb_ct = encrypt_with_residual(img.pixels, ks, "ecb", plan)
        ecb_report = duplicate_block_ratio(ecb_ct)
        assert ecb_report.distinct_ratio <= 2 / ecb_report.total_blocks

        cbc_ct = encrypt_with_residual(img.pixels, ks, "cbc", plan, iv)
        cbc_report = duplicate_block_ratio(cbc_ct)
        assert cbc_report.distinct_ratio == 1.0
        assert cbc_report.entropy_bits_per_byte >= 7.98

        enc_img = BmpImage(img.header, img.width, img.height, img.row_stride, cbc_ct)
        for value in flatness_chi_square(histogram(enc_img)):
            assert value < CHI2_255_PCTL_999
        assert time.perf_counter() - t0 < 10.0


def test_cost_model_reference_values():
    with criterion("cost model"):
        p = CostParams(4, 10, 1, 1, 1)
        assert encrypt_cycles(p) == 6168
        assert decrypt_cycles(p) == 11064
        rng = random.Random(1003)
        for _ in range(300):
            q = CostParams(rng.randrange(1, 9), rng.randrange(1, 20),
                           rng.uniform(0, 10), rng.uniform(0, 10), rng.uniform(0, 10))
            gap = decrypt_cycles(q) - encrypt_cycles(q)
            assert abs(gap - mixcol_delta(q) * (q.n_r - 1)) < 1e-6


def test_footprint_accounting():
    with criterion("footprint accounting"):
        sboxes = len(S_BOX) + len(INV_S_BOX)
        t_tables = 4 * sum(map(len, T_ENC + T_DEC))
        assert sboxes == 512
        assert t_tables == 8192
        assert sum(map(len, MUL_TABLE.rows)) == 1536
        # Base keeps the S-boxes resident; OptF adds the T-tables.
        assert sboxes + t_tables >= 2 * sboxes


def test_performance_direction():
    with criterion("performance direction"):
        t0 = time.perf_counter()

        # OptF vs Base across the three bitmap workload sizes
        matrix = run_matrix(BenchConfig(
            sizes=(117 * 1024, 263 * 1024, 468 * 1024),
            key_sizes=(128,),
            variants=("base", "optf"),
            modes=("ecb",),
            ops=("encrypt",),
            repetitions=3,
            warmup=1,
            seed=2001,
        ))
        by_cell = {}
        for r in matrix:
            by_cell.setdefault(r.size_bytes, {})[r.variant] = r
        for size, cell in sorted(by_cell.items()):
            ratio = cell["optf"].throughput_bps / cell["base"].throughput_bps
            print(f"  optf/base throughput at {size}B: {ratio:.2f}x")
            assert ratio >= 1.05, size
        for variant in ("base", "optf"):
            medians = [cell[variant].median_s for _, cell in sorted(by_cell.items())]
            assert medians == sorted(medians), (variant, medians)  # more blocks, more work

        # baseline decrypt slower than encrypt
        direction = run_matrix(BenchConfig(
            sizes=(32 * 1024,),
            key_sizes=(128,),
            variants=("base",),
            modes=("ecb",),
            ops=("encrypt", "decrypt"),
            repetitions=3,
            warmup=1,
            seed=2003,
        ))
        by_op = {r.op: r for r in direction}
        print(f"  base decrypt/encrypt time: "
              f"{by_op['decrypt'].median_s / by_op['encrypt'].median_s:.2f}x")
        assert by_op["decrypt"].median_s > by_op["encrypt"].median_s

        # round sweep: times nondecreasing in n_r; growth printed beside
        # the reported 14-19% (encrypt) and 15-30% (decrypt) bands.  The
        # ordering is asserted on the fastest of 9 reps: load from other
        # processes only ever adds time, so the minimum is the least
        # noisy estimate of each cell's cost.
        round_sweep = {
            "key_sizes": (128,),
            "variants": ("base",),
            "modes": ("ecb",),
            "ops": ("encrypt", "decrypt"),
            "rounds": (2, 4, 6, 8, 10),
        }
        sweep = run_matrix(BenchConfig(**{
            **round_sweep, "sizes": (16 * 1024,), "repetitions": 9, "warmup": 1, "seed": 2004,
        }))
        growth = {}
        for op in ("encrypt", "decrypt"):
            series = sorted((r for r in sweep if r.op == op), key=lambda r: r.n_r)
            fastest = [r.min_s for r in series]
            assert fastest == sorted(fastest), (op, fastest)
            assert fastest[-1] > fastest[0], op
            growth[op] = series[-1].median_s / series[0].median_s
        for line in sweep_growth_lines(sweep):
            print(f"  {line}")
        print(f"  sweep growth 2->10 rounds: encrypt {growth['encrypt']:.2f}x, "
              f"decrypt {growth['decrypt']:.2f}x (informational)")

        assert time.perf_counter() - t0 < 300.0


def test_codec_integrity():
    with criterion("codec integrity"):
        rng = random.Random(1004)
        for _ in range(100):
            w, h = rng.randrange(1, 48), rng.randrange(1, 48)
            img = make_test_image("gradient", w, h)
            img.pixels = rng.randbytes(h * img.row_stride)
            data = serialize_bmp(img)
            assert parse_bmp(data) == img
            assert serialize_bmp(parse_bmp(data)) == data

        # image-mode encryption preserves the exact file size
        ks = key_expansion(rng.randbytes(16))
        plan = make_plan("optf", ks.n_r)
        iv = rng.randbytes(16)
        for pattern in ("constant-color", "two-zone", "gradient",
                        "single-object-on-plain-background"):
            for w, h in ((33, 30), (64, 64)):
                img = make_test_image(pattern, w, h)
                original = serialize_bmp(img)
                for mode in ("ecb", "cbc"):
                    pixels = encrypt_with_residual(
                        img.pixels, ks, mode, plan,
                        iv if mode == "cbc" else None,
                    )
                    enc = BmpImage(img.header, img.width, img.height,
                                   img.row_stride, pixels)
                    assert len(serialize_bmp(enc)) == len(original)
