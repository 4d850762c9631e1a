import math
import random

import pytest

from aeslab.analysis import (
    CHI2_255_PCTL_999,
    HistogramReport,
    duplicate_block_ratio,
    flatness_chi_square,
    histogram,
    histogram_csv_lines,
    metrics_csv_line,
    shannon_entropy,
)
from aeslab.bmp import BmpImage, make_test_image
from aeslab.core import key_expansion
from aeslab.modes import encrypt_with_residual
from aeslab.variants import make_plan


@pytest.fixture(scope="module")
def ks():
    return key_expansion(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))


@pytest.fixture(scope="module")
def optf():
    return make_plan("optf", 10)


# ---------------------------------------------------------------------------
# Histogram

def test_histogram_constant_image():
    img = make_test_image("constant-color", 200, 200)
    h = histogram(img)
    assert h.total_pixels == 40_000
    for channel in h.counts:
        assert channel[img.pixels[0]] == 40_000
        assert sum(channel) == 40_000
        assert sum(1 for c in channel if c) == 1


def test_histogram_excludes_row_padding():
    # width 2 -> stride 8 with 2 padding bytes per row; make the padding
    # carry a value absent from the pixels
    stride = 8
    row = bytes([1, 2, 3, 4, 5, 6]) + b"\xEE\xEE"
    img = BmpImage(header=b"BM" + bytes(52), width=2, height=3,
                   row_stride=stride, pixels=row * 3)
    h = histogram(img)
    assert h.total_pixels == 6
    assert all(channel[0xEE] == 0 for channel in h.counts)
    assert h.counts[0][1] == 3 and h.counts[0][4] == 3  # blue channel
    assert h.counts[1][2] == 3 and h.counts[1][5] == 3  # green
    assert h.counts[2][3] == 3 and h.counts[2][6] == 3  # red


def test_histogram_invariant_under_row_permutation():
    rng = random.Random(70)
    img = make_test_image("gradient", 37, 19)
    rows = [img.pixels[y * img.row_stride:(y + 1) * img.row_stride]
            for y in range(img.height)]
    rng.shuffle(rows)
    shuffled = BmpImage(img.header, img.width, img.height, img.row_stride,
                        b"".join(rows))
    assert histogram(img).counts == histogram(shuffled).counts


def test_cbc_encrypted_constant_image_histogram_is_flat(ks, optf):
    img = make_test_image("constant-color", 200, 200)
    iv = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
    ct = encrypt_with_residual(img.pixels, ks, "cbc", optf, iv)
    enc = BmpImage(img.header, img.width, img.height, img.row_stride, ct)
    h = histogram(enc)
    # binomial model per bin: n=40000 draws, p=1/256
    mean = 40_000 / 256
    sd = math.sqrt(40_000 * (1 / 256) * (255 / 256))
    assert max(max(channel) for channel in h.counts) <= mean + 5 * sd


# ---------------------------------------------------------------------------
# Entropy

def test_entropy_degenerate_cases():
    assert shannon_entropy(b"\x42" * 1000) == 0.0
    assert shannon_entropy(b"\x00" * 500 + b"\xFF" * 500) == 1.0
    assert shannon_entropy(bytes(range(256)) * 4) == 8.0


def test_entropy_rejects_empty():
    with pytest.raises(ValueError):
        shannon_entropy(b"")


# ---------------------------------------------------------------------------
# Duplicate blocks

def test_duplicate_ratio_constant_buffer():
    report = duplicate_block_ratio(b"\x55" * 160)
    assert report.total_blocks == 10
    assert report.distinct_blocks == 1
    assert report.distinct_ratio == 0.1


def test_duplicate_ratio_ignores_partial_tail():
    report = duplicate_block_ratio(b"\x55" * 170)
    assert report.total_blocks == 10


def test_duplicate_ratio_rejects_short_input():
    with pytest.raises(ValueError):
        duplicate_block_ratio(b"\x55" * 15)


def test_ecb_vs_cbc_duplicate_ratio(ks, optf):
    data = b"\x99" * 160
    ecb_ct = encrypt_with_residual(data, ks, "ecb", optf)
    report = duplicate_block_ratio(ecb_ct)
    assert report.distinct_blocks == 1  # identical blocks stay identical
    iv = bytes(range(16))
    cbc_ct = encrypt_with_residual(data, ks, "cbc", optf, iv)
    report = duplicate_block_ratio(cbc_ct)
    assert report.distinct_blocks == 10
    assert report.distinct_ratio == 1.0


def test_ecb_leaks_more_than_cbc_on_textured_patterns(ks, optf):
    # patterns with homogeneous zones tile into repeated plaintext blocks,
    # which ECB preserves and CBC scrambles
    iv = bytes(range(16))
    for pattern in ("constant-color", "two-zone",
                    "single-object-on-plain-background"):
        img = make_test_image(pattern, 96, 96)
        ecb_ct = encrypt_with_residual(img.pixels, ks, "ecb", optf)
        cbc_ct = encrypt_with_residual(img.pixels, ks, "cbc", optf, iv)
        assert shannon_entropy(ecb_ct) < shannon_entropy(cbc_ct), pattern
        ecb_ratio = duplicate_block_ratio(ecb_ct).distinct_ratio
        cbc_ratio = duplicate_block_ratio(cbc_ct).distinct_ratio
        assert ecb_ratio < cbc_ratio == 1.0, pattern


def test_gradient_has_no_duplicate_blocks_to_leak(ks, optf):
    # the control pattern: every plaintext block already distinct, so ECB
    # shows no duplicate-block signature
    img = make_test_image("gradient", 96, 96)
    assert duplicate_block_ratio(img.pixels).distinct_ratio == 1.0
    ecb_ct = encrypt_with_residual(img.pixels, ks, "ecb", optf)
    assert duplicate_block_ratio(ecb_ct).distinct_ratio == 1.0


# ---------------------------------------------------------------------------
# Flatness

def test_chi_square_uniform_is_zero():
    h = HistogramReport(([4] * 256, [4] * 256, [4] * 256), 1024)
    assert flatness_chi_square(h) == (0.0, 0.0, 0.0)


def test_chi_square_single_bin_closed_form():
    n = 40_000
    counts = [0] * 256
    counts[7] = n
    h = HistogramReport((counts, counts[:], counts[:]), n)
    for value in flatness_chi_square(h):
        assert value == pytest.approx(n * 255)


def test_chi_square_of_cbc_ciphertext_below_quantile(ks, optf):
    img = make_test_image("two-zone", 128, 128)
    iv = bytes(range(16))
    ct = encrypt_with_residual(img.pixels, ks, "cbc", optf, iv)
    enc = BmpImage(img.header, img.width, img.height, img.row_stride, ct)
    for value in flatness_chi_square(histogram(enc)):
        assert value < CHI2_255_PCTL_999


# ---------------------------------------------------------------------------
# Report rendering

def test_histogram_csv_shape():
    img = make_test_image("constant-color", 8, 8)
    labeled = histogram_csv_lines(histogram(img), "plain")
    assert len(labeled) == 257
    assert labeled[0] == "image,bin,blue,green,red"
    assert labeled[1].startswith("plain,0,")


def test_metrics_csv_line_fields():
    img = make_test_image("constant-color", 16, 16)
    h = histogram(img)
    leak = duplicate_block_ratio(img.pixels)
    line = metrics_csv_line("x.bmp", h, leak)
    parts = line.split(",")
    assert parts[0] == "x.bmp"
    assert int(parts[1]) == 256
    assert float(parts[5]) == pytest.approx(leak.distinct_ratio, abs=1e-6)
