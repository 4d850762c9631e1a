"""Statistical evaluation of plaintext and ciphertext: per-channel
histograms, Shannon entropy, histogram flatness, and the duplicate-block
metric that quantifies ECB texture leakage.
"""

import csv
import io
import math
from collections import Counter
from dataclasses import dataclass

from .bmp import BmpImage
from .core import BLOCK_SIZE

# 99.9th percentile of the chi-square distribution with 255 degrees of
# freedom (uniformity test over 256 byte values).
CHI2_255_PCTL_999 = 330.5197436340059

CHANNEL_NAMES = ("blue", "green", "red")  # storage order in 24-bit BMP


@dataclass
class HistogramReport:
    counts: tuple  # 3 lists of 256 ints, (B, G, R)
    total_pixels: int


@dataclass
class LeakageReport:
    total_blocks: int
    distinct_blocks: int
    distinct_ratio: float
    entropy_bits_per_byte: float


def histogram(img: BmpImage) -> HistogramReport:
    """Exact per-channel value counts; row-padding bytes excluded."""
    counts = ([0] * 256, [0] * 256, [0] * 256)
    b, g, r = counts
    stride = img.row_stride
    row_bytes = img.width * 3
    pixels = img.pixels
    for y in range(img.height):
        row = pixels[y * stride:y * stride + row_bytes]
        for x in range(0, row_bytes, 3):
            b[row[x]] += 1
            g[row[x + 1]] += 1
            r[row[x + 2]] += 1
    return HistogramReport(counts, img.width * img.height)


def shannon_entropy(data: bytes) -> float:
    """-sum(p log2 p) over byte frequencies, in bits per byte."""
    if len(data) == 0:
        raise ValueError("entropy of empty data is undefined")
    n = len(data)
    h = -sum(c / n * math.log2(c / n) for c in Counter(data).values())
    return h + 0.0  # fold -0.0 from the single-symbol case


def duplicate_block_ratio(data: bytes) -> LeakageReport:
    """Distinct / total over whole 16-byte blocks; a partial tail block
    is ignored.

    Low ratios in ciphertext indicate ECB-style structure leakage.
    """
    if len(data) < BLOCK_SIZE:
        raise ValueError(
            f"need at least one {BLOCK_SIZE}-byte block, got {len(data)} bytes"
        )
    total = len(data) // BLOCK_SIZE
    distinct = len({data[i * BLOCK_SIZE:(i + 1) * BLOCK_SIZE] for i in range(total)})
    return LeakageReport(
        total_blocks=total,
        distinct_blocks=distinct,
        distinct_ratio=distinct / total,
        entropy_bits_per_byte=shannon_entropy(data),
    )


def flatness_chi_square(h: HistogramReport) -> tuple:
    """Per-channel chi-square statistic against the uniform expectation."""
    if h.total_pixels <= 0:
        raise ValueError("histogram holds no pixels")
    expected = h.total_pixels / 256
    return tuple(
        sum((observed - expected) ** 2 / expected for observed in channel)
        for channel in h.counts
    )


def _csv_line(fields) -> str:
    """One CSV record without its line end: csv.writer quotes a field
    that holds a comma, a quote or a line break, such as an image path."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()[:-1]


def histogram_csv_lines(h: HistogramReport, label: str) -> list:
    """One line per bin (gnuplot-friendly): image label, bin, blue,
    green, red."""
    lines = ["image,bin,blue,green,red"]
    for v in range(256):
        lines.append(_csv_line((label, v, h.counts[0][v], h.counts[1][v], h.counts[2][v])))
    return lines


METRICS_CSV_HEADER = (
    "image,total_pixels,entropy_bits_per_byte,total_blocks,distinct_blocks,"
    "distinct_ratio,chi2_blue,chi2_green,chi2_red"
)


def metrics_csv_line(label: str, h: HistogramReport, leak: LeakageReport) -> str:
    chi = flatness_chi_square(h)
    return _csv_line((
        label, h.total_pixels, f"{leak.entropy_bits_per_byte:.6f}",
        leak.total_blocks, leak.distinct_blocks, f"{leak.distinct_ratio:.6f}",
        *(f"{c:.3f}" for c in chi),
    ))


def metrics_text_lines(label: str, h: HistogramReport, leak: LeakageReport) -> list:
    """Human-readable report block.  The flatness reference quantile and
    the "near-maximal entropy" reading are artifact-defined thresholds,
    labeled as such."""
    chi = flatness_chi_square(h)
    lines = [
        f"image: {label}",
        f"  total_pixels: {h.total_pixels}",
        f"  entropy_bits_per_byte: {leak.entropy_bits_per_byte:.4f} (max 8.0)",
        f"  blocks: {leak.distinct_blocks} distinct / {leak.total_blocks} total"
        f" (ratio {leak.distinct_ratio:.4f}; low ratio = ECB-style leakage)",
    ]
    for name, value in zip(CHANNEL_NAMES, chi):
        verdict = "flat" if value < CHI2_255_PCTL_999 else "peaked"
        lines.append(
            f"  chi2_{name}: {value:.1f} ({verdict}; artifact threshold "
            f"chi2(255) 99.9th pctl = {CHI2_255_PCTL_999:.1f})"
        )
    return lines
