import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aeslab.bmp import (
    HEADER_SIZE,
    BmpError,
    BmpImage,
    BmpMagicError,
    BmpTruncatedError,
    BmpUnsupportedError,
    make_test_image,
    parse_bmp,
    row_stride_for,
    serialize_bmp,
)


def distinct_blocks(data, size=16):
    return {data[i:i + size] for i in range(0, len(data) - size + 1, size)}


def test_stride_rule():
    assert row_stride_for(200) == 600
    assert row_stride_for(2) == 8      # 6 data bytes padded to 8
    assert row_stride_for(256) == 768
    assert row_stride_for(1) == 4


def test_tiny_image_file_size():
    img = make_test_image("constant-color", 2, 2)
    data = serialize_bmp(img)
    assert len(data) == 70  # 54-byte header + 2 rows of 8-byte stride


def test_200x200_pixel_array_length():
    img = make_test_image("constant-color", 200, 200)
    assert len(img.pixels) == 200 * 600 == 120_000


def test_parse_serialize_roundtrip_on_random_images():
    rng = random.Random(60)
    for _ in range(100):
        w, h = rng.randrange(1, 40), rng.randrange(1, 40)
        original = make_test_image("gradient", w, h)
        # randomize the pixel payload to cover arbitrary content
        original.pixels = rng.randbytes(h * original.row_stride)
        data = serialize_bmp(original)
        parsed = parse_bmp(data)
        assert parsed == original
        assert serialize_bmp(parsed) == data


def test_header_preserved_verbatim():
    img = make_test_image("two-zone", 16, 16)
    data = serialize_bmp(img)
    assert parse_bmp(data).header == data[:54]


def test_parse_rejects_bad_magic():
    data = bytearray(serialize_bmp(make_test_image("constant-color", 4, 4)))
    data[0:2] = b"PM"
    with pytest.raises(BmpMagicError):
        parse_bmp(bytes(data))


def test_parse_rejects_wrong_depth():
    data = bytearray(serialize_bmp(make_test_image("constant-color", 4, 4)))
    data[28:30] = (8).to_bytes(2, "little")
    with pytest.raises(BmpUnsupportedError):
        parse_bmp(bytes(data))


def test_parse_rejects_compression():
    data = bytearray(serialize_bmp(make_test_image("constant-color", 4, 4)))
    data[30:34] = (1).to_bytes(4, "little")
    with pytest.raises(BmpUnsupportedError):
        parse_bmp(bytes(data))


def test_parse_rejects_truncation():
    data = serialize_bmp(make_test_image("constant-color", 4, 4))
    with pytest.raises(BmpTruncatedError):
        parse_bmp(data[:-1])
    with pytest.raises(BmpTruncatedError):
        parse_bmp(data[:20])


def test_parse_rejects_trailing_bytes():
    data = serialize_bmp(make_test_image("constant-color", 4, 4))
    with pytest.raises(BmpUnsupportedError):
        parse_bmp(data + b"\x00")


def test_serialize_validates_structure():
    img = make_test_image("constant-color", 4, 4)
    img.pixels = img.pixels[:-1]
    with pytest.raises(ValueError):
        serialize_bmp(img)


# ---------------------------------------------------------------------------
# Parser fuzz: any input parses to a BmpImage that serializes back to the
# same bytes, or raises BmpError; nothing else escapes.

def _parse_or_reject(data):
    try:
        img = parse_bmp(data)
    except BmpError:
        return
    assert isinstance(img, BmpImage)
    assert serialize_bmp(img) == data


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.one_of(st.binary(max_size=200),
                 st.binary(min_size=52, max_size=200).map(lambda b: b"BM" + b)))
def test_parse_fuzz_arbitrary_bytes(data):
    _parse_or_reject(data)


# (offset, size) of the header fields parse_bmp checks
_HEADER_FIELDS = {"magic": (0, 2), "pixel_offset": (10, 4), "dib_size": (14, 4),
                  "width": (18, 4), "height": (22, 4), "depth": (28, 2),
                  "compression": (30, 4)}


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    width=st.integers(1, 12),
    height=st.integers(1, 12),
    filler=st.binary(min_size=HEADER_SIZE, max_size=HEADER_SIZE),
    broken=st.dictionaries(st.sampled_from(sorted(_HEADER_FIELDS)),
                           st.integers(0, (1 << 32) - 1), max_size=2),
    extra=st.integers(-5, 5),
    pixel_byte=st.integers(0, 255),
)
def test_parse_fuzz_structured_headers(width, height, filler, broken, extra, pixel_byte):
    # a valid header with random bytes in the fields parse_bmp ignores,
    # up to two checked fields overwritten, and a pixel array within a
    # few bytes of the valid length
    h = bytearray(filler)
    h[0:2] = b"BM"
    h[10:14] = HEADER_SIZE.to_bytes(4, "little")
    h[14:18] = (40).to_bytes(4, "little")
    h[18:22] = width.to_bytes(4, "little")
    h[22:26] = height.to_bytes(4, "little")
    h[28:30] = (24).to_bytes(2, "little")
    h[30:34] = bytes(4)
    for name, value in broken.items():
        at, size = _HEADER_FIELDS[name]
        h[at:at + size] = (value % (1 << 8 * size)).to_bytes(size, "little")
    n_pixels = max(0, row_stride_for(width) * height + extra)
    _parse_or_reject(bytes(h) + bytes([pixel_byte]) * n_pixels)


# ---------------------------------------------------------------------------
# Synthetic patterns

def test_constant_image_is_uniform():
    img = make_test_image("constant-color", 200, 200)
    assert len(set(img.pixels)) == 1


def test_two_zone_has_exactly_two_block_values():
    img = make_test_image("two-zone", 200, 200)
    blocks = distinct_blocks(img.pixels)
    assert len(blocks) == 2


def test_gradient_rows_cover_all_blue_values():
    img = make_test_image("gradient", 256, 4)
    stride = img.row_stride
    for y in range(4):
        row = img.pixels[y * stride:y * stride + 256 * 3]
        blues = {row[3 * x] for x in range(256)}
        assert len(blues) == 256


def test_single_object_has_two_gray_levels():
    img = make_test_image("single-object-on-plain-background", 64, 64)
    row_bytes = 64 * 3
    seen = set()
    for y in range(64):
        seen |= set(img.pixels[y * img.row_stride:y * img.row_stride + row_bytes])
    assert len(seen) == 2


def test_make_test_image_rejects_bad_input():
    with pytest.raises(ValueError):
        make_test_image("plaid", 8, 8)
    # each pattern has one spelling
    for name in ("single-object", "Gradient"):
        with pytest.raises(ValueError, match=f"unknown pattern '{name}'"):
            make_test_image(name, 8, 8)
    with pytest.raises(ValueError):
        make_test_image("gradient", 0, 8)


def test_bmp_image_equality_is_structural():
    a = make_test_image("constant-color", 8, 8)
    b = make_test_image("constant-color", 8, 8)
    assert a == b and a is not b
    assert isinstance(a, BmpImage)
