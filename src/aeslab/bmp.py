"""Minimal 24-bit BMP codec and synthetic test-image generation.

Supported subset: uncompressed 24-bit bitmaps with a 54-byte header
(BITMAPFILEHEADER + BITMAPINFOHEADER), positive dimensions, pixel data
starting at offset 54, and no trailing bytes.  Rows are padded to a
4-byte boundary; pixel bytes are stored B, G, R.
"""

from dataclasses import dataclass

HEADER_SIZE = 54


class BmpError(ValueError):
    pass


class BmpMagicError(BmpError):
    """File does not start with the 'BM' signature."""


class BmpUnsupportedError(BmpError):
    """Structurally valid BMP outside the supported subset."""


class BmpTruncatedError(BmpError):
    """File ends before the declared pixel array does."""


@dataclass
class BmpImage:
    header: bytes  # the raw 54 header bytes, preserved verbatim
    width: int
    height: int
    row_stride: int
    pixels: bytes  # height * row_stride bytes, bottom-up rows


def row_stride_for(width: int) -> int:
    return (width * 3 + 3) & ~3


def parse_bmp(data: bytes) -> BmpImage:
    if len(data) < HEADER_SIZE:
        raise BmpTruncatedError(
            f"file is {len(data)} bytes, shorter than the {HEADER_SIZE}-byte header"
        )
    if data[0:2] != b"BM":
        raise BmpMagicError("missing 'BM' signature")
    pixel_offset = int.from_bytes(data[10:14], "little")
    dib_size = int.from_bytes(data[14:18], "little")
    if dib_size != 40 or pixel_offset != HEADER_SIZE:
        raise BmpUnsupportedError(
            f"need a 40-byte info header and pixel data at offset {HEADER_SIZE}"
        )
    width = int.from_bytes(data[18:22], "little", signed=True)
    height = int.from_bytes(data[22:26], "little", signed=True)
    bits_per_pixel = int.from_bytes(data[28:30], "little")
    compression = int.from_bytes(data[30:34], "little")
    if bits_per_pixel != 24:
        raise BmpUnsupportedError(f"unsupported bit depth {bits_per_pixel}")
    if compression != 0:
        raise BmpUnsupportedError(f"compressed bitmaps not supported (type {compression})")
    if width <= 0 or height <= 0:
        raise BmpUnsupportedError(f"unsupported dimensions {width}x{height}")
    stride = row_stride_for(width)
    expected = HEADER_SIZE + stride * height
    if len(data) < expected:
        raise BmpTruncatedError(
            f"pixel array needs {expected - HEADER_SIZE} bytes, file holds {len(data) - HEADER_SIZE}"
        )
    if len(data) > expected:
        raise BmpUnsupportedError(f"{len(data) - expected} trailing bytes after pixel array")
    return BmpImage(data[:HEADER_SIZE], width, height, stride, data[HEADER_SIZE:])


def serialize_bmp(img: BmpImage) -> bytes:
    if len(img.header) != HEADER_SIZE:
        raise ValueError(f"header must be {HEADER_SIZE} bytes")
    if len(img.pixels) != img.height * img.row_stride:
        raise ValueError("pixel array does not match height * row_stride")
    return img.header + img.pixels


def _make_header(width: int, height: int) -> bytes:
    stride = row_stride_for(width)
    image_size = stride * height
    h = bytearray(HEADER_SIZE)
    h[0:2] = b"BM"
    h[2:6] = (HEADER_SIZE + image_size).to_bytes(4, "little")
    h[10:14] = HEADER_SIZE.to_bytes(4, "little")
    h[14:18] = (40).to_bytes(4, "little")
    h[18:22] = width.to_bytes(4, "little")
    h[22:26] = height.to_bytes(4, "little")
    h[26:28] = (1).to_bytes(2, "little")   # planes
    h[28:30] = (24).to_bytes(2, "little")  # bits per pixel
    h[34:38] = image_size.to_bytes(4, "little")
    h[38:42] = (2835).to_bytes(4, "little")  # 72 dpi
    h[42:46] = (2835).to_bytes(4, "little")
    return bytes(h)


TEST_PATTERNS = (
    "constant-color",
    "two-zone",
    "gradient",
    "single-object-on-plain-background",
)

# Gray levels keep B = G = R, so uniform zones tile into identical
# 16-byte blocks regardless of the 3-byte pixel period.
_CONSTANT_GRAY = 0x90
_ZONE_GRAYS = (0x40, 0xB0)
_BACKGROUND_GRAY = 0xC8
_OBJECT_GRAY = 0x32


def make_test_image(pattern: str, width: int, height: int) -> BmpImage:
    """Deterministic synthetic image for the leakage experiments."""
    if width <= 0 or height <= 0:
        raise ValueError(f"dimensions must be positive, got {width}x{height}")
    stride = row_stride_for(width)
    # The header stores the file size in 4 bytes; check before building pixels.
    if HEADER_SIZE + stride * height >= 2**32:
        raise ValueError(f"a {width}x{height} bitmap does not fit in a BMP file (4 GiB limit)")

    if pattern == "constant-color":
        pixels = bytes([_CONSTANT_GRAY]) * (stride * height)
    elif pattern == "two-zone":
        top = bytes([_ZONE_GRAYS[0]]) * stride
        bottom = bytes([_ZONE_GRAYS[1]]) * stride
        split = height // 2
        # rows are stored bottom-up; visually the first zone is on top
        pixels = bottom * (height - split) + top * split
    elif pattern == "gradient":
        rows = []
        for y in range(height):
            row = bytearray(stride)
            for x in range(width):
                row[3 * x] = x & 0xFF
                row[3 * x + 1] = y & 0xFF
                row[3 * x + 2] = (x + y) & 0xFF
            rows.append(bytes(row))
        pixels = b"".join(rows)
    elif pattern == "single-object-on-plain-background":
        x0, x1 = width // 4, 3 * width // 4
        y0, y1 = height // 4, 3 * height // 4
        bg_row = bytes([_BACKGROUND_GRAY]) * stride
        object_row = bytearray(bg_row)
        for x in range(x0, x1):
            object_row[3 * x:3 * x + 3] = bytes([_OBJECT_GRAY]) * 3
        object_row = bytes(object_row)
        rows = [object_row if y0 <= y < y1 else bg_row for y in range(height)]
        pixels = b"".join(rows)
    else:
        raise ValueError(f"unknown pattern {pattern!r}")

    return BmpImage(_make_header(width, height), width, height, stride, pixels)
