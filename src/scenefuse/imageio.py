"""Minimal Netpbm (PPM/PGM) reading and writing.

Only binary P5 (graymap) and P6 (pixmap) with maxval 255 are supported;
that keeps the package free of image-codec dependencies. Other formats
must be converted before ingestion.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .binfile import write_file

IMAGE_EXTENSIONS = (".ppm", ".pgm")


class NetpbmError(ValueError):
    """Raised for malformed or unsupported Netpbm files."""


def _read_tokens(path: str, data: bytes, count: int, pos: int) -> tuple[list[bytes], int]:
    """Read `count` whitespace-separated header tokens, skipping # comments."""
    tokens: list[bytes] = []
    n = len(data)
    while len(tokens) < count:
        while pos < n and data[pos : pos + 1].isspace():
            pos += 1
        if pos >= n:
            raise NetpbmError(f"{path}: truncated header")
        if data[pos : pos + 1] == b"#":
            while pos < n and data[pos] not in (0x0A, 0x0D):
                pos += 1
            continue
        start = pos
        while pos < n and not data[pos : pos + 1].isspace():
            pos += 1
        tokens.append(data[start:pos])
    # exactly one whitespace byte separates the header from the raster
    if pos >= n:
        raise NetpbmError(f"{path}: truncated file: no raster data")
    pos += 1
    return tokens, pos


def _parse_netpbm(path: str, data: bytes, magic: bytes, channels: int) -> np.ndarray:
    if data[:2] != magic:
        raise NetpbmError(f"{path}: expected {magic.decode()} magic, got {data[:2]!r}")
    tokens, pos = _read_tokens(path, data, 3, 2)
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError:
        raise NetpbmError(f"{path}: non-numeric header fields {tokens!r}") from None
    if width < 1 or height < 1:
        raise NetpbmError(f"{path}: invalid dimensions {width}x{height}")
    if maxval != 255:
        raise NetpbmError(f"{path}: only maxval 255 supported, got {maxval}")
    expected = width * height * channels
    raster = data[pos : pos + expected]
    if len(raster) != expected:
        raise NetpbmError(f"{path}: raster truncated ({len(raster)} of {expected} bytes)")
    arr = np.frombuffer(raster, dtype=np.uint8)
    if channels == 1:
        return arr.reshape(height, width)
    return arr.reshape(height, width, channels)


def read_raster(path: str) -> np.ndarray:
    """Read a PPM or PGM into its (H, W, 3) uint8 pixels, possibly read-only.

    Graymaps are replicated across the three channels.
    """
    data = Path(path).read_bytes()
    head = data[:2]
    if head == b"P6":
        return _parse_netpbm(path, data, head, 3)
    if head == b"P5":
        return np.repeat(_parse_netpbm(path, data, head, 1)[:, :, None], 3, axis=2)
    raise NetpbmError(f"{path}: not a binary PPM/PGM file (magic {head!r})")


def _write_netpbm(path: str, magic: bytes, arr: np.ndarray) -> None:
    header = b"%s\n%d %d\n255\n" % (magic, arr.shape[1], arr.shape[0])
    write_file(path, [header, np.ascontiguousarray(arr, dtype=np.uint8)])


def write_pgm(path: str, arr: np.ndarray) -> None:
    """Write a (H, W) array as binary PGM (P5); values clipped to [0, 255]."""
    if arr.ndim != 2:
        raise NetpbmError(f"PGM needs a 2-D array, got shape {arr.shape}")
    _write_netpbm(path, b"P5", np.clip(np.round(arr), 0, 255))


def write_ppm(path: str, arr: np.ndarray) -> None:
    """Write a (H, W, 3) array as binary PPM (P6); values clipped to [0, 255]."""
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise NetpbmError(f"PPM needs a (H, W, 3) array, got shape {arr.shape}")
    _write_netpbm(path, b"P6", np.clip(np.round(arr), 0, 255))
