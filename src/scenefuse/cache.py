"""Feature cache files (magic ``HDFC``).

Little-endian layout::

    "HDFC"              4 bytes magic
    version             u32 (currently 1)
    feature dim         u32
    record count        u32
    per record:
        label id        u32
        path length     u32
        path            UTF-8 bytes
        values          dim x f32
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

MAGIC = b"HDFC"
FORMAT_VERSION = 1


class CacheFileError(ValueError):
    """Base class for feature-cache file problems."""


class CacheBadMagicError(CacheFileError):
    pass


class CacheTruncatedError(CacheFileError):
    pass


class CacheVersionError(CacheFileError):
    pass


class CacheDimensionError(CacheFileError):
    """Cache feature dimension differs from what the consumer expects."""


@dataclass(frozen=True)
class FeatureRecord:
    label: int
    path: str
    values: np.ndarray  # (dim,) float32


def save_cache(path: str, dim: int, records) -> None:
    records = list(records)
    parts = [MAGIC, struct.pack("<III", FORMAT_VERSION, dim, len(records))]
    for rec in records:
        values = np.ascontiguousarray(rec.values, dtype="<f4")
        if values.shape != (dim,):
            raise CacheDimensionError(
                f"record {rec.path!r} has {values.shape} values, cache dim is {dim}"
            )
        encoded = rec.path.encode("utf-8")
        parts.append(struct.pack("<II", int(rec.label), len(encoded)))
        parts.append(encoded)
        parts.append(values.tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))


def load_cache(path: str, expect_dim: int | None = None) -> tuple[int, list[FeatureRecord]]:
    """Read a feature cache; returns (dim, records).

    Passing `expect_dim` turns a dimension mismatch into
    :class:`CacheDimensionError` at load time.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    pos = 0

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if pos + n > len(data):
            raise CacheTruncatedError(
                f"{path}: truncated cache while reading {what} at offset {pos}"
            )
        chunk = data[pos : pos + n]
        pos += n
        return chunk

    if take(4, "magic") != MAGIC:
        raise CacheBadMagicError(f"{path}: bad magic {data[:4]!r}, expected {MAGIC!r}")
    version, dim, count = struct.unpack("<III", take(12, "header"))
    if version != FORMAT_VERSION:
        raise CacheVersionError(f"{path}: unsupported cache version {version}")
    if expect_dim is not None and dim != expect_dim:
        raise CacheDimensionError(f"{path}: cache dim {dim}, expected {expect_dim}")
    records = []
    for i in range(count):
        label, path_len = struct.unpack("<II", take(8, f"record {i} header"))
        try:
            rec_path = take(path_len, f"record {i} path").decode("utf-8")
        except UnicodeDecodeError:
            raise CacheFileError(f"{path}: record {i} path is not UTF-8") from None
        values = np.frombuffer(take(4 * dim, f"record {i} values"), dtype="<f4").copy()
        records.append(FeatureRecord(label=int(label), path=rec_path, values=values))
    if pos != len(data):
        raise CacheFileError(f"{path}: {len(data) - pos} trailing bytes after last record")
    return dim, records
