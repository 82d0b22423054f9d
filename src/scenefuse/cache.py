"""Feature cache files (magic ``HDFC``), read straight from the open file.

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

import os
import struct
from dataclasses import dataclass

import numpy as np

from .binfile import BoundedReader

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
    """Write a feature cache under a temporary name, then rename it over
    `path`: an interrupted write leaves the previous file, or none. Every
    record is checked first, and its values are written from their buffer."""
    records = list(records)
    fields = [MAGIC, struct.pack("<III", FORMAT_VERSION, dim, len(records))]
    for rec in records:
        values = np.ascontiguousarray(rec.values, dtype="<f4")
        if values.shape != (dim,):
            raise CacheDimensionError(
                f"record {rec.path!r} has {values.shape} values, cache dim is {dim}"
            )
        encoded = rec.path.encode("utf-8")
        fields += [struct.pack("<II", int(rec.label), len(encoded)) + encoded, values]
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for field in fields:
                fh.write(field)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_cache(path: str, expect_dim: int | None = None) -> tuple[int, list[FeatureRecord]]:
    """Read a feature cache straight from the file; returns (dim, records).

    Passing `expect_dim` turns a dimension mismatch into
    :class:`CacheDimensionError` at load time.
    """
    with open(path, "rb") as fh:
        rd = BoundedReader(fh, path, CacheTruncatedError, "cache")
        magic = rd.take(4, "magic")
        if magic != MAGIC:
            raise CacheBadMagicError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        version, dim, count = rd.unpack("<III", "header")
        if version != FORMAT_VERSION:
            raise CacheVersionError(f"{path}: unsupported cache version {version}")
        if expect_dim is not None and dim != expect_dim:
            raise CacheDimensionError(f"{path}: cache dim {dim}, expected {expect_dim}")
        records = []
        for i in range(count):
            label, path_len = rd.unpack("<II", f"record {i} header")
            try:
                rec_path = rd.take(path_len, f"record {i} path").decode("utf-8")
            except UnicodeDecodeError:
                raise CacheFileError(f"{path}: record {i} path is not UTF-8") from None
            values = rd.f32s(dim, f"record {i} values")
            records.append(FeatureRecord(label=label, path=rec_path, values=values))
        if rd.left:
            raise CacheFileError(f"{path}: {rd.left} trailing bytes after last record")
    return dim, records
