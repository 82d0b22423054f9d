"""Feature cache files (magic ``HDFC``): one labelled path per matrix row.

Each row of an (N, dim) float32 matrix is stored with a label and an
image path. Little-endian layout::

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


def save_cache(path: str, labels, paths, matrix: np.ndarray) -> None:
    """Write each row of `matrix`, from its buffer, with its label and path.

    The file is written under a temporary name, then renamed over `path`:
    an interrupted write leaves the previous file, or none.
    """
    matrix = np.ascontiguousarray(matrix, dtype="<f4")
    if matrix.ndim != 2 or not len(labels) == len(paths) == matrix.shape[0]:
        raise CacheDimensionError(f"{len(labels)} labels and {len(paths)} paths for a "
                                  f"matrix of shape {matrix.shape}; need one per row")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC + struct.pack("<III", FORMAT_VERSION, matrix.shape[1],
                                         matrix.shape[0]))
            for label, rec_path, row in zip(labels, paths, matrix):
                encoded = rec_path.encode("utf-8")
                fh.write(struct.pack("<II", int(label), len(encoded)) + encoded)
                fh.write(row)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load_cache(path: str, expect_dim: int | None = None):
    """Read a feature cache straight from the file; returns (labels, paths, matrix).

    `labels` is an (N,) integer array, `paths` a list of N strings and
    `matrix` an (N, dim) float32 array. Passing `expect_dim` turns a
    dimension mismatch into :class:`CacheDimensionError` at load time.
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
        # every record holds at least its two u32 fields and its values
        rd.need(count * (8 + 4 * dim), f"{count} records")
        labels, paths, matrix = np.empty(count, np.intp), [], np.empty((count, dim), "<f4")
        for i in range(count):
            labels[i], path_len = rd.unpack("<II", f"record {i} header")
            try:
                paths.append(rd.take(path_len, f"record {i} path").decode("utf-8"))
            except UnicodeDecodeError:
                raise CacheFileError(f"{path}: record {i} path is not UTF-8") from None
            rd.read_into(matrix[i], f"record {i} values")
        if rd.left:
            raise CacheFileError(f"{path}: {rd.left} trailing bytes after last record")
    return labels, paths, matrix
