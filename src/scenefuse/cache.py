"""Feature cache files (magic ``HDFC``).

An ``HDFC`` file holds one labelled, stamped path per matrix row.

Each row of an (N, dim) float32 matrix is stored with a label, an image
path and that image's stamp: its size and ``mtime_ns`` when its features
were taken. Little-endian layout::

    "HDFC"              4 bytes magic
    version             u32 (currently 2)
    feature dim         u32
    record count        u32
    per record:
        label id        u32
        path length     u32
        image size      u64
        image mtime_ns  i64
        path            UTF-8 bytes
        values          dim x f32

Version 1 had no stamps; such a file raises CacheVersionError. A cache is
written through ``binfile.write_file``: under a temporary name, then renamed
over the target, so features and their stamps are replaced together.
"""

from __future__ import annotations

import struct

import numpy as np

from .binfile import BoundedReader, write_file

MAGIC = b"HDFC"
FORMAT_VERSION = 2


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


def save_cache(path: str, labels, paths, stamps, matrix: np.ndarray) -> None:
    """Write each row of `matrix`, from its buffer, with its label, path and
    (size, mtime_ns) stamp."""
    matrix = np.ascontiguousarray(matrix, dtype="<f4")
    if matrix.ndim != 2 or not len(labels) == len(paths) == len(stamps) == matrix.shape[0]:
        raise CacheDimensionError(f"{len(labels)} labels, {len(paths)} paths and "
                                  f"{len(stamps)} stamps for a matrix of shape "
                                  f"{matrix.shape}; need one per row")

    def chunks():
        yield MAGIC + struct.pack("<III", FORMAT_VERSION, matrix.shape[1], matrix.shape[0])
        for label, rec_path, (size, mtime_ns), row in zip(labels, paths, stamps, matrix):
            encoded = rec_path.encode("utf-8")
            yield struct.pack("<IIQq", int(label), len(encoded), size, mtime_ns) + encoded
            yield row

    write_file(path, chunks())


def load_cache(path: str, expect_dim: int | None = None):
    """Read a feature cache straight from the file; returns (labels, paths,
    stamps, matrix).

    `labels` is an (N,) integer array, `paths` a list of N strings, `stamps`
    a list of N (size, mtime_ns) tuples and `matrix` an (N, dim) float32
    array. Passing `expect_dim` turns a dimension mismatch into
    :class:`CacheDimensionError` at load time.
    """
    with open(path, "rb") as fh:
        rd = BoundedReader(fh, path, CacheTruncatedError, "cache")
        magic = rd.take(4, "magic")
        if magic != MAGIC:
            raise CacheBadMagicError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        version, dim, count = rd.unpack("<III", "header")
        if version != FORMAT_VERSION:
            raise CacheVersionError(f"{path}: cache version {version}, this build reads "
                                    f"version {FORMAT_VERSION}; extract the features again")
        if expect_dim is not None and dim != expect_dim:
            raise CacheDimensionError(f"{path}: cache dim {dim}, expected {expect_dim}")
        # every record holds at least its 24-byte header and its values
        rd.need(count * (24 + 4 * dim), f"{count} records")
        labels, paths, stamps = np.empty(count, np.intp), [], []
        matrix = np.empty((count, dim), "<f4")
        for i in range(count):
            labels[i], path_len, *stamp = rd.unpack("<IIQq", f"record {i} header")
            stamps.append(tuple(stamp))
            try:
                paths.append(rd.take(path_len, f"record {i} path").decode("utf-8"))
            except UnicodeDecodeError:
                raise CacheFileError(f"{path}: record {i} path is not UTF-8") from None
            rd.read_into(matrix[i], f"record {i} values")
        if rd.left:
            raise CacheFileError(f"{path}: {rd.left} trailing bytes after last record")
    return labels, paths, stamps, matrix
