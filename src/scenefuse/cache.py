"""Feature cache files (magic ``HDFC``) and result records.

An ``HDFC`` file holds one labelled path per matrix row.

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

A record is a small JSON object: a result record holds the plain fields
of its key and the results they produced, a stamps record the images of
an ``HDFC`` cache (see ``experiment``). Every file here is written through
``binfile.write_file``: under a temporary name, then renamed over the target.
"""

from __future__ import annotations

import struct

import numpy as np

from .binfile import BoundedReader, read_json, write_file, write_json

MAGIC = b"HDFC"
FORMAT_VERSION = 1
# Bump whenever tuning, training or evaluation would give another result.
RECORD_VERSION = 1


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
    """Write each row of `matrix`, from its buffer, with its label and path."""
    matrix = np.ascontiguousarray(matrix, dtype="<f4")
    if matrix.ndim != 2 or not len(labels) == len(paths) == matrix.shape[0]:
        raise CacheDimensionError(f"{len(labels)} labels and {len(paths)} paths for a "
                                  f"matrix of shape {matrix.shape}; need one per row")

    def chunks():
        yield MAGIC + struct.pack("<III", FORMAT_VERSION, matrix.shape[1], matrix.shape[0])
        for label, rec_path, row in zip(labels, paths, matrix):
            encoded = rec_path.encode("utf-8")
            yield struct.pack("<II", int(label), len(encoded)) + encoded
            yield row

    write_file(path, chunks())


def save_record(path: str, fields: dict, results: dict) -> None:
    """Write a record: its key's plain `fields` and its `results`."""
    write_json(path, {**fields, **results})


def load_record(path: str, fields: dict, result_names) -> dict | None:
    """The results named by `result_names` of the record at `path`, or None
    if there is none. A record that does not parse, lacks a field or holds
    other `fields` than the caller's raises CacheFileError."""
    try:
        doc = read_json(path, CacheFileError)
    except FileNotFoundError:
        return None
    missing = [name for name in (*fields, *result_names) if name not in doc]
    if missing:
        raise CacheFileError(f"{path}: record lacks {', '.join(missing)}")
    differ = [name for name in fields if doc[name] != fields[name]]
    if differ:
        raise CacheFileError(f"{path}: record's {', '.join(differ)} differ from its key's")
    return {name: doc[name] for name in result_names}


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
