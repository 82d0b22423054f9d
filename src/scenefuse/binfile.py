"""The package's file access: every JSON file is read by `read_json`, every
file is written by `write_file`, and `BoundedReader` is the one reader
behind the HDFW, HDFC and HDFM loaders. Only this module and `imageio`,
which parses Netpbm images, read files themselves.

`BoundedReader` reads straight from the open file. A field's length is
checked against the bytes left before anything is allocated, so a
corrupted length never sizes an allocation, and arrays are read into their
final buffer. numpy loads only in `f32s`, so that the command line can read
its config file before ``--threads`` pins the BLAS pools.
"""

from __future__ import annotations

import json
import os
import struct


def read_json(path: str, error: type[Exception]) -> dict:
    """The JSON object in the UTF-8 file at `path`. Undecodable bytes, bad JSON (NaN and
    the infinities too) or a value that is not an object raise `error`; OSError passes."""
    with open(path, "rb") as fh:
        data = fh.read()

    def no_number(constant):  # json.loads takes NaN, Infinity and -Infinity by default
        raise ValueError(f"{constant} is not a JSON number")
    try:
        doc = json.loads(data.decode("utf-8"), parse_constant=no_number)
    except ValueError as exc:  # JSON and UTF-8 decoding errors alike
        raise error(f"{path}: not a JSON object: {exc}") from None
    if not isinstance(doc, dict):
        raise error(f"{path}: not a JSON object")
    return doc


def write_file(path: str, chunks) -> None:
    """Write each bytes-like chunk to a temporary file, then rename it over
    `path`: an interrupted write leaves the previous file, or none."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_json(path: str, doc) -> None:
    """Write `doc` as indented, key-sorted JSON ending in a newline; NaN raises ValueError."""
    write_file(path, [json.dumps(doc, indent=2, sort_keys=True, allow_nan=False).encode(), b"\n"])


class BoundedReader:
    """Consecutive fields of an open file; `truncated` is raised past its end."""

    def __init__(self, fh, path: str, truncated: type[Exception], noun: str):
        self.fh, self.path, self.truncated, self.noun = fh, path, truncated, noun
        self.size = self.left = os.fstat(fh.fileno()).st_size

    def _check(self, n: int, what: str, have: int) -> None:
        if n > have:  # also when the file shrank after it was opened
            raise self.truncated(
                f"{self.path}: truncated {self.noun} while reading {what} "
                f"(need {n} bytes at offset {self.size - self.left}, have {have})")

    def need(self, n: int, what: str) -> None:
        """Check that at least `n` bytes are left, before they size an allocation."""
        self._check(n, what, self.left)

    def take(self, n: int, what: str) -> bytes:
        self.need(n, what)
        data = self.fh.read(n)
        self._check(n, what, len(data))
        self.left -= n
        return data

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def f32s(self, count: int, what: str) -> np.ndarray:
        """`count` little-endian float32 values, read into a fresh array."""
        import numpy as np

        self.need(4 * count, what)
        return self.read_into(np.empty(count, dtype="<f4"), what)

    def read_into(self, out: np.ndarray, what: str) -> np.ndarray:
        """Fill the C-contiguous array `out` with the next `out.nbytes` bytes."""
        self._check(out.nbytes, what, self.fh.readinto(out))
        self.left -= out.nbytes
        return out
