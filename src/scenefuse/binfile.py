"""The one reader behind the HDFW and HDFC loaders.

It reads straight from the open file. A field's length is checked against
the bytes left before anything is allocated, so a corrupted length never
sizes an allocation, and arrays are read into their final buffer.
"""

from __future__ import annotations

import os
import struct

import numpy as np


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
        self.need(4 * count, what)
        return self.read_into(np.empty(count, dtype="<f4"), what)

    def read_into(self, out: np.ndarray, what: str) -> np.ndarray:
        """Fill the C-contiguous array `out` with the next `out.nbytes` bytes."""
        self._check(out.nbytes, what, self.fh.readinto(out))
        self.left -= out.nbytes
        return out
