"""Damaged copies of valid files, for checking that loaders fail cleanly.

A loader fed a truncated or bit-flipped file may only raise its own typed
error: never a bare ValueError, a UnicodeDecodeError, or an allocation
sized by a corrupted header. A writer whose file fills the disk midway
must leave the previous file.
"""

import errno
import json
import os
import tempfile

from hypothesis import strategies as st


def saved_bytes(save, obj) -> bytes:
    """The bytes `save(obj, path)` writes."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "file")
        save(obj, path)
        with open(path, "rb") as fh:
            return fh.read()


def load_bytes(load, content: bytes):
    """Run `load(path)` on a temporary file holding `content`."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "file")
        with open(path, "wb") as fh:
            fh.write(content)
        return load(path)


def _flip(data: bytes, flips) -> bytes:
    buf = bytearray(data)
    for index, mask in flips:
        buf[index] ^= mask
    return bytes(buf)


def corruptions(data: bytes):
    """`data` cut short at a random length, or with one to four bytes XOR-flipped."""
    truncated = st.integers(0, len(data) - 1).map(lambda n: data[:n])
    flipped = st.lists(st.tuples(st.integers(0, len(data) - 1), st.integers(1, 255)),
                       min_size=1, max_size=4).map(lambda flips: _flip(data, flips))
    return st.one_of(truncated, flipped)


# a result record's text -> damaged text; each must raise CacheFileError naming the file
RECORD_DAMAGE = {
    "truncated": lambda text: text[: len(text) // 2],
    "missing field": lambda text: json.dumps(
        {k: v for k, v in json.loads(text).items() if k != "accuracy"}),
    "other configuration": lambda text: json.dumps({**json.loads(text), "config": "OX"}),
    "C off the grid": lambda text: json.dumps({**json.loads(text), "chosen_c": 0}),
    # `True in [1, ...]` and `1.0 in [1, ...]` both hold, so each passes a membership check
    "C is true": lambda text: json.dumps({**json.loads(text), "chosen_c": True}),
    "C is 1.0": lambda text: json.dumps({**json.loads(text), "chosen_c": 1.0}),
}


class DiskFull:
    """An open file whose first write stores half its bytes, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")
