"""Weight bundles and their on-disk format.

A bundle holds the per-conv-layer parameters of one pretrained trunk plus
the per-channel input means used for preprocessing. Files use a small
custom binary layout (magic ``HDFW``) so the engine has zero external
model-format dependencies; converting real pretrained checkpoints into
this format is external tooling. :func:`load_weights` reads straight
from the open file, each array into its final buffer.

File layout, little-endian, no padding between fields::

    "HDFW"                      4 bytes magic
    format version              u32 (currently 1)
    channel means               3 x f32
    entry count                 u32
    per entry:
        name length             u32
        name                    UTF-8 bytes
        kernel dims             4 x u32  (out, in, kh, kw)
        kernel data             prod(dims) x f32
        bias dim                u32
        bias data               dim x f32
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .binfile import BoundedReader, write_file
from .engine import conv_channels

MAGIC = b"HDFW"
FORMAT_VERSION = 1


class WeightFileError(ValueError):
    """Base class for weight-file problems."""


class BadMagicError(WeightFileError):
    """File does not start with the HDFW magic."""


class TruncatedFileError(WeightFileError):
    """File ends before the declared content (including missing entries)."""


class ShapeError(WeightFileError):
    """Declared dimensions are inconsistent or unsupported."""


@dataclass(frozen=True)
class ConvEntry:
    name: str
    kernel: np.ndarray  # (out, in, 3, 3) float32
    bias: np.ndarray  # (out,) float32


@dataclass(frozen=True)
class WeightBundle:
    """Ordered conv-layer parameters plus preprocessing channel means."""

    entries: tuple[ConvEntry, ...]
    means: np.ndarray  # (3,) float32, pixel-intensity units


def save_weights(bundle: WeightBundle, path: str) -> None:
    """Write a bundle in HDFW format; round-trips bit-identically. Every
    entry is checked before the file is opened, and arrays are written
    from their own buffers."""
    means = np.asarray(bundle.means, dtype="<f4")
    if means.shape != (3,):
        raise ShapeError(f"means must be 3 floats, got shape {means.shape}")
    fields = [MAGIC, struct.pack("<I", FORMAT_VERSION), means,
              struct.pack("<I", len(bundle.entries))]
    for entry in bundle.entries:
        kernel = np.ascontiguousarray(entry.kernel, dtype="<f4")
        bias = np.ascontiguousarray(entry.bias, dtype="<f4")
        if kernel.ndim != 4:
            raise ShapeError(f"entry {entry.name!r}: kernel must be 4-D, got {kernel.shape}")
        if bias.ndim != 1 or bias.shape[0] != kernel.shape[0]:
            raise ShapeError(
                f"entry {entry.name!r}: bias shape {bias.shape} does not match "
                f"kernel {kernel.shape}"
            )
        name = entry.name.encode("utf-8")
        fields += [struct.pack("<I", len(name)) + name + struct.pack("<4I", *kernel.shape),
                   kernel, struct.pack("<I", bias.shape[0]), bias]
    write_file(path, fields)


def load_weights(path: str) -> WeightBundle:
    """Read an HDFW file into a :class:`WeightBundle`, straight from the file.

    Raises:
        BadMagicError: wrong leading magic bytes.
        TruncatedFileError: file shorter than its header declares.
        ShapeError: inconsistent declared dimensions or bad version.
    """
    with open(path, "rb") as fh:
        rd = BoundedReader(fh, path, TruncatedFileError, "bundle")
        magic = rd.take(4, "magic")
        if magic != MAGIC:
            raise BadMagicError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        (version,) = rd.unpack("<I", "format version")
        if version != FORMAT_VERSION:
            raise ShapeError(f"{path}: unsupported format version {version}")
        means = rd.f32s(3, "channel means")
        (count,) = rd.unpack("<I", "entry count")
        entries = []
        for i in range(count):
            (name_len,) = rd.unpack("<I", f"entry {i} name length")
            try:
                name = rd.take(name_len, f"entry {i} name").decode("utf-8")
            except UnicodeDecodeError:
                raise WeightFileError(f"{path}: entry {i} name is not UTF-8") from None
            dims = rd.unpack("<4I", f"entry {i} kernel dims")
            if any(d < 1 for d in dims):
                raise ShapeError(f"{path}: entry {i} ({name}) has zero kernel dim {dims}")
            # Python ints: np.prod would wrap a huge declared size to a small one
            kernel = rd.f32s(math.prod(dims), f"entry {i} kernel data").reshape(dims)
            (bias_dim,) = rd.unpack("<I", f"entry {i} bias dim")
            if bias_dim != dims[0]:
                raise ShapeError(
                    f"{path}: entry {i} ({name}) bias dim {bias_dim} != kernel out "
                    f"channels {dims[0]}"
                )
            bias = rd.f32s(bias_dim, f"entry {i} bias data")
            entries.append(ConvEntry(name=name, kernel=kernel, bias=bias))
        if rd.left:
            raise ShapeError(f"{path}: {rd.left} trailing bytes after last entry")
    return WeightBundle(entries=tuple(entries), means=means)


def random_bundle(spec: tuple, seed: int = 0, scale: float | None = None,
                  means=(124.0, 117.0, 104.0)) -> WeightBundle:
    """Deterministic random weights for a spec; handy for stubs and tests.

    The default scale keeps activation magnitudes roughly constant from
    layer to layer (He-style 1/sqrt(fan-in)).
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5EED]))
    entries = []
    for i, (c_in, c_out) in enumerate(conv_channels(spec)):
        s = scale if scale is not None else 1.0 / np.sqrt(c_in * 9)
        kernel = (rng.standard_normal((c_out, c_in, 3, 3)) * s)
        bias = np.zeros(c_out)
        entries.append(ConvEntry(
            name=f"conv{i}",
            kernel=kernel.astype(np.float32),
            bias=bias.astype(np.float32),
        ))
    return WeightBundle(entries=tuple(entries),
                        means=np.asarray(means, dtype=np.float32))
