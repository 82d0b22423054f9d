"""Bilinear resampling with half-pixel-centered coordinate mapping.

Destination pixel centers map to source coordinates via
``src = (dst + 0.5) * (src_size / dst_size) - 0.5``, the convention used
by most image libraries' ``align_corners=False`` mode. Out-of-range
coordinates clamp to the border, so resizing a constant image yields the
same constant, and resizing to the identical size is an exact identity.

It runs as two one-axis passes, interpolating along x over as few rows as
it can. When the output has at most half the source rows, the two source
rows of each output row are gathered first and interpolated along x;
otherwise x is interpolated over the source rows and the result's rows
are gathered. Either way each output pixel is the float32
``(a*(1-wx) + b*wx)*(1-wy) + (c*(1-wx) + d*wx)*wy`` of its upper (a, b) and
lower (c, d) neighbours, bit for bit.
"""

from __future__ import annotations

import numpy as np


def _axis_coords(src_size: int, dst_size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (low index, high index, high weight) for one axis."""
    scale = src_size / dst_size
    coords = (np.arange(dst_size, dtype=np.float64) + 0.5) * scale - 0.5
    coords = np.clip(coords, 0.0, src_size - 1.0)
    lo = np.floor(coords).astype(np.intp)
    hi = np.minimum(lo + 1, src_size - 1)
    return lo, hi, (coords - lo).astype(np.float32)


def _lerp(lo: np.ndarray, hi: np.ndarray, w: np.ndarray) -> np.ndarray:
    """`lo * (1 - w) + hi * w`, computed in place; overwrites `lo` and `hi`."""
    lo *= 1.0 - w
    hi *= w
    lo += hi
    return lo


def bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Resize the last two axes of `img` to (out_h, out_w).

    Works on (H, W) grids and on channel-major (C, H, W) stacks alike.
    Returns a new C-contiguous float32 array.
    """
    if img.ndim < 2:
        raise ValueError(f"need at least 2 dimensions, got shape {img.shape}")
    if out_h < 1 or out_w < 1:
        raise ValueError(f"invalid output size {out_h}x{out_w}")
    src_h, src_w = img.shape[-2], img.shape[-1]
    if src_h < 1 or src_w < 1:
        raise ValueError(f"empty source image {src_h}x{src_w}")

    img = np.asarray(img, dtype=np.float32)
    y0, y1, wy = _axis_coords(src_h, out_h)
    x0, x1, wx = _axis_coords(src_w, out_w)

    def along_x(rows: np.ndarray) -> np.ndarray:
        return _lerp(rows.take(x0, axis=-1), rows.take(x1, axis=-1), wx)

    # take() returns fresh C-ordered copies (fancy indexing would put the
    # indexed axis outermost in memory), so every gathered array is ours
    if 2 * out_h <= src_h:
        top, bot = along_x(img.take(y0, axis=-2)), along_x(img.take(y1, axis=-2))
    else:
        cols = along_x(img)
        top, bot = cols.take(y0, axis=-2), cols.take(y1, axis=-2)
    return _lerp(top, bot, wy[:, None])
