"""Sub-image generation: five slicing techniques, four slices each.

A 224x224 working image is cut into 20 sub-images: rectangular quadrants,
triangles split by the two main diagonals, quadrant sectors of the
inscribed disc, and bands parallel to each diagonal. Masks come first
(boolean grids plus tight bounding boxes); rendering composites the fill
colour into masked-out pixels inside the bounding box and resizes the
crop back to 224x224. The 20 masks of a working size are built once and
shared, so every mask array is read-only.

Boundary and tie-break rules are normative here. On a size x size grid
(size even and >= 4) with row r, column c, h = size/2, n = size - 1,
d = c - r and s = r + c, the four slices of each technique are, in index
order:

- rect: quadrants top-left, top-right, bottom-left, bottom-right, where a
  pixel is top when r < h and left when c < h.
- tri: triangles top, right, bottom, left cut by the two main diagonals:
  a pixel belongs to top if d >= 0 and s < n, right if d > 0 and s >= n,
  bottom if d <= 0 and s > n, left if d < 0 and s <= n.
- circ: rect quadrant k intersected with the inscribed disc, which has
  radius h around the grid centre (n/2 in both axes); a pixel is
  inside when its centre lies strictly within the radius. Pixels outside
  the disc belong to no circular slice.
- ldiag: bands parallel to the main (top-left to bottom-right) diagonal,
  d in [-n, -h), [-h, 0), [0, h), [h, n].
- rdiag: bands parallel to the anti (top-right to bottom-left) diagonal,
  s in [0, h), [h, n), [n, n + h), [n + h, 2n].

The half-open conditions make the rect, tri, ldiag and rdiag mask sets
each an exact partition of the pixel grid, and the circ masks exactly
tile the inscribed disc.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .resize import bilinear_resize

WORKING_SIZE = 224
OUTPUT_SIZE = 224
TECHNIQUES = ("rect", "tri", "circ", "ldiag", "rdiag")


@dataclass(frozen=True)
class SliceMask:
    """One slice's pixel mask with provenance and a tight bounding box."""

    technique: str
    index: int
    mask: np.ndarray  # bool, (size, size), read-only
    bbox: tuple[int, int, int, int]  # top, left, height, width


def _tight_bbox(mask: np.ndarray) -> tuple[int, int, int, int]:
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    if rows.size == 0:
        raise ValueError("mask has no true pixels")
    top, bottom = int(rows[0]), int(rows[-1])
    left, right = int(cols[0]), int(cols[-1])
    return top, left, bottom - top + 1, right - left + 1


@lru_cache(maxsize=8)
def all_masks(size: int = WORKING_SIZE) -> tuple[SliceMask, ...]:
    """All 20 masks in fixed order: rect 0-3, tri 0-3, circ 0-3, ldiag 0-3, rdiag 0-3.

    Built once per size; every call with that size returns the same tuple.
    """
    if size < 4 or size % 2:
        raise ValueError(f"working size must be even and >= 4, got {size}")
    rr, cc = np.indices((size, size))
    h, n = size // 2, size - 1
    d, s = cc - rr, rr + cc
    top, left = rr < h, cc < h
    centre = n / 2.0
    # from one column and one row: only the sum is a full float grid
    disc = (rr[:, :1] - centre) ** 2 + (cc[:1] - centre) ** 2 < (size / 2.0) ** 2
    rect = [top & left, top & ~left, ~top & left, ~top & ~left]
    table = {
        "rect": rect,
        "tri": [(d >= 0) & (s < n), (d > 0) & (s >= n), (d <= 0) & (s > n), (d < 0) & (s <= n)],
        "circ": [disc & quadrant for quadrant in rect],
        "ldiag": [d < -h, (d >= -h) & (d < 0), (d >= 0) & (d < h), d >= h],
        "rdiag": [s < h, (s >= h) & (s < n), (s >= n) & (s < n + h), s >= n + h],
    }
    masks = []
    for technique in TECHNIQUES:
        for index, mask in enumerate(table[technique]):
            mask.setflags(write=False)
            masks.append(SliceMask(technique, index, mask, _tight_bbox(mask)))
    return tuple(masks)


def render_slice(source: np.ndarray, slice_mask: SliceMask, fill) -> np.ndarray:
    """Render one slice: fill masked-out bbox pixels, crop, resize to 224x224.

    Args:
        source: channel-major image, shape (3, S, S), pixel-intensity units.
        slice_mask: mask whose grid matches the source size.
        fill: 3 per-channel fill values for pixels inside the bounding box
            but outside the mask. Rectangular masks have no such pixels.

    Returns:
        The rendered slice, float32 of shape (3, OUTPUT_SIZE, OUTPUT_SIZE).
    """
    source = np.asarray(source, dtype=np.float32)
    if source.ndim != 3 or source.shape[0] != 3:
        raise ValueError(f"source must be (3, S, S), got {source.shape}")
    if source.shape[1:] != slice_mask.mask.shape:
        raise ValueError(
            f"mask grid {slice_mask.mask.shape} does not match source {source.shape[1:]}"
        )
    if not slice_mask.mask.any():
        raise ValueError("cannot render an empty mask")
    fill = np.asarray(fill, dtype=np.float32)
    if fill.shape != (3,):
        raise ValueError(f"fill must be 3 values, got shape {fill.shape}")

    top, left, height, width = slice_mask.bbox
    crop = source[:, top : top + height, left : left + width]
    local = slice_mask.mask[top : top + height, left : left + width]
    composited = np.where(local[None, :, :], crop, fill[:, None, None])
    return bilinear_resize(composited, OUTPUT_SIZE, OUTPUT_SIZE)
