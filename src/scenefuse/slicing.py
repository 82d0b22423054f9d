"""Sub-image generation: five slicing techniques, four slices each.

A 224x224 working image is cut into 20 sub-images: rectangular quadrants,
triangles split by the two main diagonals, quadrant sectors of the
inscribed disc, and bands parallel to each diagonal. Masks come first
(boolean grids plus tight bounding boxes); rendering composites the fill
colour into masked-out pixels inside the bounding box and resizes the
crop back to 224x224. The 20 masks of a working size are built once and
shared, so every mask array is read-only.

Boundary and tie-break rules are normative here, chosen so that the
rectangular, triangular and both diagonal mask sets each partition the
pixel grid exactly, and the circular masks exactly tile the inscribed
disc (pixel centres strictly inside radius size/2).
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


@dataclass(frozen=True)
class SubImage:
    """A rendered slice: always 3 x OUTPUT_SIZE x OUTPUT_SIZE pixels."""

    pixels: np.ndarray  # float32, (3, 224, 224)
    technique: str
    index: int


def _tight_bbox(mask: np.ndarray) -> tuple[int, int, int, int]:
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    if rows.size == 0:
        raise ValueError("mask has no true pixels")
    top, bottom = int(rows[0]), int(rows[-1])
    left, right = int(cols[0]), int(cols[-1])
    return top, left, bottom - top + 1, right - left + 1


def _make(technique: str, masks: list[np.ndarray]) -> list[SliceMask]:
    for m in masks:
        m.setflags(write=False)
    return [
        SliceMask(technique=technique, index=i, mask=m, bbox=_tight_bbox(m))
        for i, m in enumerate(masks)
    ]


def _check_size(size: int) -> None:
    if size < 4 or size % 2:
        raise ValueError(f"working size must be even and >= 4, got {size}")


def _grids(size: int) -> tuple[np.ndarray, np.ndarray]:
    return np.indices((size, size))


def rect_slices(size: int = WORKING_SIZE) -> list[SliceMask]:
    """Four quadrant masks: top-left, top-right, bottom-left, bottom-right."""
    _check_size(size)
    rr, cc = _grids(size)
    half = size // 2
    top, left = rr < half, cc < half
    return _make("rect", [top & left, top & ~left, ~top & left, ~top & ~left])


def tri_slices(size: int = WORKING_SIZE) -> list[SliceMask]:
    """Four triangles cut by the two main diagonals: top, right, bottom, left.

    With d1 = col - row and d2 = row + col - (size - 1), a pixel belongs to
    top if d1 >= 0 and d2 < 0, right if d1 > 0 and d2 >= 0, bottom if
    d1 <= 0 and d2 > 0, left if d1 < 0 and d2 <= 0. The half-open
    conditions make the four masks an exact partition.
    """
    _check_size(size)
    rr, cc = _grids(size)
    d1 = cc - rr
    d2 = rr + cc - (size - 1)
    return _make("tri", [
        (d1 >= 0) & (d2 < 0),
        (d1 > 0) & (d2 >= 0),
        (d1 <= 0) & (d2 > 0),
        (d1 < 0) & (d2 <= 0),
    ])


def circ_slices(size: int = WORKING_SIZE) -> list[SliceMask]:
    """Four quadrant sectors of the inscribed disc.

    The disc has radius size/2 around the grid centre ((size-1)/2 in both
    axes); a pixel is inside when its centre lies strictly within the
    radius. Sector k is the disc intersected with quadrant k (top-left,
    top-right, bottom-left, bottom-right). Pixels outside the disc belong
    to no circular slice.
    """
    _check_size(size)
    rr, cc = _grids(size)
    centre = (size - 1) / 2.0
    inside = (rr - centre) ** 2 + (cc - centre) ** 2 < (size / 2.0) ** 2
    half = size // 2
    top, left = rr < half, cc < half
    return _make("circ", [
        inside & top & left,
        inside & top & ~left,
        inside & ~top & left,
        inside & ~top & ~left,
    ])


def ldiag_slices(size: int = WORKING_SIZE) -> list[SliceMask]:
    """Four bands parallel to the main (top-left to bottom-right) diagonal.

    Banding is by d = col - row with thresholds -size/2, 0, size/2:
    intervals [-(size-1), -size/2), [-size/2, 0), [0, size/2),
    [size/2, size-1].
    """
    _check_size(size)
    rr, cc = _grids(size)
    d = cc - rr
    half = size // 2
    return _make("ldiag", [
        d < -half,
        (d >= -half) & (d < 0),
        (d >= 0) & (d < half),
        d >= half,
    ])


def rdiag_slices(size: int = WORKING_SIZE) -> list[SliceMask]:
    """Four bands parallel to the anti (top-right to bottom-left) diagonal.

    Banding is by s = row + col with thresholds size/2, size-1,
    (size-1) + size/2: intervals [0, size/2), [size/2, size-1),
    [size-1, size-1 + size/2), [size-1 + size/2, 2*size-2].
    """
    _check_size(size)
    rr, cc = _grids(size)
    s = rr + cc
    half = size // 2
    return _make("rdiag", [
        s < half,
        (s >= half) & (s < size - 1),
        (s >= size - 1) & (s < size - 1 + half),
        s >= size - 1 + half,
    ])


_GENERATORS = {
    "rect": rect_slices,
    "tri": tri_slices,
    "circ": circ_slices,
    "ldiag": ldiag_slices,
    "rdiag": rdiag_slices,
}


@lru_cache(maxsize=8)
def all_masks(size: int = WORKING_SIZE) -> tuple[SliceMask, ...]:
    """All 20 masks in fixed order: rect 0-3, tri 0-3, circ 0-3, ldiag 0-3, rdiag 0-3.

    Built once per size; every call with that size returns the same tuple.
    """
    return tuple(m for technique in TECHNIQUES for m in _GENERATORS[technique](size))


def render_slice(source: np.ndarray, slice_mask: SliceMask, fill) -> SubImage:
    """Render one slice: fill masked-out bbox pixels, crop, resize to 224x224.

    Args:
        source: channel-major image, shape (3, S, S), pixel-intensity units.
        slice_mask: mask whose grid matches the source size.
        fill: 3 per-channel fill values for pixels inside the bounding box
            but outside the mask. Rectangular masks have no such pixels.
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
    pixels = bilinear_resize(composited, OUTPUT_SIZE, OUTPUT_SIZE)
    return SubImage(pixels=pixels, technique=slice_mask.technique, index=slice_mask.index)

