import numpy as np
import pytest

from scenefuse.resize import bilinear_resize
from scenefuse.slicing import TECHNIQUES, all_masks, render_slice

from oracles import bilinear_resize_gather, slice_all

PARTITION_TECHNIQUES = ("rect", "tri", "ldiag", "rdiag")


def fresh_masks(size):
    """The 20 masks built anew, bypassing the per-size cache of `all_masks`."""
    return all_masks.__wrapped__(size)


def technique_masks(technique, size=224):
    """One technique's four masks in index order, built anew."""
    return [m for m in fresh_masks(size) if m.technique == technique]


class TestMaskGeometry:
    def test_rect_quadrant_sizes(self):
        masks = technique_masks("rect")
        assert [int(m.mask.sum()) for m in masks] == [12544] * 4

    def test_rect_union_and_corner(self):
        masks = technique_masks("rect")
        union = sum(m.mask.astype(int) for m in masks)
        assert union.sum() == 50176
        membership = [m.mask[0, 0] for m in masks]
        assert membership == [True, False, False, False]

    @pytest.mark.parametrize("technique", sorted(PARTITION_TECHNIQUES))
    def test_exact_partition_by_enumeration(self, technique):
        masks = technique_masks(technique)
        coverage = np.zeros((224, 224), dtype=np.int64)
        for m in masks:
            coverage += m.mask
        assert (coverage == 1).all()

    def test_tri_boundary_pixels(self):
        top, right, bottom, left = technique_masks("tri")
        assert right.mask[0, 223] and not (top.mask[0, 223] or bottom.mask[0, 223])
        assert top.mask[0, 111]
        assert left.mask[223, 0]
        assert bottom.mask[223, 112]

    def test_circ_tiles_disc_exactly(self):
        masks = technique_masks("circ")
        coverage = np.zeros((224, 224), dtype=np.int64)
        for m in masks:
            coverage += m.mask
        rr, cc = np.indices((224, 224))
        disc = (rr - 111.5) ** 2 + (cc - 111.5) ** 2 < 112.0 ** 2
        assert coverage.max() <= 1
        assert ((coverage == 1) == disc).all()

    def test_circ_corner_and_centre(self):
        masks = technique_masks("circ")
        assert not any(m.mask[0, 0] for m in masks)  # distance ~157.7 > 112
        membership = [m.mask[111, 111] for m in masks]
        assert membership == [True, False, False, False]  # top-left sector

    def test_ldiag_origin_band(self):
        masks = technique_masks("ldiag")
        membership = [m.mask[0, 0] for m in masks]  # d = 0 -> band 2
        assert membership == [False, False, True, False]

    def test_rdiag_far_corner_band(self):
        masks = technique_masks("rdiag")
        membership = [m.mask[223, 223] for m in masks]  # s = 446 -> band 3
        assert membership == [False, False, False, True]

    def test_bbox_tight_for_all_masks(self):
        for m in all_masks(224):
            top, left, height, width = m.bbox
            sub = m.mask[top : top + height, left : left + width]
            assert sub[0, :].any() and sub[-1, :].any()
            assert sub[:, 0].any() and sub[:, -1].any()
            outside = m.mask.copy()
            outside[top : top + height, left : left + width] = False
            assert not outside.any()

    def test_fixed_order(self):
        masks = all_masks(224)
        assert [(m.technique, m.index) for m in masks] == [
            (t, i) for t in TECHNIQUES for i in range(4)
        ]

    def test_small_sizes_rejected(self):
        with pytest.raises(ValueError, match="even"):
            all_masks(7)

    def test_masks_built_once_per_size(self):
        first = all_masks(224)
        assert all_masks(224) is first
        assert isinstance(first, tuple)
        for cached, fresh in zip(first, fresh_masks(224), strict=True):
            assert (cached.technique, cached.index, cached.bbox) == (
                fresh.technique, fresh.index, fresh.bbox)
            assert np.array_equal(cached.mask, fresh.mask)

    def test_cached_masks_are_read_only(self):
        for m in all_masks(224):
            with pytest.raises(ValueError, match="read-only"):
                m.mask[m.bbox[0], m.bbox[1]] = False
        assert all(np.array_equal(c.mask, f.mask)
                   for c, f in zip(all_masks(224), fresh_masks(224)))


class TestRendering:
    def test_rect_render_is_pure_crop_resize(self, rng):
        source = rng.random((3, 224, 224)).astype(np.float32) * 255
        mask = technique_masks("rect")[0]
        rendered = render_slice(source, mask, fill=(0, 0, 0))
        manual = bilinear_resize(source[:, :112, :112], 224, 224)
        assert np.array_equal(rendered, manual)
        # fill colour is irrelevant when the bbox is fully masked
        other = render_slice(source, mask, fill=(255, 255, 255))
        assert np.array_equal(rendered, other)

    def test_constant_image_with_matching_fill(self):
        source = np.full((3, 224, 224), 99.0, dtype=np.float32)
        for mask in all_masks(224):
            out = render_slice(source, mask, fill=(99.0, 99.0, 99.0))
            assert np.allclose(out, 99.0, atol=1e-4)

    def test_output_always_224(self, rng):
        source = rng.random((3, 64, 64)).astype(np.float32)
        for mask in all_masks(64):
            pixels = render_slice(source, mask, fill=(0, 0, 0))
            assert isinstance(pixels, np.ndarray)
            assert pixels.shape == (3, 224, 224) and pixels.dtype == np.float32

    def test_empty_mask_rejected(self):
        from scenefuse.slicing import SliceMask

        empty = SliceMask(technique="rect", index=0,
                          mask=np.zeros((224, 224), dtype=bool), bbox=(0, 0, 1, 1))
        with pytest.raises(ValueError, match="empty"):
            render_slice(np.zeros((3, 224, 224), dtype=np.float32), empty, (0, 0, 0))

    def test_fill_applied_outside_mask(self):
        source = np.zeros((3, 224, 224), dtype=np.float32)
        mask = technique_masks("tri")[0]  # top triangle: bbox spans the full top half
        out = render_slice(source, mask, fill=(200.0, 0.0, 0.0))
        # corners of the rendered image come from filled (non-mask) regions
        assert out[0, -1, 0] > 100.0
        assert out[1].max() < 1e-4


class TestSliceAll:
    def test_exactly_20_in_order(self, rng):
        image = rng.random((3, 224, 224)).astype(np.float32) * 255
        subs = slice_all(image)
        assert len(subs) == 20
        for s in subs:
            assert s.shape == (3, 224, 224)
        # rect 3, the bottom-right quadrant, is the fourth sub-image
        assert np.array_equal(subs[3], bilinear_resize(image[:, 112:, 112:], 224, 224))

    def test_deterministic(self, rng):
        image = rng.random((3, 224, 224)).astype(np.float32) * 255
        a = slice_all(image, fill=(1.0, 2.0, 3.0))
        b = slice_all(image, fill=(1.0, 2.0, 3.0))
        for s1, s2 in zip(a, b):
            assert np.array_equal(s1, s2)

    def test_matches_four_gather_render(self, rng):
        image = rng.random((3, 224, 224)).astype(np.float32) * 255
        fill = np.array([1.0, 2.0, 3.0], dtype=np.float32)
        for sub, m in zip(slice_all(image, fill=fill), fresh_masks(224), strict=True):
            top, left, height, width = m.bbox
            window = (slice(top, top + height), slice(left, left + width))
            crop = np.where(m.mask[window], image[(slice(None),) + window], fill[:, None, None])
            ref = bilinear_resize_gather(crop, 224, 224)
            assert np.array_equal(sub.view(np.uint32), ref.view(np.uint32))

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="working image"):
            slice_all(np.zeros((3, 224, 200), dtype=np.float32))
