import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scenefuse.imageio import NetpbmError, read_raster, write_pgm, write_ppm
from scenefuse.resize import bilinear_resize

from corruption import corruptions, load_bytes, saved_bytes
from oracles import bilinear_resize_gather, bilinear_resize_pointwise

VALID_PPM = saved_bytes(lambda arr, path: write_ppm(path, arr),
                        np.arange(60, dtype=np.uint8).reshape(4, 5, 3))
NON_NUMERIC_HEADER = VALID_PPM.replace(b"5 4", b"5 x", 1)

# (channels or None for a 2-D grid, src_h, src_w, out_h, out_w, seed)
RESIZE_CASES = st.tuples(st.sampled_from([None, 1, 3]), *[st.integers(1, 40)] * 4,
                         st.integers(0, 2**32 - 1))


class TestNetpbm:
    def test_ppm_round_trip(self, tmp_path, rng):
        img = rng.integers(0, 256, (5, 7, 3)).astype(np.uint8)
        path = tmp_path / "a.ppm"
        write_ppm(str(path), img)
        raster = read_raster(str(path))
        assert raster.dtype == np.uint8 and np.array_equal(raster, img)
        # byte-stable on rewrite
        first = path.read_bytes()
        write_ppm(str(path), raster)
        assert path.read_bytes() == first

    def test_pgm_round_trip(self, tmp_path, rng):
        img = rng.integers(0, 256, (4, 6)).astype(np.uint8)
        path = tmp_path / "a.pgm"
        write_pgm(str(path), img)
        assert np.array_equal(read_raster(str(path)), np.repeat(img[:, :, None], 3, axis=2))

    def test_header_comments(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n# another\n255\n\x01\x02\x03\x04")
        assert np.array_equal(read_raster(str(path))[:, :, 0], [[1, 2], [3, 4]])

    def test_wrong_maxval(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_bytes(b"P5\n2 2\n65535\n" + b"\x00" * 8)
        with pytest.raises(NetpbmError, match="maxval"):
            read_raster(str(path))

    def test_truncated_raster(self, tmp_path):
        path = tmp_path / "t.ppm"
        path.write_bytes(b"P6\n2 2\n255\n\x00\x01")
        with pytest.raises(NetpbmError, match="truncated"):
            read_raster(str(path))

    def test_read_raster_replicates_gray(self, tmp_path):
        path = tmp_path / "g.pgm"
        write_pgm(str(path), np.array([[0, 128], [255, 7]], dtype=np.uint8))
        raster = read_raster(str(path))
        assert raster.shape == (2, 2, 3)
        assert (raster[:, :, 0] == raster[:, :, 1]).all()
        assert raster.dtype == np.uint8

    @settings(max_examples=300, deadline=None)
    @given(corruptions(VALID_PPM))
    @example(NON_NUMERIC_HEADER)
    def test_corrupted_file_raises_only_netpbm_error(self, data):
        try:
            load_bytes(read_raster, data)
        except NetpbmError:
            pass

    def test_read_raster_rejects_other_formats(self, tmp_path):
        path = tmp_path / "x.ppm"
        path.write_bytes(b"P3\n1 1\n255\n0 0 0\n")
        with pytest.raises(NetpbmError, match="magic|binary"):
            read_raster(str(path))


class TestBilinearResize:
    def test_identity_same_size(self, rng):
        img = rng.random((3, 9, 11)).astype(np.float32)
        assert np.array_equal(bilinear_resize(img, 9, 11), img)

    def test_constant_any_scale(self):
        img = np.full((3, 10, 10), 4.25, dtype=np.float32)
        out = bilinear_resize(img, 224, 224)
        assert out.shape == (3, 224, 224)
        assert np.allclose(out, 4.25, atol=1e-6)

    def test_downscale_by_2_ramp_matches_closed_form(self):
        # a bilinear ramp resampled at interior points is reproduced exactly
        r = np.arange(448, dtype=np.float32)
        ramp = 0.25 * r[:, None] + 0.5 * r[None, :] + 3.0
        out = bilinear_resize(ramp, 224, 224)
        i = np.arange(224, dtype=np.float64)
        expected = 0.25 * (2 * i[:, None] + 0.5) + 0.5 * (2 * i[None, :] + 0.5) + 3.0
        assert np.max(np.abs(out - expected)) <= 1e-4 * np.max(np.abs(expected))

    def test_matches_pointwise_oracle(self, rng):
        img = rng.random((6, 9)).astype(np.float32)
        out = bilinear_resize(img, 4, 13)
        ref = bilinear_resize_pointwise(img.astype(np.float64), 4, 13)
        assert np.max(np.abs(out - ref)) <= 1e-5

    def test_channel_major_stack(self, rng):
        img = rng.random((3, 8, 8)).astype(np.float32)
        out = bilinear_resize(img, 5, 6)
        for c in range(3):
            assert np.allclose(out[c], bilinear_resize(img[c], 5, 6))

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            bilinear_resize(np.zeros((3, 4, 4), dtype=np.float32), 0, 5)

    @settings(max_examples=300, deadline=None)
    @given(RESIZE_CASES)
    # the six slice bounding-box shapes at the 224 working size
    @example((3, 111, 111, 224, 224, 0))
    @example((3, 112, 112, 224, 224, 1))
    @example((3, 112, 223, 224, 224, 2))
    @example((3, 223, 112, 224, 224, 3))
    @example((3, 223, 223, 224, 224, 4))
    @example((3, 224, 224, 224, 224, 5))
    # photo sizes resized to the working image
    @example((3, 480, 640, 224, 224, 6))
    @example((3, 375, 500, 224, 224, 7))
    @example((3, 640, 480, 224, 224, 8))
    # one-pixel extents, up and down
    @example((None, 1, 1, 7, 1, 9))
    @example((None, 9, 5, 1, 1, 10))
    def test_bit_identical_to_gather_oracle(self, case):
        channels, src_h, src_w, out_h, out_w, seed = case
        shape = (src_h, src_w) if channels is None else (channels, src_h, src_w)
        img = (np.random.default_rng(seed).standard_normal(shape) * 100).astype(np.float32)
        out = bilinear_resize(img, out_h, out_w)
        ref = bilinear_resize_gather(img, out_h, out_w)
        assert out.dtype == np.float32 and out.shape == ref.shape
        assert np.array_equal(out.view(np.uint32), ref.view(np.uint32))

    @pytest.mark.parametrize("size", [(40, 56), (480, 640)])
    def test_channel_last_view_gives_contiguous_output(self, size, rng):
        raster = rng.random(size + (3,)).astype(np.float32)
        out = bilinear_resize(raster.transpose(2, 0, 1), 224, 224)
        assert out.flags.c_contiguous
        assert np.array_equal(out, bilinear_resize_gather(raster.transpose(2, 0, 1), 224, 224))
