import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from scenefuse import engine
from scenefuse.engine import (
    CONV3X3, MAXPOOL2, LayerSpec, NetworkSpec, conv2d, conv2d_naive,
    forward_to_pool5, gap, maxpool2, vgg16_spec,
)
from scenefuse.weights import random_bundle

from oracles import (
    conv2d_loops, conv2d_loops_f32, conv2d_padded, gap_flat_sum, maxpool2_windows,
    normalized_max_error,
)


def f32(*shape, rng=None, scale=1.0):
    rng = rng or np.random.default_rng(0)
    return (rng.standard_normal(shape) * scale).astype(np.float32)


class TestConv2d:
    def test_identity_kernel(self):
        x = np.ones((1, 3, 3), dtype=np.float32)
        kernel = np.zeros((1, 1, 3, 3), dtype=np.float32)
        kernel[0, 0, 1, 1] = 1.0
        out = conv2d(x, kernel, np.zeros(1, dtype=np.float32))
        assert np.array_equal(out, x)

    def test_matches_loop_oracle(self, rng):
        x = f32(2, 4, 4, rng=rng)
        kernel = f32(3, 2, 3, 3, rng=rng)
        bias = f32(3, rng=rng)
        ref = conv2d_loops(x, kernel, bias)
        assert normalized_max_error(conv2d(x, kernel, bias), ref) <= 1e-5

    def test_single_pixel(self):
        x = np.full((1, 1, 1), 2.5, dtype=np.float32)
        kernel = np.zeros((1, 1, 3, 3), dtype=np.float32)
        kernel[0, 0, 1, 1] = -3.0
        out = conv2d(x, kernel, np.array([0.5], dtype=np.float32))
        assert out.shape == (1, 1, 1)
        assert out[0, 0, 0] == pytest.approx(2.5 * -3.0 + 0.5)

    @pytest.mark.parametrize("kernel_shape, bias_shape", [
        ((3, 4, 3, 3), (3,)),   # wrong in-channels
        ((3, 2, 2, 3), (3,)),   # not 3x3
        ((3, 2, 3, 3), (4,)),   # bias mismatch
    ])
    def test_shape_errors(self, kernel_shape, bias_shape, rng):
        # both convolutions share one contract; a loop, not a parametrize mark, keeps the ids
        x = f32(2, 4, 4, rng=rng)
        for conv in (conv2d, conv2d_naive):
            with pytest.raises(ValueError, match="shape|channels"):
                conv(x, f32(*kernel_shape, rng=rng), f32(*bias_shape, rng=rng))

    def test_naive_matches_oracle_and_jit_matches_python(self, rng):
        # (c_in, h, w, c_out): general, 1x1 spatial, single channel, non-square
        for c_in, h, w, c_out in [(2, 5, 4, 3), (3, 1, 1, 2), (1, 6, 6, 1), (4, 2, 7, 5)]:
            x = f32(c_in, h, w, rng=rng)
            kernel = f32(c_out, c_in, 3, 3, rng=rng)
            bias = f32(c_out, rng=rng)
            out = conv2d_naive(x, kernel, bias)
            assert normalized_max_error(out, conv2d_loops(x, kernel, bias)) <= 1e-5
            assert np.array_equal(out, conv2d_loops_f32(x, kernel, bias))

    # (block budget in rows, c_in, h, w, c_out, blocks): one-row blocks (a
    # budget below one row), several rows with a ragged last block, several
    # rows dividing h exactly, one block holding the whole layer
    @pytest.mark.parametrize("rows, c_in, h, w, c_out, blocks", [
        (0, 2, 5, 4, 3, 5),
        (3, 3, 7, 5, 2, 3),
        (2, 1, 6, 3, 4, 3),
        (9, 4, 8, 8, 3, 1),
    ])
    def test_row_blocks_match_loop_oracle(self, monkeypatch, rng, rows, c_in, h, w, c_out, blocks):
        monkeypatch.setattr(engine, "_BLOCK_BYTES", max(1, rows * c_in * 9 * w * 4))
        calls = []
        matmul = np.matmul
        monkeypatch.setattr(np, "matmul", lambda *a, **kw: calls.append(1) or matmul(*a, **kw))
        x = f32(c_in, h, w, rng=rng)
        kernel = f32(c_out, c_in, 3, 3, rng=rng)
        bias = f32(c_out, rng=rng)
        out = conv2d(x, kernel, bias)
        assert len(calls) == blocks
        assert normalized_max_error(out, conv2d_loops(x, kernel, bias)) <= 1e-5

    def test_empty_extents(self):
        # zero rows, columns or input channels still give the (C_out, H, W) output
        for c_in, h, w in [(2, 0, 0), (2, 3, 0), (2, 0, 4), (0, 4, 4)]:
            out = conv2d(np.ones((c_in, h, w), dtype=np.float32),
                         np.ones((3, c_in, 3, 3), dtype=np.float32),
                         np.arange(3, dtype=np.float32))
            assert out.shape == (3, h, w)
            assert np.array_equal(out, np.broadcast_to(np.arange(3)[:, None, None], out.shape))

    def test_real_budget_matches_naive(self, rng):
        # at the module's budget, 256 x 61 columns give blocks of 7 rows, the last of 5
        x = f32(256, 61, 61, rng=rng)
        kernel = f32(64, 256, 3, 3, rng=rng, scale=1 / 48)
        bias = f32(64, rng=rng)
        ref = conv2d_naive(x, kernel, bias)
        assert normalized_max_error(conv2d(x, kernel, bias), ref) <= 1e-5

    # (c_in, c_out, h, w, block budget in rows, seed): a budget of 0 rows
    # gives one-row blocks, 5 of 12 rows a ragged last block, 12 one block
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 4), st.integers(1, 12), st.integers(1, 12),
           st.integers(0, 13), st.integers(0, 2 ** 32 - 1))
    @example(3, 2, 12, 7, 0, 1)
    @example(3, 2, 12, 7, 5, 2)
    @example(3, 2, 12, 7, 12, 3)
    def test_bit_identical_to_whole_layer_padding(self, c_in, c_out, h, w, rows, seed):
        r = np.random.default_rng(seed)
        x = f32(c_in, h, w, rng=r)
        kernel = f32(c_out, c_in, 3, 3, rng=r)
        bias = f32(c_out, rng=r)
        budget = max(1, rows * c_in * 9 * w * 4)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_BLOCK_BYTES", budget)
            out = conv2d(x, kernel, bias)
        ref = conv2d_padded(x, kernel, bias, budget)
        assert np.array_equal(out.view(np.uint32), ref.view(np.uint32))

    def test_column_memory_stays_within_blocks(self, rng):
        # conv2 of VGG16: the output, one block of columns and its padded band
        # of input rows take about 17.6 MB; a padded copy of the whole input
        # adds 13 MB more, and a whole-layer column matrix alone takes 115 MB
        x = f32(64, 224, 224, rng=rng)
        kernel = f32(64, 64, 3, 3, rng=rng, scale=1 / 24)
        bias = f32(64, rng=rng)
        _, peak = traced_peak(lambda: conv2d(x, kernel, bias))
        assert peak < 20e6

    def test_translation_consistency(self, rng):
        x = f32(1, 8, 8, rng=rng)
        shifted = np.zeros_like(x)
        shifted[:, 1:, 1:] = x[:, :-1, :-1]
        kernel = f32(2, 1, 3, 3, rng=rng)
        bias = f32(2, rng=rng)
        out = conv2d(x, kernel, bias)
        out_shifted = conv2d(shifted, kernel, bias)
        # interior only: boundary windows see the pad (and the row/col the
        # shift pushed out), so they legitimately differ
        assert np.allclose(out_shifted[:, 2:-1, 2:-1], out[:, 1:-2, 1:-2], atol=1e-6)

    def test_deterministic(self, rng):
        x = f32(3, 16, 16, rng=rng)
        kernel = f32(5, 3, 3, 3, rng=rng)
        bias = f32(5, rng=rng)
        assert np.array_equal(conv2d(x, kernel, bias), conv2d(x, kernel, bias))


class TestMaxpool2:
    def test_simple(self):
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]], dtype=np.float32)
        assert np.array_equal(maxpool2(x), np.array([[[4.0]]], dtype=np.float32))

    def test_constant(self):
        out = maxpool2(np.full((2, 6, 4), 7.5, dtype=np.float32))
        assert out.shape == (2, 3, 2)
        assert (out == 7.5).all()

    def test_matches_window_oracle(self, rng):
        x = f32(1, 4, 4, rng=rng)
        assert np.array_equal(maxpool2(x), maxpool2_windows(x))

    def test_odd_dims_rejected(self):
        with pytest.raises(ValueError, match="even"):
            maxpool2(np.zeros((1, 3, 4), dtype=np.float32))

    def test_monotonicity(self, rng):
        x = f32(2, 6, 6, rng=rng)
        y = x + np.abs(f32(2, 6, 6, rng=rng))
        assert (maxpool2(x) <= maxpool2(y)).all()


class TestGap:
    def test_constant(self):
        out = gap(np.full((4, 5, 5), 3.0, dtype=np.float32))
        assert np.array_equal(out, np.full(4, 3.0, dtype=np.float32))

    def test_512_dim(self, rng):
        assert gap(f32(512, 7, 7, rng=rng)).shape == (512,)

    def test_matches_flat_sum_oracle(self, rng):
        x = f32(2, 3, 3, rng=rng)
        assert normalized_max_error(gap(x), gap_flat_sum(x)) <= 1e-6

    def test_linearity(self, rng):
        x, y = f32(3, 4, 4, rng=rng), f32(3, 4, 4, rng=rng)
        lhs = gap(2.0 * x + 3.0 * y)
        rhs = 2.0 * gap(x) + 3.0 * gap(y)
        assert np.allclose(lhs, rhs, atol=1e-6)


class TestNetworkSpec:
    def test_canonical_counts(self):
        spec = vgg16_spec()
        assert len(spec.conv_layers) == 13
        assert spec.pool_count == 5
        assert spec.conv_layers[-1].out_channels == 512

    def test_channel_chain_enforced(self):
        with pytest.raises(ValueError, match="chain"):
            NetworkSpec((LayerSpec(CONV3X3, 3, 8), LayerSpec(CONV3X3, 4, 8)))

    def test_bad_kind(self):
        with pytest.raises(ValueError, match="kind"):
            LayerSpec("conv5x5")


def small_spec():
    return NetworkSpec((
        LayerSpec(CONV3X3, 3, 4), LayerSpec(CONV3X3, 4, 5), LayerSpec(MAXPOOL2),
    ))


class TestForward:
    def test_zero_weights_zero_output(self):
        spec = vgg16_spec()
        bundle = random_bundle(spec, seed=0, scale=0.0)
        out = forward_to_pool5(spec, bundle, np.zeros((3, 224, 224), dtype=np.float32))
        assert out.shape == (512, 7, 7)
        assert not out.any()

    def test_matches_op_composition(self, rng):
        spec = small_spec()
        bundle = random_bundle(spec, seed=3)
        x = f32(3, 8, 8, rng=rng)
        before = x.copy()
        assert (before < 0).any()
        out = forward_to_pool5(spec, bundle, x)
        assert np.array_equal(x, before)  # the caller's image is untouched

        ref = conv2d_loops(x, bundle.entries[0].kernel, bundle.entries[0].bias)
        ref = np.maximum(ref, 0.0)
        ref = conv2d_loops(ref.astype(np.float32),
                           bundle.entries[1].kernel, bundle.entries[1].bias)
        ref = np.maximum(ref, 0.0)
        ref = maxpool2_windows(ref)
        assert normalized_max_error(out, ref) <= 1e-5

    def test_canonical_output_shape(self, rng):
        spec = vgg16_spec()
        bundle = random_bundle(spec, seed=1)
        out = forward_to_pool5(spec, bundle, f32(3, 224, 224, rng=rng, scale=10.0))
        assert out.shape == (512, 7, 7)
        assert np.all(np.isfinite(out))

    def test_weight_mismatch_rejected(self, rng):
        spec = small_spec()
        wrong = random_bundle(NetworkSpec(spec.layers[:1]), seed=0)
        with pytest.raises(ValueError, match="entries"):
            forward_to_pool5(spec, wrong, f32(3, 8, 8, rng=rng))

    def test_canonical_requires_224(self):
        spec = vgg16_spec()
        bundle = random_bundle(spec, seed=0, scale=0.0)
        with pytest.raises(ValueError, match="224"):
            forward_to_pool5(spec, bundle, np.zeros((3, 64, 64), dtype=np.float32))

    def test_bad_channel_count(self):
        spec = small_spec()
        bundle = random_bundle(spec, seed=0)
        with pytest.raises(ValueError, match="channels"):
            forward_to_pool5(spec, bundle, np.zeros((1, 8, 8), dtype=np.float32))

    def test_pool_divisibility(self):
        spec = small_spec()
        bundle = random_bundle(spec, seed=0)
        with pytest.raises(ValueError, match="divisible"):
            forward_to_pool5(spec, bundle, np.zeros((3, 7, 8), dtype=np.float32))
