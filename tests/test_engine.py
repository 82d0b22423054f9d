import contextlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from scenefuse import engine
from scenefuse.engine import (
    POOL, conv2d, conv2d_naive, conv_channels,
    forward_delta_to_pool5, forward_pair_to_pool5, forward_to_pool5, gap, maxpool2,
    vgg16_spec, zero_reference,
)
from scenefuse.pipeline import resize_to_working
from scenefuse.slicing import all_masks, render_slice
from scenefuse.synthetic import stub_spec
from scenefuse.weights import ConvEntry, WeightBundle, random_bundle

from oracles import (
    conv2d_loops, conv2d_loops_f32, conv2d_padded, gap_flat_sum, maxpool2_windows,
    normalized_max_error,
)


@contextlib.contextmanager
def conv_workers(n):
    """Run the block with `n` conv workers, then restore the count before."""
    previous = engine._workers
    engine.set_workers(n)
    try:
        yield
    finally:
        engine.set_workers(previous)


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
        # for any worker count, since the workers share the block budget
        x = f32(64, 224, 224, rng=rng)
        kernel = f32(64, 64, 3, 3, rng=rng, scale=1 / 24)
        bias = f32(64, rng=rng)
        for workers in (1, 2, 3):
            with conv_workers(workers):
                _, peak = traced_peak(lambda: conv2d(x, kernel, bias))
            assert peak < 20e6, workers

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
        assert len(conv_channels(spec)) == 13
        assert spec.count(POOL) == 5
        assert conv_channels(spec)[-1][1] == 512

    def test_bad_kind(self):
        for layer in ["conv5x5", 0, -8, 8.0, True, None]:
            with pytest.raises(ValueError, match=f"layer {layer!r} is neither"):
                conv_channels((8, POOL, layer, POOL))


def small_spec():
    return (4, 5, POOL)


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
        wrong = random_bundle(spec[:1], seed=0)
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


# ---------------------------------------------------------------------------
# Delta forwards
# ---------------------------------------------------------------------------

def region(size, rects):
    """A bool (size, size) mask: the union of (top, left, height, width) rectangles."""
    mask = np.zeros((size, size), dtype=bool)
    for top, left, height, width in rects:
        mask[top : top + height, left : left + width] = True
    return mask


def rects(size):
    corner = st.integers(0, size - 1)
    return st.lists(st.tuples(corner, corner, st.integers(1, size), st.integers(1, size)),
                    max_size=4)


def differs_at(image, mask, seed):
    """A copy of `image` that differs from it exactly on `mask`."""
    twin = image.copy()
    noise = np.random.default_rng(seed).uniform(1.0, 2.0, (3, int(mask.sum())))
    twin[:, mask] += noise.astype(np.float32)
    return twin


def biased_bundle(spec, seed, **kwargs):
    """A random bundle with nonzero biases: `random_bundle`'s are zero, which
    would make an all-zero input's forward zero everywhere, edges included."""
    bundle = random_bundle(spec, seed=seed, **kwargs)
    rng = np.random.default_rng(seed)
    return WeightBundle(entries=tuple(
        ConvEntry(e.name, e.kernel, rng.uniform(-0.2, 0.5, e.bias.shape).astype(np.float32))
        for e in bundle.entries), means=bundle.means)


def mini_spec():
    """A GEMM-bound trunk on 32x32 inputs: partial patches down to 8x8, and a
    last conv at 4x4 whose zero-reference band covers the whole map."""
    return (16, 256, POOL, 128, POOL, 128, POOL, 64, POOL)


def count_gemm_work(monkeypatch):
    """Record the multiply-adds, M*K*N, of every matmul the engine runs."""
    work = []
    matmul = np.matmul

    def counting(a, b, *args, **kwargs):
        work.append(a.shape[0] * a.shape[1] * b.shape[1])
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(engine.np, "matmul", counting)
    return work


EMPTY, FULL = [], [(0, 0, 224, 224)]
ONE_PIXEL = [(117, 64, 1, 1)]
BORDERS = [(0, 17, 1, 1), (223, 150, 1, 1), (90, 0, 1, 1), (41, 223, 1, 1)]
CORNERS = [(0, 0, 1, 1), (0, 223, 1, 1), (223, 0, 1, 1), (223, 223, 1, 1)]
DISJOINT = [(3, 5, 40, 30), (100, 120, 70, 90), (200, 10, 24, 60)]
SPAN_1, SPAN_27 = [(5, 3, 9, 1)], [(5, 3, 9, 27)]


@pytest.fixture(scope="module")
def conv_layers():
    """(x, kernel, bias, ReLU'd full output) at VGG16's conv1_1, conv1_2 and conv5
    shapes, and conv5's channels on a 5x5 map, whose last block of rows is one row."""
    layers = {}
    for c_in, c_out, size in ((3, 64, 224), (64, 64, 224), (512, 512, 14), (512, 512, 5)):
        r = np.random.default_rng(c_in)
        x = f32(c_in, size, size, rng=r)
        kernel = f32(c_out, c_in, 3, 3, rng=r, scale=1 / (3 * np.sqrt(c_in)))
        bias = f32(c_out, rng=r)
        full = np.maximum(conv2d(x, kernel, bias), np.float32(0.0))
        layers[c_in, size] = x, kernel, bias, full
    return layers


class TestDeltaConv:
    @pytest.mark.parametrize("layer", [(3, 224), (64, 224), (512, 14), (512, 5)])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    @example(data=None)
    def test_patches_are_the_full_output(self, conv_layers, layer, data):
        x, kernel, bias, full = conv_layers[layer]
        size = x.shape[1]
        clip = lambda rs: [(t % size, l % size, h, w) for t, l, h, w in rs]
        cases = ([data.draw(rects(size))] if data is not None else
                 [EMPTY, FULL, ONE_PIXEL, BORDERS, CORNERS, DISJOINT, SPAN_1, SPAN_27])
        for case in cases:
            changed = region(size, clip(case))
            covered = np.zeros_like(changed)
            patches = engine._conv_patches(x, ConvEntry("conv", kernel, bias), changed)
            for top, left, values in patches:
                rows, cols = slice(top, top + values.shape[1]), slice(left, left + values.shape[2])
                assert np.array_equal(values, full[:, rows, cols]), case
                covered[rows, cols] = True
            assert not (changed & ~covered).any(), case
            if not changed.any():
                assert patches == []

    def test_light_layer_runs_whole(self, conv_layers):
        # conv1_1 has 27 multiply-adds per output: one patch from conv2d
        x, kernel, bias, full = conv_layers[3, 224]
        (top, left, values), = engine._conv_patches(x, ConvEntry("conv", kernel, bias),
                                                    region(224, ONE_PIXEL))
        assert (top, left) == (0, 0) and np.array_equal(values, full)

    def test_narrow_spans_widen_only_to_a_regular_gemm(self, conv_layers):
        # conv1_2: M*K = 64 * 576, so a 4-row block needs 7 columns to clear
        # 10**6 multiply-adds; a 1-column span at the right edge shifts left
        x, kernel, bias, _ = conv_layers[64, 224]
        patches = engine._conv_patches(x, ConvEntry("conv", kernel, bias),
                                       region(224, [(8, 223, 4, 1)]))
        assert [(top, left, values.shape) for top, left, values in patches] == [
            (8, 217, (64, 4, 7))]

    def test_one_row_block_gets_two_columns(self, conv_layers):
        # a 1 x 1 GEMM would be a gemv: the span widens to two columns
        x, kernel, bias, _ = conv_layers[512, 5]
        patches = engine._conv_patches(x, ConvEntry("conv", kernel, bias),
                                       region(5, [(4, 4, 1, 1)]))
        assert [(top, left, values.shape) for top, left, values in patches] == [
            (4, 3, (512, 1, 2))]


class TestDeltaForwards:
    @settings(max_examples=30, deadline=None)
    @given(rects=rects(32), seed=st.integers(0, 2 ** 32 - 1))
    @example(rects=[], seed=0)
    @example(rects=[(0, 0, 32, 32)], seed=1)
    @example(rects=[(31, 31, 1, 1)], seed=2)
    @example(rects=[(0, 5, 1, 1), (20, 0, 3, 1), (9, 17, 6, 8)], seed=3)
    def test_match_full_forwards_on_a_mini_trunk(self, rects, seed):
        spec = mini_spec()
        bundle = biased_bundle(spec, seed=4)
        mask = region(32, rects)
        reference = f32(3, 32, 32, rng=np.random.default_rng(seed), scale=40.0)
        twin = differs_at(reference, mask, seed)
        sparse = differs_at(np.zeros_like(reference), mask, seed)
        before = reference.copy(), twin.copy(), sparse.copy()
        ref_out, twin_out = forward_pair_to_pool5(spec, bundle, reference, twin)
        assert np.array_equal(ref_out, forward_to_pool5(spec, bundle, reference))
        assert np.array_equal(twin_out, forward_to_pool5(spec, bundle, twin))
        zero = zero_reference(spec, bundle, (3, 32, 32))
        assert np.array_equal(forward_delta_to_pool5(spec, bundle, sparse, zero),
                              forward_to_pool5(spec, bundle, sparse))
        # the caller's images are untouched
        for image, copy in zip((reference, twin, sparse), before):
            assert np.array_equal(image, copy)

    def test_zero_reference_frames_expand_to_the_zero_forward(self):
        spec = mini_spec()
        bundle = biased_bundle(spec, seed=4)
        shape, frames = zero_reference(spec, bundle, (3, 32, 32))
        x = np.zeros(shape, dtype=np.float32)
        kept = []
        for entry, frame in zip(engine._checked(spec, bundle)[0], frames):
            x = engine._run(entry, x)
            if frame is not None:
                assert np.array_equal(engine._unframe(frame), x)
                kept.append((frame[1], frame[0].shape[1:]))
        # bands of rows and columns, and the kept rows and columns; the band
        # of the last conv covers its 4x4 map, so all of it is kept
        assert kept == [([1, 1], (3, 3)), ([2, 2], (5, 5)), ([2, 2], (5, 5)),
                        ([2, 2], (5, 5)), ([2, 2], (5, 5))]

    @pytest.mark.parametrize("mid", [8, 4])  # the stub trunk and the test pipeline's
    def test_stub_trunks_run_full_forwards(self, mid, monkeypatch):
        spec = stub_spec(mid_channels=mid)
        bundle = biased_bundle(spec, seed=mid)
        reference = f32(3, 224, 224, scale=40.0)
        twin = differs_at(reference, region(224, DISJOINT), 0)

        def no_patches(*args):
            raise AssertionError("a stub trunk computed a delta")

        monkeypatch.setattr(engine, "_conv_patches", no_patches)
        ref_out, twin_out = forward_pair_to_pool5(spec, bundle, reference, twin)
        assert np.array_equal(ref_out, forward_to_pool5(spec, bundle, reference))
        assert np.array_equal(twin_out, forward_to_pool5(spec, bundle, twin))
        zero = zero_reference(spec, bundle, (3, 224, 224))
        assert np.array_equal(forward_delta_to_pool5(spec, bundle, twin, zero),
                              forward_to_pool5(spec, bundle, twin))

    def test_mismatches_rejected(self, rng):
        spec = mini_spec()
        bundle = biased_bundle(spec, seed=0)
        with pytest.raises(ValueError):
            forward_pair_to_pool5(spec, bundle, f32(3, 32, 32, rng=rng),
                                  f32(3, 32, 48, rng=rng))
        zero = zero_reference(spec, bundle, (3, 32, 32))
        with pytest.raises(ValueError, match="does not fit"):
            forward_delta_to_pool5(spec, bundle, f32(3, 48, 32, rng=rng), zero)


@pytest.fixture(scope="module")
def vgg16_views():
    """A random VGG16 bundle, its zero reference, and the 20 slices of a
    photo-like image rendered as extraction renders them: from the
    mean-subtracted working image with fill 0."""
    spec = vgg16_spec()
    bundle = biased_bundle(spec, seed=5, means=(124.0, 117.0, 104.0))
    rng = np.random.default_rng(8)
    coarse = rng.uniform(0, 255, (11, 13, 3))
    photo = np.repeat(np.repeat(coarse, 32, axis=0), 32, axis=1)[:330, :400]
    working = resize_to_working(photo + rng.normal(0.0, 12.0, photo.shape))
    centred = working - bundle.means[:, None, None]
    views = [render_slice(centred, m, np.zeros(3, dtype=np.float32))
             for m in all_masks(224)]
    return spec, bundle, zero_reference(spec, bundle, (3, 224, 224)), views


def delta_forwards(spec, bundle, zero, views):
    """The 20 slices' outputs as extraction computes them: rect k paired with
    circ k (slot 8 + k), the others over the zero reference."""
    outs = [None] * 20
    for k in range(4):
        outs[k], outs[8 + k] = forward_pair_to_pool5(spec, bundle, views[k], views[8 + k])
    for j in [*range(4, 8), *range(12, 20)]:
        outs[j] = forward_delta_to_pool5(spec, bundle, views[j], zero)
    return outs


class TestDeltaForwardsOnVgg16:
    def test_all_twenty_renders_match_full_forwards(self, vgg16_views):
        spec, bundle, zero, views = vgg16_views
        for j, out in enumerate(delta_forwards(spec, bundle, zero, views)):
            assert np.array_equal(out, forward_to_pool5(spec, bundle, views[j])), j

    def test_part_views_compute_at_most_eighty_percent(self, vgg16_views, monkeypatch):
        # GEMM multiply-adds of the 20 part views, against 20 full forwards
        spec, bundle, zero, views = vgg16_views
        work = count_gemm_work(monkeypatch)
        delta_forwards(spec, bundle, zero, views)
        full, size, c_in = 0, 224, 3
        for layer in spec:
            if layer == POOL:
                size //= 2
            else:
                full += 9 * c_in * layer * size * size
                c_in = layer
        assert sum(work) <= 0.80 * 20 * full

    def test_pair_holds_under_a_fifth_more_than_a_forward(self, vgg16_views):
        # the twin's patches are the only extra: never a third full activation
        spec, bundle, _, views = vgg16_views
        _, single = traced_peak(lambda: forward_to_pool5(spec, bundle, views[0]))
        _, pair = traced_peak(lambda: forward_pair_to_pool5(spec, bundle, views[0], views[8]))
        assert pair <= 1.2 * single


class TestConvWorkers:
    def test_outputs_are_bit_identical_at_any_worker_count(self, vgg16_views, conv_layers,
                                                         monkeypatch):
        spec, bundle, zero, views = vgg16_views
        threads, matmul = set(), np.matmul
        monkeypatch.setattr(engine.np, "matmul",
                            lambda *a, **kw: threads.add(threading.get_ident()) or matmul(*a, **kw))
        outs, interval = {}, sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # threads interleave often; 3 workers on fewer cores too
        try:
            for workers in (1, 2, 3):
                threads.clear()
                with conv_workers(workers):
                    outs[workers] = [conv2d(*conv_layers[layer][:3])
                                     for layer in ((64, 224), (512, 14), (512, 5))]
                    outs[workers] += [forward_to_pool5(spec, bundle, views[0]),
                                      *forward_pair_to_pool5(spec, bundle, views[1], views[9]),
                                      forward_delta_to_pool5(spec, bundle, views[4], zero)]
                assert len(threads) == workers  # the caller and each pool thread ran blocks
        finally:
            sys.setswitchinterval(interval)
        for workers in (2, 3):
            for i, (got, want) in enumerate(zip(outs[workers], outs[1])):
                assert got.tobytes() == want.tobytes(), (workers, i)

    def test_a_workers_error_reaches_the_caller(self, conv_layers, monkeypatch):
        x, kernel, bias, full = conv_layers[64, 224]
        caller, matmul = threading.get_ident(), np.matmul

        def failing(*args, **kwargs):
            if threading.get_ident() != caller:
                raise MemoryError("sgemm failed in a worker")
            return matmul(*args, **kwargs)

        with conv_workers(2):
            monkeypatch.setattr(engine.np, "matmul", failing)
            with pytest.raises(MemoryError, match="in a worker"):
                conv2d(x, kernel, bias)
            monkeypatch.undo()
            out = conv2d(x, kernel, bias)
        assert np.array_equal(np.maximum(out, np.float32(0.0)), full)

    def test_light_convs_stay_on_the_callers_thread(self, conv_layers):
        # VGG16's conv1_1 and the stub trunks' convs: under 128 multiply-adds per
        # output. The pool is built on first use, so they never build it
        with conv_workers(2):
            conv2d(*conv_layers[3, 224][:3])
            conv2d(f32(8, 224, 224), f32(4, 8, 3, 3), f32(4))
            assert engine._pool is None
            conv2d(*conv_layers[64, 224][:3])
            assert engine._pool is not None

    def test_worker_count_must_be_positive(self):
        with pytest.raises(ValueError, match="at least 1"):
            engine.set_workers(0)
