import json
import os
import subprocess
import sys
import textwrap
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak, watch_forwards
from oracles import fuse_row, slice_all
from scenefuse import pipeline
from scenefuse.engine import forward_to_pool5, gap
from scenefuse.experiment import FeatureConfig, config_matrix
from scenefuse.imageio import read_raster, write_ppm
from scenefuse.pipeline import (
    FEATURE_DIM, POOL_OPS, SOURCES, Backend, extract_base_features, fuse_matrix,
    resize_to_working,
)
from scenefuse.slicing import render_slice
from scenefuse.synthetic import stub_spec
from scenefuse.weights import ConvEntry, WeightBundle, random_bundle


def tiny_backend(kind="object", seed=0, scale=None):
    spec = stub_spec(mid_channels=4)
    return Backend(kind=kind, spec=spec, weights=random_bundle(spec, seed=seed,
                                                               scale=scale))


def constant_output_backend(kind="object", seed=0):
    """Zero kernels, positive bias on the last conv: output ignores the input."""
    spec = stub_spec(mid_channels=4)
    zero = random_bundle(spec, seed=0, scale=0.0)
    rng = np.random.default_rng(seed)
    last = zero.entries[-1]
    entries = zero.entries[:-1] + (ConvEntry(
        name=last.name,
        kernel=last.kernel,
        bias=rng.uniform(0.1, 1.0, last.bias.shape).astype(np.float32),
    ),)
    return Backend(kind=kind, spec=spec, weights=WeightBundle(entries=entries,
                                                              means=zero.means))


def one_row(vectors):
    """The four descriptors of one image as one-row matrices, in SOURCES order."""
    return {s: np.asarray(v, dtype=np.float32)[None] for s, v in zip(SOURCES, vectors)}


def hdf(obj, scn, raster, pool_op):
    """One image's hybrid descriptor, composed as `scenefuse extract` does."""
    base = extract_base_features(obj, scn, raster)
    return config_matrix({s: v[None] for s, v in base.items()},
                         FeatureConfig("hdf", pool_op))[0]


def preprocess(raster, means):
    """Resize to the working image, then subtract the per-channel means,
    the input every forward pass of extraction receives."""
    return resize_to_working(raster) - np.asarray(means, dtype=np.float32)[:, None, None]


class TestPreprocess:
    def test_image_equal_to_means_becomes_zero(self):
        means = (10.0, 20.0, 30.0)
        raster = np.empty((224, 224, 3), dtype=np.float32)
        raster[:] = means
        assert not preprocess(raster, means).any()

    def test_resize_of_constant_is_constant(self):
        raster = np.full((448, 448, 3), 77.0, dtype=np.float32)
        out = preprocess(raster, (7.0, 7.0, 7.0))
        assert out.shape == (3, 224, 224)
        assert np.allclose(out, 70.0, atol=1e-4)

    def test_gradient_matches_closed_form(self):
        r = np.arange(448, dtype=np.float32)
        ramp = 0.1 * r[:, None] + 0.2 * r[None, :] + 5.0
        raster = np.repeat(ramp[:, :, None], 3, axis=2)
        out = preprocess(raster, (0.0, 0.0, 0.0))
        i = np.arange(224, dtype=np.float64)
        expected = 0.1 * (2 * i[:, None] + 0.5) + 0.2 * (2 * i[None, :] + 0.5) + 5.0
        assert np.max(np.abs(out[0] - expected)) <= 1e-4 * np.max(np.abs(expected))

    def test_rejects_non_rgb(self):
        with pytest.raises(ValueError, match="H, W, 3"):
            resize_to_working(np.zeros((5, 5), dtype=np.float32))


class TestExtractWhole:
    def test_zero_weights_give_zero_vector(self, rng):
        backend = tiny_backend(scale=0.0)
        raster = rng.uniform(0, 255, (50, 60, 3)).astype(np.float32)
        base = extract_base_features(backend, None, raster, ("ow",))
        assert set(base) == {"ow"}
        assert base["ow"].shape == (FEATURE_DIM,)
        assert not base["ow"].any()

    def test_matches_manual_composition(self, rng):
        backend = tiny_backend(kind="scene", seed=4)
        raster = rng.uniform(0, 255, (100, 80, 3)).astype(np.float32)
        base = extract_base_features(None, backend, raster, ("sw",))
        manual = gap(forward_to_pool5(
            backend.spec, backend.weights, preprocess(raster, backend.means)))
        assert set(base) == {"sw"}
        assert np.array_equal(base["sw"], manual)


class TestExtractPart:
    def test_constant_output_backend_part_equals_whole(self, rng):
        backend = constant_output_backend(seed=9)
        raster = rng.uniform(0, 255, (64, 64, 3)).astype(np.float32)
        base = extract_base_features(backend, None, raster, ("op", "ow"))
        assert np.allclose(base["op"], base["ow"], atol=1e-6)

    def test_matches_explicit_twenty_vector_average(self, rng):
        backend = tiny_backend(seed=6)
        raster = rng.uniform(0, 255, (90, 70, 3)).astype(np.float32)
        part = extract_base_features(backend, None, raster, ("op",))["op"]

        # slices are cut from the mean-subtracted working image with fill 0
        centred = preprocess(raster, backend.means)
        vectors = [
            gap(forward_to_pool5(backend.spec, backend.weights, s))
            for s in slice_all(centred, fill=np.zeros(3, dtype=np.float32))
        ]
        assert len(vectors) == 20
        expected = np.stack(vectors).mean(axis=0, dtype=np.float32)
        assert np.array_equal(part, expected)

    def test_zero_fill_stays_near_the_mean_fill_composition(self, rng):
        # rendering the mean-subtracted image with fill 0 moves each
        # descriptor by rounding only, from rendering the image with the
        # means as fill and subtracting them afterwards
        backend = tiny_backend(seed=6)
        raster = rng.uniform(0, 255, (90, 70, 3)).astype(np.float32)
        part = extract_base_features(backend, None, raster, ("op",))["op"]
        means = backend.means[:, None, None]
        mean_fill = np.stack([
            gap(forward_to_pool5(backend.spec, backend.weights, s - means))
            for s in slice_all(resize_to_working(raster), fill=backend.means)
        ]).mean(axis=0, dtype=np.float32)
        assert np.max(np.abs(part - mean_fill)) <= 1e-5 * np.max(np.abs(mean_fill))

    @pytest.mark.parametrize("scene_means, fills", [((124.0, 117.0, 104.0), 1),
                                                    ((90.0, 80.0, 70.0), 2)])
    def test_holds_one_render_per_fill_at_a_time(self, rng, monkeypatch, scene_means, fills):
        # a mask is rendered once per fill, that is per distinct means; a
        # trunk call holds only its own views' renders: one, or two for a
        # rect/circ pair
        obj = tiny_backend("object", seed=1)
        spec = stub_spec(mid_channels=4)
        scn = Backend(kind="scene", spec=spec,
                      weights=random_bundle(spec, seed=2, means=scene_means))
        raster = rng.uniform(0, 255, (40, 40, 3)).astype(np.float32)
        renders, alive = [], []

        def rendering(*args):
            pixels = render_slice(*args)
            renders.append(weakref.ref(pixels))
            return pixels

        monkeypatch.setattr(pipeline, "render_slice", rendering)
        watch_forwards(monkeypatch, lambda views: alive.append(
            (views, sum(r() is not None for r in renders))))
        extract_base_features(obj, scn, raster)
        assert len(renders) == 20 * fills
        assert sum(views for views, _ in alive) == 42
        assert sum(views == 2 for views, _ in alive) == 8
        assert all(held <= views for views, held in alive)

    def test_peak_is_below_twenty_renders(self, rng, stub_pair):
        # one image through the stub trunks: holding the 20 rendered slices
        # alone would take 12 MB; streamed, extraction peaks near 8 MB
        raster = rng.uniform(0, 255, (300, 400, 3)).astype(np.float32)
        _, peak = traced_peak(lambda: extract_base_features(*stub_pair, raster))
        assert peak < 20 * 3 * 224 * 224 * 4


class TestExtractBaseFeatures:
    def test_forward_count_follows_sources(self, rng, monkeypatch):
        obj = tiny_backend("object", seed=1)
        scn = tiny_backend("scene", seed=2)
        raster = rng.uniform(0, 255, (40, 40, 3)).astype(np.float32)
        calls = []  # views per trunk call; a rect/circ pair counts as 2
        watch_forwards(monkeypatch, calls.append)
        for sources, forwards in ((SOURCES, 42), (("ow",), 1), (("op",), 20),
                                  (("sw", "sp"), 21)):
            calls.clear()
            base = extract_base_features(obj, scn, raster, sources)
            assert set(base) == set(sources)
            assert sum(calls) == forwards, sources
        calls.clear()
        extract_base_features(obj, scn, raster)
        assert sum(calls) == 42

    def test_missing_backend_for_requested_source_rejected(self, rng):
        obj = tiny_backend("object", seed=1)
        scn = tiny_backend("scene", seed=2)
        raster = rng.uniform(0, 255, (40, 40, 3)).astype(np.float32)
        assert set(extract_base_features(obj, None, raster, ("ow",))) == {"ow"}
        assert set(extract_base_features(None, scn, raster, ("sw",))) == {"sw"}
        with pytest.raises(ValueError, match="object"):
            extract_base_features(None, scn, raster, ("op",))
        with pytest.raises(ValueError, match="scene"):
            extract_base_features(obj, None, raster)

    def test_swapped_kinds_rejected(self, rng):
        obj = tiny_backend("object", seed=1)
        scn = tiny_backend("scene", seed=2)
        raster = rng.uniform(0, 255, (40, 40, 3)).astype(np.float32)
        with pytest.raises(ValueError, match="object, scene"):
            extract_base_features(scn, obj, raster)

    def test_images_after_the_first_take_no_fresh_pages(self):
        # glibc hands the free top of its heap back to the kernel once that exceeds
        # the trim threshold. An allocation order that trims after every image
        # makes every image fault those pages in again, about 15% of the time of a
        # stub extraction (ROADMAP, Parked). Counted in a fresh process at one BLAS
        # thread, as the benchmark runs.
        faults, threads = minor_faults_per_image("backends = stub_backend_pair(23)")
        assert max(faults[1:]) < 500, f"minor faults per image: {faults}"
        assert threads == 1  # the stub trunks' convs stay on the caller's thread

    def test_images_after_the_first_take_no_fresh_pages_with_conv_workers(self):
        # the same guard on a trunk whose third conv (16 inputs at 112x112, 4 blocks
        # of rows) runs on two workers, whose threads may get their own arenas
        faults, threads = minor_faults_per_image("""
            from scenefuse import engine
            from scenefuse.engine import POOL
            from scenefuse.pipeline import Backend
            from scenefuse.weights import random_bundle
            engine.set_workers(2)
            spec = (4, POOL, 16, 16, POOL, POOL, POOL, 512, POOL)
            backends = [Backend(kind, spec, random_bundle(spec, seed=seed))
                        for kind, seed in (("object", 23), ("scene", 24))]
        """)
        assert max(faults[1:]) < 500, f"minor faults per image: {faults}"
        assert threads == 2

    def test_uint8_raster_gives_the_float32_copys_descriptors(self, rng, tmp_path):
        obj = tiny_backend("object", seed=1)
        scn = tiny_backend("scene", seed=2)
        path = str(tmp_path / "a.ppm")
        write_ppm(path, rng.integers(0, 256, (37, 45, 3)))
        raster = read_raster(path)  # read-only uint8 pixels straight from the file
        assert raster.dtype == np.uint8 and not raster.flags.writeable
        from_uint8 = extract_base_features(obj, scn, raster)
        from_float = extract_base_features(obj, scn, raster.astype(np.float32))
        for source in SOURCES:
            assert np.array_equal(from_uint8[source], from_float[source]), source


def minor_faults_per_image(setup: str) -> list:
    """Minor page faults of each of 8 images' extraction in a fresh process at
    one BLAS thread, with the `backends` that the `setup` code defines, and the
    number of threads the process then has."""
    code = textwrap.dedent("""
        import json, resource, threading
        import numpy as np
        from scenefuse.pipeline import extract_base_features
        from scenefuse.synthetic import stub_backend_pair
    """) + textwrap.dedent(setup) + textwrap.dedent("""
        rasters = np.random.default_rng(0).integers(0, 256, (8, 64, 64, 3), np.uint8)
        faults = []
        for raster in rasters:
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            extract_base_features(*backends, raster)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        print(json.dumps([faults, threading.active_count()]))
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(pipeline.__file__)))
    env = {**os.environ, "PYTHONPATH": src, "OMP_NUM_THREADS": "1",
           "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


class TestAggregate:
    def test_concat_dims_and_order(self, rng):
        vecs = [rng.random(FEATURE_DIM).astype(np.float32) for _ in range(4)]
        fused = fuse_matrix(one_row(vecs), "concat")[0]
        assert fused.shape == (2048,)
        norm = np.linalg.norm(np.concatenate(vecs).astype(np.float64))
        for k in range(4):
            assert np.allclose(fused[k * 512 : (k + 1) * 512] * norm, vecs[k],
                               rtol=1e-6, atol=0)

    def test_identical_vectors_collapse(self, rng):
        v = rng.random(FEATURE_DIM).astype(np.float32)
        unit = v / np.float32(np.linalg.norm(v.astype(np.float64)))
        for op in ("max", "mean", "min"):
            fused = fuse_matrix(one_row([v] * 4), op)[0]
            assert np.allclose(fused, unit, atol=1e-7)

    def test_mean_of_basis_vectors(self):
        vecs = []
        for k in range(4):
            e = np.zeros(FEATURE_DIM, dtype=np.float32)
            e[k] = 1.0
            vecs.append(e)
        fused = fuse_matrix(one_row(vecs), "mean")[0]
        # the mean is 0.25 in four places, norm 0.5
        assert np.allclose(fused[:4], 0.5)
        assert not fused[4:].any()

    def test_wrong_count_rejected(self, rng):
        parts = one_row([rng.random(FEATURE_DIM).astype(np.float32)] * 4)
        del parts["sw"]
        with pytest.raises(ValueError, match="sw"):
            fuse_matrix(parts, "max")

    def test_dict_order_does_not_change_the_row(self, rng):
        parts = one_row([rng.random(FEATURE_DIM).astype(np.float32) for _ in range(4)])
        reversed_parts = {s: parts[s] for s in reversed(SOURCES)}
        for op in POOL_OPS:
            assert np.array_equal(fuse_matrix(parts, op), fuse_matrix(reversed_parts, op))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_bounds_min_mean_max(self, seed):
        r = np.random.default_rng(seed)
        vecs = [r.normal(0, 3, FEATURE_DIM).astype(np.float32) for _ in range(4)]
        # column 0 is 1 in every source, so it is 1 under every pool op and
        # dividing a fused row by its column 0 undoes the normalisation
        for v in vecs:
            v[0] = 1.0

        def pooled(op):
            fused = fuse_matrix(one_row(vecs), op)[0]
            return fused / fused[0]

        low, mid, high = pooled("min"), pooled("mean"), pooled("max")
        assert (low <= mid + 1e-5).all() and (mid <= high + 1e-5).all()


class TestNormalize:
    def _normalize(self, values):
        # max of four identical rows is that row exactly
        return fuse_matrix(one_row([values] * 4), "max")[0]

    def test_three_four_example(self):
        v = np.zeros(FEATURE_DIM, dtype=np.float32)
        v[0], v[1] = 3.0, 4.0
        out = self._normalize(v)
        assert out[0] == pytest.approx(0.6, abs=1e-7)
        assert out[1] == pytest.approx(0.8, abs=1e-7)

    def test_unit_vector_unchanged(self, rng):
        v = rng.random(FEATURE_DIM).astype(np.float32)
        v /= np.float32(np.linalg.norm(v))
        out = self._normalize(v)
        assert np.allclose(out, v, atol=1e-7)

    def test_hundred_random_norms(self, rng):
        for _ in range(100):
            v = rng.normal(0, 5, FEATURE_DIM).astype(np.float32)
            out = self._normalize(v)
            assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-5)

    def test_idempotent(self, rng):
        v = rng.normal(0, 5, FEATURE_DIM).astype(np.float32)
        once = self._normalize(v)
        twice = self._normalize(once)
        assert np.allclose(once, twice, atol=1e-7)

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            self._normalize(np.zeros(FEATURE_DIM, dtype=np.float32))


class TestExtractHdf:
    def test_concat_is_2048_and_normalized(self, rng):
        obj = tiny_backend("object", seed=1)
        scn = tiny_backend("scene", seed=2)
        raster = rng.uniform(0, 255, (60, 60, 3)).astype(np.float32)
        h = hdf(obj, scn, raster, "concat")
        assert h.shape == (2048,)
        assert np.linalg.norm(h) == pytest.approx(1.0, abs=1e-5)

    def test_pointwise_ops_are_512(self, rng):
        obj = tiny_backend("object", seed=1)
        scn = tiny_backend("scene", seed=2)
        raster = rng.uniform(0, 255, (60, 60, 3)).astype(np.float32)
        for op in ("max", "mean", "min"):
            assert hdf(obj, scn, raster, op).shape == (512,)

    def test_identical_backends_make_equal_halves(self, rng):
        spec = stub_spec(mid_channels=4)
        bundle = random_bundle(spec, seed=8)
        obj = Backend(kind="object", spec=spec, weights=bundle)
        scn = Backend(kind="scene", spec=spec, weights=bundle)
        raster = rng.uniform(0, 255, (60, 60, 3)).astype(np.float32)
        h = hdf(obj, scn, raster, "concat")
        assert np.array_equal(h[:1024], h[1024:])

    def test_matches_manual_composition(self, rng):
        obj = tiny_backend("object", seed=1)
        scn = tiny_backend("scene", seed=2)
        raster = rng.uniform(0, 255, (60, 60, 3)).astype(np.float32)
        h = hdf(obj, scn, raster, "mean")
        # each source extracted on its own, with only its backend loaded
        manual = fuse_row(
            extract_base_features(obj, None, raster, ("op",))["op"],
            extract_base_features(obj, None, raster, ("ow",))["ow"],
            extract_base_features(None, scn, raster, ("sp",))["sp"],
            extract_base_features(None, scn, raster, ("sw",))["sw"],
            "mean",
        )
        assert np.array_equal(h, manual)

    def test_mismatched_specs_rejected(self, rng):
        obj = tiny_backend("object", seed=1)
        other_spec = stub_spec(mid_channels=6)
        scn = Backend(kind="scene", spec=other_spec,
                      weights=random_bundle(other_spec, seed=2))
        raster = rng.uniform(0, 255, (40, 40, 3)).astype(np.float32)
        with pytest.raises(ValueError, match="share"):
            extract_base_features(obj, scn, raster)


class TestFuseMatrix:
    def test_matches_per_row_path(self, rng):
        base = {s: rng.normal(0, 2, (5, FEATURE_DIM)).astype(np.float32)
                for s in SOURCES}
        for op in POOL_OPS:
            fused = fuse_matrix(base, op)
            for i in range(5):
                row = fuse_row(*(base[s][i] for s in SOURCES), op)
                assert np.array_equal(fused[i], row), op

    def test_whole_matrix_equals_one_row_at_a_time(self, rng):
        # extract fuses a dataset's matrix in one call; its rows must be the
        # bits of fusing each image's row alone
        base = {s: np.abs(rng.normal(0, 2, (37, FEATURE_DIM))).astype(np.float32)
                for s in SOURCES}
        for op in POOL_OPS:
            rows = [fuse_matrix({s: m[i : i + 1] for s, m in base.items()}, op)
                    for i in range(37)]
            assert np.array_equal(fuse_matrix(base, op).view(np.uint32),
                                  np.concatenate(rows).view(np.uint32)), op
