"""Feature extraction and fusion.

Four base descriptors are computed per image from two backends (an
object-centric trunk and a scene-centric trunk sharing one architecture):

* ``op`` / ``sp``: part level, the mean of the 20 per-slice descriptors;
* ``ow`` / ``sw``: whole-image level.

Each descriptor is the global average pooling of the trunk's fifth-pool
output, 512 values. :func:`extract_base_features` computes the requested
ones for one image; 32 of its 40 part-level forwards are bit-identical
delta forwards (see :mod:`scenefuse.engine`). :func:`fuse_matrix` pools
the four row-wise (elementwise max/mean/min keep 512 dims, concatenation
yields 2048) and scales each row to unit Euclidean norm; a single image is
a one-row matrix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .classifier import TrainingDataError
from .engine import (forward_delta_to_pool5, forward_pair_to_pool5, forward_to_pool5, gap,
                     validate_bundle, vgg16_spec, zero_reference)
from .resize import bilinear_resize
from .slicing import WORKING_SIZE, all_masks, render_slice
from .weights import WeightBundle, random_bundle

FEATURE_DIM = 512
# each base descriptor's (trunk kind, level); the other modules read which trunk serves it here
ORIGINS = {"op": ("object", "part"), "ow": ("object", "whole"),
           "sp": ("scene", "part"), "sw": ("scene", "whole")}
SOURCES = tuple(ORIGINS)
POOL_OPS = ("max", "mean", "min", "concat")
BACKEND_KINDS = ("object", "scene")


@dataclass(frozen=True)
class Backend:
    """An immutable (layer list, weight bundle) pair standing in for a
    pretrained trunk. kind='object' reads out foreground-centric weights,
    kind='scene' background-centric ones."""

    kind: str
    spec: tuple  # the trunk's layer list: conv output channel counts and POOL
    weights: WeightBundle

    def __post_init__(self):
        if self.kind not in BACKEND_KINDS:
            raise ValueError(f"backend kind must be one of {BACKEND_KINDS}, got {self.kind!r}")
        validate_bundle(self.spec, self.weights)

    @property
    def means(self) -> np.ndarray:
        return np.asarray(self.weights.means, dtype=np.float32)

    @cached_property
    def zero_reference(self) -> tuple:
        """The trunk's all-zero forward, computed once: the tri and diagonal slices' reference."""
        return zero_reference(self.spec, self.weights, (3, WORKING_SIZE, WORKING_SIZE))


def resize_to_working(raster: np.ndarray) -> np.ndarray:
    """Bilinear-resize an (H, W, 3) raster, such as `read_raster`'s uint8 pixels,
    to the channel-major float32 working image: the one conversion of pixels.

    Stays in pixel-intensity units; each trunk's means are subtracted later.
    """
    raster = np.asarray(raster, dtype=np.float32)
    if raster.ndim != 3 or raster.shape[2] != 3:
        raise ValueError(f"raster must be (H, W, 3), got {raster.shape}")
    chw = raster.transpose(2, 0, 1)
    return bilinear_resize(chw, WORKING_SIZE, WORKING_SIZE)


def source_backends(object_backend: Backend | None, scene_backend: Backend | None, sources):
    """Each of `sources`' backend, which must be of the kind `ORIGINS` names."""
    backends = dict(zip(BACKEND_KINDS, (object_backend, scene_backend)))
    for source in sources:
        kind = ORIGINS[source][0]
        if backends[kind] is None or backends[kind].kind != kind:
            raise ValueError(f"source {source!r} needs a backend of kind {kind!r}; "
                             "pass backends as (object, scene)")
    return {source: backends[ORIGINS[source][0]] for source in sources}


def extract_base_features(
    object_backend: Backend | None,
    scene_backend: Backend | None,
    raster: np.ndarray,
    sources=SOURCES,
) -> dict[str, np.ndarray]:
    """The requested base descriptors of one image, each a float32 (512,) array.

    Only the sources named in `sources` are computed; a backend none of
    whose sources is requested may be None. The uint8 or float raster is resized once.
    Part-level sources are the mean of the 20 per-slice descriptors; slices
    are cut from the working image minus the backend means, with masked
    pixels filled with 0. Each mask is rendered once per distinct means and
    run through every requested part-level trunk before the next. Rect
    quadrant k and circ sector k run as one pair forward, tri and diagonal
    slices as delta forwards over the backend's zero reference.
    """
    backends = source_backends(object_backend, scene_backend, sources)
    if object_backend and scene_backend and object_backend.spec != scene_backend.spec:
        raise ValueError("object and scene backends must share one network spec")

    part = [s for s in SOURCES if s in sources and ORIGINS[s][1] == "part"]
    # before this image's arrays: among them, glibc went on to trim the heap per image
    zeros = {source: backends[source].zero_reference for source in part}
    working = resize_to_working(raster)
    masks = all_masks(WORKING_SIZE)
    circ = {m.index: j for j, m in enumerate(masks) if m.technique == "circ"}
    vectors = {source: [None] * len(masks) for source in part}
    for i, mask in enumerate(masks):
        if mask.technique == "circ":
            continue  # runs with its rect twin
        slots = (i, circ[mask.index]) if mask.technique == "rect" else (i,)
        key = None  # backends with equal means share the renders
        for source in part:
            backend = backends[source]
            if key != tuple(backend.means.tolist()):
                key, renders = tuple(backend.means.tolist()), None
                renders = [render_slice(working - backend.means[:, None, None], masks[j],
                                        np.zeros(3, np.float32)) for j in slots]
            args = backend.spec, backend.weights
            outs = (forward_pair_to_pool5(*args, *renders) if len(slots) == 2 else
                    [forward_delta_to_pool5(*args, renders[0], zeros[source])])
            for j, out in zip(slots, outs):
                vectors[source][j] = gap(out)
    for source in [s for s in SOURCES if s in sources and ORIGINS[s][1] == "whole"]:
        backend = backends[source]
        vectors[source] = [gap(forward_to_pool5(backend.spec, backend.weights,
                                                working - backend.means[:, None, None]))]
    # fixed view order keeps the reduction bit-deterministic; the mean of
    # the one whole-image row is that row exactly
    return {source: np.stack(vectors[source]).mean(axis=0, dtype=np.float32)
            for source in SOURCES if source in sources}


def benchmark_delta_forwards(seed: int = 0) -> dict:
    """Seconds of one rect/circ pair and one tri slice of a random working image
    through the delta and the full forwards of a random VGG16 bundle. Its biases
    are nonzero, so the zero reference's border frames are not all zero."""
    bundle, rng = random_bundle(vgg16_spec(), seed=seed), np.random.default_rng(seed)
    backend = Backend("object", vgg16_spec(), replace(bundle, entries=tuple(
        replace(e, bias=rng.uniform(-0.2, 0.5, e.bias.shape).astype(np.float32))
        for e in bundle.entries)))
    image = np.random.default_rng(seed).uniform(-128, 128, (3, WORKING_SIZE, WORKING_SIZE))
    rect, tri, circ = (render_slice(image.astype(np.float32), all_masks(WORKING_SIZE)[j],
                                    np.zeros(3, np.float32)) for j in (0, 4, 8))
    outs, times = [], []
    for fn, *views in ((forward_pair_to_pool5, rect, circ),
                       (forward_delta_to_pool5, tri, backend.zero_reference),
                       *((forward_to_pool5, view) for view in (rect, circ, tri))):
        t0 = time.perf_counter()
        outs.append(fn(backend.spec, backend.weights, *views))
        times.append(time.perf_counter() - t0)
    return {"pair_seconds": times[0], "pair_ratio": times[0] / (times[2] + times[3]),
            "tri_seconds": times[1], "tri_ratio": times[1] / times[4],
            "bit_identical": all(map(np.array_equal, (*outs[0], outs[1]), outs[2:]))}


def fuse_matrix(parts: dict[str, np.ndarray], pool_op: str) -> np.ndarray:
    """Fuse the four base descriptors row-wise, then scale each row to unit norm.

    `parts` maps each of op, ow, sp, sw to an (N, 512) array; rows
    correspond across sources, and a single image is a one-row matrix.
    concat lays the sources out in the order op, ow, sp, sw (2048 dims);
    max/mean/min pool them elementwise (512 dims). A zero row is a TrainingDataError.
    """
    if pool_op not in POOL_OPS:
        raise ValueError(f"unknown pool op {pool_op!r}")
    missing = [s for s in SOURCES if s not in parts]
    if missing:
        raise ValueError(f"fusion needs all of {SOURCES}; missing {missing}")
    mats = [np.asarray(parts[s], dtype=np.float32) for s in SOURCES]
    n = mats[0].shape[0]
    for s, m in zip(SOURCES, mats):
        if m.shape != (n, FEATURE_DIM):
            raise ValueError(f"{s} matrix has shape {m.shape}, expected ({n}, {FEATURE_DIM})")
    stack = np.stack(mats)  # (4, N, 512)
    if pool_op == "concat":
        fused = stack.transpose(1, 0, 2).reshape(n, 4 * FEATURE_DIM)
    elif pool_op == "max":
        fused = stack.max(axis=0)
    elif pool_op == "min":
        fused = stack.min(axis=0)
    else:
        fused = stack.mean(axis=0, dtype=np.float32)
    norms = np.linalg.norm(fused.astype(np.float64), axis=1)
    if np.any(norms < 1e-12):
        raise TrainingDataError("zero feature vector cannot be normalized")
    return (fused / norms[:, None].astype(np.float32)).astype(np.float32)
