"""Minimal CNN forward-pass engine.

Evaluates a VGG16-shaped convolutional trunk up to the output of its fifth
pooling layer, which is where the feature pipeline reads activations. A
trunk is its layer list in VGG's own layout: each 3x3 convolution (stride
1, pad 1, followed by a ReLU) is its output channel count, each 2x2 max
pooling is `POOL`, and the input is the 3-channel image, so every conv's
input count is the previous conv's output. Four design rules hold
throughout:

* activations are channel-major float32 arrays of shape (C, H, W);
* every operation is a pure function, so results are bit-deterministic
  for identical inputs;
* the optimized convolution (row-blocked im2col plus sgemm) is pinned
  against a direct reference, `conv2d_naive`: the six-nested-loop
  convolution with its output loops vectorised by numpy, one multiply-add
  per input tap. It is also the baseline of `benchmark_conv2d`, which
  ``scenefuse bench`` runs at one fixed shape, VGG16's conv2 (64 to 64
  channels at 224x224);
* a regular conv runs its row blocks on `set_workers` threads that share
  `_BLOCK_BYTES`, with the same bits for any count (see delta forwards below).

Delta forwards (`forward_pair_to_pool5`, `forward_delta_to_pool5`) compute an
image only where it can differ from a reference forward. They are bit-identical
to full forwards: sgemm rounds a column the same whatever the other columns
are, except in the gemvs and small GEMMs (`_SMALL_GEMM`) that they never issue.

The engine knows nothing about files; weight storage lives in
:mod:`scenefuse.weights`.
"""

from __future__ import annotations

import os
import time

import numpy as np

# im2col bytes per block of output rows in `conv2d`, over all its workers: about one L2
_BLOCK_BYTES = 4 << 20
# output rows per block of a delta conv: few, so its column span hugs the changed set
_DELTA_ROWS = 4
# M*N*K at or below which OpenBLAS sgemm takes its small-matrix kernels
_SMALL_GEMM = 1_000_000
# multiply-adds per conv output, 9 * C_in, below which a conv runs whole on one
# thread: 27 for VGG16's first conv, 27 and 72 for the stub trunks' convs
_DELTA_MIN_MADDS = 128
# threads for a regular conv's row blocks, the caller's included, and the others' pool
_workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
_pool = None


def set_workers(n: int) -> None:
    """Run each regular conv's row blocks on `n` threads, the caller's included."""
    global _workers, _pool
    if n < 1:
        raise ValueError(f"worker count must be at least 1, got {n}")
    _workers, _pool = n, None


def _as_f32(arr: np.ndarray, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float32)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got shape {arr.shape}")
    return arr


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------

def conv2d(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """3x3 convolution, stride 1, zero padding 1 (spatial size preserved).

    out[o, y, x] = bias[o] + sum_{c,dy,dx} in[c, y+dy-1, x+dx-1] * kernel[o, c, dy, dx]

    with out-of-range input treated as zero. Implemented as im2col plus a
    float32 matrix multiply per block of output rows. The workers' buffers,
    reused from block to block, hold `_BLOCK_BYTES` of columns in all (or a
    row each), so no whole-layer column matrix is built. Zero padding is per
    block too: each block copies the input rows it reads into a small
    zero-bordered band, so no padded copy of the whole input is made.
    Accumulation stays in float32.

    Args:
        x: input activations, shape (C_in, H, W).
        kernel: filter bank, shape (C_out, C_in, 3, 3).
        bias: per-output-channel bias, shape (C_out,).

    Returns:
        Output activations, shape (C_out, H, W), float32.
    """
    x = _as_f32(x, "input", 3)
    kernel = _as_f32(kernel, "kernel", 4)
    bias = _as_f32(bias, "bias", 1)
    c_in, h, w = x.shape
    c_out = kernel.shape[0]
    if kernel.shape[1:] != (c_in, 3, 3):
        raise ValueError(
            f"kernel shape {kernel.shape} does not match input channels {c_in} "
            "(expected (C_out, C_in, 3, 3))"
        )
    if bias.shape != (c_out,):
        raise ValueError(f"bias shape {bias.shape} does not match {c_out} output channels")

    workers = _workers if 9 * c_in >= _DELTA_MIN_MADDS else 1
    rows = max(1, min(h, _BLOCK_BYTES // workers // max(1, c_in * 9 * w * 4)))
    out = np.empty((c_out, h * w), dtype=np.float32)
    blocks = [(r0, min(rows, h - r0), 0, w) for r0 in range(0, h, rows)]
    _conv_blocks(x, kernel, bias, blocks, [out[:, r0 * w : (r0 + n) * w]
                                           for r0, n, _, _ in blocks], workers)
    return out.reshape(c_out, h, w)


def _conv_blocks(x, kernel, bias, blocks, targets, workers) -> None:
    """`conv2d`'s output over each (top, rows, left, columns) block into its (C_out,
    rows * columns) target; worker i runs blocks i, i + workers, ..., the caller
    worker 0. The bias is added right after each sgemm, the one place any conv adds it."""
    global _pool
    c_in, h, w = x.shape
    k, flat = 9 * c_in, kernel.reshape(len(kernel), 9 * c_in)

    def run(pairs, buf, band):
        # a block's input rows r0-1 .. r0+n, zero-bordered: the border columns are
        # never written, and row 0 is still zero when the block at r0 = 0 reads it
        for (r0, n, c0, span), target in pairs:
            lo, hi = max(r0 - 1, 0), min(r0 + n + 1, h)
            left, right = max(c0 - 1, 0), min(c0 + span + 1, w)
            band[:, lo - r0 + 1 : hi - r0 + 1, left + 1 : right + 1] = x[:, lo:hi, left:right]
            if r0 + n == h:
                band[:, n + 1] = 0.0  # the pad row below the last input row
            cols = buf[: k * n * span].reshape(c_in, 3, 3, n, span)
            for dy in range(3):
                for dx in range(3):
                    cols[:, dy, dx] = band[:, dy : dy + n, c0 + dx : c0 + dx + span]
            np.matmul(flat, cols.reshape(k, n * span), out=target)
            target += bias[:, None]

    rows = max((n for _, n, _, _ in blocks), default=0)
    size = max((k * n * span for _, n, _, span in blocks), default=0)
    # every worker's columns and band are allocated here, on the caller's heap
    jobs = [(zip(blocks[i::workers], targets[i::workers]), np.empty(size, np.float32),
             np.zeros((c_in, rows + 2, w + 2), np.float32))
            for i in range(min(workers, len(blocks)) or 1)]
    if len(jobs) > 1 and _pool is None:
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(_workers - 1, thread_name_prefix="scenefuse-conv")
    pending = [_pool.submit(run, *job) for job in jobs[1:]]
    run(*jobs[0])
    for future in pending:
        future.result()


def conv2d_naive(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Direct reference convolution; same contract as :func:`conv2d`.

    The six-nested-loop convolution with its three output loops (o, y, x)
    done by numpy: starting from the bias, one float32 multiply-add over
    the whole output per input tap (c, dy, dx). There is no im2col and no
    matrix multiply, and every output pixel sums its terms in the same
    order and with the same float32 rounding as the scalar loop nest. This
    is the slow path the optimized convolution is checked and benchmarked
    against.
    """
    x = _as_f32(x, "input", 3)
    kernel = _as_f32(kernel, "kernel", 4)
    bias = _as_f32(bias, "bias", 1)
    c_in, h, w = x.shape
    if kernel.shape[1:] != (c_in, 3, 3):
        raise ValueError(
            f"kernel shape {kernel.shape} does not match input channels {c_in}"
        )
    if bias.shape != (kernel.shape[0],):
        raise ValueError(f"bias shape {bias.shape} does not match kernel {kernel.shape}")
    padded = np.zeros((c_in, h + 2, w + 2), dtype=np.float32)
    padded[:, 1 : h + 1, 1 : w + 1] = x
    out = np.repeat(bias, h * w).reshape(-1, h, w)
    for c in range(c_in):
        for dy in range(3):
            for dx in range(3):
                out += kernel[:, c, dy, dx, None, None] * padded[c, dy : dy + h, dx : dx + w]
    return out


def maxpool2(x: np.ndarray) -> np.ndarray:
    """2x2 max pooling with stride 2 over non-overlapping windows.

    Requires even spatial dimensions (the 224x224 pipeline guarantees this).
    """
    x = _as_f32(x, "input", 3)
    c, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"maxpool2 needs even spatial dims, got {h}x{w}")
    out = np.empty((c, h // 2, w // 2), dtype=np.float32)
    step = max(1, (1 << 20) // (2 * h * w))  # channels whose row maxima take 1 MiB
    for c0 in range(0, c, step):
        rows = np.maximum(x[c0 : c0 + step, 0::2, :], x[c0 : c0 + step, 1::2, :])
        np.maximum(rows[:, :, 0::2], rows[:, :, 1::2], out=out[c0 : c0 + step])
    return out


def gap(x: np.ndarray) -> np.ndarray:
    """Global average pooling: per-channel spatial mean, (C, H, W) -> (C,)."""
    x = _as_f32(x, "input", 3)
    return x.mean(axis=(1, 2), dtype=np.float32)


# ---------------------------------------------------------------------------
# Network description
# ---------------------------------------------------------------------------

POOL = "M"
# VGG16 up to pool5, configuration D of Simonyan & Zisserman (arXiv:1409.1556)
_VGG16 = (64, 64, POOL, 128, 128, POOL, 256, 256, 256, POOL,
          512, 512, 512, POOL, 512, 512, 512, POOL)


def vgg16_spec() -> tuple:
    """The canonical trunk: VGG16's 13 conv layers and 5 pools, no classifier head.

    Every conv is 3x3 / stride 1 / pad 1 / followed by ReLU. A 3x224x224
    input comes out as 512x7x7 after the fifth pool.
    """
    return _VGG16


def conv_channels(spec) -> list[tuple[int, int]]:
    """Each conv's (in, out) channel counts, in order; the first reads the 3-channel image.

    Raises:
        ValueError: naming a layer that is neither a positive int nor `POOL`.
    """
    pairs, c_in = [], 3
    for layer in spec:
        if layer == POOL:
            continue
        if type(layer) is not int or layer < 1:  # type(): True is no channel count
            raise ValueError(f"layer {layer!r} is neither a positive channel count "
                             f"nor {POOL!r}")
        pairs.append((c_in, layer))
        c_in = layer
    return pairs


class BundleError(ValueError):
    """A weight bundle that does not fit its trunk."""


def validate_bundle(spec: tuple, bundle) -> None:
    """Check a weight bundle against a spec: entry count and all shapes.

    `bundle` needs `.entries` (objects with `.kernel` and `.bias`) and
    `.means`; the concrete type lives in :mod:`scenefuse.weights`.

    Raises:
        BundleError: on any count or shape mismatch, or means outside [0, 255].
    """
    convs = conv_channels(spec)
    if len(bundle.entries) != len(convs):
        raise BundleError(
            f"bundle has {len(bundle.entries)} conv entries, spec needs {len(convs)}"
        )
    for i, (entry, (c_in, c_out)) in enumerate(zip(bundle.entries, convs)):
        want = (c_out, c_in, 3, 3)
        if tuple(entry.kernel.shape) != want:
            raise BundleError(
                f"entry {i} ({getattr(entry, 'name', '?')}): kernel shape "
                f"{tuple(entry.kernel.shape)} != {want}"
            )
        if tuple(entry.bias.shape) != (c_out,):
            raise BundleError(
                f"entry {i} ({getattr(entry, 'name', '?')}): bias shape "
                f"{tuple(entry.bias.shape)} != ({c_out},)"
            )
    means = np.asarray(bundle.means, dtype=np.float32)
    if means.shape != (3,):
        raise BundleError(f"bundle means must be 3 floats, got shape {means.shape}")
    if not np.all(np.isfinite(means)) or means.min() < 0 or means.max() > 255:
        raise BundleError(f"bundle means out of range [0, 255]: {means}")


def forward_to_pool5(spec: tuple, bundle, image: np.ndarray) -> np.ndarray:
    """Run `image` through every layer of `spec` with weights from `bundle`.

    Each conv output is clamped at zero in place, the ReLU that follows
    every conv; `conv2d` returns a fresh array, so `image` is never
    written. For the canonical VGG16 trunk this maps a preprocessed
    3x224x224 image to the 512x7x7 output of the fifth pooling layer.
    Arbitrary specs are accepted as long as the input survives all
    poolings (spatial dims divisible by 2 ** spec.count(POOL)); the
    canonical spec additionally insists on a 224x224 input, which is what
    the preprocessing stage produces.
    """
    entries, x = _checked(spec, bundle, image)
    return _forward(entries, x)


def _checked(spec: tuple, bundle, *images) -> tuple:
    """Each layer's conv entry (None for a pool), then the checked float32 images."""
    validate_bundle(spec, bundle)
    xs = [_as_f32(image, "image", 3) for image in images]
    pools = spec.count(POOL)
    for x in xs:
        if x.shape[0] != 3:
            raise ValueError(f"image has {x.shape[0]} channels, spec expects 3")
        if x.shape[1] % 2 ** pools or x.shape[2] % 2 ** pools:
            raise ValueError(f"spatial dims {x.shape[1]}x{x.shape[2]} not divisible by "
                             f"{2 ** pools} ({pools} pooling layers)")
        if spec == vgg16_spec() and x.shape[1:] != (224, 224):
            raise ValueError(f"canonical trunk expects 224x224 input, got {x.shape[1:]}")
    entries = iter(bundle.entries)
    return [None if layer == POOL else next(entries) for layer in spec], *xs


def _finite(x: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise FloatingPointError("non-finite activations after forward pass")
    return x


def _run(entry, x: np.ndarray) -> np.ndarray:
    if entry is None:
        return maxpool2(x)
    x = conv2d(x, entry.kernel, entry.bias)
    return np.maximum(x, np.float32(0.0), out=x)  # the ReLU, in place


def _forward(entries, x: np.ndarray) -> np.ndarray:
    for entry in entries:
        x = _run(entry, x)
    return _finite(x)


def _conv_patches(x: np.ndarray, entry, changed: np.ndarray) -> list:
    """ReLU'd `conv2d` output as (top, left, values) patches: each row block's changed
    columns, widened while their GEMM would be small, or the whole layer if cheaper."""
    c_in, h, w = x.shape
    c_out, k, rows = len(entry.bias), 9 * c_in, _DELTA_ROWS
    # is one row's GEMM, the smallest here or in conv2d, regular?
    regular = k >= _DELTA_MIN_MADDS and min(c_out, w) > 1 and c_out * w * k > _SMALL_GEMM
    spans = []
    for r0 in range(0, h, rows) if regular else ():
        n = min(rows, h - r0)
        hit = np.flatnonzero(changed[r0 : r0 + n].any(axis=0))
        if hit.size:
            span = min(w, max(int(hit[-1] - hit[0]) + 1, _SMALL_GEMM // (c_out * n * k) + 1, 2))
            spans.append((r0, n, min(int(hit[0]), w - span), span))
    if not regular or sum(n * span for _, n, _, span in spans) == h * w:
        return [(0, 0, _run(entry, x))] if changed.any() else []
    sizes = np.cumsum([0] + [c_out * n * span for _, n, _, span in spans])
    store = np.empty(sizes[-1], dtype=np.float32)  # the patches, one after another
    values = [store[a:b].reshape(c_out, -1) for a, b in zip(sizes, sizes[1:])]
    _conv_blocks(x, entry.kernel, entry.bias, spans, values, _workers)
    np.maximum(store, np.float32(0.0), out=store)
    return [(r0, c0, v.reshape(c_out, n, span)) for (r0, n, c0, span), v in zip(spans, values)]


def _delta_forward(entries, y: np.ndarray, changed: np.ndarray, reference) -> np.ndarray:
    """`y`'s forward where it can differ from a reference's (`changed` marks where
    the inputs differ). `reference(i, need)` runs it through layer i and, if
    `need`, returns its output afresh for `y`'s patches, computed before it."""
    for i, entry in enumerate(entries):
        if entry is None:
            reference(i, False)
            y, changed = maxpool2(y), maxpool2(changed[None])[0] > 0  # windows meeting it
            continue
        grown = np.pad(changed, 1)  # the pixels whose 3x3 neighbourhood meets it
        grown = grown[:-2] | grown[1:-1] | grown[2:]
        changed = grown[:, :-2] | grown[:, 1:-1] | grown[:, 2:]
        patches = _conv_patches(y, entry, changed)
        del y
        whole = bool(patches) and patches[0][2].shape[1:] == changed.shape
        y = reference(i, not whole)  # y's input is dropped: never a third full map
        y = patches[0][2] if whole else _paste(y, patches)
        del patches  # before the next layer's reference runs
    return _finite(y)


def _paste(y: np.ndarray, patches) -> np.ndarray:
    for top, left, values in patches:
        y[:, top : top + values.shape[1], left : left + values.shape[2]] = values
    return y


def forward_pair_to_pool5(spec: tuple, bundle, reference: np.ndarray,
                          twin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two images through one trunk in lockstep: the twin as a delta over the
    reference, so it costs what it changes (a circ slice 22% of its rect)."""
    entries, x, y = _checked(spec, bundle, reference, twin)
    if all(9 * c_in < _DELTA_MIN_MADDS for c_in, _ in conv_channels(spec)):
        return _forward(entries, x), _forward(entries, y)
    state = [x]

    def advance(i, need):
        state[0] = _run(entries[i], state[0])
        return state[0].copy() if need else None

    twin_out = _delta_forward(entries, y, np.any(x != y, axis=0), advance)
    return _finite(state[0]), twin_out


def zero_reference(spec: tuple, bundle, shape) -> tuple:
    """(shape, frames): an all-zero input's forward. Pixels `band` or more from
    every edge are equal (`band` grows by one per conv, halves per pool), so a
    conv keeps its first `band` + 1 and last `band` rows and columns: 1.8 MB."""
    (entries, x), band, frames = _checked(spec, bundle, np.zeros(shape, np.float32)), 0, []
    for entry in entries:
        x = _run(entry, x)
        band = -(-band // 2) if entry is None else band + 1
        bands = [min(band, n // 2) for n in x.shape[1:]]  # rows, columns
        kept = [np.r_[0 : b + 1, n - b : n] for b, n in zip(bands, x.shape[1:])]
        frames.append(None if entry is None
                      else (x[:, kept[0]][:, :, kept[1]], bands, x.shape[1:]))
    return tuple(shape), frames


def _unframe(frame) -> np.ndarray:
    """A `zero_reference` frame in full, as a fresh array."""
    kept, bands, size = frame
    out = np.empty((len(kept), *size), dtype=np.float32)
    thirds = [((slice(0, b), slice(0, b)), (slice(b, n - b), slice(b, b + 1)),
               (slice(n - b, n), slice(b + 1, None))) for b, n in zip(bands, size)]
    for rows, kept_rows in thirds[0]:
        for cols, kept_cols in thirds[1]:
            out[:, rows, cols] = kept[:, kept_rows, kept_cols]
    return out


def forward_delta_to_pool5(spec: tuple, bundle, image: np.ndarray,
                           zero: tuple) -> np.ndarray:
    """`forward_to_pool5` of an image zero on much of its area (a slice rendered
    with fill 0), as a delta over the trunk's `zero_reference` for its shape."""
    (entries, x), (shape, frames) = _checked(spec, bundle, image), zero
    if x.shape != shape or len(frames) != len(spec):
        raise ValueError(f"zero reference of {shape} does not fit input {x.shape}")
    if all(9 * c_in < _DELTA_MIN_MADDS for c_in, _ in conv_channels(spec)):
        return _forward(entries, x)
    return _delta_forward(entries, x, np.any(x != 0, axis=0),
                          lambda i, need: _unframe(frames[i]) if need else None)


# ---------------------------------------------------------------------------
# Benchmark
# ---------------------------------------------------------------------------

def benchmark_conv2d(repeats: int = 3, seed: int = 0) -> dict:
    """Time the optimized convolution against the direct reference, `conv2d_naive`,
    on VGG16's conv2 shape: 64 input channels at 224x224, 64 output channels.

    Both paths run on identical random data; the reported time per path is
    the best of `repeats` runs. Returns a dict with per-path seconds, the
    speedup factor, and the maximum output deviation (normalized by the
    largest reference magnitude).
    """
    channels_in, height, width, channels_out = 64, 224, 224, 64
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((channels_in, height, width)).astype(np.float32)
    kernel = rng.standard_normal((channels_out, channels_in, 3, 3)).astype(np.float32)
    kernel /= np.float32(3 * np.sqrt(channels_in))  # keep activations O(1)
    bias = rng.standard_normal(channels_out).astype(np.float32)

    def best_of(fn):
        times = []
        result = None
        for _ in range(max(1, repeats)):
            t0 = time.perf_counter()
            result = fn(x, kernel, bias)
            times.append(time.perf_counter() - t0)
        return min(times), result

    optimized_s, out_fast = best_of(conv2d)
    naive_s, out_ref = best_of(conv2d_naive)
    deviation = float(np.max(np.abs(out_fast - out_ref)) / max(np.max(np.abs(out_ref)), 1e-30))
    return {
        "shape": [channels_in, height, width, channels_out],
        "repeats": repeats,
        "optimized_seconds": optimized_s,
        "naive_seconds": naive_s,
        "speedup": naive_s / optimized_s,
        "max_relative_deviation": deviation,
    }
