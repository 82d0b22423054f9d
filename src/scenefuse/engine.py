"""Minimal CNN forward-pass engine.

Evaluates a VGG16-shaped convolutional trunk (3x3 convolutions, ReLU,
2x2 max pooling) up to the output of its fifth pooling layer, which is
where the feature pipeline reads activations. Three design rules hold
throughout:

* activations are channel-major float32 arrays of shape (C, H, W);
* every operation is a pure function, so results are bit-deterministic
  for identical inputs;
* the optimized convolution (row-blocked im2col plus sgemm) is pinned
  against a direct reference, `conv2d_naive`: the six-nested-loop
  convolution with its output loops vectorised by numpy, one multiply-add
  per input tap. It also serves as the baseline of the built-in benchmark.

The engine knows nothing about files; weight storage lives in
:mod:`scenefuse.weights`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

CONV3X3 = "conv3x3"
RELU = "relu"
MAXPOOL2 = "maxpool2"

# bytes of im2col columns per block of output rows in `conv2d`: about one L2 cache
_BLOCK_BYTES = 4 << 20


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
    float32 matrix multiply per block of output rows, whose columns fill at
    most `_BLOCK_BYTES` (or one row) of a buffer reused from block to block,
    so no whole-layer column matrix is built. Accumulation stays in float32.

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

    padded = np.zeros((c_in, h + 2, w + 2), dtype=np.float32)
    padded[:, 1 : h + 1, 1 : w + 1] = x

    flat = kernel.reshape(c_out, c_in * 9)
    rows = max(1, min(h, _BLOCK_BYTES // max(1, c_in * 9 * w * 4)))
    buf = np.empty(c_in * 9 * rows * w, dtype=np.float32)
    out = np.empty((c_out, h * w), dtype=np.float32)
    for r0 in range(0, h, rows):
        n = min(rows, h - r0)
        cols = buf[: c_in * 9 * n * w].reshape(c_in, 3, 3, n, w)
        for dy in range(3):
            for dx in range(3):
                cols[:, dy, dx] = padded[:, r0 + dy : r0 + dy + n, dx : dx + w]
        np.matmul(flat, cols.reshape(c_in * 9, n * w), out=out[:, r0 * w : (r0 + n) * w])
    out += bias[:, None]
    return out.reshape(c_out, h, w)


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


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise max(0, x); shape preserved."""
    return np.maximum(np.asarray(x, dtype=np.float32), np.float32(0.0))


def maxpool2(x: np.ndarray) -> np.ndarray:
    """2x2 max pooling with stride 2 over non-overlapping windows.

    Requires even spatial dimensions (the 224x224 pipeline guarantees this).
    """
    x = _as_f32(x, "input", 3)
    c, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"maxpool2 needs even spatial dims, got {h}x{w}")
    rows = np.maximum(x[:, 0::2, :], x[:, 1::2, :])
    return np.maximum(rows[:, :, 0::2], rows[:, :, 1::2])


def gap(x: np.ndarray) -> np.ndarray:
    """Global average pooling: per-channel spatial mean, (C, H, W) -> (C,)."""
    x = _as_f32(x, "input", 3)
    return x.mean(axis=(1, 2), dtype=np.float32)


# ---------------------------------------------------------------------------
# Network description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LayerSpec:
    """One layer of the trunk: `conv3x3` (with channel counts), `relu`, or `maxpool2`."""

    kind: str
    in_channels: int = 0
    out_channels: int = 0

    def __post_init__(self):
        if self.kind not in (CONV3X3, RELU, MAXPOOL2):
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.kind == CONV3X3 and (self.in_channels < 1 or self.out_channels < 1):
            raise ValueError(
                f"conv3x3 needs positive channel counts, got "
                f"{self.in_channels}->{self.out_channels}"
            )


@dataclass(frozen=True)
class NetworkSpec:
    """An ordered stack of layers forming a convolutional trunk."""

    layers: tuple[LayerSpec, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        prev_out = None
        for layer in self.layers:
            if layer.kind == CONV3X3:
                if prev_out is not None and layer.in_channels != prev_out:
                    raise ValueError(
                        f"conv chain broken: {layer.in_channels} inputs after "
                        f"{prev_out} outputs"
                    )
                prev_out = layer.out_channels

    @property
    def conv_layers(self) -> tuple[LayerSpec, ...]:
        return tuple(l for l in self.layers if l.kind == CONV3X3)

    @property
    def pool_count(self) -> int:
        return sum(1 for l in self.layers if l.kind == MAXPOOL2)

    @property
    def input_channels(self) -> int:
        for layer in self.layers:
            if layer.kind == CONV3X3:
                return layer.in_channels
        raise ValueError("spec has no conv layer")

    @property
    def output_channels(self) -> int:
        out = None
        for layer in self.layers:
            if layer.kind == CONV3X3:
                out = layer.out_channels
        if out is None:
            raise ValueError("spec has no conv layer")
        return out


_VGG16_BLOCKS = ((64, 64), (128, 128), (256, 256, 256), (512, 512, 512), (512, 512, 512))


def vgg16_spec() -> NetworkSpec:
    """The canonical trunk: VGG16's 13 conv layers and 5 pools, no classifier head.

    Blocks (64,64)P(128,128)P(256,256,256)P(512,512,512)P(512,512,512)P,
    every conv 3x3 / stride 1 / pad 1 / followed by ReLU. A 3x224x224 input
    comes out as 512x7x7 after the fifth pool.
    """
    layers: list[LayerSpec] = []
    in_ch = 3
    for block in _VGG16_BLOCKS:
        for out_ch in block:
            layers.append(LayerSpec(CONV3X3, in_ch, out_ch))
            layers.append(LayerSpec(RELU))
            in_ch = out_ch
        layers.append(LayerSpec(MAXPOOL2))
    return NetworkSpec(tuple(layers))


def is_canonical_spec(spec: NetworkSpec) -> bool:
    return spec == vgg16_spec()


def validate_bundle(spec: NetworkSpec, bundle) -> None:
    """Check a weight bundle against a spec: entry count and all shapes.

    `bundle` needs `.entries` (objects with `.kernel` and `.bias`) and
    `.means`; the concrete type lives in :mod:`scenefuse.weights`.

    Raises:
        ValueError: on any count or shape mismatch.
    """
    convs = spec.conv_layers
    if len(bundle.entries) != len(convs):
        raise ValueError(
            f"bundle has {len(bundle.entries)} conv entries, spec needs {len(convs)}"
        )
    for i, (entry, layer) in enumerate(zip(bundle.entries, convs)):
        want = (layer.out_channels, layer.in_channels, 3, 3)
        if tuple(entry.kernel.shape) != want:
            raise ValueError(
                f"entry {i} ({getattr(entry, 'name', '?')}): kernel shape "
                f"{tuple(entry.kernel.shape)} != {want}"
            )
        if tuple(entry.bias.shape) != (layer.out_channels,):
            raise ValueError(
                f"entry {i} ({getattr(entry, 'name', '?')}): bias shape "
                f"{tuple(entry.bias.shape)} != ({layer.out_channels},)"
            )
    means = np.asarray(bundle.means, dtype=np.float32)
    if means.shape != (3,):
        raise ValueError(f"bundle means must be 3 floats, got shape {means.shape}")
    if not np.all(np.isfinite(means)) or means.min() < 0 or means.max() > 255:
        raise ValueError(f"bundle means out of range [0, 255]: {means}")


def forward_to_pool5(spec: NetworkSpec, bundle, image: np.ndarray) -> np.ndarray:
    """Run `image` through every layer of `spec` with weights from `bundle`.

    For the canonical VGG16 trunk this maps a preprocessed 3x224x224 image
    to the 512x7x7 output of the fifth pooling layer. Arbitrary specs are
    accepted as long as the input survives all poolings (spatial dims
    divisible by 2**pool_count); the canonical spec additionally insists on
    a 224x224 input, which is what the preprocessing stage produces.
    """
    validate_bundle(spec, bundle)
    x = _as_f32(image, "image", 3)
    if x.shape[0] != spec.input_channels:
        raise ValueError(
            f"image has {x.shape[0]} channels, spec expects {spec.input_channels}"
        )
    divisor = 2 ** spec.pool_count
    if x.shape[1] % divisor or x.shape[2] % divisor:
        raise ValueError(
            f"spatial dims {x.shape[1]}x{x.shape[2]} not divisible by {divisor} "
            f"({spec.pool_count} pooling layers)"
        )
    if is_canonical_spec(spec) and x.shape[1:] != (224, 224):
        raise ValueError(f"canonical trunk expects 224x224 input, got {x.shape[1:]}")

    conv_idx = 0
    owned = False  # x is an array this loop allocated, so it may be clamped in place
    for layer in spec.layers:
        if layer.kind == CONV3X3:
            entry = bundle.entries[conv_idx]
            x = conv2d(x, entry.kernel, entry.bias)
            conv_idx += 1
        elif layer.kind == RELU:
            x = np.maximum(x, np.float32(0.0), out=x if owned else None)
        else:
            x = maxpool2(x)
        owned = True
    if not np.all(np.isfinite(x)):
        raise FloatingPointError("non-finite activations after forward pass")
    return x


# ---------------------------------------------------------------------------
# Benchmark
# ---------------------------------------------------------------------------

def benchmark_conv2d(
    channels_in: int = 64,
    height: int = 224,
    width: int = 224,
    channels_out: int = 64,
    repeats: int = 3,
    seed: int = 0,
) -> dict:
    """Time the optimized convolution against the direct reference, `conv2d_naive`.

    Both paths run on identical random data; the reported time per path is
    the best of `repeats` runs. Returns a dict with per-path seconds, the
    speedup factor, and the maximum output deviation (normalized by the
    largest reference magnitude).
    """
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
