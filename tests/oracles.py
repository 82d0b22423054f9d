"""Independent reference implementations used as test oracles.

Everything here is deliberately written the dumbest possible way (plain
loops, closed forms, derivative-free search) and shares no code with the
library paths it checks.
"""

import numpy as np


def conv2d_loops(x, kernel, bias):
    """Six-nested-loop 3x3 convolution, stride 1, zero pad 1, float64 acc."""
    c_in, h, w = x.shape
    c_out = kernel.shape[0]
    out = np.zeros((c_out, h, w), dtype=np.float64)
    for o in range(c_out):
        for y in range(h):
            for col in range(w):
                acc = float(bias[o])
                for c in range(c_in):
                    for dy in range(3):
                        for dx in range(3):
                            iy, ix = y + dy - 1, col + dx - 1
                            if 0 <= iy < h and 0 <= ix < w:
                                acc += float(x[c, iy, ix]) * float(kernel[o, c, dy, dx])
                out[o, y, col] = acc
    return out


def conv2d_loops_f32(x, kernel, bias):
    """The same six-nested loops, accumulating in float32 as `conv2d_naive` does.

    Each product and each running sum is rounded to float32, in the order
    c, dy, dx, so a float32 implementation that adds the same terms in the
    same order must match it bit for bit.
    """
    c_in, h, w = x.shape
    c_out = kernel.shape[0]
    out = np.empty((c_out, h, w), dtype=np.float32)
    for o in range(c_out):
        for y in range(h):
            for col in range(w):
                acc = bias[o]
                for c in range(c_in):
                    for dy in range(3):
                        for dx in range(3):
                            iy, ix = y + dy - 1, col + dx - 1
                            if 0 <= iy < h and 0 <= ix < w:
                                acc += x[c, iy, ix] * kernel[o, c, dy, dx]
                out[o, y, col] = acc
    return out


def fuse_row(op, ow, sp, sw, pool_op):
    """One image's hybrid descriptor: pool the four 512-vectors, then L2-normalise.

    The norm is taken in float64 and the float32 row is divided by it,
    which is the arithmetic the library is specified to do.
    """
    vectors = [np.asarray(v, dtype=np.float32) for v in (op, ow, sp, sw)]
    if pool_op == "concat":
        fused = np.concatenate(vectors)
    elif pool_op == "max":
        fused = np.max(vectors, axis=0)
    elif pool_op == "mean":
        fused = np.mean(vectors, axis=0, dtype=np.float32)
    elif pool_op == "min":
        fused = np.min(vectors, axis=0)
    else:
        raise ValueError(pool_op)
    norm = np.sqrt(np.sum(fused.astype(np.float64) ** 2))
    return fused / np.float32(norm)


def maxpool2_windows(x):
    """2x2 max pooling by explicit window enumeration."""
    c, h, w = x.shape
    out = np.empty((c, h // 2, w // 2), dtype=x.dtype)
    for ch in range(c):
        for y in range(h // 2):
            for col in range(w // 2):
                window = [
                    x[ch, 2 * y, 2 * col], x[ch, 2 * y, 2 * col + 1],
                    x[ch, 2 * y + 1, 2 * col], x[ch, 2 * y + 1, 2 * col + 1],
                ]
                out[ch, y, col] = max(window)
    return out


def gap_flat_sum(x):
    """Per-channel mean via flat accumulation."""
    c, h, w = x.shape
    out = np.empty(c, dtype=np.float64)
    for ch in range(c):
        total = 0.0
        for y in range(h):
            for col in range(w):
                total += float(x[ch, y, col])
        out[ch] = total / (h * w)
    return out


def normalized_max_error(actual, reference):
    """Max absolute deviation normalized by the largest reference magnitude.

    Elementwise relative error is meaningless near zero crossings of random
    outputs, so deviations are measured against the output scale.
    """
    reference = np.asarray(reference, dtype=np.float64)
    scale = max(float(np.max(np.abs(reference))), 1e-30)
    return float(np.max(np.abs(np.asarray(actual, dtype=np.float64) - reference))) / scale


def bilinear_sample(img, y, x):
    """Sample one (channel-last or 2-D) image at fractional (y, x), clamped."""
    h, w = img.shape[0], img.shape[1]
    y = min(max(y, 0.0), h - 1.0)
    x = min(max(x, 0.0), w - 1.0)
    y0, x0 = int(np.floor(y)), int(np.floor(x))
    y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
    wy, wx = y - y0, x - x0
    return (
        img[y0, x0] * (1 - wy) * (1 - wx)
        + img[y0, x1] * (1 - wy) * wx
        + img[y1, x0] * wy * (1 - wx)
        + img[y1, x1] * wy * wx
    )


def bilinear_resize_pointwise(img_hw, out_h, out_w):
    """Half-pixel-centre bilinear resize of a 2-D grid, one sample at a time."""
    src_h, src_w = img_hw.shape
    out = np.empty((out_h, out_w), dtype=np.float64)
    for i in range(out_h):
        for j in range(out_w):
            sy = (i + 0.5) * src_h / out_h - 0.5
            sx = (j + 0.5) * src_w / out_w - 0.5
            out[i, j] = bilinear_sample(img_hw, sy, sx)
    return out


def logreg_objective(w, b, X, y, c):
    """The primal objective, written independently of the library."""
    total = 0.5 * float(np.dot(w, w))
    for i in range(X.shape[0]):
        margin = y[i] * (float(np.dot(X[i], w)) + b)
        total += c * float(np.log1p(np.exp(-abs(margin))) + max(-margin, 0.0))
    return total


def logreg_brute_force(X, y, c, dim, restarts=60, seed=0):
    """Best objective found by derivative-free search from many restarts.

    Uses Nelder-Mead polytope search (scipy) from random starting points;
    completely independent of the Newton solver under test.
    """
    from scipy.optimize import minimize

    rng = np.random.default_rng(seed)

    def f(params):
        return logreg_objective(params[:dim], params[dim], X, y, c)

    best = np.inf
    starts = [np.zeros(dim + 1)] + [rng.normal(0, s, dim + 1)
                                    for s in (0.5, 1.0, 2.0)
                                    for _ in range(restarts // 3)]
    for start in starts:
        res = minimize(f, start, method="Nelder-Mead",
                       options={"maxiter": 4000, "xatol": 1e-10, "fatol": 1e-12})
        best = min(best, float(res.fun))
    return best
