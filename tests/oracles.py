"""Independent reference implementations used as test oracles.

Everything here is deliberately written the dumbest possible way (plain
loops, closed forms, derivative-free search) and shares no code with the
library paths it checks. The exceptions are `train_binary`, the damped
Newton-CG-Armijo iteration of `scenefuse.classifier` written for one
problem at a time, which the stacked solver must follow problem by
problem, and `grid_search_nested`, which checks how the grid search
arranges its solves and scores, and so uses the fold assignment, which is
checked on its own.
"""

import numpy as np

from scenefuse.classifier import DEFAULT_TOL, MAX_ITER, GridSearchReport, stratified_folds


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


def bilinear_resize_gather(img, out_h, out_w):
    """The four-gather float32 bilinear resize of the last two axes.

    Gathers the four neighbour grids by broadcast fancy indexing and blends
    them as ``(a*(1-wx) + b*wx)*(1-wy) + (c*(1-wx) + d*wx)*wy``, one float32
    operation at a time, so any float32 resize that rounds the same
    operations in the same order must match it bit for bit.
    """

    def axis(src_size, dst_size):
        coords = (np.arange(dst_size, dtype=np.float64) + 0.5) * (src_size / dst_size) - 0.5
        coords = np.clip(coords, 0.0, src_size - 1.0)
        lo = np.floor(coords).astype(np.intp)
        return lo, np.minimum(lo + 1, src_size - 1), (coords - lo).astype(np.float32)

    img = np.asarray(img, dtype=np.float32)
    y0, y1, wy = axis(img.shape[-2], out_h)
    x0, x1, wx = axis(img.shape[-1], out_w)
    top = img[..., y0[:, None], x0[None, :]] * (1.0 - wx)[None, :] + \
        img[..., y0[:, None], x1[None, :]] * wx[None, :]
    bot = img[..., y1[:, None], x0[None, :]] * (1.0 - wx)[None, :] + \
        img[..., y1[:, None], x1[None, :]] * wx[None, :]
    return (top * (1.0 - wy)[:, None] + bot * wy[:, None]).astype(np.float32)


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


def _sigmoid(t):
    return 0.5 * (1.0 + np.tanh(0.5 * t))


def _objective(w, b, X, y, c):
    margins = y * (X @ w + b)
    return float(0.5 * (w @ w) + c * np.sum(np.logaddexp(0.0, -margins)))


def _gradient(w, b, X, y, c):
    margins = y * (X @ w + b)
    coef = c * (y * _sigmoid(-margins))
    return w - X.T @ coef, float(-np.sum(coef)), margins


def train_binary(X, y, c, init=None):
    """One binary problem by damped Newton-CG-Armijo, one scalar at a time.

    Labels are -1 or +1 and `init` is a warm start (w, b). Returns (w, b).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    dim = X.shape[1]
    if init is None:
        w, b = np.zeros(dim), 0.0
    else:
        w, b = np.array(init[0], dtype=np.float64), float(init[1])

    grad_w, grad_b, margins = _gradient(w, b, X, y, c)
    gnorm0 = float(np.sqrt(grad_w @ grad_w + grad_b * grad_b))
    threshold = DEFAULT_TOL * max(1.0, gnorm0)
    fval = _objective(w, b, X, y, c)
    for _ in range(MAX_ITER):
        gnorm = float(np.sqrt(grad_w @ grad_w + grad_b * grad_b))
        if gnorm <= threshold:
            break
        d = c * _sigmoid(margins) * _sigmoid(-margins)
        step_w, step_b = _newton_direction(X, d, grad_w, grad_b, gnorm, gnorm0)
        descent = float(grad_w @ step_w + grad_b * step_b)
        if descent >= 0:
            step_w, step_b = -grad_w, -grad_b
            descent = -gnorm * gnorm
        alpha = 1.0
        accepted = False
        for _ in range(60):
            trial_w = w + alpha * step_w
            trial_b = b + alpha * step_b
            trial_f = _objective(trial_w, trial_b, X, y, c)
            if trial_f <= fval + 1e-4 * alpha * descent:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
        w, b, fval = trial_w, trial_b, trial_f
        grad_w, grad_b, margins = _gradient(w, b, X, y, c)
    return w, b


def _newton_direction(X, d, grad_w, grad_b, gnorm, gnorm0):
    dim = X.shape[1]
    z_w = np.zeros(dim)
    z_b = 0.0
    r_w = -grad_w.copy()
    r_b = -grad_b
    p_w = r_w.copy()
    p_b = r_b
    rr = float(r_w @ r_w + r_b * r_b)
    eta = min(0.5, np.sqrt(gnorm / max(gnorm0, 1e-30)))
    cg_tol_sq = (eta * gnorm) ** 2
    for it in range(min(dim + 1, 250)):
        if rr <= cg_tol_sq:
            break
        t = d * (X @ p_w + p_b)
        hp_w = p_w + X.T @ t
        hp_b = float(np.sum(t))
        curvature = float(p_w @ hp_w + p_b * hp_b)
        if curvature <= 1e-16 * (p_w @ p_w + p_b * p_b):
            if it == 0:
                return r_w, r_b
            break
        alpha = rr / curvature
        z_w += alpha * p_w
        z_b += alpha * p_b
        r_w -= alpha * hp_w
        r_b -= alpha * hp_b
        rr_new = float(r_w @ r_w + r_b * r_b)
        beta = rr_new / rr
        p_w = r_w + beta * p_w
        p_b = r_b + beta * p_b
        rr = rr_new
    return z_w, z_b


def grid_search_nested(X, labels, folds, seed, c_values):
    """The cost grid search as one nested loop over costs, folds and classes.

    Each (fold, class) solve warm-starts from that pair's solve at the
    previous cost; a fold's accuracy is the argmax of the per-class
    decision values, ties to the smallest class id.
    """
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels)
    c_values = tuple(int(c) for c in c_values)
    assignment = stratified_folds(labels, folds, seed)
    class_ids = sorted(int(v) for v in np.unique(labels))

    splits = []
    for f in range(folds):
        val = assignment == f
        splits.append((X[~val], labels[~val], X[val], labels[val]))

    warm = {}
    accuracies = []
    for c in c_values:
        fold_accs = []
        for f, (X_tr, y_tr, X_val, y_val) in enumerate(splits):
            scores = np.empty((X_val.shape[0], len(class_ids)))
            for k, cls in enumerate(class_ids):
                y_bin = np.where(y_tr == cls, 1.0, -1.0)
                w, b = train_binary(X_tr, y_bin, float(c), init=warm.get((f, k)))
                warm[(f, k)] = (w, b)
                scores[:, k] = X_val @ w + b
            pred = np.asarray(class_ids)[np.argmax(scores, axis=1)]
            fold_accs.append(float(np.mean(pred == y_val)))
        accuracies.append(sum(fold_accs) / folds)

    best = int(np.argmax(accuracies))
    return GridSearchReport(c_values=c_values, accuracies=tuple(accuracies),
                            chosen_c=c_values[best], fold_count=folds)
