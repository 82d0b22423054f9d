"""One-vs-rest L2-regularized logistic regression with cost grid search.

The binary solver minimizes the primal objective

    f(w, b) = 0.5 * ||w||^2 + C * sum_i log(1 + exp(-y_i * (w . x_i + b)))

(bias unregularized, labels in {-1, +1}) with a damped Newton method:
conjugate-gradient inner solves on Hessian-vector products and Armijo
backtracking, so the objective is non-increasing across accepted
iterations. It stops when the gradient norm falls below
``tol * max(1, initial gradient norm)`` or at the iteration cap.

`train_stack` is the one solver. It runs that method on a stack of binary
problems over shared rows at once: the arrays carry the problems' leading
axes, every product with the rows is one matrix product for all of them,
the CG and Armijo scalars are kept per problem, and a per-row cost of zero
leaves a row out of a problem. Every problem is computed at every step; one
that has converged or stalled is frozen by masking, so each follows the
iterations it would follow alone. `train_ovr` is a K-problem call (one
model per class versus the rest), and `grid_search_c` one call per cost
over every (fold, class) pair, warm-started from the previous cost.

When the rows are fewer (N) than the dimensions (D), the problems are
solved in their row space: each optimum satisfies w = X^T a, so with the
thin QR X^T = QR the solver works on R^T (N x N) and w = Qz, while the CG
cap stays that of the original D (Lin, Weng & Keerthi, JMLR 2008, for the
solver). One basis of all the tuning rows holds every fold's row space.

Prediction is the argmax of decision values with ties broken toward the
smallest class id. The cost parameter is tuned by stratified k-fold
cross-validation over the integer grid C = 1..100, ties toward the
smaller C.

A model is saved as an HDFM file, little-endian with no trailing bytes:
magic ``HDFM``, u32 version 2, u32 class count K, dim D and chosen C, then
K int64 class ids, K float64 biases and K x D float64 weights.
`load_model` reads it through `binfile.BoundedReader`, which checks that
the file holds those 8 K (D + 2) bytes before allocating any of them.

Experiment result records reuse chosen C and accuracy across runs, so
bump `experiment.RECORD_VERSION` whenever this module's arithmetic changes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .binfile import BoundedReader, write_file

C_GRID = tuple(range(1, 101))
DEFAULT_TOL = 1e-4
MAX_ITER = 1000
_FOLD_STREAM = 0xF01D
MODEL_MAGIC = b"HDFM"
MODEL_VERSION = 2


class ModelFileError(ValueError):
    """Base class for model-file problems."""


class ModelBadMagicError(ModelFileError):
    pass


class ModelTruncatedError(ModelFileError):
    pass


class TrainingDataError(ValueError):
    """Features or labels that no model can be fitted to, tuned or scored on."""


# ---------------------------------------------------------------------------
# The solver
# ---------------------------------------------------------------------------

def _sigmoid(t: np.ndarray) -> np.ndarray:
    # tanh form is stable for large |t|
    return 0.5 * (1.0 + np.tanh(0.5 * t))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products over the last axis."""
    return np.einsum("...i,...i->...", a, b)


def _times_xt(v: np.ndarray, X: np.ndarray) -> np.ndarray:
    """v X^T for every problem: (..., D) -> (..., N), as one matrix product."""
    return (v.reshape(-1, X.shape[1]) @ X.T).reshape(v.shape[:-1] + (X.shape[0],))


def _times_x(t: np.ndarray, X: np.ndarray) -> np.ndarray:
    """t X for every problem: (..., N) -> (..., D), as one matrix product."""
    return (t.reshape(-1, X.shape[0]) @ X).reshape(t.shape[:-1] + (X.shape[1],))


def _margins(w, b, X, y):
    return y * (_times_xt(w, X) + np.expand_dims(b, -1))


def objective(w, b, X: np.ndarray, y: np.ndarray, c) -> np.ndarray:
    """f(w, b) of every problem in a stack.

    The rows X (N, D) are shared; w (..., D), b (...) and labels y (..., N)
    have the problems' leading axes, and the cost c is a scalar or per row,
    broadcast against y. A row of cost zero is left out of its problem.
    """
    margins = _margins(w, b, X, y)
    return 0.5 * _dot(w, w) + np.sum(c * np.logaddexp(0.0, -margins), axis=-1)


def gradient(w, b, X: np.ndarray, y: np.ndarray, c):
    """Returns (grad_w, grad_b, margins), with the axes of `objective`."""
    margins = _margins(w, b, X, y)
    coef = c * (y * _sigmoid(-margins))
    return w - _times_x(coef, X), -np.sum(coef, axis=-1), margins


def train_stack(X: np.ndarray, y: np.ndarray, c, w: np.ndarray, b: np.ndarray,
                tol: float = DEFAULT_TOL,
                max_cg: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Fit a stack of binary problems on shared rows from (w, b); returns new (w, b).

    Arrays are as in `objective`: X (N, D), labels y (..., N), costs c,
    start w (..., D) and b (...). `max_cg` caps the CG iterations per Newton
    step (default min(D + 1, 250)).
    """
    w = np.array(w, dtype=np.float64)
    b = np.array(b, dtype=np.float64)
    if max_cg is None:
        max_cg = min(X.shape[1] + 1, 250)
    grad_w, grad_b, margins = gradient(w, b, X, y, c)
    gnorm0 = np.sqrt(_dot(grad_w, grad_w) + grad_b * grad_b)
    threshold = tol * np.maximum(1.0, gnorm0)
    fval = objective(w, b, X, y, c)

    active = np.ones(b.shape, dtype=bool)  # neither converged nor stalled
    for _ in range(MAX_ITER):
        gnorm = np.sqrt(_dot(grad_w, grad_w) + grad_b * grad_b)
        active &= gnorm > threshold
        if not active.any():
            break
        d = c * _sigmoid(margins) * _sigmoid(-margins)  # Hessian data weights

        step_w, step_b = _newton_direction(X, d, grad_w, grad_b, gnorm, gnorm0,
                                           active, max_cg)
        descent = _dot(grad_w, step_w) + grad_b * step_b
        uphill = descent >= 0  # CG failed to produce a descent direction
        step_w = np.where(uphill[..., None], -grad_w, step_w)
        step_b = np.where(uphill, -grad_b, step_b)
        descent = np.where(uphill, -gnorm * gnorm, descent)

        alpha = np.ones(b.shape)
        searching = active.copy()
        trial_f = fval
        for _ in range(60):
            f = objective(w + alpha[..., None] * step_w, b + alpha * step_b, X, y, c)
            accepted = searching & (f <= fval + 1e-4 * alpha * descent)
            trial_f = np.where(accepted, f, trial_f)
            searching &= ~accepted
            if not searching.any():
                break
            alpha = np.where(searching, 0.5 * alpha, alpha)
        active &= ~searching  # step underflow; the gradient is already tiny in practice
        # the accepted trial points again, by the same arithmetic
        w = np.where(active[..., None], w + alpha[..., None] * step_w, w)
        b = np.where(active, b + alpha * step_b, b)
        fval = np.where(active, trial_f, fval)
        grad_w, grad_b, margins = gradient(w, b, X, y, c)
    return w, b


def _newton_direction(X, d, grad_w, grad_b, gnorm, gnorm0, active, max_cg):
    """Approximately solve H step = -grad by conjugate gradients, per problem.

    H v = [v_w + X^T (d * (X v_w + v_b)); sum(d * (X v_w + v_b))]. The
    forcing tolerance tightens as the outer gradient shrinks (inexact
    Newton); non-positive curvature stops a problem's inner solve early,
    with steepest descent if it is the first iteration. A stopped problem
    takes CG steps of length zero, which leave it exactly as it was, and a
    problem outside `active` keeps a zero step.
    """
    z_w = np.zeros_like(grad_w)
    z_b = np.zeros_like(grad_b)
    r_w = -grad_w
    r_b = -grad_b
    p_w = r_w
    p_b = r_b
    rr = _dot(r_w, r_w) + r_b * r_b
    eta = np.minimum(0.5, np.sqrt(gnorm / np.maximum(gnorm0, 1e-30)))
    cg_tol_sq = (eta * gnorm) ** 2
    going = active.copy()
    for it in range(max_cg):
        going &= rr > cg_tol_sq
        if not going.any():
            break
        t = d * (_times_xt(p_w, X) + p_b[..., None])
        hp_w = p_w + _times_x(t, X)
        hp_b = np.sum(t, axis=-1)
        curvature = _dot(p_w, hp_w) + p_b * hp_b
        flat = going & (curvature <= 1e-16 * (_dot(p_w, p_w) + p_b * p_b))
        if it == 0:  # fall back to steepest descent
            z_w = np.where(flat[..., None], r_w, z_w)
            z_b = np.where(flat, r_b, z_b)
        going &= ~flat
        alpha = np.where(going, rr, 0.0) / np.where(going, curvature, 1.0)
        z_w = z_w + alpha[..., None] * p_w
        z_b = z_b + alpha * p_b
        r_w = r_w - alpha[..., None] * hp_w
        r_b = r_b - alpha * hp_b
        rr_new = _dot(r_w, r_w) + r_b * r_b
        beta = rr_new / np.where(going, rr, 1.0)
        p_w = np.where(going[..., None], r_w + beta[..., None] * p_w, p_w)
        p_b = np.where(going, r_b + beta * p_b, p_b)
        rr = np.where(going, rr_new, rr)
    return z_w, z_b


def _check_training_inputs(X: np.ndarray, labels: np.ndarray, c: float):
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels)
    if X.ndim != 2 or labels.ndim != 1 or X.shape[0] != labels.shape[0]:
        raise ValueError(f"bad shapes X{X.shape} labels{labels.shape}")
    if X.shape[0] < 2:
        raise TrainingDataError("need at least 2 samples")
    if X.shape[1] == 0:
        raise TrainingDataError("features have no dimensions")
    if not np.all(np.isfinite(X)):
        raise TrainingDataError("features contain non-finite values")
    if labels.min() == labels.max():
        raise TrainingDataError("need at least 2 classes")
    if not (np.isfinite(c) and c > 0):
        raise ValueError(f"cost parameter must be positive, got {c}")
    return X, labels


# ---------------------------------------------------------------------------
# One-vs-rest multiclass
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearModel:
    """Per-class weight vectors and biases for one-vs-rest prediction."""

    class_ids: tuple[int, ...]
    weights: np.ndarray  # (K, D) float64
    biases: np.ndarray  # (K,) float64
    best_c: int

    @property
    def feature_dim(self) -> int:
        return int(self.weights.shape[1])

    def __post_init__(self):
        if len(self.class_ids) < 2:
            raise ValueError("need at least 2 classes")
        if list(self.class_ids) != sorted(set(self.class_ids)):
            raise ValueError("class ids must be unique and ascending")
        if self.weights.shape[0] != len(self.class_ids) or self.biases.shape != (
            len(self.class_ids),
        ):
            raise ValueError(
                f"weights {self.weights.shape} / biases {self.biases.shape} do not "
                f"match {len(self.class_ids)} classes"
            )
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.biases))):
            raise ValueError("model parameters must be finite")


def _one_vs_rest(labels: np.ndarray, class_ids: np.ndarray) -> np.ndarray:
    """(K, N) labels: +1 for the class of each row, -1 for the rest."""
    return np.where(labels == class_ids[:, None], 1.0, -1.0)


def train_ovr(X: np.ndarray, labels: np.ndarray, c: float) -> LinearModel:
    """Train one binary model per class (that class vs. the rest), all K in
    one stacked solve, in the row space of X when it has fewer rows than dims."""
    if float(c) != int(c):
        raise ValueError(f"one-vs-rest training uses integer costs, got {c}")
    X, labels = _check_training_inputs(X, labels, c)
    class_ids = np.unique(labels)
    basis, A = None, X
    if X.shape[0] < X.shape[1]:  # rows in the basis Q of their span: X^T = QR, X Q = R^T
        basis, r = np.linalg.qr(X.T)
        A = np.ascontiguousarray(r.T)
    z, b = train_stack(A, _one_vs_rest(labels, class_ids), float(c),
                       np.zeros((class_ids.size, A.shape[1])), np.zeros(class_ids.size),
                       max_cg=min(X.shape[1] + 1, 250))
    return LinearModel(class_ids=tuple(int(v) for v in class_ids),
                       weights=z if basis is None else z @ basis.T, biases=b,
                       best_c=int(c))


def decision_values(model: LinearModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.feature_dim:
        raise ValueError(
            f"features have dim {X.shape[1] if X.ndim == 2 else '?'}, "
            f"model expects {model.feature_dim}"
        )
    return X @ model.weights.T + model.biases


def predict(model: LinearModel, X: np.ndarray) -> np.ndarray:
    """Argmax of decision values; ties go to the smallest class id."""
    scores = decision_values(model, X)
    ids = np.asarray(model.class_ids)
    return ids[np.argmax(scores, axis=1)]


def evaluate(model: LinearModel, X: np.ndarray, y: np.ndarray) -> float:
    """Fraction of correctly predicted samples."""
    y = np.asarray(y)
    if not y.size:
        raise TrainingDataError("no samples to evaluate")
    if not np.all(np.isfinite(X)):  # the argmax of NaN scores would pick a class
        raise TrainingDataError("features contain non-finite values")
    pred = predict(model, X)
    if pred.shape != y.shape:
        raise ValueError(f"label shape {y.shape} does not match {pred.shape}")
    return float(np.mean(pred == y))


# ---------------------------------------------------------------------------
# Cost grid search
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSearchReport:
    """Mean cross-validation accuracy per cost value and the chosen cost."""

    c_values: tuple[int, ...]
    accuracies: tuple[float, ...]
    chosen_c: int
    fold_count: int


def stratified_folds(labels: np.ndarray, folds: int, seed: int) -> np.ndarray:
    """Deterministic stratified fold assignment (0..folds-1 per sample).

    Each class is shuffled with its own counter-based stream
    (SeedSequence([seed, stream, class position])) and dealt round-robin,
    so every fold sees a near-equal share of every class.
    """
    labels = np.asarray(labels)
    if folds < 2:
        raise ValueError(f"need at least 2 folds, got {folds}")
    assignment = np.empty(labels.shape[0], dtype=np.intp)
    for pos, cls in enumerate(np.unique(labels)):
        idx = np.flatnonzero(labels == cls)
        if idx.size < folds:
            raise TrainingDataError(
                f"class {cls} has {idx.size} samples, fewer than {folds} folds"
            )
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), _FOLD_STREAM, pos]))
        perm = rng.permutation(idx)
        assignment[perm] = np.arange(perm.size) % folds
    return assignment


def grid_search_c(
    X: np.ndarray,
    labels: np.ndarray,
    folds: int = 5,
    seed: int = 0,
    c_values=C_GRID,
) -> GridSearchReport:
    """Tune the cost parameter by stratified k-fold cross-validation.

    Every candidate cost is evaluated on the same folds; the winner is the
    cost with the highest mean validation accuracy, smallest cost on ties.
    Each cost is one `train_stack` call over every (fold, class) problem,
    warm-started from the previous cost's solutions, which changes nothing
    about the optimum but speeds convergence considerably.

    Every fold's problems share all the rows, with cost zero on the fold's
    own rows, so they train on the other folds alone. With fewer rows than
    dims the rows are taken in one orthonormal basis of their span, which
    holds every fold's row space.
    """
    c_values = tuple(int(c) for c in c_values)
    X, labels = _check_training_inputs(X, labels, min(c_values))
    assignment = stratified_folds(labels, folds, seed)
    class_ids = np.unique(labels)
    A = X
    if X.shape[0] < X.shape[1]:  # X Q = R^T as in train_ovr; Q itself is never formed
        A = np.ascontiguousarray(np.linalg.qr(X.T, mode="r").T)
    y = _one_vs_rest(labels, class_ids)
    trains = (assignment != np.arange(folds)[:, None])[:, None, :]  # (F, 1, N)
    held_out = np.bincount(assignment, minlength=folds).tolist()
    truth = np.searchsorted(class_ids, labels)

    w = np.zeros((folds, class_ids.size, A.shape[1]))
    b = np.zeros((folds, class_ids.size))
    accuracies = []
    for c in c_values:
        w, b = train_stack(A, y, float(c) * trains, w, b, max_cg=min(X.shape[1] + 1, 250))
        # each row is scored by the models of the fold that holds it out
        scores = np.swapaxes(_times_xt(w, A), -1, -2) + b[:, None, :]  # (F, N, K)
        hits = np.argmax(scores[assignment, np.arange(labels.size)], axis=-1) == truth
        correct = np.bincount(assignment[hits], minlength=folds).tolist()
        accuracies.append(sum(k / n for k, n in zip(correct, held_out)) / folds)

    best = int(np.argmax(accuracies))  # first max = smallest C on ties
    return GridSearchReport(
        c_values=c_values,
        accuracies=tuple(accuracies),
        chosen_c=c_values[best],
        fold_count=folds,
    )


# ---------------------------------------------------------------------------
# Model files (HDFM, see the module docstring)
# ---------------------------------------------------------------------------

def save_model(model: LinearModel, path: str) -> None:
    """Write an HDFM file; it round-trips bit-identically."""
    k, dim = model.weights.shape
    arrays = (model.class_ids, "<i8"), (model.biases, "<f8"), (model.weights, "<f8")
    write_file(path, [MODEL_MAGIC + struct.pack("<4I", MODEL_VERSION, k, dim, model.best_c),
                      *(np.ascontiguousarray(a, dtype) for a, dtype in arrays)])


def load_model(path: str) -> LinearModel:
    """Read an HDFM file; malformed content raises :class:`ModelFileError`."""
    with open(path, "rb") as fh:
        rd = BoundedReader(fh, path, ModelTruncatedError, "model")
        magic = rd.take(4, "magic")
        if magic != MODEL_MAGIC:
            raise ModelBadMagicError(f"{path}: bad magic {magic!r}, expected {MODEL_MAGIC!r}")
        version, k, dim, best_c = rd.unpack("<4I", "header")
        if struct.pack("<I", version).startswith(b" 1\n"):  # "HDFM 1\nclasses ..."
            raise ModelFileError(f"{path}: a model in the old HDFM 1 text layout; retrain it")
        if version != MODEL_VERSION:
            raise ModelFileError(f"{path}: unsupported model version {version}")
        rd.need(8 * k * (dim + 2), f"{k} classes of {dim} weights")
        ids = rd.read_into(np.empty(k, "<i8"), "class ids")
        biases = rd.read_into(np.empty(k, "<f8"), "biases")
        weights = rd.read_into(np.empty((k, dim), "<f8"), "weights")
        if rd.left:
            raise ModelFileError(f"{path}: {rd.left} trailing bytes after the weights")
    try:
        return LinearModel(tuple(ids.tolist()), weights, biases, best_c)
    except ValueError as exc:
        raise ModelFileError(f"{path}: {exc}") from None
