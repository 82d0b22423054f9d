"""One-vs-rest L2-regularized logistic regression with cost grid search.

The binary solver minimizes the primal objective

    f(w, b) = 0.5 * ||w||^2 + C * sum_i log(1 + exp(-y_i * (w . x_i + b)))

(bias unregularized, labels in {-1, +1}) with a damped Newton method:
conjugate-gradient inner solves on Hessian-vector products and Armijo
backtracking, so the objective is non-increasing across accepted
iterations. It stops when the gradient norm falls below
``tol * max(1, initial gradient norm)`` or at the iteration cap.

Multiclass is one binary model per class versus the rest; prediction is
the argmax of decision values with ties broken toward the smallest class
id. The cost parameter is tuned by stratified k-fold cross-validation
over the integer grid C = 1..100, ties toward the smaller C.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

C_GRID = tuple(range(1, 101))
DEFAULT_TOL = 1e-4
MAX_ITER = 1000
_FOLD_STREAM = 0xF01D


class ModelFileError(ValueError):
    """Base class for model-file problems."""


class ModelBadMagicError(ModelFileError):
    pass


class ModelTruncatedError(ModelFileError):
    pass


# ---------------------------------------------------------------------------
# Binary solver
# ---------------------------------------------------------------------------

def _sigmoid(t: np.ndarray) -> np.ndarray:
    # tanh form is stable for large |t|
    return 0.5 * (1.0 + np.tanh(0.5 * t))


def objective(w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray, c: float) -> float:
    margins = y * (X @ w + b)
    return float(0.5 * (w @ w) + c * np.sum(np.logaddexp(0.0, -margins)))


def gradient(w: np.ndarray, b: float, X: np.ndarray, y: np.ndarray, c: float):
    """Returns (grad_w, grad_b, margins)."""
    margins = y * (X @ w + b)
    coef = c * (y * _sigmoid(-margins))
    return w - X.T @ coef, float(-np.sum(coef)), margins


def _check_training_inputs(X: np.ndarray, y: np.ndarray, c: float):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ValueError(f"bad shapes X{X.shape} y{y.shape}")
    if X.shape[0] < 2:
        raise ValueError("need at least 2 samples")
    if not np.all(np.isfinite(X)):
        raise ValueError("features contain non-finite values")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    if y.min() == y.max():
        raise ValueError("both classes must be present")
    if not (np.isfinite(c) and c > 0):
        raise ValueError(f"cost parameter must be positive, got {c}")
    return X, y


def train_binary(
    X: np.ndarray,
    y: np.ndarray,
    c: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = MAX_ITER,
    init: tuple[np.ndarray, float] | None = None,
    history: list | None = None,
) -> tuple[np.ndarray, float]:
    """Fit one binary model; returns (w, b).

    `init` warm-starts the solver (used by the grid search along the C
    path). If `history` is a list, the objective value after each accepted
    iteration is appended to it.
    """
    X, y = _check_training_inputs(X, y, c)
    n, dim = X.shape
    if init is None:
        w = np.zeros(dim)
        b = 0.0
    else:
        w = np.array(init[0], dtype=np.float64, copy=True)
        b = float(init[1])
        if w.shape != (dim,):
            raise ValueError(f"warm start has dim {w.shape}, expected ({dim},)")

    grad_w, grad_b, margins = gradient(w, b, X, y, c)
    gnorm0 = float(np.sqrt(grad_w @ grad_w + grad_b * grad_b))
    threshold = tol * max(1.0, gnorm0)
    fval = objective(w, b, X, y, c)
    if history is not None:
        history.append(fval)

    for _ in range(max_iter):
        gnorm = float(np.sqrt(grad_w @ grad_w + grad_b * grad_b))
        if gnorm <= threshold:
            break
        d = c * _sigmoid(margins) * _sigmoid(-margins)  # Hessian data weights

        step_w, step_b = _newton_direction(X, d, grad_w, grad_b, gnorm, gnorm0)
        descent = float(grad_w @ step_w + grad_b * step_b)
        if descent >= 0:  # CG failed to produce a descent direction
            step_w, step_b = -grad_w, -grad_b
            descent = -gnorm * gnorm

        alpha = 1.0
        accepted = False
        for _ in range(60):
            trial_w = w + alpha * step_w
            trial_b = b + alpha * step_b
            trial_f = objective(trial_w, trial_b, X, y, c)
            if trial_f <= fval + 1e-4 * alpha * descent:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break  # step underflow; gradient is already tiny in practice
        w, b, fval = trial_w, trial_b, trial_f
        if history is not None:
            history.append(fval)
        grad_w, grad_b, margins = gradient(w, b, X, y, c)
    return w, b


def _newton_direction(X, d, grad_w, grad_b, gnorm, gnorm0):
    """Approximately solve H step = -grad by conjugate gradients.

    H v = [v_w + X^T (d * (X v_w + v_b)); sum(d * (X v_w + v_b))]. The
    forcing tolerance tightens as the outer gradient shrinks (inexact
    Newton); non-positive curvature stops the inner solve early.
    """
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
        Xp = X @ p_w + p_b
        t = d * Xp
        hp_w = p_w + X.T @ t
        hp_b = float(np.sum(t))
        curvature = float(p_w @ hp_w + p_b * hp_b)
        if curvature <= 1e-16 * (p_w @ p_w + p_b * p_b):
            if it == 0:
                return r_w, r_b  # fall back to steepest descent
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


def train_ovr(X: np.ndarray, labels: np.ndarray, c: float,
              tol: float = DEFAULT_TOL) -> LinearModel:
    """Train one binary model per class (that class vs. the rest)."""
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels)
    if float(c) != int(c):
        raise ValueError(f"one-vs-rest training uses integer costs, got {c}")
    class_ids = sorted(int(v) for v in np.unique(labels))
    if len(class_ids) < 2:
        raise ValueError("need at least 2 classes")
    weights = np.empty((len(class_ids), X.shape[1]))
    biases = np.empty(len(class_ids))
    for k, cls in enumerate(class_ids):
        y = np.where(labels == cls, 1.0, -1.0)
        weights[k], biases[k] = train_binary(X, y, float(c), tol=tol)
    return LinearModel(class_ids=tuple(class_ids), weights=weights, biases=biases,
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
            raise ValueError(
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
    tol: float = DEFAULT_TOL,
) -> GridSearchReport:
    """Tune the cost parameter by stratified k-fold cross-validation.

    Every candidate cost is evaluated on the same folds; the winner is the
    cost with the highest mean validation accuracy, smallest cost on ties.
    Solvers are warm-started along the ascending cost path, which changes
    nothing about the optimum but speeds convergence considerably.
    """
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels)
    c_values = tuple(int(c) for c in c_values)
    if any(c <= 0 for c in c_values):
        raise ValueError("cost values must be positive")
    assignment = stratified_folds(labels, folds, seed)
    class_ids = sorted(int(v) for v in np.unique(labels))

    splits = []
    for f in range(folds):
        val = assignment == f
        splits.append((X[~val], labels[~val], X[val], labels[val]))

    warm: dict[tuple[int, int], tuple[np.ndarray, float]] = {}
    accuracies = []
    for c in c_values:
        fold_accs = []
        for f, (X_tr, y_tr, X_val, y_val) in enumerate(splits):
            scores = np.empty((X_val.shape[0], len(class_ids)))
            for k, cls in enumerate(class_ids):
                y_bin = np.where(y_tr == cls, 1.0, -1.0)
                w, b = train_binary(X_tr, y_bin, float(c), tol=tol,
                                    init=warm.get((f, k)))
                warm[(f, k)] = (w, b)
                scores[:, k] = X_val @ w + b
            pred = np.asarray(class_ids)[np.argmax(scores, axis=1)]
            fold_accs.append(float(np.mean(pred == y_val)))
        accuracies.append(sum(fold_accs) / folds)

    best = int(np.argmax(accuracies))  # first max = smallest C on ties
    return GridSearchReport(
        c_values=c_values,
        accuracies=tuple(accuracies),
        chosen_c=c_values[best],
        fold_count=folds,
    )


# ---------------------------------------------------------------------------
# Model files (magic line "HDFM 1")
# ---------------------------------------------------------------------------

def save_model(model: LinearModel, path: str) -> None:
    """Write the textual model format; floats use shortest round-trip repr."""
    lines = [
        "HDFM 1",
        f"classes {len(model.class_ids)}",
        f"dim {model.feature_dim}",
        f"C {model.best_c}",
    ]
    for k, cls in enumerate(model.class_ids):
        floats = " ".join(repr(float(v)) for v in model.weights[k])
        lines.append(f"class {cls} {repr(float(model.biases[k]))} {floats}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_model(path: str) -> LinearModel:
    """Read an HDFM file; malformed content raises :class:`ModelFileError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError:
        raise ModelFileError(f"{path}: not UTF-8 text") from None
    if not lines or lines[0] != "HDFM 1":
        head = lines[0] if lines else ""
        raise ModelBadMagicError(f"{path}: bad header {head!r}, expected 'HDFM 1'")

    def header(i: int, key: str) -> int:
        if i >= len(lines):
            raise ModelTruncatedError(f"{path}: missing {key} line")
        parts = lines[i].split()
        if len(parts) != 2 or parts[0] != key or not parts[1].isdecimal():
            raise ModelFileError(f"{path}: expected '{key} <value>', got {lines[i]!r}")
        return int(parts[1])

    k = header(1, "classes")
    dim = header(2, "dim")
    best_c = header(3, "C")
    rows = [l for l in lines[4:] if l.strip()]
    if len(rows) < k:
        raise ModelTruncatedError(f"{path}: {len(rows)} class lines, header says {k}")
    if len(rows) > k:
        raise ModelFileError(f"{path}: {len(rows)} class lines, header says {k}")
    class_ids, biases, weights = [], [], []
    for row, line in enumerate(rows):
        parts = line.split()
        if len(parts) != 3 + dim or parts[0] != "class":
            raise ModelFileError(
                f"{path}: class line {row} has {len(parts)} fields, expected {3 + dim}"
            )
        try:
            class_ids.append(int(parts[1]))
            biases.append(float(parts[2]))
            weights.append([float(v) for v in parts[3:]])
        except ValueError as exc:
            raise ModelFileError(f"{path}: class line {row}: {exc}") from None
    # allocated only now, so a huge declared dim cannot outgrow the file
    try:
        return LinearModel(class_ids=tuple(class_ids),
                           weights=np.array(weights, dtype=np.float64).reshape(k, dim),
                           biases=np.array(biases, dtype=np.float64), best_c=best_c)
    except ValueError as exc:
        raise ModelFileError(f"{path}: {exc}") from None
