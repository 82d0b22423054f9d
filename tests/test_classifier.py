import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scenefuse import classifier
from scenefuse.classifier import (
    C_GRID, LinearModel, ModelBadMagicError, ModelFileError, ModelTruncatedError,
    decision_values, evaluate, gradient, grid_search_c, load_model, objective,
    predict, save_model, stratified_folds, train_ovr, train_stack,
)

import oracles
from conftest import traced_peak
from corruption import corruptions, load_bytes, saved_bytes
from oracles import grid_search_nested, logreg_brute_force, logreg_objective

VALID_MODEL = saved_bytes(save_model, LinearModel(
    class_ids=(0, 1), weights=np.array([[0.5, -1.25], [2.0, 0.125]]),
    biases=np.array([0.1, -0.2]), best_c=3))
# magic, then u32 version, class count, dim and C, then ids, biases and weights
HEADER, WEIGHTS = 4, 4 + 16 + 8 * 2 * 2


def patched(data: bytes, offset: int, fmt: str, *values) -> bytes:
    """`data` with `values` packed over the bytes at `offset`."""
    buf = bytearray(data)
    struct.pack_into(fmt, buf, offset, *values)
    return bytes(buf)


NAN_WEIGHT = patched(VALID_MODEL, WEIGHTS, "<d", float("nan"))
MORE_CLASSES = patched(VALID_MODEL, HEADER + 4, "<I", 3)


def blobs(rng, k=3, per_class=30, dim=8, spread=6.0, noise=0.4):
    centers = rng.normal(0, spread, (k, dim))
    X = np.concatenate([c + rng.normal(0, noise, (per_class, dim)) for c in centers])
    y = np.repeat(np.arange(k), per_class)
    return X, y


def descriptors(rng, k=3, per_class=7, dim=64, noise=1.5):
    """Overlapping classes of non-negative unit-norm rows, like fused descriptors."""
    centres = np.abs(rng.standard_normal((k, dim)))
    y = np.repeat(np.arange(k), per_class)
    X = np.maximum(centres[y] + noise * rng.standard_normal((y.size, dim)), 0) + 1e-3
    return X / np.linalg.norm(X, axis=1, keepdims=True), y


def fit(X, y, c, **kwargs):
    """One binary problem (labels -1 or +1) through `train_stack`, from zero."""
    return train_stack(X, y, c, np.zeros(X.shape[1]), 0.0, **kwargs)


def relative_gap(w, b, w_ref, b_ref):
    """Distance between two (w, b), relative to the reference, or absolute below norm 1."""
    ref = np.append(w_ref, b_ref)
    return np.linalg.norm(np.append(w, b) - ref) / max(np.linalg.norm(ref), 1.0)


def row_basis(X):
    """Q of the thin QR of X^T where X has fewer rows than columns, else None
    (the basis the classifier solves in)."""
    return np.linalg.qr(X.T)[0] if X.shape[0] < X.shape[1] else None


class TestBinarySolver:
    def test_separable_reaches_full_accuracy(self, rng):
        X, y = blobs(rng, k=2)
        y = np.where(y == 0, 1.0, -1.0)
        w, b = fit(X, y, 10.0)
        assert (np.sign(X @ w + b) == y).all()

    def test_gradient_matches_finite_differences(self):
        worst = 0.0
        for trial in range(50):
            r = np.random.default_rng(trial)
            n, dim = 25, 7
            X = r.normal(0, 2, (n, dim))
            y = r.choice([-1.0, 1.0], n)
            w = r.normal(0, 1, dim)
            b = float(r.normal())
            c = float(r.uniform(0.5, 20))
            gw, gb, _ = gradient(w, b, X, y, c)
            g = np.concatenate([gw, [gb]])
            eps = 1e-5
            fd = np.empty(dim + 1)
            for i in range(dim):
                e = np.zeros(dim)
                e[i] = eps
                fd[i] = (objective(w + e, b, X, y, c)
                         - objective(w - e, b, X, y, c)) / (2 * eps)
            fd[dim] = (objective(w, b + eps, X, y, c)
                       - objective(w, b - eps, X, y, c)) / (2 * eps)
            worst = max(worst, np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12))
        assert worst <= 1e-4

    def test_objective_matches_independent_form(self, rng):
        X = rng.normal(0, 2, (12, 4))
        y = rng.choice([-1.0, 1.0], 12)
        w = rng.normal(0, 1, 4)
        assert objective(w, 0.7, X, y, 3.0) == pytest.approx(
            logreg_objective(w, 0.7, X, y, 3.0), rel=1e-12)

    def test_four_point_matches_brute_force(self):
        X = np.array([[1.2, 0.1], [0.2, 1.0], [-1.0, -0.3], [-0.1, -1.1]])
        y = np.array([1.0, 1.0, -1.0, -1.0])
        c = 2.0
        w, b = fit(X, y, c, tol=1e-8)
        ours = objective(w, b, X, y, c)
        brute = logreg_brute_force(X, y, c, dim=2, seed=0)
        assert abs(ours - brute) <= 1e-3

    def test_objective_monotone_over_iterations(self, rng):
        X, y = blobs(rng, k=2, noise=2.0)
        y = np.where(y == 0, 1.0, -1.0)
        history = []
        fit(X, y, 5.0, history=history)
        assert len(history) >= 2
        assert all(later <= earlier + 1e-12
                   for earlier, later in zip(history, history[1:]))

    def test_regularization_path_shrinks_weights(self, rng):
        X, y = blobs(rng, k=2, noise=1.5)
        y = np.where(y == 0, 1.0, -1.0)
        norms = []
        for c in (0.01, 0.1, 1.0, 10.0):
            w, _ = fit(X, y, c, tol=1e-8)
            norms.append(np.linalg.norm(w))
        assert all(a < b + 1e-9 for a, b in zip(norms, norms[1:]))

    def test_shift_invariance_through_bias(self, rng):
        X, y = blobs(rng, k=2, noise=1.0, dim=5)
        y = np.where(y == 0, 1.0, -1.0)
        shift = rng.normal(0, 3, 5)
        w1, b1 = fit(X, y, 4.0, tol=1e-9)
        w2, b2 = fit(X + shift, y, 4.0, tol=1e-9)
        d1 = X @ w1 + b1
        d2 = (X + shift) @ w2 + b2
        assert np.max(np.abs(d1 - d2)) <= 1e-3

    @pytest.mark.parametrize("bad", [
        lambda X, y: (X, np.ones_like(y)),              # single class
        lambda X, y: (X * np.nan, y),                   # non-finite
    ])
    def test_degenerate_inputs_rejected(self, bad, rng):
        # every entry point checks its inputs in `_check_training_inputs`
        X, y = blobs(rng, k=2)
        X2, y2 = bad(X, y)
        with pytest.raises(ValueError):
            train_ovr(X2, y2, 1)

    def test_nonpositive_cost_rejected(self, rng):
        X, y = blobs(rng, k=2)
        with pytest.raises(ValueError, match="positive"):
            train_ovr(X, y, 0)


class TestOneVsRest:
    def test_three_clusters_full_accuracy(self, rng):
        X, y = blobs(rng, k=3)
        model = train_ovr(X, y, 10)
        assert evaluate(model, X, y) == 1.0

    def test_binary_agrees_with_sign_rule(self, rng):
        X, y = blobs(rng, k=2, noise=3.0)
        model = train_ovr(X, y, 3)
        y_signed = np.where(y == 1, 1.0, -1.0)
        w, b = fit(X, y_signed, 3.0)
        sign_pred = np.where(X @ w + b > 0, 1, 0)
        assert np.array_equal(predict(model, X), sign_pred)

    def test_label_permutation_consistency(self, rng):
        X, y = blobs(rng, k=3)
        mapping = {0: 7, 1: 2, 2: 5}
        y2 = np.vectorize(mapping.get)(y)
        pred1 = predict(train_ovr(X, y, 5), X)
        pred2 = predict(train_ovr(X, y2, 5), X)
        assert np.array_equal(np.vectorize(mapping.get)(pred1), pred2)

    def test_non_integer_cost_rejected(self, rng):
        X, y = blobs(rng, k=2)
        with pytest.raises(ValueError, match="integer"):
            train_ovr(X, y, 2.5)

    def test_dimension_mismatch_on_predict(self, rng):
        X, y = blobs(rng, k=2, dim=6)
        model = train_ovr(X, y, 2)
        with pytest.raises(ValueError, match="dim"):
            decision_values(model, X[:, :4])

    def test_evaluate_extremes(self, rng):
        X, y = blobs(rng, k=2)
        model = train_ovr(X, y, 5)
        assert evaluate(model, X, y) == 1.0
        wrong = 1 - y
        assert evaluate(model, X, wrong) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_evaluate_rejects_non_finite_rows(self, bad, rng):
        # the argmax of a NaN row's scores is its first class, right or not
        X, y = blobs(rng, k=2)
        model = train_ovr(X, y, 5)
        X[3] = bad
        with pytest.raises(classifier.TrainingDataError, match="non-finite"):
            evaluate(model, X, y)

    @pytest.mark.parametrize("dim", [8, 64])
    def test_matches_per_class_oracle_solves(self, dim, rng):
        # 45 rows: the full space at dim 8, the row space (w = Qz) at dim 64
        X, y = descriptors(rng, per_class=15, dim=dim)
        model = train_ovr(X, y, 5)
        for k, cls in enumerate(model.class_ids):
            w, b = oracles.train_binary(X, np.where(y == cls, 1.0, -1.0), 5.0)
            assert relative_gap(model.weights[k], model.biases[k], w, b) <= 1e-8
        assert model.best_c == 5


class TestStackedSolver:
    @settings(max_examples=60, deadline=None)
    @given(groups=st.integers(1, 3), classes=st.integers(1, 3), rows=st.integers(2, 24),
           dims=st.integers(1, 24), cost=st.integers(1, 10), warm=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @example(groups=2, classes=3, rows=7, dims=20, cost=10, warm=False, seed=0)
    @example(groups=3, classes=2, rows=20, dims=7, cost=3, warm=True, seed=1)
    def test_each_problem_follows_the_scalar_oracle(self, groups, classes, rows, dims,
                                                     cost, warm, seed):
        """Groups of problems train on random row subsets (cost zero on the rest).

        Unit-norm rows and C <= 10 keep the problems well conditioned. At C
        near 100 a 1-ulp change of the rows moves the scalar oracle's own
        result by up to ~2e-4, so no two orders of arithmetic can agree to
        1e-8 there.
        """
        r = np.random.default_rng(seed)
        labels = r.integers(0, 3, rows)
        centres = np.abs(r.standard_normal((3, dims)))
        X = np.maximum(centres[labels] + r.uniform(0.2, 3) * r.standard_normal((rows, dims)),
                       0) + 1e-3
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        y = np.where(labels == r.integers(0, 3, (classes, 1)), 1.0, -1.0)
        y[:, :2] = [1.0, -1.0]  # rows 0 and 1, always kept, give both labels
        keep = r.random((groups, 1, rows)) < 0.7
        keep[..., :2] = True
        w0 = r.normal(0, 1, (groups, classes, dims)) if warm else np.zeros((groups, classes, dims))
        b0 = r.normal(0, 1, (groups, classes)) if warm else np.zeros((groups, classes))
        w, b = train_stack(X, y, cost * keep.astype(float), w0, b0)
        for g in range(groups):
            rows_g = keep[g, 0]
            for k in range(classes):
                w_ref, b_ref = oracles.train_binary(X[rows_g], y[k, rows_g], float(cost),
                                                    init=(w0[g, k], b0[g, k]))
                assert relative_gap(w[g, k], b[g, k], w_ref, b_ref) <= 1e-8

    def test_converged_problem_comes_back_unchanged(self, rng):
        X, y = blobs(rng, k=2, per_class=10, dim=5, noise=2.0)
        y = np.where(y == 0, 1.0, -1.0)
        w, b = fit(X, y, 3.0, tol=1e-10)
        # problem 0 starts at its optimum and is frozen at once; problem 1 starts cold
        ws, bs = train_stack(X, y, 3.0, np.stack([w, np.zeros(5)]), np.array([b, 0.0]))
        assert np.array_equal(ws[0], w) and bs[0] == b
        assert relative_gap(ws[1], bs[1], *oracles.train_binary(X, y, 3.0)) <= 1e-8


class TestGridSearch:
    def test_covers_full_grid_and_breaks_ties_low(self, rng):
        X, y = blobs(rng, k=2, per_class=12, noise=0.1)
        report = grid_search_c(X, y, folds=3, seed=0)
        assert report.c_values == tuple(range(1, 101))
        assert len(report.accuracies) == 100
        # trivially separable: every C gives the same accuracy -> C = 1
        assert len(set(report.accuracies)) == 1
        assert report.chosen_c == 1

    def test_chosen_matches_independent_rescan(self, rng):
        X, y = blobs(rng, k=3, per_class=10, noise=5.0, spread=2.0)
        report = grid_search_c(X, y, folds=5, seed=3)
        table = dict(zip(report.c_values, report.accuracies))
        best = max(table.values())
        expected = min(c for c, a in table.items() if a == best)
        assert report.chosen_c == expected

    def test_deterministic_given_seed(self, rng):
        X, y = blobs(rng, k=2, per_class=10, noise=4.0, spread=1.0)
        a = grid_search_c(X, y, folds=4, seed=9, c_values=range(1, 8))
        b = grid_search_c(X, y, folds=4, seed=9, c_values=range(1, 8))
        assert a == b

    @pytest.mark.parametrize("case", ["overlapping", "sparse_ids", "separable",
                                      "few_rows", "few_unnormalised_rows"])
    def test_matches_nested_loop_oracle(self, case, rng, monkeypatch):
        # few_*: 3 classes x 7 rows at 64 dims, solved in the 21-dim row space;
        # the folds hold out 3 or 6 rows, so they train on 15 to 18
        if case == "separable":
            X, y = blobs(rng, k=2, per_class=12, noise=0.1)
            folds, seed = 3, 0
        elif case == "few_rows":
            X, y = descriptors(rng, noise=5.0)
            folds, seed = 5, 1
        elif case == "few_unnormalised_rows":
            X, y = blobs(rng, k=3, per_class=7, dim=64, noise=8.0, spread=2.0)
            folds, seed = 5, 3
        else:
            X, y = blobs(rng, k=3, per_class=10, noise=5.0, spread=2.0)
            folds, seed = 5, 3
            if case == "sparse_ids":
                y = np.array([2, 5, 7])[y]

        solves, oracle_solves = [], []

        def stacked(A, y, c, w, b, **kwargs):
            result = train_stack(A, y, c, w, b, **kwargs)
            solves.append((float(np.max(c)), w.copy(), b.copy(), result))
            return result

        def per_class(X, y, c, init=None, scalar=oracles.train_binary):
            result = scalar(X, y, c, init=init)
            oracle_solves.append(result)
            return result

        monkeypatch.setattr(classifier, "train_stack", stacked)
        monkeypatch.setattr(oracles, "train_binary", per_class)
        report = grid_search_nested(X, y, folds, seed, C_GRID)
        assert grid_search_c(X, y, folds=folds, seed=seed) == report
        if case == "separable":
            assert len(set(report.accuracies)) == 1 and report.chosen_c == 1
        else:
            assert len(set(report.accuracies)) > 1

        # one stacked solve per cost, ascending, each from the previous result
        assert [c for c, *_ in solves] == list(C_GRID)
        assert not solves[0][1].any() and not solves[0][2].any()
        for (*_, (w, b)), (_, w0, b0, _) in zip(solves, solves[1:]):
            assert np.array_equal(w0, w) and np.array_equal(b0, b)
        if case == "few_unnormalised_rows":
            # rows of norm ~64 make the larger costs ill-conditioned: a 1-ulp
            # change of X moves the scalar oracle's own path by 1.3e-3, and
            # the two paths drift 2.4e-3 apart, so only the report can agree
            return
        # and every (fold, class) result is the oracle's warm-started solve
        basis = row_basis(X)
        oracle_iter = iter(oracle_solves)
        for *_, (w, b) in solves:
            for f in range(folds):
                for k in range(len(np.unique(y))):
                    w_ref, b_ref = next(oracle_iter)
                    w_fk = w[f, k] if basis is None else basis @ w[f, k]
                    assert relative_gap(w_fk, b[f, k], w_ref, b_ref) <= 1e-8

    def test_small_class_rejected(self, rng):
        X, y = blobs(rng, k=2, per_class=3)
        with pytest.raises(ValueError, match="folds"):
            grid_search_c(X, y, folds=5)

    def test_stratified_fold_shapes(self, rng):
        labels = np.repeat([0, 1, 2], 10)
        folds = stratified_folds(labels, 5, seed=1)
        for f in range(5):
            members = labels[folds == f]
            assert (np.bincount(members, minlength=3) == 2).all()


class TestModelFile:
    def test_round_trip_bit_identical(self, rng, tmp_path):
        X, y = blobs(rng, k=3, dim=5)
        model = train_ovr(X, y, 7)
        path = tmp_path / "m.hdfm"
        save_model(model, str(path))
        first = path.read_bytes()
        loaded = load_model(str(path))
        assert loaded.class_ids == model.class_ids
        assert loaded.best_c == 7
        assert np.array_equal(loaded.weights, model.weights)
        assert np.array_equal(loaded.biases, model.biases)
        save_model(loaded, str(path))
        assert path.read_bytes() == first

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.hdfm"
        path.write_text("HDFX 1\nclasses 2\n")
        with pytest.raises(ModelBadMagicError):
            load_model(str(path))

    def test_truncated(self, rng, tmp_path):
        X, y = blobs(rng, k=3, dim=4)
        model = train_ovr(X, y, 2)
        path = tmp_path / "m.hdfm"
        save_model(model, str(path))
        path.write_bytes(path.read_bytes()[:-8])  # drop the last weight
        with pytest.raises(ModelTruncatedError):
            load_model(str(path))

    def test_trailing_bytes(self, rng, tmp_path):
        X, y = blobs(rng, k=2, dim=4)
        model = train_ovr(X, y, 2)
        path = tmp_path / "m.hdfm"
        save_model(model, str(path))
        path.write_bytes(path.read_bytes() + struct.pack("<d", 1.5))
        with pytest.raises(ModelFileError, match="8 trailing bytes"):
            load_model(str(path))

    @pytest.mark.parametrize("data, match", [
        (patched(VALID_MODEL, HEADER, "<I", 1), "unsupported model version 1"),
        (patched(VALID_MODEL, HEADER, "<I", 3), "unsupported model version 3"),
        (NAN_WEIGHT, "must be finite"),
        (patched(VALID_MODEL, WEIGHTS - 16, "<d", float("inf")), "must be finite"),
        (patched(VALID_MODEL, HEADER + 16, "<2q", 1, 0), "ascending"),
        (b"HDFM 1\nclasses 2\ndim 2\nC 3\nclass 0 0.1 0.5 -1.25\nclass 1 -0.2 2.0 0.125\n",
         "old HDFM 1 text layout; retrain it"),
    ], ids=["version-1", "version-3", "nan-weight", "inf-bias", "ids-descending", "text"])
    def test_bad_content_is_a_model_file_error(self, data, match, tmp_path):
        path = tmp_path / "m.hdfm"
        path.write_bytes(data)
        with pytest.raises(ModelFileError, match=match) as err:
            load_model(str(path))
        assert type(err.value) is ModelFileError and str(path) in str(err.value)

    def test_classes_past_the_file_end_allocate_nothing(self):
        # the declared arrays are checked against the bytes left before they are allocated
        data = patched(VALID_MODEL, HEADER + 4, "<2I", 2**32 - 1, 2**32 - 1)
        error, peak = traced_peak(lambda: pytest.raises(
            ModelTruncatedError, load_bytes, load_model, data))
        assert "classes" in str(error.value)
        assert peak < 64 * 1024

    @settings(max_examples=300, deadline=None)
    @given(corruptions(VALID_MODEL))
    @example(NAN_WEIGHT)
    @example(MORE_CLASSES)
    def test_corrupted_file_raises_only_model_file_error(self, data):
        try:
            load_bytes(load_model, data)
        except ModelFileError:
            pass


def test_evaluate_matches_per_sample_scorer(rng):
    X, y = blobs(rng, k=3, noise=4.0, spread=2.0)
    model = train_ovr(X, y, 4)
    correct = 0
    for i in range(X.shape[0]):
        best_cls, best_score = None, -np.inf
        for k, cls in enumerate(model.class_ids):
            score = float(X[i] @ model.weights[k] + model.biases[k])
            if score > best_score:  # strict: ties stay with the smaller id
                best_cls, best_score = cls, score
        correct += best_cls == y[i]
    assert evaluate(model, X, y) == correct / X.shape[0]
