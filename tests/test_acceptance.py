"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v``. The conftest hook prints
``ACCEPTANCE criterion N: PASS/FAIL - <description>`` for every test here.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from oracles import conv2d_loops, logreg_brute_force, normalized_max_error, slice_all

# the child imports scenefuse from this checkout's src/, as the test process does
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
PYTHONPATH = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
SINGLE_THREAD_ENV = {**os.environ, "PYTHONPATH": PYTHONPATH,
                     "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}


@pytest.mark.criterion(1, "200 random conv2d instances match the loop oracle <= 1e-5")
def test_convolution_oracle_suite():
    from scenefuse.engine import conv2d

    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        c_in = int(rng.integers(1, 5))
        c_out = int(rng.integers(1, 6))
        h = int(rng.integers(1, 9))
        w = int(rng.integers(1, 9))
        x = rng.standard_normal((c_in, h, w)).astype(np.float32)
        kernel = rng.standard_normal((c_out, c_in, 3, 3)).astype(np.float32)
        bias = rng.standard_normal(c_out).astype(np.float32)
        worst = max(worst, normalized_max_error(conv2d(x, kernel, bias),
                                                conv2d_loops(x, kernel, bias)))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-5, f"max relative error {worst}"
    assert elapsed < 60.0, f"oracle suite took {elapsed:.1f}s"


@pytest.mark.criterion(2, "bench command: optimized conv >= 5x naive, single-threaded")
def test_engine_performance_benchmark():
    proc = subprocess.run(
        [sys.executable, "-m", "scenefuse.cli", "bench", "--threads", "1",
         "--repeats", "3"],
        capture_output=True, text=True, env=SINGLE_THREAD_ENV, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["shape"] == [64, 224, 224, 64]
    assert result["max_relative_deviation"] <= 1e-5
    assert result["speedup"] >= 5.0, (
        f"speedup {result['speedup']:.2f}x "
        f"(optimized {result['optimized_seconds']:.3f}s, "
        f"naive {result['naive_seconds']:.3f}s)"
    )


@pytest.mark.criterion(3, "exhaustive 224x224 slicing partition proofs in < 5 s")
def test_slicing_partition_proofs():
    from scenefuse.slicing import (circ_slices, ldiag_slices, rdiag_slices,
                                   rect_slices, tri_slices)

    started = time.perf_counter()
    for gen in (rect_slices, tri_slices, ldiag_slices, rdiag_slices):
        coverage = np.zeros((224, 224), dtype=np.int64)
        for m in gen(224):
            coverage += m.mask
        assert (coverage == 1).all(), gen.__name__
    coverage = np.zeros((224, 224), dtype=np.int64)
    for m in circ_slices(224):
        coverage += m.mask
    rr, cc = np.indices((224, 224))
    disc = (rr - 111.5) ** 2 + (cc - 111.5) ** 2 < 112.0 ** 2
    assert coverage.max() <= 1
    assert ((coverage == 1) == disc).all()
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"partition proofs took {elapsed:.2f}s"


@pytest.mark.criterion(4, "dimensional contract: 512 per source, 2048 concat, 20 slices")
def test_dimensional_contract(rng):
    from scenefuse.experiment import FeatureConfig, config_matrix
    from scenefuse.pipeline import extract_base_features, fuse_matrix
    from scenefuse.synthetic import stub_backend_pair

    obj, scn = stub_backend_pair(seed=29)
    raster = rng.uniform(0, 255, (70, 50, 3)).astype(np.float32)
    base = extract_base_features(obj, scn, raster)
    for source in ("op", "ow", "sp", "sw"):
        assert base[source].shape == (512,)
    rows = {s: v[None] for s, v in base.items()}
    assert config_matrix(rows, FeatureConfig("hdf", "concat"))[0].shape == (2048,)
    for op in ("max", "mean", "min"):
        assert fuse_matrix(rows, op)[0].shape == (512,)
    subs = slice_all(np.zeros((3, 224, 224), dtype=np.float32))
    assert len(subs) == 20


@pytest.mark.criterion(5, "classifier: gradients, separable blobs, brute-force objective")
def test_classifier_correctness():
    from scenefuse.classifier import (evaluate, gradient, objective,
                                      train_ovr, train_stack)

    # gradient vs central finite differences on 50 random configurations
    worst = 0.0
    for trial in range(50):
        r = np.random.default_rng(trial + 1)
        n, dim = 30, 9
        X = r.normal(0, 2, (n, dim))
        y = r.choice([-1.0, 1.0], n)
        w = r.normal(0, 1, dim)
        b = float(r.normal())
        c = float(r.uniform(0.5, 25))
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
    assert worst <= 1e-4, f"gradient relative error {worst}"

    # 100% accuracy on separable 4-class blobs: 200 points, 16 dims
    r = np.random.default_rng(99)
    centers = r.normal(0, 8, (4, 16))
    X = np.concatenate([c + r.normal(0, 0.5, (50, 16)) for c in centers])
    y = np.repeat(np.arange(4), 50)
    model = train_ovr(X, y, 10)
    assert evaluate(model, X, y) == 1.0

    # converged objective within 1e-3 of the brute-force oracle
    X4 = np.array([[1.2, 0.1], [0.2, 1.0], [-1.0, -0.3], [-0.1, -1.1]])
    y4 = np.array([1.0, 1.0, -1.0, -1.0])
    w, b = train_stack(X4, y4, 2.0, np.zeros(2), 0.0, tol=1e-8)
    brute = logreg_brute_force(X4, y4, 2.0, dim=2, seed=1)
    assert abs(objective(w, b, X4, y4, 2.0) - brute) <= 1e-3


@pytest.mark.criterion(6, "split protocols: 80/20x1, 100/rest x10, 70/60 x10")
def test_protocol_fidelity():
    from scenefuse.datasets import DatasetManifest, make_split, protocol_preset

    def manifest(classes, per_class):
        return DatasetManifest(
            name="m",
            classes=tuple((f"c{k}", tuple(f"/m/c{k}/{i}.ppm" for i in range(per_class)))
                          for k in range(classes)),
        )

    plan = make_split(manifest(67, 110), protocol_preset("mit67", seed=1))
    assert len(plan.repetitions) == 1
    for train, test in plan.repetitions[0]:
        assert len(train) == 80 and len(test) == 20
        assert not set(train) & set(test)

    plan = make_split(manifest(15, 260), protocol_preset("scene15", seed=1))
    assert len(plan.repetitions) == 10
    for per_class in plan.repetitions:
        for train, test in per_class:
            assert len(train) == 100 and len(test) == 160
            assert not set(train) & set(test)

    plan = make_split(manifest(8, 137), protocol_preset("event8", seed=1))
    assert len(plan.repetitions) == 10
    for per_class in plan.repetitions:
        for train, test in per_class:
            assert len(train) == 70 and len(test) == 60
            assert not set(train) & set(test)


@pytest.mark.criterion(7, "grid search: C=1..100, smallest-C tie-break, no test leakage")
def test_grid_search_contract(rng):
    from scenefuse.classifier import grid_search_c
    from scenefuse.experiment import tune_cost

    X = np.concatenate([c + rng.normal(0, 4, (15, 12))
                        for c in rng.normal(0, 3, (3, 12))])
    labels = np.repeat(np.arange(3), 15)
    report = grid_search_c(X, labels, folds=5, seed=4)
    assert report.c_values == tuple(range(1, 101))
    assert len(report.accuracies) == 100
    table = dict(zip(report.c_values, report.accuracies))
    best = max(table.values())
    assert report.chosen_c == min(c for c, a in table.items() if a == best)

    # trivially separable data ties every C at 100% -> smallest C wins
    Xs = np.concatenate([c + rng.normal(0, 0.05, (10, 6))
                         for c in rng.normal(0, 20, (2, 6))])
    ys = np.repeat([0, 1], 10)
    assert grid_search_c(Xs, ys, folds=5, seed=0).chosen_c == 1

    # instrumented leak check: tuning must never read a test row
    accessed = []

    class Tracking(np.ndarray):
        def __getitem__(self, item):
            if isinstance(item, np.ndarray) and item.dtype != bool:
                accessed.extend(int(i) for i in np.ravel(item))
            return super().__getitem__(item)

    tracked = X.view(Tracking)
    train_idx = np.concatenate([np.arange(0, 10), np.arange(15, 25),
                                np.arange(30, 40)])
    test_idx = np.setdiff1d(np.arange(45), train_idx)
    tune_cost(tracked, labels, train_idx, folds=5, seed=4, c_values=range(1, 6))
    assert accessed, "instrumentation saw no access"
    assert not set(accessed) & set(test_idx.tolist()), "tuning read test rows"


@pytest.fixture(scope="module")
def experiment_runs(tmp_path_factory):
    """Two fresh CLI experiment runs on the bundled synthetic dataset."""
    from scenefuse import cli
    from scenefuse.synthetic import make_synthetic_dataset, stub_backend_pair
    from scenefuse.weights import save_weights

    base = tmp_path_factory.mktemp("acceptance_exp")
    data_root = base / "data"
    make_synthetic_dataset(str(data_root), classes=3, per_class=30,
                           size=(64, 64), seed=17)
    obj, scn = stub_backend_pair(seed=23)
    obj_w = base / "object.hdfw"
    scn_w = base / "scene.hdfw"
    save_weights(obj.weights, str(obj_w))
    save_weights(scn.weights, str(scn_w))

    def one_run(out_dir):
        args = [
            "experiment", "--dataset", str(data_root),
            "--object-weights", str(obj_w), "--scene-weights", str(scn_w),
            "--protocol", "custom", "--train-per-class", "20",
            "--test-per-class", "10", "--repetitions", "2",
            "--seed", "7", "--out", str(out_dir),
        ]
        started = time.perf_counter()
        rc = cli.main(args)
        elapsed = time.perf_counter() - started
        assert rc == 0
        return (out_dir / "report.json").read_bytes(), elapsed

    first, t1 = one_run(base / "run1")
    second, t2 = one_run(base / "run2")
    return first, second, t1, t2


@pytest.mark.criterion(8, "experiment: bit-identical JSON across runs, < 120 s")
def test_end_to_end_determinism(experiment_runs, request):
    first, second, t1, t2 = experiment_runs
    request.node.user_properties.append(("runs", f"{t1:.1f} s and {t2:.1f} s of 120 s each"))
    assert first == second, "reports differ between identical runs"
    assert t1 < 120.0, f"first run took {t1:.1f}s"
    assert t2 < 120.0, f"second run took {t2:.1f}s"
    doc = json.loads(first)
    by_name = {c["name"]: c for c in doc["configurations"]}
    assert by_name["HDF-concat"]["mean_accuracy"] == 1.0


@pytest.mark.criterion(9, "report reproduces both ablation table structures")
def test_report_structure(experiment_runs):
    from scenefuse.experiment import ExperimentReport, format_table

    doc = json.loads(experiment_runs[0])
    names = [c["name"] for c in doc["configurations"]]
    assert names == ["OP", "OW", "SP", "SW",
                     "HDF-max", "HDF-mean", "HDF-min", "HDF-concat"]
    for config in doc["configurations"]:
        assert len(config["per_repetition_accuracy"]) == 2
        assert isinstance(config["mean_accuracy"], float)
        assert len(config["chosen_c"]) == 2

    # the rendered tables carry the five feature-type rows and four
    # aggregator rows
    results = []
    from scenefuse.experiment import ConfigResult

    for c in doc["configurations"]:
        results.append(ConfigResult(
            name=c["name"], feature_type=c["feature_type"], pool_op=c["pool_op"],
            per_repetition_accuracy=tuple(c["per_repetition_accuracy"]),
            mean_accuracy=c["mean_accuracy"], chosen_c=tuple(c["chosen_c"]),
        ))
    report = ExperimentReport(dataset=doc["dataset"], seed=doc["seed"],
                              folds=doc["folds"], protocol=doc["protocol"],
                              results=tuple(results))
    table = format_table(report)
    for row in ("OP", "OW", "SP", "SW", "HDF", "Max", "Mean", "Min", "Concat"):
        assert f"  {row:<8}" in table, f"missing row {row}"


@pytest.mark.criterion(10, "HDFW/HDFC/HDFM round-trips and distinct error types")
def test_format_round_trips(tmp_path, rng):
    from scenefuse.cache import (CacheBadMagicError, CacheTruncatedError, load_cache,
                                 save_cache)
    from scenefuse.classifier import (ModelBadMagicError, ModelTruncatedError,
                                      load_model, save_model, train_ovr)
    from scenefuse.engine import CONV3X3, LayerSpec, NetworkSpec
    from scenefuse.weights import (BadMagicError, TruncatedFileError,
                                   load_weights, random_bundle, save_weights)

    # HDFW
    spec = NetworkSpec((LayerSpec(CONV3X3, 3, 6), LayerSpec(CONV3X3, 6, 4)))
    bundle = random_bundle(spec, seed=2)
    wpath = tmp_path / "w.hdfw"
    save_weights(bundle, str(wpath))
    original = wpath.read_bytes()
    save_weights(load_weights(str(wpath)), str(wpath))
    assert wpath.read_bytes() == original
    corrupted = bytearray(original)
    corrupted[:4] = b"WHAT"
    wpath.write_bytes(bytes(corrupted))
    with pytest.raises(BadMagicError):
        load_weights(str(wpath))
    wpath.write_bytes(original[:-6])
    with pytest.raises(TruncatedFileError):
        load_weights(str(wpath))

    # HDFC
    cpath = tmp_path / "c.hdfc"
    save_cache(str(cpath), np.arange(4), [f"p{i}.ppm" for i in range(4)],
               rng.normal(0, 1, (4, 8)).astype(np.float32))
    original = cpath.read_bytes()
    save_cache(str(cpath), *load_cache(str(cpath)))
    assert cpath.read_bytes() == original
    corrupted = bytearray(original)
    corrupted[:4] = b"HUH?"
    cpath.write_bytes(bytes(corrupted))
    with pytest.raises(CacheBadMagicError):
        load_cache(str(cpath))
    cpath.write_bytes(original[:-3])
    with pytest.raises(CacheTruncatedError):
        load_cache(str(cpath))

    # HDFM
    X = np.concatenate([c + rng.normal(0, 0.2, (6, 5))
                        for c in rng.normal(0, 5, (2, 5))])
    y = np.repeat([0, 1], 6)
    model = train_ovr(X, y, 3)
    mpath = tmp_path / "m.hdfm"
    save_model(model, str(mpath))
    original = mpath.read_bytes()
    save_model(load_model(str(mpath)), str(mpath))
    assert mpath.read_bytes() == original
    mpath.write_text("HDFZ 1\n" + original.decode()[7:])
    with pytest.raises(ModelBadMagicError):
        load_model(str(mpath))
    mpath.write_bytes(b"\n".join(original.splitlines()[:-1]) + b"\n")
    with pytest.raises(ModelTruncatedError):
        load_model(str(mpath))
