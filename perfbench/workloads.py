"""Child side of the benchmark: generate inputs, set up, run and check units.

run.py starts this file in fresh processes whose BLAS thread pools are
pinned through the environment before numpy loads, with ``src`` of the
checkout first on PYTHONPATH::

    python3 perfbench/workloads.py {gen,setup,run,reference} --workload W \
        --seed N --size full --work DIR [--out FILE --seconds S --units K --trace 0|1]

Each workload is one closed loop with a single client: the next unit of
work starts when the previous one has finished and been checked.
"""

from __future__ import annotations

import argparse
import base64
import importlib
import json
import os
import platform
import shutil
import sys
import time
import traceback

import numpy as np

import scenefuse
from scenefuse import classifier, datasets, engine, experiment, pipeline, synthetic, weights

import layers
import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
DEFAULT_SEED = 0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# base features against the reference: max |diff| / max |reference|
FEATURE_TOL = 1e-4
# mean cross-validation accuracy against the reference, absolute
ACCURACY_TOL = 0.02
# fused rows must have unit Euclidean norm to this absolute tolerance
NORM_TOL = 1e-5


def _write_ppm(path: str, pixels: np.ndarray) -> None:
    h, w, _ = pixels.shape
    with open(path, "wb") as fh:
        fh.write(b"P6\n%d %d\n255\n" % (w, h))
        fh.write(np.clip(np.round(pixels), 0, 255).astype(np.uint8).tobytes())


def _feature_failures(mats: dict, rows: int) -> list[str]:
    """Invariants of base descriptors: shape, finite, post-ReLU, unit-norm fusion."""
    out = []
    for source in pipeline.SOURCES:
        m = np.asarray(mats[source])
        if m.shape != (rows, pipeline.FEATURE_DIM):
            out.append(f"{source}: shape {m.shape}, expected ({rows}, {pipeline.FEATURE_DIM})")
        elif not np.all(np.isfinite(m)):
            out.append(f"{source}: non-finite values")
        elif m.min() < 0:
            out.append(f"{source}: negative post-ReLU descriptor {m.min()}")
    if out:
        return out
    for op in pipeline.POOL_OPS:
        norms = np.linalg.norm(pipeline.fuse_matrix(mats, op).astype(np.float64), axis=1)
        if np.max(np.abs(norms - 1.0)) > NORM_TOL:
            out.append(f"fused {op} rows not unit-norm: {norms}")
    return out


def _encode(values: np.ndarray) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f4").tobytes()).decode("ascii")


def _decode(text: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(text), dtype="<f4")


class ExtractVgg16:
    """compute_base_features without a cache over photo-sized PPMs, two VGG16 trunks."""

    name = "extract-vgg16"
    sizes = {
        "full": {"images": ((480, 640), (375, 500), (640, 480)), "trunk": "vgg16"},
        "tiny": {"images": ((40, 56), (30, 44)), "trunk": "stub"},
    }
    # ImageNet- and Places-style channel means, so the two trunks render
    # their 20 slices with different fill colours
    object_means = (124.0, 117.0, 104.0)
    scene_means = (105.0, 113.0, 117.0)

    @staticmethod
    def _spec(trunk):
        return engine.vgg16_spec() if trunk == "vgg16" else synthetic.stub_spec()

    def generate(self, work, seed, size):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE17]))
        for k, (h, w) in enumerate(size["images"]):
            class_dir = os.path.join(work, "photos", f"class_{k % 2}")
            os.makedirs(class_dir, exist_ok=True)
            # blocky colour regions plus pixel noise: photo-sized, not constant
            coarse = rng.uniform(0, 255, (h // 32 + 1, w // 32 + 1, 3))
            img = np.repeat(np.repeat(coarse, 32, axis=0), 32, axis=1)[:h, :w]
            _write_ppm(os.path.join(class_dir, f"photo_{k}.ppm"),
                       img + rng.normal(0.0, 12.0, (h, w, 3)))
        spec = self._spec(size["trunk"])
        for kind, offset, means in (("object", 0, self.object_means),
                                    ("scene", 1, self.scene_means)):
            bundle = weights.random_bundle(spec, seed=seed + offset, means=means)
            weights.save_weights(bundle, os.path.join(work, f"{kind}.hdfw"))

    def setup(self, work, seed, size):
        spec = self._spec(size["trunk"])
        obj = pipeline.Backend("object", spec,
                               weights.load_weights(os.path.join(work, "object.hdfw")))
        scn = pipeline.Backend("scene", spec,
                               weights.load_weights(os.path.join(work, "scene.hdfw")))
        manifest = datasets.scan_dataset(os.path.join(work, "photos"))
        images = [(name, path) for name, paths in manifest.classes for path in paths]
        return {"backends": (obj, scn), "manifest": manifest, "images": images}

    def reference_units(self, state):
        return len(state["images"])

    def unit(self, state, i, tracer):
        k = i % len(state["images"])
        class_name, path = state["images"][k]
        one = datasets.DatasetManifest(name=state["manifest"].name,
                                       classes=((class_name, (path,)),))
        t0 = time.perf_counter()
        mats, _, _ = experiment.compute_base_features(one, *state["backends"], None)
        wall = time.perf_counter() - t0
        return {"wall_s": wall, "unit_s": wall}, {"image": k, "mats": mats}

    def check(self, state, out, ref):
        failures = _feature_failures(out["mats"], 1)
        if ref is not None and not failures:
            expected = ref["images"][out["image"]]
            for source in pipeline.SOURCES:
                want = _decode(expected[source])
                got = np.asarray(out["mats"][source][0], dtype=np.float32)
                err = float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-30))
                if err > FEATURE_TOL:
                    failures.append(f"image {out['image']} {source}: deviation {err:.3g} "
                                    f"from reference > {FEATURE_TOL}")
        return failures

    def reference(self, outputs):
        by_image = {o["image"]: {s: _encode(o["mats"][s][0]) for s in pipeline.SOURCES}
                    for o in outputs}
        return {"tolerance": FEATURE_TOL,
                "images": [by_image[k] for k in sorted(by_image)]}


class ExperimentStub:
    """run_experiment twice in one process: cold (empty cache dir), then cached."""

    name = "experiment-stub"
    sizes = {
        "full": {"classes": 3, "per_class": 7, "image": (64, 64), "train": 5,
                 "test": 2, "repetitions": 1, "folds": 5, "c_max": 30},
        "tiny": {"classes": 2, "per_class": 6, "image": (32, 32), "train": 4,
                 "test": 2, "repetitions": 1, "folds": 2, "c_max": 3},
    }

    def generate(self, work, seed, size):
        # seed 0 gives the acceptance fixture's generator seeds (17, 23, 7)
        synthetic.make_synthetic_dataset(
            os.path.join(work, "synthetic"), classes=size["classes"],
            per_class=size["per_class"], size=tuple(size["image"]), seed=17 + seed)
        obj, scn = synthetic.stub_backend_pair(seed=23 + seed)
        weights.save_weights(obj.weights, os.path.join(work, "object.hdfw"))
        weights.save_weights(scn.weights, os.path.join(work, "scene.hdfw"))

    def setup(self, work, seed, size):
        spec = synthetic.stub_spec()
        obj = pipeline.Backend("object", spec,
                               weights.load_weights(os.path.join(work, "object.hdfw")))
        scn = pipeline.Backend("scene", spec,
                               weights.load_weights(os.path.join(work, "scene.hdfw")))
        manifest = datasets.scan_dataset(os.path.join(work, "synthetic"))
        kind = datasets.REPEATED_RANDOM if size["repetitions"] > 1 else datasets.FIXED_PER_CLASS
        protocol = datasets.SplitProtocol(kind, size["train"], size["test"],
                                          size["repetitions"], 7 + seed)
        plan = datasets.make_split(manifest, protocol)
        return {"backends": (obj, scn), "manifest": manifest, "protocol": protocol,
                "plan": plan, "work": work, "folds": size["folds"],
                "c_values": tuple(range(1, size["c_max"] + 1))}

    def reference_units(self, state):
        return 1

    def unit(self, state, i, tracer):
        # a fresh directory per process and unit, so the first pass is cold
        cache_dir = os.path.join(state["work"], f"cache-{os.getpid()}-{i}")

        def one_pass():
            t0 = time.perf_counter()
            report = experiment.run_experiment(
                state["manifest"], *state["backends"], state["protocol"],
                folds=state["folds"], c_values=state["c_values"], plan=state["plan"],
                cache_dir=cache_dir)
            return report, time.perf_counter() - t0

        since = len(tracer.spans)
        cold, cold_s = one_pass()
        extract_s = tracer.durations("experiment.compute_base_features", since)[0]
        cached, cached_s = one_pass()
        timing = {"wall_s": cold_s + cached_s, "unit_s": cold_s + cached_s,
                  "experiment_s": cold_s, "experiment_cached_s": cached_s,
                  "extract_s_per_image": extract_s / state["manifest"].total_images}
        return timing, {"cold": cold.to_dict(), "cached": cached.to_dict(),
                        "cache_dir": cache_dir}

    def check(self, state, out, ref):
        cold = out["cold"]
        failures = []
        if out["cached"] != cold:
            failures.append("cached pass report differs from the cold pass")
        names = [c["name"] for c in cold["configurations"]]
        want = [c.name for c in experiment.default_configs()]
        if names != want or not cold["complete"]:
            failures.append(f"configurations {names}, complete={cold['complete']}")
        reps = state["protocol"].repetitions
        for c in cold["configurations"]:
            if len(c["chosen_c"]) != reps or any(v not in state["c_values"]
                                                 for v in c["chosen_c"]):
                failures.append(f"{c['name']}: chosen C {c['chosen_c']} not in the grid")
            accs = c["per_repetition_accuracy"]
            if len(accs) != reps or any(not 0.0 <= a <= 1.0 for a in accs):
                failures.append(f"{c['name']}: accuracies {accs}")
        mats, _, _ = experiment.compute_base_features(
            state["manifest"], *state["backends"], out["cache_dir"])
        failures += _feature_failures(mats, state["manifest"].total_images)
        if ref is not None and cold != ref["report"]:
            failures.append("report differs from the reference (chosen C or accuracy)")
        shutil.rmtree(out["cache_dir"])
        return failures

    def reference(self, outputs):
        return {"report": outputs[0]["cold"]}


class GridsearchScene15:
    """grid_search_c alone on a clustered random matrix at scene15 shape."""

    name = "gridsearch-scene15"
    sizes = {
        "full": {"classes": 15, "per_class": 100, "dim": 2048, "noise": 6.0,
                 "c_values": (1, 2, 3), "folds": 5},
        "tiny": {"classes": 3, "per_class": 10, "dim": 32, "noise": 1.0,
                 "c_values": (1, 2), "folds": 2},
    }

    def generate(self, work, seed, size):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x9C]))
        k, n, d = size["classes"], size["per_class"], size["dim"]
        labels = np.repeat(np.arange(k), n)
        # non-negative, unit-norm rows like fused descriptors; the noise makes
        # the classes overlap so accuracy stays below 1
        centres = np.abs(rng.standard_normal((k, d)))
        x = np.maximum(centres[labels] + size["noise"] * rng.standard_normal((k * n, d)), 0)
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        np.save(os.path.join(work, "features.npy"), x.astype(np.float32))
        np.save(os.path.join(work, "labels.npy"), labels)

    def setup(self, work, seed, size):
        return {"X": np.load(os.path.join(work, "features.npy")),
                "labels": np.load(os.path.join(work, "labels.npy")),
                "c_values": tuple(size["c_values"]), "folds": size["folds"],
                "seed": seed, "first": None}

    def reference_units(self, state):
        return 1

    def unit(self, state, i, tracer):
        t0 = time.perf_counter()
        report = classifier.grid_search_c(state["X"], state["labels"], folds=state["folds"],
                                          seed=state["seed"], c_values=state["c_values"])
        wall = time.perf_counter() - t0
        return ({"wall_s": wall, "unit_s": wall / len(state["c_values"])},
                {"accuracies": list(report.accuracies), "chosen_c": report.chosen_c,
                 "c_values": list(report.c_values)})

    def check(self, state, out, ref):
        accs, grid = out["accuracies"], list(state["c_values"])
        failures = []
        if out["c_values"] != grid or len(accs) != len(grid):
            return [f"grid {out['c_values']} with {len(accs)} accuracies, expected {grid}"]
        if any(not 0.0 <= a <= 1.0 for a in accs):
            failures.append(f"accuracies {accs} outside [0, 1]")
        if out["chosen_c"] != grid[accs.index(max(accs))]:
            failures.append(f"chosen C {out['chosen_c']} is not the smallest best C")
        if state["first"] is None:
            state["first"] = out
        elif out != state["first"]:
            failures.append("repeated grid search gave a different report")
        if ref is not None:
            if any(abs(a - b) > ACCURACY_TOL for a, b in zip(accs, ref["accuracies"])):
                failures.append(f"accuracies {accs} differ from reference "
                                f"{ref['accuracies']} by more than {ACCURACY_TOL}")
            if accs[grid.index(ref["chosen_c"])] < max(accs) - ACCURACY_TOL:
                failures.append(f"reference C {ref['chosen_c']} is not within "
                                f"{ACCURACY_TOL} of the best accuracy here")
        return failures

    def reference(self, outputs):
        return {"tolerance": ACCURACY_TOL, "accuracies": outputs[0]["accuracies"],
                "chosen_c": outputs[0]["chosen_c"]}


WORKLOADS = {w.name: w for w in (ExtractVgg16(), ExperimentStub(), GridsearchScene15())}


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_pins": {v: os.environ.get(v) for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def sgemm_ceiling_gflops(repeats: int = 5) -> float:
    """Median GFLOP/s of a plain float32 matmul at a conv-like shape."""
    m, k, n = layers.SGEMM_SHAPE
    rng = np.random.default_rng(0)
    a = rng.standard_normal((m, k), dtype=np.float32)
    b = rng.standard_normal((k, n), dtype=np.float32)
    out = np.empty((m, n), dtype=np.float32)
    np.matmul(a, b, out=out)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.matmul(a, b, out=out)
        times.append(time.perf_counter() - t0)
    return 2.0 * m * k * n / sorted(times)[len(times) // 2] / 1e9


def _reference_for(args):
    """None when no reference applies; {} when one applies but is missing."""
    if args.size != "full" or args.seed != DEFAULT_SEED:
        return None
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            return json.load(fh).get(args.workload, {})
    except FileNotFoundError:
        return {}


def _install_tracer():
    t = tracing.Tracer()
    for mod in layers.TARGETS:
        try:
            importlib.import_module(f"{layers.PACKAGE}.{mod}")
        except ImportError:
            pass  # every function of a missing module is reported as not found
    t.install(layers.PACKAGE, layers.TARGETS, layers.extras(engine))
    return t


def _probe_tracer():
    """Only the one span the experiment's per-image extraction time needs."""
    t = tracing.Tracer()
    t.install(layers.PACKAGE, {"experiment": ("compute_base_features",)})
    return t


def run(args, wl, size) -> dict:
    """Set up, then run the units that fit in `seconds` (or exactly `units`)."""
    t = _install_tracer() if args.trace else _probe_tracer()
    state = wl.setup(args.work, args.seed, size)
    ready = time.monotonic()
    ref = _reference_for(args)
    units, failures = [], []
    attempted = failed = 0
    started = time.monotonic()
    while True:
        attempted += 1
        try:
            timing, out = wl.unit(state, attempted - 1, t)
            with t.paused():
                if ref == {}:
                    problems = ["no reference for the default seed"]
                else:
                    problems = wl.check(state, out, ref)
            units.append(timing)
        except Exception:  # a raised error counts as a failed operation
            problems = [traceback.format_exc(limit=3)]
        if problems:
            failed += 1
            failures.extend(f"unit {attempted - 1}: {p}" for p in problems)
        if args.units:
            if attempted >= args.units:
                break
        # start another unit only if, at the pace so far, it ends within
        # `seconds`; the first unit always runs
        elif (time.monotonic() - started) * (attempted + 1) / attempted > args.seconds:
            break
    t.uninstall()
    result = {"ready": ready, "units": units, "attempted": attempted, "failed": failed,
              "failures": failures, "env": environment()}
    if args.trace:
        view = layers.TraceView(t.spans, t.missing, sgemm_ceiling_gflops())
        result["per_layer"], result["unmeasured"] = layers.derive(view)
        result["missing"] = t.missing
        result["layer_self_s"] = view.layer_self_s()
        result["extraction_self_s"] = view.layer_self_s("experiment.compute_base_features")
    return result


def write_reference(args, wl, size) -> None:
    state = wl.setup(args.work, args.seed, size)
    t = _probe_tracer()
    outputs = [wl.unit(state, i, t)[1] for i in range(wl.reference_units(state))]
    t.uninstall()
    doc = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["seed"] = DEFAULT_SEED
    doc["environment"] = environment()
    doc[wl.name] = wl.reference(outputs)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("mode", choices=("gen", "setup", "run", "reference"))
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--work", required=True)
    p.add_argument("--out")
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--units", type=int, default=0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = os.path.realpath(os.path.join(os.getcwd(), "src")) + os.sep
    if not os.path.realpath(scenefuse.__file__).startswith(src):
        print(f"scenefuse was imported from {scenefuse.__file__}, not {src}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    size = wl.sizes[args.size]
    if args.mode == "gen":
        os.makedirs(args.work, exist_ok=True)
        wl.generate(args.work, args.seed, size)
        doc = {"inputs": size}
    elif args.mode == "setup":
        wl.setup(args.work, args.seed, size)
        doc = {"ready": time.monotonic()}
    elif args.mode == "run":
        doc = run(args, wl, size)
    else:
        write_reference(args, wl, size)
        doc = {"written": REFERENCE}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
