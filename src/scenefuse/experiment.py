"""Experiment orchestration: features, tuning, training, evaluation.

Reproduces the structure of the per-feature-type and per-aggregator
ablations: for every feature configuration and split repetition, the
cost parameter is tuned by cross-validation on the training rows only,
a one-vs-rest model is trained with the winning cost, and test accuracy
is recorded. Base descriptors are extracted once per image and reused by
all configurations.

Given a cache directory, a run keeps two kinds of file there. Each base
descriptor's ``HDFC`` cache, shared with ``extract``, is keyed by its trunk's
digest, which folds in `EXTRACTION_VERSION` and the cache format's version; it
is reused only while every image keeps the path, label and `stamp` of its record.
Each (configuration, repetition) leaves a result record, keyed by a sha256
over `RECORD_VERSION`, the configuration name, folds, tuning seed, C grid,
the solver's tolerance and iteration cap, and the train rows, then the test
rows, with their labels. It is a JSON object of the key's plain fields, chosen
C and accuracy, written and checked here alone. A later run whose inputs hash
the same reuses it instead of tuning, training and evaluating again; a record
that does not fit its key raises CacheFileError naming it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass, field

import numpy as np

from .binfile import read_json, write_json
from .cache import FORMAT_VERSION, CacheFileError, load_cache, save_cache
from .classifier import (C_GRID, DEFAULT_TOL, MAX_ITER, GridSearchReport, evaluate,
                         grid_search_c, train_ovr)
from .datasets import DatasetError, DatasetManifest, SplitPlan, SplitProtocol, make_split
from .imageio import NetpbmError, read_raster
from .pipeline import (FEATURE_DIM, POOL_OPS, SOURCES, Backend, extract_base_features,
                       fuse_matrix, source_backends)

logger = logging.getLogger(__name__)

_TUNE_STREAM = 0x7A11
# Bump whenever extraction (engine, resize, slicing, pipeline) would give other features.
EXTRACTION_VERSION = 1
# Bump whenever tuning, training or evaluation would give another result.
RECORD_VERSION = 1
FEATURE_TYPES = (*SOURCES, "hdf")


@dataclass(frozen=True)
class FeatureConfig:
    """One row of the ablation: a feature type, plus a pool op for hdf."""

    feature_type: str
    pool_op: str | None = None

    def __post_init__(self):
        if self.feature_type not in FEATURE_TYPES:
            raise ValueError(f"unknown feature type {self.feature_type!r}")
        if self.feature_type == "hdf":
            if self.pool_op not in POOL_OPS:
                raise ValueError(f"hdf needs a pool op from {POOL_OPS}")
        elif self.pool_op is not None:
            raise ValueError(f"{self.feature_type} takes no pool op")

    @property
    def name(self) -> str:
        if self.feature_type == "hdf":
            return f"HDF-{self.pool_op}"
        return self.feature_type.upper()

    @property
    def dim(self) -> int:
        return 4 * FEATURE_DIM if self.pool_op == "concat" else FEATURE_DIM

    @property
    def sources(self) -> tuple[str, ...]:
        """The base descriptors this configuration is built from."""
        return SOURCES if self.feature_type == "hdf" else (self.feature_type,)


def default_configs() -> tuple[FeatureConfig, ...]:
    """The full ablation: four single types plus hdf under every pool op."""
    return (*map(FeatureConfig, SOURCES), *(FeatureConfig("hdf", op) for op in POOL_OPS))


@dataclass(frozen=True)
class ConfigResult:
    name: str
    feature_type: str
    pool_op: str | None
    per_repetition_accuracy: tuple[float, ...]
    mean_accuracy: float
    chosen_c: tuple[int, ...]


@dataclass(frozen=True)
class ExperimentReport:
    dataset: str
    seed: int
    folds: int
    protocol: dict
    results: tuple[ConfigResult, ...]
    complete: bool = True
    reused: int = field(default=0, compare=False)  # results read from records; not in the file

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "seed": self.seed,
            "folds": self.folds,
            "protocol": self.protocol,
            "complete": self.complete,
            "configurations": [
                {
                    "name": r.name,
                    "feature_type": r.feature_type,
                    "pool_op": r.pool_op,
                    "per_repetition_accuracy": list(r.per_repetition_accuracy),
                    "mean_accuracy": r.mean_accuracy,
                    "chosen_c": list(r.chosen_c),
                }
                for r in self.results
            ],
        }


def backend_digest(backend: Backend) -> str:
    """Content hash of the extraction and cache format versions and one
    backend's kind and weight bundle; keys its sources' caches."""
    h = hashlib.sha256(f"extraction {EXTRACTION_VERSION} cache {FORMAT_VERSION}".encode())
    h.update(backend.kind.encode())
    h.update(np.ascontiguousarray(backend.weights.means, dtype="<f4"))
    for entry in backend.weights.entries:
        h.update(entry.name.encode())
        h.update(np.ascontiguousarray(entry.kernel, dtype="<f4"))
        h.update(np.ascontiguousarray(entry.bias, dtype="<f4"))
    return h.hexdigest()[:16]


def stamp(path: str) -> tuple[int, int] | None:
    """An image's (size, mtime_ns), stored with its features, or None if it
    cannot be stat'ed. A None stamp misses the cache, and `extract_dataset`
    then names that image with every other one that cannot be read."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_size, st.st_mtime_ns


class UnreadableError(DatasetError):
    """Images that `read_raster` rejects; `failed` maps each to a message naming it."""

    def __init__(self, failed: dict[str, str], total: int):
        super().__init__(f"{len(failed)} of {total} images could not be read: "
                         + "; ".join(failed.values()))
        self.failed = failed


def extract_dataset(paths, object_backend: Backend | None, scene_backend: Backend | None,
                    sources=SOURCES):
    """The one reader of a dataset's images: checks them all, then extracts.

    It first reads every image, one file's bytes at a time, and raises
    UnreadableError naming each that `read_raster` rejects, in `paths` order,
    before any forward. The returned matrices map each source to a float32
    (N, 512) array, one row per image, in the order of `paths`.
    """
    failed = {}
    for path in paths:
        try:
            read_raster(path)
        except (NetpbmError, OSError) as exc:
            message = str(exc)  # the reader's errors name the file already
            failed[path] = message if path in message else f"{path}: {message}"
    if failed:
        raise UnreadableError(failed, len(paths))
    mats = {s: np.empty((len(paths), FEATURE_DIM), dtype=np.float32) for s in sources}
    for row, path in enumerate(paths):
        base = extract_base_features(object_backend, scene_backend, read_raster(path), sources)
        for source in sources:
            mats[source][row] = base[source]
    return mats


def compute_base_features(
    manifest: DatasetManifest,
    object_backend: Backend | None,
    scene_backend: Backend | None,
    cache_dir: str | None = None,
    sources=SOURCES,
):
    """Per-image base-descriptor matrices for a whole dataset.

    Returns (matrices, labels, paths) with matrices mapping each of
    `sources` to an (N, 512) float32 array in manifest order; a backend
    none of whose sources is requested may be None. When `cache_dir` is
    given, each source's cache is keyed by its own backend's digest and
    reused while it lists the manifest's paths, labels and stamps; only the
    other sources are extracted, by `extract_dataset`, and written back.
    """
    paths, labels = manifest.flat_paths_labels()
    sources = [s for s in SOURCES if s in sources]
    mats, cache_paths, changed = {}, {}, []
    if cache_dir:
        owners = source_backends(object_backend, scene_backend, sources)
        needed = {b.kind: b for b in owners.values()}  # by kind: a Backend is no dict key
        digests = {kind: backend_digest(b) for kind, b in needed.items()}
        # taken before extraction, so an image changed while it runs is seen next time
        stamps = [stamp(path) for path in paths]
        listed = list(zip(paths, labels.tolist(), stamps))
        for source, backend in owners.items():
            path = cache_paths[source] = os.path.join(
                cache_dir, f"{manifest.name}_{source}_{digests[backend.kind]}.hdfc")
            if None in stamps or not os.path.isfile(path):
                continue
            cached_labels, cached_paths, cached_stamps, mat = load_cache(path, FEATURE_DIM)
            cached = list(zip(cached_paths, cached_labels.tolist(), cached_stamps))
            if cached == listed:
                mats[source] = mat
            else:
                changed.append((next((image for image, a, b in zip(paths, cached, listed)
                                      if a != b), "the image list"), path))
        if mats:
            logger.info("loaded cached base features: %s", ", ".join(map(cache_paths.get, mats)))

    missing = [source for source in sources if source not in mats]
    if missing:
        mats.update(extract_dataset(paths, object_backend, scene_backend, missing))
        for image, path in changed:  # after extraction: an unreadable image extracts nothing
            logger.info("%s changed since %s was written; re-extracting", image, path)
        if cache_dir and None not in stamps:  # an image that could not be stat'ed is not cached
            os.makedirs(cache_dir, exist_ok=True)
            for source in missing:
                save_cache(cache_paths[source], labels, paths, stamps, mats[source])
    return {source: mats[source] for source in sources}, labels, paths


def config_matrix(base: dict[str, np.ndarray], config: FeatureConfig) -> np.ndarray:
    """The design matrix for one configuration, derived from base features."""
    if config.feature_type == "hdf":
        return fuse_matrix(base, config.pool_op)
    return np.asarray(base[config.feature_type], dtype=np.float32)


def tune_cost(
    features: np.ndarray,
    labels: np.ndarray,
    train_idx: np.ndarray,
    folds: int,
    seed: int,
    c_values=C_GRID,
) -> GridSearchReport:
    """Grid-search the cost on training rows only.

    This is the single seam through which tuning touches the feature
    matrix, which is what makes the no-test-leakage property checkable by
    instrumenting `features` row access.
    """
    return grid_search_c(features[train_idx], labels[train_idx],
                         folds=folds, seed=seed, c_values=c_values)


def _tune_seed(seed: int, rep: int) -> int:
    return int(np.random.SeedSequence([int(seed), _TUNE_STREAM, rep]).generate_state(1)[0])


def _result(cache_dir, config, folds, seed, c_values, X, labels, train_idx, test_idx):
    """Tune, train and evaluate one (configuration, repetition); returns
    (chosen C, test accuracy, whether they came from a result record)."""
    if cache_dir:
        fields = {"version": RECORD_VERSION, "config": config.name, "folds": int(folds),
                  "tune_seed": seed, "c_values": [int(c) for c in c_values],
                  "tol": DEFAULT_TOL, "max_iter": MAX_ITER}
        h = hashlib.sha256(json.dumps(fields, sort_keys=True).encode())
        for idx in (train_idx, test_idx):
            h.update(np.ascontiguousarray(X[idx], dtype="<f4"))
            h.update(np.ascontiguousarray(labels[idx], dtype="<i8"))
        path = os.path.join(cache_dir, f"result_{h.hexdigest()[:32]}.json")
        if os.path.isfile(path):  # else no record yet
            record = read_json(path, CacheFileError)
            chosen_c, accuracy = record.get("chosen_c"), record.get("accuracy")
            if (any(record.get(name) != value for name, value in fields.items())
                    or type(chosen_c) is not int or chosen_c not in fields["c_values"]
                    or type(accuracy) is not float or not 0.0 <= accuracy <= 1.0):
                raise CacheFileError(f"{path}: result record does not match its key, or holds "
                                     f"chosen C {chosen_c!r} and accuracy {accuracy!r}")
            logger.info("reused result record %s", path)
            return chosen_c, accuracy, True
    chosen_c = tune_cost(X, labels, train_idx, folds, seed, c_values).chosen_c
    model = train_ovr(X[train_idx], labels[train_idx], chosen_c)
    accuracy = evaluate(model, X[test_idx], labels[test_idx])
    if cache_dir:
        write_json(path, {**fields, "chosen_c": chosen_c, "accuracy": accuracy})
    return chosen_c, accuracy, False


def _check_plan(plan: SplitPlan, class_names, folds: int) -> None:
    """Raise DatasetError unless every repetition of `plan` has two classes
    with training images, `folds` of them in each, and a test image."""
    for rep, per_class in enumerate(plan.repetitions):
        trained = {name: len(train) for name, (train, _) in zip(class_names, per_class) if train}
        if len(trained) < 2:
            raise DatasetError(f"repetition {rep}: {len(trained)} class(es) have training "
                               f"images {trained}, tuning needs 2")
        for name, count in trained.items():
            if count < folds:
                raise DatasetError(f"repetition {rep}: class {name!r} has {count} training "
                                   f"images, fewer than {folds} folds")
        if not any(test for _, test in per_class):
            raise DatasetError(f"repetition {rep} has no test image to score")


def run_experiment(
    manifest: DatasetManifest,
    object_backend: Backend | None,
    scene_backend: Backend | None,
    protocol: SplitProtocol,
    configs: tuple[FeatureConfig, ...] | None = None,
    folds: int = 5,
    c_values=C_GRID,
    plan: SplitPlan | None = None,
    cache_dir: str | None = None,
    out_path: str | None = None,
) -> ExperimentReport:
    """Run the full ablation; deterministic in (dataset, protocol, backends).

    Only the base descriptors the configurations use are extracted, so a
    backend none of them needs may be None. A split that cannot be tuned
    with `folds` folds or scored raises DatasetError before extraction. If
    `out_path` is given the report JSON is written there once, when the run
    ends or stops; it is complete exactly when every configuration
    finished. With a `cache_dir`, each (configuration, repetition) is
    written there as a result record when it finishes and reused by any
    later run whose inputs hash the same, so a killed run resumes at its
    first unfinished pair.
    """
    configs = default_configs() if configs is None else tuple(configs)
    if plan is None:
        plan = make_split(manifest, protocol)
    elif len(plan.repetitions) != protocol.repetitions:
        raise DatasetError(f"split plan has {len(plan.repetitions)} repetitions, "
                           f"the protocol needs {protocol.repetitions}")
    _check_plan(plan, manifest.class_names, folds)  # before a day of extraction
    base, labels, paths = compute_base_features(
        manifest, object_backend, scene_backend, cache_dir,
        {source for config in configs for source in config.sources}
    )
    # each repetition's train and test rows, class by class in the plan's order
    row = {path: i for i, path in enumerate(paths)}
    splits = [[np.array([row[p] for pair in per_class for p in pair[part]], dtype=np.intp)
               for part in (0, 1)] for per_class in plan.repetitions]

    protocol_doc = {
        "kind": protocol.kind,
        "train_per_class": protocol.train_per_class,
        "test_per_class": protocol.test_per_class,
        "repetitions": protocol.repetitions,
    }
    results: list[ConfigResult] = []
    reused = 0
    try:
        for config in configs:
            X = config_matrix(base, config)
            per_rep = []
            chosen = []
            for rep, (train_idx, test_idx) in enumerate(splits):
                chosen_c, accuracy, from_record = _result(
                    cache_dir, config, folds, _tune_seed(protocol.seed, rep), c_values,
                    X, labels, train_idx, test_idx)
                per_rep.append(accuracy)
                chosen.append(chosen_c)
                reused += from_record
            results.append(ConfigResult(
                name=config.name,
                feature_type=config.feature_type,
                pool_op=config.pool_op,
                per_repetition_accuracy=tuple(per_rep),
                mean_accuracy=sum(per_rep) / len(per_rep),
                chosen_c=tuple(chosen),
            ))
    finally:  # also on an error or an interrupt: what finished is written
        report = ExperimentReport(
            dataset=manifest.name, seed=protocol.seed, folds=folds, protocol=protocol_doc,
            results=tuple(results), complete=len(results) == len(configs), reused=reused)
        if out_path:
            os.makedirs(os.path.dirname(os.path.abspath(out_path)), exist_ok=True)
            write_json(out_path, report.to_dict())
    return report


def format_table(report: ExperimentReport) -> str:
    """Human-readable tables mirroring the two ablation layouts."""
    by_name = {r.name: r for r in report.results}
    lines = [
        f"dataset: {report.dataset}   seed: {report.seed}   "
        f"repetitions: {report.protocol['repetitions']}   folds: {report.folds}"
    ]

    def row(label: str, r: ConfigResult) -> str:
        reps = " ".join(f"{a * 100:6.2f}" for a in r.per_repetition_accuracy)
        cs = ",".join(str(c) for c in r.chosen_c)
        return f"  {label:<8} {r.mean_accuracy * 100:6.2f}   [{reps}]   C={cs}"

    singles = [n for n in (FeatureConfig(s).name for s in SOURCES) if n in by_name]
    if singles:
        lines.append("feature types (mean accuracy %, per-repetition, chosen C):")
        for name in singles:
            lines.append(row(name, by_name[name]))
        if "HDF-concat" in by_name:
            lines.append(row("HDF", by_name["HDF-concat"]))
    aggs = [op for op in POOL_OPS if f"HDF-{op}" in by_name]
    if aggs:
        lines.append("hybrid aggregators (mean accuracy %, per-repetition, chosen C):")
        for op in aggs:
            lines.append(row(op.capitalize(), by_name[f"HDF-{op}"]))
    return "\n".join(lines) + "\n"
