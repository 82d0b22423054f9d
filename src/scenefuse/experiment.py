"""Experiment orchestration: features, tuning, training, evaluation.

Reproduces the structure of the per-feature-type and per-aggregator
ablations: for every feature configuration and split repetition, the
cost parameter is tuned by cross-validation on the training rows only,
a one-vs-rest model is trained with the winning cost, and test accuracy
is recorded. Base descriptors are extracted once per image and reused by
all configurations.

Given a cache directory, a run keeps three kinds of file there. Each base
descriptor's ``HDFC`` cache is keyed by its trunk's digest, which folds in
`EXTRACTION_VERSION`, and reused only while every image has the size and
``mtime_ns`` listed in the ``.stamps.json`` record beside it.
Each (configuration, repetition) leaves a result record, keyed by a sha256
over `cache.RECORD_VERSION`, the configuration name, folds, tuning seed, C
grid, the solver's tolerance and iteration cap, and the train rows, then
the test rows, with their labels. A later run whose inputs hash the same
reuses the record instead of tuning, training and evaluating again.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass, field

import numpy as np

from .cache import RECORD_VERSION, CacheFileError, load_cache, load_record, save_cache, save_record
from .classifier import (C_GRID, DEFAULT_TOL, MAX_ITER, GridSearchReport, evaluate,
                         grid_search_c, train_ovr)
from .datasets import DatasetError, DatasetManifest, SplitPlan, SplitProtocol, make_split
from .imageio import NetpbmError, read_raster
from .pipeline import (FEATURE_DIM, POOL_OPS, SOURCES, Backend,
                       extract_base_features, fuse_matrix)

logger = logging.getLogger(__name__)

_TUNE_STREAM = 0x7A11
# Bump whenever extraction (engine, resize, slicing, pipeline) would give other features.
EXTRACTION_VERSION = 1
FEATURE_TYPES = ("op", "ow", "sp", "sw", "hdf")


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
    singles = tuple(FeatureConfig(t) for t in ("op", "ow", "sp", "sw"))
    hybrids = tuple(FeatureConfig("hdf", op) for op in POOL_OPS)
    return singles + hybrids


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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def backend_digest(backend: Backend) -> str:
    """Content hash of the extraction version and one backend's kind and weight
    bundle; keys its sources' caches."""
    h = hashlib.sha256(f"extraction {EXTRACTION_VERSION}".encode())
    h.update(backend.kind.encode())
    h.update(np.ascontiguousarray(backend.weights.means, dtype="<f4"))
    for entry in backend.weights.entries:
        h.update(entry.name.encode())
        h.update(np.ascontiguousarray(entry.kernel, dtype="<f4"))
        h.update(np.ascontiguousarray(entry.bias, dtype="<f4"))
    return h.hexdigest()[:16]


def _cache_path(cache_dir: str, dataset: str, source: str, digest: str) -> str:
    return os.path.join(cache_dir, f"{dataset}_{source}_{digest}.hdfc")


def _stamp(path: str) -> list[int] | None:
    """An image's [size, mtime_ns], or None if it cannot be stat'ed. A None
    stamp misses the cache, so `extract_dataset` reports that image's read
    with every other one that fails."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return [st.st_size, st.st_mtime_ns]


def _try_load_base(cache_paths, paths, labels, stamps):
    if None in stamps or not all(map(os.path.isfile, cache_paths.values())):
        return None
    mats = {}
    for source, path in cache_paths.items():
        record = load_record(f"{path}.stamps.json", {}, ("images",))
        stored = record["images"] if record and isinstance(record["images"], list) else []
        if stored != stamps:
            changed = next((image for image, old, new in zip(paths, stored, stamps)
                            if old != new), "the image list")
            logger.info("%s changed since %s was written; re-extracting", changed, path)
            return None
        cached_labels, cached_paths, mats[source] = load_cache(path, expect_dim=FEATURE_DIM)
        if cached_paths != paths or not np.array_equal(cached_labels, labels):
            return None
    logger.info("loaded cached base features: %s", ", ".join(cache_paths.values()))
    return mats


def extract_dataset(paths, object_backend: Backend | None, scene_backend: Backend | None,
                    sources=SOURCES):
    """The one loop over a dataset's images; returns (matrices, failed).

    `matrices` maps each source to a float32 (N_ok, 512) array, one row per
    image read, in the order of `paths`. A failed read (NetpbmError,
    OSError) adds a (path, message naming the path) pair to `failed` and
    the loop goes on; any other error propagates.
    """
    mats = {s: np.empty((len(paths), FEATURE_DIM), dtype=np.float32) for s in sources}
    failed = []
    row = 0
    for path in paths:
        try:
            raster = read_raster(path)
        except (NetpbmError, OSError) as exc:
            message = str(exc)  # the reader's errors name the file already
            failed.append((path, message if path in message else f"{path}: {message}"))
            continue
        base = extract_base_features(object_backend, scene_backend, raster, sources)
        for source in sources:
            mats[source][row] = base[source]
        row += 1
    return {s: m[:row] for s, m in mats.items()}, failed


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
    given, each source's cache is keyed by its own backend's digest;
    matching caches are reused and fresh results are written back. Images
    that cannot be read raise one DatasetError naming them all, before any
    cache is written.
    """
    paths, labels = manifest.flat_paths_labels()
    sources = [s for s in SOURCES if s in sources]
    if cache_dir:
        cache_paths = {s: _cache_path(cache_dir, manifest.name, s, backend_digest(
            object_backend if s in ("op", "ow") else scene_backend)) for s in sources}
        # taken before extraction, so an image changed while it runs is seen next time
        stamps = [_stamp(path) for path in paths]
        cached = _try_load_base(cache_paths, paths, labels, stamps)
        if cached is not None:
            return cached, labels, paths

    mats, failed = extract_dataset(paths, object_backend, scene_backend, sources)
    if failed:
        raise DatasetError(f"{len(failed)} of {len(paths)} images could not be read: "
                           + "; ".join(message for _, message in failed))

    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        for source, path in cache_paths.items():
            save_cache(path, labels, paths, mats[source])
            save_record(f"{path}.stamps.json", {}, {"images": stamps})
    return mats, labels, paths


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
        record = load_record(path, fields, ("chosen_c", "accuracy"))
        if record is not None:
            chosen_c, accuracy = record["chosen_c"], record["accuracy"]
            if chosen_c not in fields["c_values"] or type(accuracy) is not float:
                raise CacheFileError(f"{path}: result record holds chosen C {chosen_c!r} "
                                     f"and accuracy {accuracy!r}")
            logger.info("reused result record %s", path)
            return chosen_c, accuracy, True
    chosen_c = tune_cost(X, labels, train_idx, folds, seed, c_values).chosen_c
    model = train_ovr(X[train_idx], labels[train_idx], chosen_c)
    accuracy = evaluate(model, X[test_idx], labels[test_idx])
    if cache_dir:
        save_record(path, fields, {"chosen_c": chosen_c, "accuracy": accuracy})
    return chosen_c, accuracy, False


def _flat_indices(manifest: DatasetManifest, per_class) -> tuple[np.ndarray, np.ndarray]:
    offsets = np.cumsum([0] + [len(paths) for _, paths in manifest.classes[:-1]])
    train = []
    test = []
    for offset, (train_idx, test_idx) in zip(offsets, per_class):
        train.append(offset + np.asarray(train_idx, dtype=np.intp))
        test.append(offset + np.asarray(test_idx, dtype=np.intp))
    return np.concatenate(train), np.concatenate(test)


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
    backend none of them needs may be None. If `out_path` is given the
    report JSON is written there, including a partial report
    (complete=false) when a configuration fails mid-run. With a
    `cache_dir`, each (configuration, repetition) is written there as a
    result record when it finishes and reused by any later run whose inputs
    hash the same, so a killed run resumes at its first unfinished pair.
    """
    configs = default_configs() if configs is None else tuple(configs)
    if plan is None:
        plan = make_split(manifest, protocol)
    base, labels, _ = compute_base_features(
        manifest, object_backend, scene_backend, cache_dir,
        {source for config in configs for source in config.sources}
    )

    protocol_doc = {
        "kind": protocol.kind,
        "train_per_class": protocol.train_per_class,
        "test_per_class": protocol.test_per_class,
        "repetitions": protocol.repetitions,
    }
    results: list[ConfigResult] = []
    reused = 0

    def build_report(complete: bool) -> ExperimentReport:
        return ExperimentReport(
            dataset=manifest.name,
            seed=protocol.seed,
            folds=folds,
            protocol=protocol_doc,
            results=tuple(results),
            complete=complete,
            reused=reused,
        )

    try:
        for config in configs:
            X = config_matrix(base, config)
            per_rep = []
            chosen = []
            for rep, per_class in enumerate(plan.repetitions):
                chosen_c, accuracy, from_record = _result(
                    cache_dir, config, folds, _tune_seed(protocol.seed, rep), c_values,
                    X, labels, *_flat_indices(manifest, per_class))
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
    except Exception:
        if out_path:  # flush what finished before propagating
            _write_report(build_report(complete=False), out_path)
        raise

    report = build_report(complete=True)
    if out_path:
        _write_report(report, out_path)
    return report


def _write_report(report: ExperimentReport, path: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())


_AGG_LABELS = {"max": "Max", "mean": "Mean", "min": "Min", "concat": "Concat"}


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

    singles = [n for n in ("OP", "OW", "SP", "SW") if n in by_name]
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
            lines.append(row(_AGG_LABELS[op], by_name[f"HDF-{op}"]))
    return "\n".join(lines) + "\n"
