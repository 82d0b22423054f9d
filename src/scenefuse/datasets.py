"""Dataset ingestion and train/test split generation.

Datasets are directories with one subdirectory per class holding PPM/PGM
images. Split protocols mirror the three benchmark conventions:

* ``mit67``:   80 train / 20 test per class, one fixed seeded split;
* ``scene15``: 100 train per class, the rest for testing, 10 repetitions;
* ``event8``:  70 train / 60 test per class, 10 repetitions.

Splits are deterministic functions of (manifest, protocol, seed): each
(repetition, class) pair gets its own counter-based random stream, so
adding repetitions never perturbs earlier ones. Plans can be exported to
and restored from JSON, which is also the hook for supplying an official
split list instead of a seeded one.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass

import numpy as np

from .binfile import read_json, write_json
from .imageio import IMAGE_EXTENSIONS

logger = logging.getLogger(__name__)

FIXED_PER_CLASS = "fixed_per_class"
REPEATED_RANDOM = "repeated_random"
_SPLIT_STREAM = 0x5B17


class DatasetError(ValueError):
    """Raised for unusable dataset directories or undersized classes."""


@dataclass(frozen=True)
class DatasetManifest:
    """Class names with their lexicographically ordered image paths."""

    name: str
    classes: tuple[tuple[str, tuple[str, ...]], ...]

    @property
    def class_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.classes)

    @property
    def total_images(self) -> int:
        return sum(len(paths) for _, paths in self.classes)

    def flat_paths_labels(self) -> tuple[list[str], np.ndarray]:
        """All paths in class-major order with integer class labels."""
        paths: list[str] = []
        labels: list[int] = []
        for idx, (_, class_paths) in enumerate(self.classes):
            paths.extend(class_paths)
            labels.extend([idx] * len(class_paths))
        return paths, np.asarray(labels, dtype=np.intp)


def scan_dataset(root: str) -> DatasetManifest:
    """Build a manifest from a directory-per-class tree.

    Non-image files are skipped (logged with a count); an empty class
    directory, fewer than two classes or an image path that is not UTF-8
    is an error.
    """
    if not os.path.isdir(root):
        raise DatasetError(f"dataset root {root!r} is not a directory")
    class_dirs = sorted(
        d for d in os.listdir(root) if os.path.isdir(os.path.join(root, d))
    )
    classes = []
    skipped = 0
    for class_name in class_dirs:
        class_dir = os.path.join(root, class_name)
        paths = []
        for fname in sorted(os.listdir(class_dir)):
            full = os.path.join(class_dir, fname)
            if not os.path.isfile(full):
                continue
            if os.path.splitext(fname)[1].lower() in IMAGE_EXTENSIONS:
                try:
                    full.encode("utf-8")  # caches store each path as UTF-8
                except UnicodeEncodeError:
                    raise DatasetError(f"image path {full!r} is not UTF-8") from None
                paths.append(full)
            else:
                skipped += 1
        if not paths:
            raise DatasetError(f"class {class_name!r} has no readable images")
        classes.append((class_name, tuple(paths)))
    if len(classes) < 2:
        raise DatasetError(f"need at least 2 class directories, found {len(classes)}")
    if skipped:
        logger.warning("skipped %d non-image files under %s", skipped, root)
    return DatasetManifest(name=os.path.basename(os.path.abspath(root)),
                           classes=tuple(classes))


@dataclass(frozen=True)
class SplitProtocol:
    """How to sample train/test sets: sizes, repetitions and the seed."""

    kind: str
    train_per_class: int
    test_per_class: int | None  # None = the rest of the class
    repetitions: int
    seed: int

    def __post_init__(self):
        if self.kind not in (FIXED_PER_CLASS, REPEATED_RANDOM):
            raise ValueError(f"unknown protocol kind {self.kind!r}")
        if self.train_per_class < 1:
            raise ValueError("train_per_class must be >= 1")
        if self.test_per_class is not None and self.test_per_class < 1:
            raise ValueError("test_per_class must be >= 1 or None for the rest")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")


def protocol_preset(name: str, seed: int = 0) -> SplitProtocol:
    """The per-dataset conventions; see the module docstring."""
    presets = {
        "mit67": SplitProtocol(FIXED_PER_CLASS, 80, 20, 1, seed),
        "scene15": SplitProtocol(REPEATED_RANDOM, 100, None, 10, seed),
        "event8": SplitProtocol(REPEATED_RANDOM, 70, 60, 10, seed),
    }
    if name not in presets:
        raise ValueError(f"unknown protocol {name!r}; choose from {sorted(presets)}")
    return presets[name]


@dataclass(frozen=True)
class SplitPlan:
    """Per repetition and per class of the manifest, in its order: disjoint
    train and test tuples of image paths, in manifest order from `make_split`
    and in file order from `load_split`; that order sets the classifier's rows.
    """

    dataset: str
    seed: int
    repetitions: tuple[tuple[tuple[tuple[str, ...], tuple[str, ...]], ...], ...]


def make_split(manifest: DatasetManifest, protocol: SplitProtocol) -> SplitPlan:
    """Sample a split plan; deterministic in (manifest, protocol)."""
    reps = []
    for r in range(protocol.repetitions):
        per_class = []
        for ci, (class_name, paths) in enumerate(manifest.classes):
            n = len(paths)
            need = protocol.train_per_class + (protocol.test_per_class or 1)
            if n < need:
                raise DatasetError(
                    f"class {class_name!r} has {n} images, protocol needs {need}"
                )
            rng = np.random.default_rng(
                np.random.SeedSequence([int(protocol.seed), _SPLIT_STREAM, r, ci])
            )
            perm = rng.permutation(n)
            train = perm[: protocol.train_per_class]
            if protocol.test_per_class is None:
                test = perm[protocol.train_per_class :]
            else:
                test = perm[
                    protocol.train_per_class : protocol.train_per_class
                    + protocol.test_per_class
                ]
            per_class.append((tuple(paths[i] for i in sorted(train)),
                              tuple(paths[i] for i in sorted(test))))
        reps.append(tuple(per_class))
    return SplitPlan(dataset=manifest.name, seed=protocol.seed, repetitions=tuple(reps))


def save_split(plan: SplitPlan, manifest: DatasetManifest, path: str) -> None:
    """Export a plan as JSON: per repetition, each class's train and test
    path lists, unchanged, under the manifest's class names."""
    reps = []
    for per_class in plan.repetitions:
        named = list(zip(manifest.class_names, per_class))
        reps.append({"train": {name: list(train) for name, (train, _) in named},
                     "test": {name: list(test) for name, (_, test) in named}})
    write_json(path, {"dataset": plan.dataset, "seed": plan.seed, "repetitions": reps})


def load_split(path: str, manifest: DatasetManifest) -> SplitPlan:
    """Restore a plan from JSON; each path list keeps the file's order.

    This is how an externally supplied (e.g. official) split list is fed
    into the harness. A file not in `save_split`'s layout, or one that names
    a class or image the manifest lacks, or lists an image twice in one
    repetition's train and test, raises DatasetError.
    """
    doc = read_json(path, DatasetError)
    repetitions = doc.get("repetitions")
    if not isinstance(repetitions, list) or type(doc.get("seed", 0)) is not int or not all(
            isinstance(rep, dict) and all(isinstance(rep.get(part), dict) and all(
                isinstance(listed, list) and all(isinstance(p, str) for p in listed)
                for listed in rep[part].values()) for part in ("train", "test"))
            for rep in repetitions):
        raise DatasetError(f"{path}: not a split file: needs a 'repetitions' list of "
                           "'train' and 'test' objects mapping class names to path lists")
    images = {class_name: set(paths) for class_name, paths in manifest.classes}
    reps = []
    for r, rep in enumerate(repetitions):
        unknown = sorted((set(rep["train"]) | set(rep["test"])) - set(images))
        if unknown:
            raise DatasetError(f"{path}: repetition {r} names class {unknown[0]!r}, "
                               "which the dataset does not have")
        per_class = []
        for class_name, known in images.items():
            train, test = (tuple(rep[part].get(class_name, [])) for part in ("train", "test"))
            both = train + test
            stray = next((p for p in both if p not in known), None)
            if stray is not None:
                raise DatasetError(f"{path}: split references unknown image {stray!r} "
                                   f"in class {class_name!r}")
            if len(set(both)) < len(both):
                repeated = next(p for k, p in enumerate(both) if p in both[:k])
                raise DatasetError(f"{path}: repetition {r} lists image "
                                   f"{repeated!r} more than once in train and test")
            per_class.append((train, test))
        reps.append(tuple(per_class))
    return SplitPlan(dataset=doc.get("dataset", manifest.name),
                     seed=doc.get("seed", 0), repetitions=tuple(reps))
