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

import json
import logging
import os
from dataclasses import dataclass

import numpy as np

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
    directory or fewer than two classes is an error.
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
    """Per repetition and per class: disjoint train/test index tuples.

    Indices refer to the positions inside each class's path list of the
    manifest the plan was made from.
    """

    dataset: str
    seed: int
    repetitions: tuple[tuple[tuple[tuple[int, ...], tuple[int, ...]], ...], ...]


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
            per_class.append((tuple(sorted(int(i) for i in train)),
                              tuple(sorted(int(i) for i in test))))
        reps.append(tuple(per_class))
    return SplitPlan(dataset=manifest.name, seed=protocol.seed, repetitions=tuple(reps))


def save_split(plan: SplitPlan, manifest: DatasetManifest, path: str) -> None:
    """Export a plan with resolved image paths as JSON."""
    reps = []
    for per_class in plan.repetitions:
        train = {}
        test = {}
        for (class_name, paths), (train_idx, test_idx) in zip(manifest.classes, per_class):
            train[class_name] = [paths[i] for i in train_idx]
            test[class_name] = [paths[i] for i in test_idx]
        reps.append({"train": train, "test": test})
    doc = {"dataset": plan.dataset, "seed": plan.seed, "repetitions": reps}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_split(path: str, manifest: DatasetManifest) -> SplitPlan:
    """Restore a plan from JSON, resolving paths back to class indices.

    This is how an externally supplied (e.g. official) split list is fed
    into the harness. A file not in `save_split`'s layout, or one that names
    a class or image the manifest lacks, or lists an image twice in one
    repetition's train and test, raises DatasetError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"{path}: not a JSON split file: {exc}") from None
    repetitions = doc.get("repetitions") if isinstance(doc, dict) else None
    if not isinstance(repetitions, list) or type(doc.get("seed", 0)) is not int or not all(
            isinstance(rep, dict) and all(isinstance(rep.get(part), dict) and all(
                isinstance(listed, list) and all(isinstance(p, str) for p in listed)
                for listed in rep[part].values()) for part in ("train", "test"))
            for rep in repetitions):
        raise DatasetError(f"{path}: not a split file: needs a 'repetitions' list of "
                           "'train' and 'test' objects mapping class names to path lists")
    position = {
        class_name: {p: i for i, p in enumerate(paths)}
        for class_name, paths in manifest.classes
    }
    reps = []
    for r, rep in enumerate(repetitions):
        unknown = sorted((set(rep["train"]) | set(rep["test"])) - set(position))
        if unknown:
            raise DatasetError(f"{path}: repetition {r} names class {unknown[0]!r}, "
                               "which the dataset does not have")
        per_class = []
        for class_name, class_paths in manifest.classes:
            entry = []
            for part in ("train", "test"):
                listed = rep[part].get(class_name, [])
                try:
                    entry.append(tuple(position[class_name][p] for p in listed))
                except KeyError as exc:
                    raise DatasetError(
                        f"{path}: split references unknown image {exc.args[0]!r} "
                        f"in class {class_name!r}"
                    ) from None
            train, test = entry
            both = train + test
            if len(set(both)) < len(both):
                repeated = next(i for k, i in enumerate(both) if i in both[:k])
                raise DatasetError(f"{path}: repetition {r} lists image "
                                   f"{class_paths[repeated]!r} more than once in train and test")
            per_class.append((train, test))
        reps.append(tuple(per_class))
    return SplitPlan(dataset=doc.get("dataset", manifest.name),
                     seed=doc.get("seed", 0), repetitions=tuple(reps))
