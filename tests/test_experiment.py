import json
import logging
import os
import shutil
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import watch_forwards
from corruption import RECORD_DAMAGE
from scenefuse import binfile, experiment
from scenefuse.cache import CacheFileError
from scenefuse.datasets import (REPEATED_RANDOM, DatasetError, DatasetManifest, SplitProtocol,
                                 make_split, scan_dataset)
from scenefuse.experiment import (
    FeatureConfig, UnreadableError, backend_digest, compute_base_features, config_matrix,
    default_configs, extract_dataset, format_table, run_experiment, tune_cost,
)
from scenefuse.pipeline import SOURCES
from scenefuse.synthetic import make_synthetic_dataset, stub_backend_pair


@pytest.fixture(scope="module")
def small_protocol():
    return SplitProtocol("fixed_per_class", 5, 1, 1, seed=3)


@pytest.fixture(scope="module")
def run(tiny_dataset, stub_pair, small_protocol, tmp_path_factory):
    root, manifest = tiny_dataset
    obj, scn = stub_pair
    out = tmp_path_factory.mktemp("exp") / "report.json"
    report = run_experiment(manifest, obj, scn, small_protocol,
                            folds=5, c_values=range(1, 11),
                            out_path=str(out))
    return report, out


class TestConfigs:
    def test_default_set(self):
        names = [c.name for c in default_configs()]
        assert names == ["OP", "OW", "SP", "SW",
                         "HDF-max", "HDF-mean", "HDF-min", "HDF-concat"]

    def test_validation(self):
        with pytest.raises(ValueError, match="pool"):
            FeatureConfig("hdf")
        with pytest.raises(ValueError, match="no pool"):
            FeatureConfig("ow", "max")
        with pytest.raises(ValueError, match="unknown"):
            FeatureConfig("bof")

    def test_dims(self):
        assert FeatureConfig("hdf", "concat").dim == 2048
        assert FeatureConfig("hdf", "mean").dim == 512
        assert FeatureConfig("op").dim == 512


class TestBaseFeatures:
    def test_matrices_and_cache_round_trip(self, tiny_dataset, stub_pair, tmp_path):
        root, manifest = tiny_dataset
        obj, scn = stub_pair
        cache_dir = tmp_path / "cache"
        base, labels, paths = compute_base_features(manifest, obj, scn,
                                                    cache_dir=str(cache_dir))
        n = manifest.total_images
        assert sorted(base) == sorted(SOURCES)
        for mat in base.values():
            assert mat.shape == (n, 512)
        assert len(paths) == n
        # each source's cache is keyed by the digest of its own backend
        for backend, sources in ((obj, ("op", "ow")), (scn, ("sp", "sw"))):
            digest = backend_digest(backend)
            assert sorted(p.name for p in cache_dir.glob(f"*_{digest}.hdfc")) == [
                f"{manifest.name}_{s}_{digest}.hdfc" for s in sources]

        again, labels2, _ = compute_base_features(manifest, obj, scn,
                                                  cache_dir=str(cache_dir))
        assert np.array_equal(labels, labels2)
        for s in SOURCES:
            assert np.array_equal(base[s], again[s])

    def test_full_run_caches_serve_a_single_source(self, tiny_dataset, stub_pair,
                                                   tmp_path, monkeypatch):
        _, manifest = tiny_dataset
        obj, scn = stub_pair
        cache_dir = str(tmp_path / "cache")
        full, _, _ = compute_base_features(manifest, obj, scn, cache_dir)

        def no_extraction(*args):
            raise AssertionError("extracted despite a matching cache")

        monkeypatch.setattr(experiment, "extract_dataset", no_extraction)
        # the scene backend is not needed for ow, so it may be missing
        only, _, _ = compute_base_features(manifest, obj, None, cache_dir, ("ow",))
        assert sorted(only) == ["ow"]
        assert np.array_equal(only["ow"], full["ow"])

    def test_extraction_version_changes_the_digest(self, stub_pair, monkeypatch):
        # so is the cache format's: a cache of another format is missed by name, never opened
        before = backend_digest(stub_pair[0])
        for version in ("EXTRACTION_VERSION", "FORMAT_VERSION"):
            with monkeypatch.context() as patch:
                patch.setattr(experiment, version, getattr(experiment, version) + 1)
                assert backend_digest(stub_pair[0]) != before

    @staticmethod
    def count_extractions(monkeypatch):
        calls = []
        original = experiment.extract_dataset

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(experiment, "extract_dataset", counting)
        return calls

    @pytest.mark.parametrize("shift_s", [-3600, 1], ids=["earlier", "later"])
    def test_a_changed_image_is_reextracted_once(
            self, shift_s, tiny_dataset, stub_pair, tmp_path, monkeypatch, caplog):
        root, _ = tiny_dataset
        shutil.copytree(root, tmp_path / "data")
        manifest = scan_dataset(str(tmp_path / "data"))
        cache_dir = str(tmp_path / "cache")
        first, _, paths = compute_base_features(manifest, *stub_pair, cache_dir)
        victim = paths[7]
        stamp = os.stat(victim).st_mtime_ns + shift_s * 10**9
        os.utime(victim, ns=(stamp, stamp))

        calls = self.count_extractions(monkeypatch)
        with caplog.at_level(logging.INFO, logger="scenefuse.experiment"):
            again, _, _ = compute_base_features(manifest, *stub_pair, cache_dir)
        assert len(calls) == 1 and victim in caplog.text
        for s in SOURCES:
            assert np.array_equal(first[s], again[s])
        compute_base_features(manifest, *stub_pair, cache_dir)
        assert len(calls) == 1  # the rewritten caches recorded the new mtime

    def test_a_renamed_image_is_named(self, tiny_dataset, stub_pair, tmp_path, monkeypatch,
                                      caplog):
        # a rename keeps the file's size and mtime_ns, so every stamp still matches
        root, _ = tiny_dataset
        shutil.copytree(root, tmp_path / "data")
        cache_dir = str(tmp_path / "cache")
        _, _, paths = compute_base_features(scan_dataset(str(tmp_path / "data")), *stub_pair,
                                            cache_dir)
        renamed = paths[7].replace(".ppm", "b.ppm")  # keeps its place in the sorted list
        os.rename(paths[7], renamed)
        manifest = scan_dataset(str(tmp_path / "data"))
        assert manifest.flat_paths_labels()[0][7] == renamed

        calls = self.count_extractions(monkeypatch)
        with caplog.at_level(logging.INFO, logger="scenefuse.experiment"):
            compute_base_features(manifest, *stub_pair, cache_dir)
        assert len(calls) == 1
        assert f"{renamed} changed since" in caplog.text

    def test_each_backend_is_hashed_once(self, tiny_dataset, stub_pair, tmp_path,
                                         monkeypatch):
        _, manifest = tiny_dataset
        calls = []
        original = experiment.backend_digest

        def counting(backend):
            calls.append(backend.kind)
            return original(backend)

        monkeypatch.setattr(experiment, "backend_digest", counting)
        compute_base_features(manifest, *stub_pair, str(tmp_path / "cache"))
        assert sorted(calls) == ["object", "scene"]

    def test_a_run_killed_after_one_cache_write_leaves_no_stale_row(
            self, tiny_dataset, stub_pair, tmp_path, monkeypatch):
        root, _ = tiny_dataset
        shutil.copytree(root, tmp_path / "data")
        manifest = scan_dataset(str(tmp_path / "data"))
        cache_dir = str(tmp_path / "cache")
        _, _, paths = compute_base_features(manifest, *stub_pair, cache_dir)
        victim = paths[0]
        original, before = Path(victim).read_bytes(), os.stat(victim).st_mtime_ns
        # an edit that keeps the size, made 10 s later
        with open(victim, "r+b") as fh:
            fh.seek(-48, os.SEEK_END)
            fh.write(bytes(255 - b for b in original[-48:]))
        os.utime(victim, ns=(before + 10**10, before + 10**10))

        save_cache = experiment.save_cache

        def killed_after_write(*args):
            save_cache(*args)
            raise KeyboardInterrupt

        monkeypatch.setattr(experiment, "save_cache", killed_after_write)
        with pytest.raises(KeyboardInterrupt):
            compute_base_features(manifest, *stub_pair, cache_dir)
        monkeypatch.setattr(experiment, "save_cache", save_cache)
        # the edit undone as `cp -p` or `rsync -a` would: old bytes, old mtime_ns
        Path(victim).write_bytes(original)
        os.utime(victim, ns=(before, before))

        calls = self.count_extractions(monkeypatch)
        again, _, _ = compute_base_features(manifest, *stub_pair, cache_dir)
        assert len(calls) == 1
        fresh, _, _ = compute_base_features(manifest, *stub_pair, None)
        for s in SOURCES:
            assert np.array_equal(again[s], fresh[s]), s

    def test_a_future_dated_image_is_extracted_once(self, tiny_dataset, stub_pair,
                                                     tmp_path, monkeypatch):
        root, _ = tiny_dataset
        shutil.copytree(root, tmp_path / "data")
        manifest = scan_dataset(str(tmp_path / "data"))
        victim = manifest.flat_paths_labels()[0][3]
        stamp = time.time_ns() + 3600 * 10**9  # an hour ahead of every cache write
        os.utime(victim, ns=(stamp, stamp))
        calls = self.count_extractions(monkeypatch)
        for _ in range(3):
            compute_base_features(manifest, *stub_pair, str(tmp_path / "cache"))
        assert len(calls) == 1

    @pytest.mark.parametrize("cache", [None, "cold", "warm"])
    def test_missing_images_are_named_together(self, cache, tiny_dataset, stub_pair,
                                                tmp_path):
        root, _ = tiny_dataset
        shutil.copytree(root, tmp_path / "data")
        manifest = scan_dataset(str(tmp_path / "data"))
        cache_dir = tmp_path / "cache"
        if cache == "warm":
            compute_base_features(manifest, *stub_pair, str(cache_dir))
        before = {p.name: p.read_bytes() for p in cache_dir.glob("*")}
        paths, _ = manifest.flat_paths_labels()
        gone = [paths[2], paths[9]]
        for path in gone:
            os.remove(path)
        with pytest.raises(DatasetError, match="2 of 18 images") as err:
            compute_base_features(manifest, *stub_pair, None if cache is None else str(cache_dir))
        assert all(path in str(err.value) for path in gone)
        assert {p.name: p.read_bytes() for p in cache_dir.glob("*")} == before

    def test_one_image_positional_call(self, tiny_dataset, stub_pair):
        # the shape in which the extraction benchmark calls it, image by image
        _, manifest = tiny_dataset
        class_name, class_paths = manifest.classes[1]
        one = DatasetManifest(name=manifest.name, classes=((class_name, class_paths[:1]),))
        mats, labels, paths = compute_base_features(one, *stub_pair, None)
        assert sorted(mats) == sorted(SOURCES)
        for mat in mats.values():
            assert mat.shape == (1, 512) and mat.dtype == np.float32
        assert list(labels) == [0] and paths == [class_paths[0]]

    def test_unreadable_names_each_bad_image(self, tiny_dataset, stub_pair, tmp_path):
        _, manifest = tiny_dataset
        good, _ = manifest.flat_paths_labels()
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"P6\n4 4\n255\nshort")
        missing = str(tmp_path / "missing.ppm")
        with pytest.raises(UnreadableError, match="2 of 5 images") as err:
            extract_dataset([good[0], str(bad), good[5], missing, good[9]], *stub_pair)
        assert list(err.value.failed) == [str(bad), missing]
        for path, message in err.value.failed.items():
            assert message.count(path) == 1
        mats = extract_dataset(good, *stub_pair)
        assert all(mat.shape == (len(good), 512) for mat in mats.values())

    def test_an_unreadable_image_stops_the_run_before_any_forward(self, stub_pair, tmp_path,
                                                                   monkeypatch):
        manifest = make_synthetic_dataset(str(tmp_path / "data"), classes=2, per_class=5,
                                          size=(16, 16))
        first = manifest.flat_paths_labels()[0][0]
        with open(first, "r+b") as fh:
            fh.truncate(20)  # the header and a few bytes of the raster
        calls = []
        original = experiment.extract_base_features

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(experiment, "extract_base_features", counting)
        cache_dir = tmp_path / "cache"
        with pytest.raises(DatasetError, match="1 of 10 images") as err:
            compute_base_features(manifest, *stub_pair, str(cache_dir))
        assert first in str(err.value)
        assert calls == [] and not cache_dir.exists()

    def test_config_matrix_shapes(self, rng):
        base = {s: rng.normal(0, 1, (6, 512)).astype(np.float32) for s in SOURCES}
        assert config_matrix(base, FeatureConfig("sw")).shape == (6, 512)
        assert config_matrix(base, FeatureConfig("hdf", "concat")).shape == (6, 2048)


class TestTuneSeam:
    def test_tuning_reads_only_training_rows(self, rng):
        accessed = []

        class Tracking(np.ndarray):
            def __getitem__(self, item):
                if isinstance(item, np.ndarray) and item.dtype != bool:
                    accessed.extend(int(i) for i in np.ravel(item))
                return super().__getitem__(item)

        X = rng.normal(0, 1, (30, 6)).view(Tracking)
        labels = np.repeat([0, 1, 2], 10)
        train_idx = np.concatenate([np.arange(0, 7), np.arange(10, 17),
                                    np.arange(20, 27)])
        test_idx = np.setdiff1d(np.arange(30), train_idx)
        tune_cost(X, labels, train_idx, folds=3, seed=0, c_values=range(1, 4))
        assert accessed, "instrumentation saw no row access"
        assert not set(accessed) & set(test_idx.tolist())


class TestRunExperiment:
    def test_report_structure(self, run, small_protocol):
        report, out = run
        names = [r.name for r in report.results]
        assert names == ["OP", "OW", "SP", "SW",
                         "HDF-max", "HDF-mean", "HDF-min", "HDF-concat"]
        for r in report.results:
            assert len(r.per_repetition_accuracy) == small_protocol.repetitions
            assert len(r.chosen_c) == small_protocol.repetitions
            assert all(1 <= c <= 100 for c in r.chosen_c)
            assert r.mean_accuracy == pytest.approx(
                sum(r.per_repetition_accuracy) / len(r.per_repetition_accuracy),
                abs=1e-9)
        assert report.complete

    def test_report_written_and_parses(self, run):
        report, out = run
        doc = json.loads(out.read_text())
        assert doc["complete"] is True
        assert len(doc["configurations"]) == 8
        assert doc["configurations"][0]["name"] == "OP"

    def test_rerun_identical(self, tiny_dataset, stub_pair, small_protocol, run):
        root, manifest = tiny_dataset
        obj, scn = stub_pair
        report, _ = run
        again = run_experiment(manifest, obj, scn, small_protocol,
                               folds=5, c_values=range(1, 11))
        assert again.to_dict() == report.to_dict()

    def test_separable_dataset_classified_perfectly(self, run):
        report, _ = run
        by_name = {r.name: r for r in report.results}
        assert by_name["HDF-concat"].mean_accuracy == 1.0

    def test_base_features_computed_once_through_the_module(
            self, tiny_dataset, stub_pair, small_protocol, monkeypatch):
        # perfbench's tracer replaces `experiment.compute_base_features` and times that span
        _, manifest = tiny_dataset
        calls = []
        original = experiment.compute_base_features

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(experiment, "compute_base_features", counting)
        run_experiment(manifest, *stub_pair, small_protocol,
                       configs=(FeatureConfig("ow"),), folds=5, c_values=range(1, 3))
        assert len(calls) == 1

    def test_single_type_extracts_only_its_source(self, tiny_dataset, stub_pair,
                                                  small_protocol, monkeypatch):
        _, manifest = tiny_dataset
        obj, _ = stub_pair
        views = []  # a rect/circ pair forward counts as 2
        watch_forwards(monkeypatch, views.append)
        for feature_type, per_image in (("ow", 1), ("op", 20)):
            views.clear()
            report = run_experiment(manifest, obj, None, small_protocol,
                                    configs=(FeatureConfig(feature_type),), folds=5,
                                    c_values=range(1, 3))
            assert [r.name for r in report.results] == [feature_type.upper()]
            assert sum(views) == per_image * manifest.total_images

    def test_partial_flush_on_failure(self, tiny_dataset, stub_pair, small_protocol,
                                      tmp_path, monkeypatch):
        root, manifest = tiny_dataset
        obj, scn = stub_pair
        out = tmp_path / "partial.json"
        import scenefuse.experiment as exp

        calls = []
        original = exp.train_ovr

        def explode_on_third(*args, **kwargs):
            calls.append(1)
            if len(calls) >= 3:
                raise RuntimeError("boom")
            return original(*args, **kwargs)

        monkeypatch.setattr(exp, "train_ovr", explode_on_third)
        with pytest.raises(RuntimeError, match="boom"):
            run_experiment(manifest, obj, scn, small_protocol,
                           folds=5, c_values=range(1, 4), out_path=str(out))
        doc = json.loads(out.read_text())
        assert doc["complete"] is False
        assert len(doc["configurations"]) == 2  # the ones that finished

    def test_partial_flush_on_interrupt(self, tiny_dataset, stub_pair, small_protocol,
                                        tmp_path, monkeypatch):
        _, manifest = tiny_dataset
        out = tmp_path / "partial.json"
        calls = []

        def interrupt_on_second(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return tune_cost(*args, **kwargs)

        monkeypatch.setattr(experiment, "tune_cost", interrupt_on_second)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(manifest, *stub_pair, small_protocol, configs=default_configs()[:3],
                           folds=5, c_values=range(1, 4), out_path=str(out))
        doc = json.loads(out.read_text())
        assert doc["complete"] is False
        assert [c["name"] for c in doc["configurations"]] == ["OP"]

    def test_an_untunable_split_stops_the_run_before_any_forward(self, stub_pair, tmp_path,
                                                                  monkeypatch):
        # 3 training images per class cannot fill 5 folds
        manifest = make_synthetic_dataset(str(tmp_path / "data"), classes=2, per_class=6,
                                          size=(16, 16))
        calls = []
        original = experiment.extract_base_features

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(experiment, "extract_base_features", counting)
        cache_dir, out = tmp_path / "out" / "cache", tmp_path / "out" / "report.json"
        with pytest.raises(DatasetError, match="repetition 0: class 'class_00' has 3 "
                                               "training images, fewer than 5 folds"):
            run_experiment(manifest, *stub_pair, SplitProtocol("fixed_per_class", 3, 2, 1, 0),
                           folds=5, cache_dir=str(cache_dir), out_path=str(out))
        assert calls == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("damage, match", [
        (lambda per_class: per_class[:1] + [((), test) for _, test in per_class[1:]],
         r"repetition 0: 1 class\(es\) have training images \{'class_00': 5\}"),
        (lambda per_class: [(train, ()) for train, _ in per_class],
         "repetition 0 has no test image"),
    ], ids=["one-trained-class", "no-test-image"])
    def test_a_plan_that_cannot_be_tuned_or_scored(self, damage, match, tiny_dataset,
                                                   stub_pair, small_protocol, monkeypatch):
        _, manifest = tiny_dataset
        plan = make_split(manifest, small_protocol)
        plan = replace(plan, repetitions=(tuple(damage(list(plan.repetitions[0]))),))
        monkeypatch.setattr(experiment, "compute_base_features", None)
        with pytest.raises(DatasetError, match=match):
            run_experiment(manifest, *stub_pair, small_protocol, folds=5, plan=plan)

    def test_table_rows(self, run):
        report, _ = run
        table = format_table(report)
        for row in ("OP", "OW", "SP", "SW", "HDF", "Max", "Mean", "Min", "Concat"):
            assert f"  {row} " in table or f"  {row:<8}" in table


@pytest.fixture(scope="module")
def two_reps():
    return SplitProtocol(REPEATED_RANDOM, 4, 2, 2, seed=5)


def count_tune_cost(monkeypatch, fail_at=None):
    """Count `tune_cost` calls; the call numbered `fail_at` raises instead."""
    calls = []
    original = experiment.tune_cost

    def counting(*args, **kwargs):
        calls.append(1)
        if len(calls) == fail_at:
            raise RuntimeError("killed")
        return original(*args, **kwargs)

    monkeypatch.setattr(experiment, "tune_cost", counting)
    return calls


def records_in(cache_dir):
    return sorted(p.name for p in cache_dir.glob("result_*.json"))


class TestResultRecords:
    def ablation(self, manifest, backends, protocol, cache_dir, **kwargs):
        kwargs = {"folds": 2, "c_values": range(1, 4), **kwargs}
        return run_experiment(manifest, *backends, protocol,
                              cache_dir=cache_dir and str(cache_dir), **kwargs)

    def test_second_run_tunes_nothing(self, tiny_dataset, stub_pair, two_reps, tmp_path,
                                      monkeypatch, caplog):
        _, manifest = tiny_dataset
        first = self.ablation(manifest, stub_pair, two_reps, tmp_path)
        assert first.reused == 0 and len(records_in(tmp_path)) == 16
        calls = count_tune_cost(monkeypatch)
        with caplog.at_level(logging.INFO, logger="scenefuse.experiment"):
            again = self.ablation(manifest, stub_pair, two_reps, tmp_path)
        assert calls == [] and again.reused == 16
        assert again.to_dict() == first.to_dict()
        for name in records_in(tmp_path):
            assert str(tmp_path / name) in caplog.text

    def test_killed_run_resumes_at_its_first_unfinished_pair(
            self, tiny_dataset, stub_pair, two_reps, tmp_path, monkeypatch):
        _, manifest = tiny_dataset
        whole = tmp_path / "whole.json"
        self.ablation(manifest, stub_pair, two_reps, tmp_path / "a", out_path=str(whole))
        resumed = tmp_path / "resumed.json"
        count_tune_cost(monkeypatch, fail_at=3)
        with pytest.raises(RuntimeError, match="killed"):
            self.ablation(manifest, stub_pair, two_reps, tmp_path / "b",
                          out_path=str(resumed))
        assert len(records_in(tmp_path / "b")) == 2
        calls = count_tune_cost(monkeypatch)
        report = self.ablation(manifest, stub_pair, two_reps, tmp_path / "b",
                               out_path=str(resumed))
        assert len(calls) == 14 and report.reused == 2
        assert resumed.read_bytes() == whole.read_bytes()

    @pytest.mark.parametrize("change", ["backend seed", "folds", "C grid"])
    def test_other_inputs_miss(self, change, tiny_dataset, stub_pair, two_reps, tmp_path,
                               monkeypatch):
        _, manifest = tiny_dataset
        configs = (FeatureConfig("ow"),)
        self.ablation(manifest, stub_pair, two_reps, tmp_path, configs=configs)
        backends, kwargs = stub_pair, {"configs": configs}
        if change == "backend seed":
            backends = stub_backend_pair(seed=12)
        elif change == "folds":
            kwargs["folds"] = 3
        else:
            kwargs["c_values"] = range(1, 5)
        calls = count_tune_cost(monkeypatch)
        report = self.ablation(manifest, backends, two_reps, tmp_path, **kwargs)
        assert len(calls) == 2 and report.reused == 0
        assert len(records_in(tmp_path)) == 4

    @pytest.mark.parametrize("damage", sorted(RECORD_DAMAGE))
    def test_bad_record_names_its_file(self, damage, tiny_dataset, stub_pair, small_protocol,
                                       tmp_path):
        _, manifest = tiny_dataset
        configs = (FeatureConfig("ow"),)
        self.ablation(manifest, stub_pair, small_protocol, tmp_path, configs=configs)
        (record,) = tmp_path.glob("result_*.json")
        record.write_text(RECORD_DAMAGE[damage](record.read_text()))
        with pytest.raises(CacheFileError) as error:
            self.ablation(manifest, stub_pair, small_protocol, tmp_path, configs=configs)
        assert str(record) in str(error.value)

    def test_failed_write_leaves_no_record(self, tiny_dataset, stub_pair, small_protocol,
                                           tmp_path, monkeypatch):
        _, manifest = tiny_dataset
        compute_base_features(manifest, *stub_pair, str(tmp_path), ("ow",))
        before = sorted(p.name for p in tmp_path.iterdir())

        def disk_full(src, dst):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(binfile.os, "replace", disk_full)
        with pytest.raises(OSError, match="No space"):
            self.ablation(manifest, stub_pair, small_protocol, tmp_path,
                          configs=(FeatureConfig("ow"),))
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_without_cache_dir_nothing_is_hashed_or_written(
            self, tiny_dataset, stub_pair, small_protocol, tmp_path, monkeypatch):
        _, manifest = tiny_dataset
        monkeypatch.chdir(tmp_path)
        for name in ("read_json", "save_cache", "write_json"):
            monkeypatch.setattr(experiment, name, None)
        report = self.ablation(manifest, stub_pair, small_protocol, None,
                               configs=(FeatureConfig("ow"),))
        assert report.reused == 0 and list(tmp_path.iterdir()) == []
