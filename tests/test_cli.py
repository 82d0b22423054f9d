import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from conftest import watch_forwards
from corruption import RECORD_DAMAGE
from scenefuse import cli
from scenefuse.cache import load_cache
from scenefuse.imageio import write_ppm
from scenefuse.weights import save_weights


@pytest.fixture(scope="module")
def weight_files(stub_pair, tmp_path_factory):
    obj, scn = stub_pair
    d = tmp_path_factory.mktemp("weights")
    object_path = d / "object.hdfw"
    scene_path = d / "scene.hdfw"
    save_weights(obj.weights, str(object_path))
    save_weights(scn.weights, str(scene_path))
    return str(object_path), str(scene_path)


@pytest.fixture()
def sample_image(tmp_path):
    rng = np.random.default_rng(7)
    path = tmp_path / "img.ppm"
    write_ppm(str(path), rng.integers(0, 255, (60, 80, 3)).astype(np.uint8))
    return str(path)


class TestSlice:
    def test_writes_40_files(self, sample_image, tmp_path, capsys):
        out = tmp_path / "slices"
        assert cli.main(["slice", sample_image, "--out", str(out)]) == 0
        files = sorted(p.name for p in out.iterdir())
        assert len(files) == 40
        assert "rect_0.ppm" in files and "rdiag_3.pgm" in files
        assert "technique" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, sample_image, tmp_path):
        out = tmp_path / "slices"
        cli.main(["slice", sample_image, "--out", str(out)])
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        cli.main(["slice", sample_image, "--out", str(out)])
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert before == after

    def test_missing_image_is_config_error(self, tmp_path):
        rc = cli.main(["slice", str(tmp_path / "nope.ppm"), "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_CONFIG

    def test_invalid_fill_writes_nothing(self, sample_image, tmp_path):
        out = tmp_path / "slices"
        out.mkdir()
        rc = cli.main(["slice", sample_image, "--out", str(out), "--fill", "abc"])
        assert rc == cli.EXIT_CONFIG
        assert list(out.iterdir()) == []


class TestExtract:
    def test_hdf_cache(self, tiny_dataset, weight_files, tmp_path):
        root, manifest = tiny_dataset
        obj_w, scn_w = weight_files
        out = tmp_path / "features"
        rc = cli.main([
            "extract", "--dataset", str(root), "--object-weights", obj_w,
            "--scene-weights", scn_w, "--out", str(out),
        ])
        assert rc == 0
        caches = list(out.glob("*.hdfc"))
        assert len(caches) == 1
        _, _, matrix = load_cache(str(caches[0]))
        assert matrix.shape == (manifest.total_images, 2048)

    def test_single_type_is_512(self, tiny_dataset, weight_files, tmp_path):
        root, _ = tiny_dataset
        obj_w, _ = weight_files
        out = tmp_path / "features"
        rc = cli.main([
            "extract", "--dataset", str(root), "--object-weights", obj_w,
            "--feature-type", "ow", "--out", str(out),
        ])
        assert rc == 0
        _, _, matrix = load_cache(str(next(out.glob("*_ow.hdfc"))))
        assert matrix.shape[1] == 512

    @pytest.mark.parametrize("feature_type, per_image", [("ow", 1), ("op", 20)])
    def test_forwards_only_for_the_requested_source(self, feature_type, per_image,
                                                     tiny_dataset, weight_files,
                                                     tmp_path, monkeypatch):
        calls = []  # views per trunk call; a rect/circ pair counts as 2
        watch_forwards(monkeypatch, calls.append)
        root, manifest = tiny_dataset
        obj_w, _ = weight_files
        rc = cli.main([
            "extract", "--dataset", str(root), "--object-weights", obj_w,
            "--feature-type", feature_type, "--out", str(tmp_path / "f"),
        ])
        assert rc == 0
        assert sum(calls) == per_image * manifest.total_images

    def test_repeat_invocation_bit_identical(self, tiny_dataset, weight_files,
                                             tmp_path):
        root, _ = tiny_dataset
        obj_w, scn_w = weight_files
        args = ["extract", "--dataset", str(root), "--object-weights", obj_w,
                "--scene-weights", scn_w, "--pool", "mean"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(args + ["--out", str(out1)]) == 0
        assert cli.main(args + ["--out", str(out2)]) == 0
        c1, c2 = next(out1.glob("*.hdfc")), next(out2.glob("*.hdfc"))
        assert c1.read_bytes() == c2.read_bytes()

    def test_missing_weights_is_config_error(self, tiny_dataset, tmp_path):
        root, _ = tiny_dataset
        rc = cli.main(["extract", "--dataset", str(root), "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_CONFIG


@pytest.fixture(scope="module")
def cache_path(tiny_dataset, weight_files, tmp_path_factory):
    root, _ = tiny_dataset
    obj_w, scn_w = weight_files
    out = tmp_path_factory.mktemp("features")
    cli.main(["extract", "--dataset", str(root), "--object-weights", obj_w,
              "--scene-weights", scn_w, "--out", str(out)])
    return str(next(out.glob("*.hdfc")))


class TestTrainEval:
    def test_train_then_eval(self, cache_path, tmp_path, capsys):
        out = tmp_path / "model"
        rc = cli.main(["train", "--features", cache_path, "--out", str(out),
                       "--folds", "3"])
        assert rc == 0
        assert (out / "model.hdfm").is_file()
        grid = json.loads((out / "grid_search.json").read_text())
        assert grid["c_values"] == list(range(1, 101))
        assert 1 <= grid["chosen_c"] <= 100
        capsys.readouterr()  # drop the train summary lines

        rc = cli.main(["eval", "--model", str(out / "model.hdfm"),
                       "--features", cache_path])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["accuracy"] == 1.0

    def test_eval_dim_mismatch_is_data_error(self, cache_path, tiny_dataset,
                                             weight_files, tmp_path):
        root, _ = tiny_dataset
        obj_w, _ = weight_files
        # 512-dim cache against a 2048-dim model
        fdir = tmp_path / "f512"
        cli.main(["extract", "--dataset", str(root), "--object-weights", obj_w,
                  "--feature-type", "ow", "--out", str(fdir)])
        mdir = tmp_path / "model"
        assert cli.main(["train", "--features", cache_path, "--out", str(mdir),
                         "--folds", "3"]) == 0
        rc = cli.main(["eval", "--model", str(mdir / "model.hdfm"),
                       "--features", str(next(fdir.glob("*.hdfc")))])
        assert rc == cli.EXIT_DATA


class TestExperiment:
    def test_full_run(self, tiny_dataset, weight_files, tmp_path, capsys):
        root, _ = tiny_dataset
        obj_w, scn_w = weight_files
        out = tmp_path / "exp"
        rc = cli.main([
            "experiment", "--dataset", str(root),
            "--object-weights", obj_w, "--scene-weights", scn_w,
            "--protocol", "custom", "--train-per-class", "4",
            "--test-per-class", "2", "--repetitions", "1",
            "--folds", "2", "--seed", "7", "--out", str(out),
        ])
        assert rc == 0
        doc = json.loads((out / "report.json").read_text())
        names = [c["name"] for c in doc["configurations"]]
        assert names == ["OP", "OW", "SP", "SW",
                         "HDF-max", "HDF-mean", "HDF-min", "HDF-concat"]
        text = capsys.readouterr().out
        for row in ("Max", "Mean", "Min", "Concat"):
            assert row in text

    def test_single_type_needs_only_its_own_weights(self, tiny_dataset, weight_files,
                                                    tmp_path, monkeypatch):
        root, manifest = tiny_dataset
        obj_w, _ = weight_files
        out = tmp_path / "exp"
        views = []
        watch_forwards(monkeypatch, views.append)
        rc = cli.main([
            "experiment", "--dataset", str(root), "--object-weights", obj_w,
            "--feature-type", "ow", "--protocol", "custom", "--train-per-class", "4",
            "--test-per-class", "2", "--repetitions", "1", "--folds", "2",
            "--out", str(out),
        ])
        assert rc == 0
        assert sum(views) == manifest.total_images  # one forward per image
        doc = json.loads((out / "report.json").read_text())
        assert [c["name"] for c in doc["configurations"]] == ["OW"]
        assert [p.name.split("_")[1] for p in (out / "cache").glob("*.hdfc")] == ["ow"]

    def test_reports_reused_and_computed_results(self, tiny_dataset, weight_files,
                                                 tmp_path, capsys):
        out = tmp_path / "exp"
        args = experiment_args(tiny_dataset, weight_files, out) + ["--folds", "2"]
        reports = []
        for reused, computed in ((0, 8), (8, 0)):
            assert cli.main(args) == 0
            assert (f"results: {reused} reused from {out / 'cache'}, {computed} computed"
                    in capsys.readouterr().err)
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]

    def test_second_run_names_each_reused_record_once(self, tiny_dataset, weight_files,
                                                      tmp_path, capsys):
        out = tmp_path / "exp"
        args = experiment_args(tiny_dataset, weight_files, out) + ["--folds", "2"]
        assert cli.main(args) == 0
        capsys.readouterr()
        assert cli.main(args) == 0
        err = capsys.readouterr().err
        records = sorted((out / "cache").glob("result_*.json"))
        assert len(records) == 8
        for record in records:
            assert err.count(f"reused result record {record}\n") == 1
        assert err.count("loaded cached base features") == 1

    @pytest.mark.parametrize("damage", sorted(RECORD_DAMAGE))
    def test_bad_result_record_is_data_error(self, damage, tiny_dataset, weight_files,
                                             tmp_path, capsys):
        out = tmp_path / "exp"
        args = experiment_args(tiny_dataset, weight_files, out) + [
            "--folds", "2", "--feature-type", "ow"]
        assert cli.main(args) == 0
        (record,) = (out / "cache").glob("result_*.json")
        record.write_text(RECORD_DAMAGE[damage](record.read_text()))
        capsys.readouterr()
        assert cli.main(args) == cli.EXIT_DATA
        assert f"data error: {record}" in capsys.readouterr().err

    def test_leaky_split_file_is_data_error(self, tiny_dataset, weight_files, tmp_path,
                                            capsys):
        from scenefuse.datasets import (SplitProtocol, make_split, save_split,
                                        scan_dataset)

        manifest = scan_dataset(str(tiny_dataset[0]))
        split = tmp_path / "split.json"
        save_split(make_split(manifest, SplitProtocol("fixed_per_class", 4, 2, 1, seed=0)),
                   manifest, str(split))
        doc = json.loads(split.read_text())
        leaked = doc["repetitions"][0]["train"]["class_00"][0]
        doc["repetitions"][0]["test"]["class_00"].append(leaked)
        split.write_text(json.dumps(doc))
        out = tmp_path / "exp"
        args = experiment_args(tiny_dataset, weight_files, out) + ["--split-file", str(split)]
        assert cli.main(args) == cli.EXIT_DATA
        assert f"repetition 0 lists image {leaked!r}" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_unknown_protocol_is_config_error(self, tiny_dataset, weight_files,
                                              tmp_path):
        root, _ = tiny_dataset
        obj_w, scn_w = weight_files
        rc = cli.main([
            "experiment", "--dataset", str(root), "--object-weights", obj_w,
            "--scene-weights", scn_w, "--protocol", "sun397",
            "--out", str(tmp_path / "o"),
        ])
        assert rc == cli.EXIT_CONFIG


def experiment_args(tiny_dataset, weight_files, out):
    root, _ = tiny_dataset
    obj_w, scn_w = weight_files
    return ["experiment", "--dataset", str(root), "--object-weights", obj_w,
            "--scene-weights", scn_w, "--protocol", "custom", "--train-per-class", "4",
            "--test-per-class", "2", "--repetitions", "1", "--out", str(out)]


class TestConfigValues:
    @pytest.mark.parametrize("key, value", [
        ("seed", "x"), ("threads", "two"), ("folds", 2.5), ("pool", "maxx"),
        ("feature_type", "opp"),
    ])
    def test_bad_value_is_config_error(self, key, value, tiny_dataset, weight_files,
                                       tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "out"
        rc = cli.main(experiment_args(tiny_dataset, weight_files, out)
                      + ["--config", str(cfg)])
        assert rc == cli.EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "experiment"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_folds_below_two_writes_nothing(self, command, source, cache_path,
                                            tiny_dataset, weight_files, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        if command == "train":
            args = ["train", "--features", cache_path, "--out", str(out)]
        else:
            args = experiment_args(tiny_dataset, weight_files, out)
        if source == "flag":
            args += ["--folds", "1"]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"folds": 1}))
            args += ["--config", str(cfg)]
        assert cli.main(args) == cli.EXIT_CONFIG
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("value", ["abc", "-1"])
    def test_bad_test_per_class_writes_nothing(self, value, tiny_dataset, weight_files,
                                               tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        args = experiment_args(tiny_dataset, weight_files, out)
        args[args.index("--test-per-class") + 1] = value
        assert cli.main(args) == cli.EXIT_CONFIG
        assert "test-per-class" in capsys.readouterr().err
        assert list(out.iterdir()) == []


# the options each command once took and takes no longer: those it did not read,
# and bench's shape flags (bench times one fixed shape)
REMOVED_OPTIONS = {
    "slice": ("--object-weights", "--scene-weights", "--pool", "--feature-type", "--seed"),
    "extract": ("--seed",),
    "train": ("--object-weights", "--scene-weights", "--pool", "--feature-type"),
    "eval": ("--object-weights", "--scene-weights", "--pool", "--feature-type", "--seed"),
    "experiment": ("--pool",),
    "validate-weights": ("--object-weights", "--scene-weights", "--pool", "--feature-type",
                         "--seed", "--out"),
    "bench": ("--object-weights", "--scene-weights", "--pool", "--feature-type", "--out",
              "--channels-in", "--height", "--width", "--channels-out"),
}


class TestOptionSurface:
    @pytest.fixture()
    def valid_args(self, sample_image, tiny_dataset, weight_files, cache_path, tmp_path):
        """A run of each command that succeeds, writing only under tmp_path/out."""
        from scenefuse.classifier import save_model, train_ovr

        y, _, X = load_cache(cache_path)
        model = tmp_path / "model.hdfm"
        save_model(train_ovr(X, y, 1), str(model))
        out = str(tmp_path / "out")
        return {
            "slice": ["slice", sample_image, "--out", out],
            "extract": ["extract", "--dataset", str(tiny_dataset[0]), "--object-weights",
                        weight_files[0], "--scene-weights", weight_files[1], "--out", out],
            "train": ["train", "--features", cache_path, "--folds", "2", "--out", out],
            "eval": ["eval", "--model", str(model), "--features", cache_path, "--out", out],
            "experiment": experiment_args(tiny_dataset, weight_files, out)
            + ["--folds", "2", "--feature-type", "ow"],
            "validate-weights": ["validate-weights", weight_files[0], "--trunk", "any"],
            "bench": ["bench", "--repeats", "1"],
        }

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command, option", [
        (command, option) for command, options in REMOVED_OPTIONS.items()
        for option in options])
    def test_removed_option_is_config_error(self, command, option, source, valid_args,
                                            weight_files, tmp_path, capsys):
        values = {"--object-weights": weight_files[0], "--scene-weights": weight_files[1],
                  "--pool": "max", "--feature-type": "ow", "--seed": 1,
                  "--out": str(tmp_path / "out"), "--channels-in": 2, "--height": 8,
                  "--width": 8, "--channels-out": 2}
        args = list(valid_args[command])
        key = option[2:].replace("-", "_")
        if source == "flag":
            args += [option, str(values[option])]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({key: values[option]}))
            args += ["--config", str(cfg)]
        assert cli.main(args) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert (option if source == "flag" else repr(key)) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("option, value", [("--repeats", "-2")])
    def test_bench_size_below_one_is_config_error(self, option, value, capsys):
        assert cli.main(["bench", option, value]) == cli.EXIT_CONFIG
        assert f"argument {option}: must be >= 1, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", list(REMOVED_OPTIONS))
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as done:
            cli.main([command, "--help"])
        assert done.value.code == 0
        assert f"usage: scenefuse {command}" in capsys.readouterr().out

    def test_readme_lists_each_commands_options(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            section = fh.read().split("## Command line", 1)[1].split("\n## ", 1)[0]
        documented = {m[1]: set(re.findall(r"`([^`]+)`", m[2])) | {"--config", "--threads"}
                      for m in re.finditer(r"^- `([a-z-]+)`: (.*(?:\n  .*)*)", section, re.M)}
        parsed = {name: {a.option_strings[0] if a.option_strings else a.dest
                         for a in command._actions if a.dest != "help"}
                  for name, command in cli.commands(cli.build_parser()).items()}
        assert documented == parsed


class TestValidateWeights:
    def test_stub_fails_vgg16_but_passes_any(self, weight_files):
        obj_w, _ = weight_files
        assert cli.main(["validate-weights", obj_w]) == cli.EXIT_DATA
        assert cli.main(["validate-weights", obj_w, "--trunk", "any"]) == 0

    def test_canonical_bundle_passes(self, tmp_path):
        from scenefuse.engine import vgg16_spec
        from scenefuse.weights import random_bundle

        path = tmp_path / "vgg.hdfw"
        save_weights(random_bundle(vgg16_spec(), seed=0), str(path))
        assert cli.main(["validate-weights", str(path)]) == 0

    def test_corrupted_magic_is_data_error(self, weight_files, tmp_path):
        obj_w, _ = weight_files
        bad = tmp_path / "bad.hdfw"
        with open(obj_w, "rb") as fh:
            data = bytearray(fh.read())
        data[:4] = b"ZZZZ"
        bad.write_bytes(bytes(data))
        assert cli.main(["validate-weights", str(bad), "--trunk", "any"]) == cli.EXIT_DATA


class TestTrunkRecognition:
    """`extract` finds the trunk of a weight file from its kernel shapes alone."""

    @staticmethod
    def extract(tiny_dataset, weights_path, out):
        root, _ = tiny_dataset
        return cli.main(["extract", "--dataset", str(root), "--feature-type", "ow",
                         "--object-weights", str(weights_path), "--out", str(out)])

    def test_vgg16_bundle_resolves_to_vgg16(self, tmp_path):
        import argparse

        from scenefuse.engine import vgg16_spec
        from scenefuse.weights import random_bundle

        path = tmp_path / "vgg.hdfw"
        save_weights(random_bundle(vgg16_spec(), seed=0), str(path))
        args = argparse.Namespace(object_weights=str(path), scene_weights=None)
        obj, scn = cli._load_backends(args, ("ow",))
        assert obj.spec == vgg16_spec() and scn is None

    def test_stub_with_other_mid_channels_extracts(self, tiny_dataset, tmp_path):
        from scenefuse.synthetic import stub_spec
        from scenefuse.weights import random_bundle

        path = tmp_path / "stub4.hdfw"
        save_weights(random_bundle(stub_spec(mid_channels=4), seed=0), str(path))
        assert self.extract(tiny_dataset, path, tmp_path / "o") == cli.EXIT_OK
        _, _, matrix = load_cache(str(next((tmp_path / "o").glob("*_ow.hdfc"))))
        assert matrix.shape == (tiny_dataset[1].total_images, 512)

    def test_unknown_trunk_is_config_error(self, tiny_dataset, tmp_path):
        from scenefuse.engine import CONV3X3, LayerSpec, NetworkSpec
        from scenefuse.weights import random_bundle

        spec = NetworkSpec((LayerSpec(CONV3X3, 3, 4), LayerSpec(CONV3X3, 4, 4),
                            LayerSpec(CONV3X3, 4, 512)))
        path = tmp_path / "three.hdfw"
        save_weights(random_bundle(spec, seed=0), str(path))
        assert self.extract(tiny_dataset, path, tmp_path / "o") == cli.EXIT_CONFIG
        assert not (tmp_path / "o").exists()

    def test_out_of_range_means_is_data_error(self, tiny_dataset, tmp_path):
        from scenefuse.synthetic import stub_spec
        from scenefuse.weights import random_bundle

        path = tmp_path / "hot.hdfw"
        save_weights(random_bundle(stub_spec(), seed=0, means=(300.0, 0.0, 0.0)),
                     str(path))
        assert self.extract(tiny_dataset, path, tmp_path / "o") == cli.EXIT_DATA
        assert not (tmp_path / "o").exists()


class TestBenchAndConfig:
    def test_bench_json(self, capsys, monkeypatch):
        from scenefuse import pipeline

        frames = []
        original = pipeline.forward_delta_to_pool5

        def watched(spec, bundle, image, zero):
            frames.extend(frame[0] for frame in zero[1] if frame is not None)
            return original(spec, bundle, image, zero)

        monkeypatch.setattr(pipeline, "forward_delta_to_pool5", watched)
        assert cli.main(["bench", "--repeats", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["shape"] == [64, 224, 224, 64]
        assert doc["speedup"] > 0
        assert doc["max_relative_deviation"] <= 1e-5
        delta = doc["delta_forwards"]
        # the tri slice ran over a zero reference whose every conv's frame is nonzero
        assert len(frames) == 13 and all(np.any(frame) for frame in frames)
        assert delta["bit_identical"] is True
        assert delta["pair_ratio"] > 0 and delta["tri_ratio"] > 0

    def test_config_file_supplies_values(self, sample_image, tmp_path):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "s"
        cfg.write_text(json.dumps({"out": str(out)}))
        assert cli.main(["slice", sample_image, "--config", str(cfg)]) == 0
        assert len(list(out.iterdir())) == 40

    def test_flags_override_config(self, sample_image, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"out": str(tmp_path / "from_config")}))
        out = tmp_path / "from_flag"
        assert cli.main(["slice", sample_image, "--config", str(cfg),
                         "--out", str(out)]) == 0
        assert out.is_dir()
        assert not (tmp_path / "from_config").exists()

    def test_unknown_config_key_rejected(self, sample_image, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"outt": "x"}))
        rc = cli.main(["slice", sample_image, "--config", str(cfg),
                       "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_CONFIG

    def test_bad_threads_rejected(self, sample_image, tmp_path):
        rc = cli.main(["slice", sample_image, "--out", str(tmp_path / "o"),
                       "--threads", "0"])
        assert rc == cli.EXIT_CONFIG

    def test_parser_leaves_numpy_unloaded(self):
        # --threads pins the BLAS pools through the environment, which only
        # works if numpy is not yet loaded when main applies it
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        code = ("import sys, scenefuse.cli; scenefuse.cli.build_parser(); "
                "sys.exit('numpy' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
        assert done.returncode == 0


class TestExtractFailures:
    def test_partial_failures_reported_and_counted(self, tiny_dataset, weight_files,
                                                   tmp_path, capsys):
        import shutil

        root, _ = tiny_dataset
        obj_w, scn_w = weight_files
        broken_root = tmp_path / "broken"
        shutil.copytree(root, broken_root)
        victim = next((broken_root / "class_00").glob("*.ppm"))
        victim.write_bytes(b"P6\n4 4\n255\nshort")  # truncated raster

        out = tmp_path / "features"
        rc = cli.main(["extract", "--dataset", str(broken_root),
                       "--object-weights", obj_w, "--scene-weights", scn_w,
                       "--out", str(out)])
        assert rc == cli.EXIT_DATA
        captured = capsys.readouterr()
        assert "1 files failed" in captured.err
        assert str(victim) in captured.err
        # successful records are still flushed
        _, paths, matrix = load_cache(str(next(out.glob("*.hdfc"))))
        assert matrix.shape == (17, 2048) and str(victim) not in paths

    def test_all_files_bad_is_data_error(self, weight_files, tmp_path, capsys):
        obj_w, scn_w = weight_files
        root = tmp_path / "bad"
        victims = []
        for cls, body in (("a", b"P6\n4 4\n255\nshort"), ("b", b"P6\n4 4")):
            (root / cls).mkdir(parents=True)
            for i in range(2):
                victims.append(root / cls / f"i{i}.ppm")
                victims[-1].write_bytes(body)  # truncated raster, truncated header
        out = tmp_path / "features"
        rc = cli.main(["extract", "--dataset", str(root), "--object-weights", obj_w,
                       "--scene-weights", scn_w, "--out", str(out)])
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        lines = [line for line in err.splitlines() if line.startswith("error: ")]
        assert len(lines) == 4
        for victim, line in zip(victims, lines):
            assert line.count(str(victim)) == 1, line
        assert "4 files failed" in err
        assert "data error:" in err and "no image produced features" in err
        assert not out.exists()

    def test_program_error_exits_internal_at_the_first_file(
            self, tiny_dataset, weight_files, tmp_path, capsys, monkeypatch):
        # a ValueError is a bug too when no reader raised it
        from scenefuse import experiment

        root, _ = tiny_dataset
        obj_w, scn_w = weight_files
        for error in (TypeError, ValueError):
            calls = []

            def broken(*args):
                calls.append(args)
                raise error("a bug, not a bad file")

            monkeypatch.setattr(experiment, "extract_base_features", broken)
            out = tmp_path / error.__name__
            rc = cli.main(["extract", "--dataset", str(root), "--object-weights", obj_w,
                           "--scene-weights", scn_w, "--out", str(out)])
            assert rc == cli.EXIT_INTERNAL, error
            assert len(calls) == 1, error
            assert f"internal error: {error.__name__}" in capsys.readouterr().err
            assert not out.exists()

    def test_experiment_names_every_bad_file_and_writes_nothing(
            self, tiny_dataset, weight_files, tmp_path, capsys):
        import shutil

        root, _ = tiny_dataset
        broken_root = tmp_path / "broken"
        shutil.copytree(root, broken_root)
        victims = [next((broken_root / cls).glob("*.ppm")) for cls in ("class_00", "class_02")]
        for victim in victims:
            victim.write_bytes(b"P6\n4 4\n255\nshort")  # truncated raster
        out = tmp_path / "exp"
        rc = cli.main(experiment_args((broken_root, None), weight_files, out))
        assert rc == cli.EXIT_DATA
        err = capsys.readouterr().err
        for victim in victims:
            assert str(victim) in err
        assert not (out / "report.json").exists()
        assert list(out.rglob("*.hdfc")) == []

    def test_one_class_cache_is_data_error(self, tmp_path, capsys):
        from scenefuse.cache import save_cache

        features = tmp_path / "one.hdfc"
        save_cache(str(features), [0] * 4, [f"a/{i}.ppm" for i in range(4)],
                   np.eye(4, dtype=np.float32))
        rc = cli.main(["train", "--features", str(features), "--out", str(tmp_path / "m"),
                       "--folds", "2"])
        assert rc == cli.EXIT_DATA
        assert "data error: need at least 2 classes" in capsys.readouterr().err

    def test_split_file_not_json_is_data_error(self, tiny_dataset, weight_files, tmp_path):
        split = tmp_path / "split.json"
        split.write_text("{not json")
        args = experiment_args(tiny_dataset, weight_files, tmp_path / "exp")
        assert cli.main(args + ["--split-file", str(split)]) == cli.EXIT_DATA

    @pytest.mark.parametrize("doc", [
        '{}',
        '{"repetitions": [{"train": 5}]}',
        '[]',
        '{"repetitions": [{"train": {}, "test": []}]}',
        '{"repetitions": [{"train": {"class_00": "img.ppm"}, "test": {}}]}',
    ])
    def test_split_file_of_wrong_shape_is_data_error(self, doc, tiny_dataset, weight_files,
                                                     tmp_path, capsys):
        split = tmp_path / "split.json"
        split.write_text(doc)
        args = experiment_args(tiny_dataset, weight_files, tmp_path / "exp")
        assert cli.main(args + ["--split-file", str(split)]) == cli.EXIT_DATA
        assert f"data error: {split}: not a split file" in capsys.readouterr().err

    def test_unreadable_slice_input_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"P6\n4 4\n255\nxx")
        rc = cli.main(["slice", str(bad), "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_DATA
