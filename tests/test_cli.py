import json
import os
import subprocess
import sys

import numpy as np
import pytest

from scenefuse import cli
from scenefuse.cache import load_cache
from scenefuse.engine import forward_to_pool5
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
        dim, records = load_cache(str(caches[0]))
        assert dim == 2048
        assert len(records) == manifest.total_images

    def test_single_type_is_512(self, tiny_dataset, weight_files, tmp_path):
        root, _ = tiny_dataset
        obj_w, _ = weight_files
        out = tmp_path / "features"
        rc = cli.main([
            "extract", "--dataset", str(root), "--object-weights", obj_w,
            "--feature-type", "ow", "--out", str(out),
        ])
        assert rc == 0
        dim, _ = load_cache(str(next(out.glob("*_ow.hdfc"))))
        assert dim == 512

    @pytest.mark.parametrize("feature_type, per_image", [("ow", 1), ("op", 20)])
    def test_forwards_only_for_the_requested_source(self, feature_type, per_image,
                                                     tiny_dataset, weight_files,
                                                     tmp_path, monkeypatch):
        from scenefuse import pipeline

        calls = []

        def counting(*args):
            calls.append(1)
            return forward_to_pool5(*args)

        monkeypatch.setattr(pipeline, "forward_to_pool5", counting)
        root, manifest = tiny_dataset
        obj_w, _ = weight_files
        rc = cli.main([
            "extract", "--dataset", str(root), "--object-weights", obj_w,
            "--feature-type", feature_type, "--out", str(tmp_path / "f"),
        ])
        assert rc == 0
        assert len(calls) == per_image * manifest.total_images

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
        dim, records = load_cache(str(next((tmp_path / "o").glob("*_ow.hdfc"))))
        assert dim == 512 and len(records) == tiny_dataset[1].total_images

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
    def test_bench_json(self, capsys):
        rc = cli.main(["bench", "--channels-in", "2", "--height", "16",
                       "--width", "16", "--channels-out", "2", "--repeats", "1"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["speedup"] > 0
        assert doc["max_relative_deviation"] <= 1e-5

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
        dim, records = load_cache(str(next(out.glob("*.hdfc"))))
        assert len(records) == 17

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
        from scenefuse import pipeline

        calls = []

        def broken(*args):
            calls.append(args)
            raise TypeError("a bug, not a bad file")

        monkeypatch.setattr(pipeline, "extract_base_features", broken)
        root, _ = tiny_dataset
        obj_w, scn_w = weight_files
        out = tmp_path / "features"
        rc = cli.main(["extract", "--dataset", str(root), "--object-weights", obj_w,
                       "--scene-weights", scn_w, "--out", str(out)])
        assert rc == cli.EXIT_INTERNAL
        assert len(calls) == 1
        assert "internal error: TypeError" in capsys.readouterr().err
        assert not out.exists()

    def test_unreadable_slice_input_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.ppm"
        bad.write_bytes(b"P6\n4 4\n255\nxx")
        rc = cli.main(["slice", str(bad), "--out", str(tmp_path / "o")])
        assert rc == cli.EXIT_DATA
