import json

import numpy as np
import pytest

from scenefuse.datasets import (
    DatasetError, DatasetManifest, SplitProtocol, load_split, make_split,
    protocol_preset, save_split, scan_dataset,
)
from scenefuse.imageio import write_ppm


def write_tiny_dataset(root, classes=3, per_class=5):
    rng = np.random.default_rng(0)
    for k in range(classes):
        d = root / f"cls{k}"
        d.mkdir(parents=True)
        for i in range(per_class):
            write_ppm(str(d / f"im{i}.ppm"),
                      rng.integers(0, 255, (4, 4, 3)).astype(np.uint8))
    return root


def fake_manifest(classes, per_class, name="fake"):
    return DatasetManifest(
        name=name,
        classes=tuple(
            (f"c{k}", tuple(f"/{name}/c{k}/{i}.ppm" for i in range(per_class)))
            for k in range(classes)
        ),
    )


class TestScan:
    def test_basic_scan(self, tmp_path):
        write_tiny_dataset(tmp_path, classes=3, per_class=5)
        manifest = scan_dataset(str(tmp_path))
        assert manifest.class_names == ("cls0", "cls1", "cls2")
        assert all(len(paths) == 5 for _, paths in manifest.classes)
        assert manifest.total_images == 15

    def test_rescan_is_identical(self, tmp_path):
        write_tiny_dataset(tmp_path)
        assert scan_dataset(str(tmp_path)) == scan_dataset(str(tmp_path))

    def test_empty_class_names_the_class(self, tmp_path):
        write_tiny_dataset(tmp_path, classes=2)
        (tmp_path / "empty_one").mkdir()
        with pytest.raises(DatasetError, match="empty_one"):
            scan_dataset(str(tmp_path))

    def test_too_few_classes(self, tmp_path):
        write_tiny_dataset(tmp_path, classes=1)
        with pytest.raises(DatasetError, match="2 class"):
            scan_dataset(str(tmp_path))

    def test_missing_root(self, tmp_path):
        with pytest.raises(DatasetError, match="root"):
            scan_dataset(str(tmp_path / "nope"))

    def test_non_images_skipped_with_warning(self, tmp_path, caplog):
        write_tiny_dataset(tmp_path, classes=2)
        (tmp_path / "cls0" / "notes.txt").write_text("hi")
        with caplog.at_level("WARNING"):
            manifest = scan_dataset(str(tmp_path))
        assert "skipped 1" in caplog.text
        assert len(manifest.classes[0][1]) == 5

    def test_lexicographic_order(self, tmp_path):
        d = tmp_path / "a"
        d.mkdir()
        rng = np.random.default_rng(0)
        for stem in ("b", "a", "c"):
            write_ppm(str(d / f"{stem}.ppm"),
                      rng.integers(0, 255, (2, 2, 3)).astype(np.uint8))
        (tmp_path / "z").mkdir()
        write_ppm(str(tmp_path / "z" / "x.ppm"),
                  rng.integers(0, 255, (2, 2, 3)).astype(np.uint8))
        manifest = scan_dataset(str(tmp_path))
        names = [p.split("/")[-1] for p in manifest.classes[0][1]]
        assert names == ["a.ppm", "b.ppm", "c.ppm"]


class TestProtocols:
    def test_presets_match_conventions(self):
        mit = protocol_preset("mit67", seed=4)
        assert (mit.train_per_class, mit.test_per_class, mit.repetitions) == (80, 20, 1)
        s15 = protocol_preset("scene15")
        assert (s15.train_per_class, s15.test_per_class, s15.repetitions) == (100, None, 10)
        e8 = protocol_preset("event8")
        assert (e8.train_per_class, e8.test_per_class, e8.repetitions) == (70, 60, 10)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown"):
            protocol_preset("imagenet")

    def test_invalid_protocol_fields(self):
        with pytest.raises(ValueError):
            SplitProtocol("repeated_random", 0, 5, 1, 0)
        with pytest.raises(ValueError):
            SplitProtocol("repeated_random", 5, 5, 0, 0)


class TestMakeSplit:
    def test_event8_shape(self):
        manifest = fake_manifest(classes=8, per_class=137)
        plan = make_split(manifest, protocol_preset("event8", seed=1))
        assert len(plan.repetitions) == 10
        for per_class in plan.repetitions:
            assert len(per_class) == 8
            for train, test in per_class:
                assert len(train) == 70 and len(test) == 60
                assert not set(train) & set(test)

    def test_rest_based_test_set(self):
        manifest = fake_manifest(classes=3, per_class=210)
        plan = make_split(manifest, protocol_preset("scene15", seed=2))
        for per_class in plan.repetitions:
            for (train, test), (_, paths) in zip(per_class, manifest.classes):
                assert len(train) == 100 and len(test) == 110
                assert sorted(train + test) == sorted(paths)

    def test_lists_paths_in_manifest_order(self):
        manifest = fake_manifest(classes=3, per_class=20)
        plan = make_split(manifest, SplitProtocol("repeated_random", 8, 6, 3, seed=4))
        for per_class in plan.repetitions:
            for (train, test), (_, paths) in zip(per_class, manifest.classes):
                for listed in (train, test):
                    assert all(isinstance(p, str) for p in listed)
                    assert list(listed) == [p for p in paths if p in listed]

    def test_deterministic(self):
        manifest = fake_manifest(classes=4, per_class=20)
        protocol = SplitProtocol("repeated_random", 10, 5, 3, seed=9)
        assert make_split(manifest, protocol) == make_split(manifest, protocol)

    def test_adding_repetitions_keeps_earlier_ones(self):
        manifest = fake_manifest(classes=4, per_class=20)
        short = SplitProtocol("repeated_random", 10, 5, 3, seed=9)
        long = SplitProtocol("repeated_random", 10, 5, 7, seed=9)
        a = make_split(manifest, short)
        b = make_split(manifest, long)
        assert b.repetitions[:3] == a.repetitions

    def test_class_too_small(self):
        manifest = fake_manifest(classes=3, per_class=50)
        with pytest.raises(DatasetError, match="needs"):
            make_split(manifest, protocol_preset("mit67"))


class TestSplitFiles:
    def test_round_trip(self, tmp_path):
        manifest = fake_manifest(classes=3, per_class=12)
        protocol = SplitProtocol("repeated_random", 6, 4, 2, seed=5)
        plan = make_split(manifest, protocol)
        path = tmp_path / "split.json"
        save_split(plan, manifest, str(path))
        assert load_split(str(path), manifest) == plan

    def test_a_file_keeps_its_order_through_a_round_trip(self, tmp_path):
        manifest = fake_manifest(classes=3, per_class=12)
        plan = make_split(manifest, SplitProtocol("repeated_random", 6, 4, 2, seed=5))
        path = tmp_path / "split.json"
        save_split(plan, manifest, str(path))
        doc = json.loads(path.read_text())
        for rep in doc["repetitions"]:
            for part in ("train", "test"):
                for listed in rep[part].values():
                    listed.reverse()
        path.write_text(json.dumps(doc))
        loaded = load_split(str(path), manifest)
        assert loaded.repetitions == tuple(
            tuple((train[::-1], test[::-1]) for train, test in per_class)
            for per_class in plan.repetitions)
        again = tmp_path / "again.json"
        save_split(loaded, manifest, str(again))
        assert json.loads(again.read_text()) == doc
        assert load_split(str(again), manifest) == loaded

    def test_unknown_path_rejected(self, tmp_path):
        manifest = fake_manifest(classes=2, per_class=6)
        plan = make_split(manifest, SplitProtocol("repeated_random", 3, 2, 1, seed=0))
        path = tmp_path / "split.json"
        save_split(plan, manifest, str(path))
        other = fake_manifest(classes=2, per_class=6, name="other")
        with pytest.raises(DatasetError, match="unknown image"):
            load_split(str(path), other)

    @pytest.mark.parametrize("leak", ["train_and_test", "twice_in_test", "unknown_class"])
    def test_leaky_split_names_what_and_where(self, leak, tmp_path):
        manifest = fake_manifest(classes=2, per_class=6)
        plan = make_split(manifest, SplitProtocol("repeated_random", 3, 2, 2, seed=0))
        path = tmp_path / "split.json"
        save_split(plan, manifest, str(path))
        doc = json.loads(path.read_text())
        rep = doc["repetitions"][1]
        if leak == "train_and_test":
            named = rep["train"]["c0"][0]
            rep["test"]["c0"].append(named)
        elif leak == "twice_in_test":
            named = rep["test"]["c1"][-1]
            rep["test"]["c1"].append(named)
        else:
            named = "c9"
            rep["train"][named] = ["/fake/c9/0.ppm"]
        path.write_text(json.dumps(doc))
        with pytest.raises(DatasetError, match="repetition 1") as err:
            load_split(str(path), manifest)
        assert repr(named) in str(err.value)
