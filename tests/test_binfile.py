"""Every file the package writes goes through `binfile.write_file`, and every
JSON file it reads through `binfile.read_json`."""

import errno
import os

import numpy as np
import pytest

from corruption import DiskFull
from scenefuse import binfile, cli
from scenefuse.cache import save_cache
from scenefuse.classifier import LinearModel, save_model
from scenefuse.datasets import DatasetManifest, SplitPlan, SplitProtocol, save_split
from scenefuse.experiment import FeatureConfig, run_experiment
from scenefuse.imageio import write_ppm
from scenefuse.synthetic import make_synthetic_dataset, stub_backend_pair
from scenefuse.weights import ConvEntry, WeightBundle, save_weights

PREVIOUS = b"the previous file\n"
MODEL = LinearModel(class_ids=(0, 1), weights=np.ones((2, 3)), biases=np.zeros(2), best_c=1)


def _features(directory: str) -> str:
    """A separable two-class feature cache of 12 rows of dim 3."""
    path = os.path.join(directory, "features.hdfc")
    labels = np.arange(12) % 2
    matrix = np.random.default_rng(0).normal(labels[:, None], 0.1, (12, 3))
    save_cache(path, labels, [f"img_{i}.ppm" for i in range(12)], [(9, 0)] * 12, matrix)
    return path


def _experiment(directory: str) -> None:
    manifest = make_synthetic_dataset(os.path.join(directory, "data"), classes=2,
                                      per_class=3, size=(16, 16))
    run_experiment(manifest, *stub_backend_pair(), SplitProtocol("fixed_per_class", 2, 1, 1, 0),
                   configs=(FeatureConfig("ow"),), folds=2, c_values=(1,),
                   out_path=os.path.join(directory, "report.json"))


def _eval(directory: str) -> int:
    model = os.path.join(directory, "model.hdfm")
    save_model(MODEL, model)
    return cli.main(["eval", "--model", model, "--features", _features(directory),
                     "--out", directory])


# writer: (the file it writes, a call writing it into a directory)
WRITERS = {
    "save_cache": ("f.hdfc", lambda d: save_cache(os.path.join(d, "f.hdfc"), [0], ["a"],
                                                   [(9, 0)], np.ones((1, 2)))),
    "write_json": ("r.json", lambda d: binfile.write_json(os.path.join(d, "r.json"), {"k": 1})),
    "save_weights": ("w.hdfw", lambda d: save_weights(WeightBundle(
        (ConvEntry("conv1", np.ones((2, 3, 3, 3), "f4"), np.zeros(2, "f4")),),
        np.zeros(3, "f4")), os.path.join(d, "w.hdfw"))),
    "save_model": ("m.hdfm", lambda d: save_model(MODEL, os.path.join(d, "m.hdfm"))),
    "save_split": ("s.json", lambda d: save_split(
        SplitPlan("set", 0, (((("a0",), ("a1",)), (("b1",), ("b0",))),)),
        DatasetManifest("set", (("a", ("a0", "a1")), ("b", ("b0", "b1")))),
        os.path.join(d, "s.json"))),
    "run_experiment": ("report.json", _experiment),
    "write_ppm": ("i.ppm", lambda d: write_ppm(os.path.join(d, "i.ppm"),
                                               np.zeros((2, 3, 3)))),
}
# command: (the file it writes, a run writing it into a directory; returns the exit code)
COMMANDS = {
    "train": ("grid_search.json", lambda d: cli.main(
        ["train", "--features", _features(d), "--out", d, "--folds", "2"])),
    "eval": ("eval.json", _eval),
}


def _fail(monkeypatch, fault: str, target: str) -> None:
    """Fill the disk midway through writing `target`'s temporary file, or when
    renaming it over `target`; every other file is written as usual."""
    if fault == "write":
        def fake_open(file, *args, **kwargs):
            fh = open(file, *args, **kwargs)
            return DiskFull(fh) if str(file).startswith(f"{target}.") else fh

        monkeypatch.setattr(binfile, "open", fake_open, raising=False)
    else:
        replace = os.replace

        def fake_replace(src, dst):
            if dst == target:
                raise OSError(errno.ENOSPC, "No space left on device")
            replace(src, dst)

        monkeypatch.setattr(binfile.os, "replace", fake_replace)


@pytest.mark.parametrize("fault", ["write", "replace"])
@pytest.mark.parametrize("writer", [*WRITERS, *COMMANDS])
def test_failed_write_leaves_previous_file(writer, fault, tmp_path, monkeypatch, capsys):
    name, write = {**WRITERS, **COMMANDS}[writer]
    target = tmp_path / name
    target.write_bytes(PREVIOUS)
    _fail(monkeypatch, fault, str(target))
    if writer in COMMANDS:
        assert write(str(tmp_path)) == cli.EXIT_DATA
        assert "No space left on device" in capsys.readouterr().err
    else:
        with pytest.raises(OSError, match="No space left on device"):
            write(str(tmp_path))
    assert target.read_bytes() == PREVIOUS
    assert [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")] == []


@pytest.mark.parametrize("writer", [*WRITERS, *COMMANDS])
def test_write_replaces_previous_file(writer, tmp_path):
    name, write = {**WRITERS, **COMMANDS}[writer]
    target = tmp_path / name
    target.write_bytes(PREVIOUS)
    assert write(str(tmp_path)) in (None, cli.EXIT_OK)
    assert target.read_bytes() != PREVIOUS
    assert [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")] == []


@pytest.mark.parametrize("content", [b"{not json", b'{"k": "\xff"}', b"[1]", b"7", b""])
def test_read_json_raises_the_callers_error(content, tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    with pytest.raises(LookupError, match=f"{path}: not a JSON object"):
        binfile.read_json(str(path), LookupError)


def test_read_json_passes_os_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        binfile.read_json(str(tmp_path / "missing.json"), LookupError)
