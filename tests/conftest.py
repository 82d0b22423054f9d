import struct
import tracemalloc

import numpy as np
import pytest


def traced_peak(fn):
    """Call `fn()` under tracemalloc; returns its result and the traced peak in bytes."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def hdfc_version_1(labels, paths, matrix) -> bytes:
    """A feature cache in the version-1 layout, whose records held no stamps."""
    matrix = np.asarray(matrix, dtype="<f4")
    data = b"HDFC" + struct.pack("<III", 1, matrix.shape[1], matrix.shape[0])
    for label, path, row in zip(labels, paths, matrix):
        data += struct.pack("<II", label, len(path.encode())) + path.encode() + row.tobytes()
    return data


def watch_forwards(monkeypatch, on_call):
    """Call `on_call(views)` on every trunk call extraction makes: `views` is
    1 for a full or delta forward and 2 for a rect/circ pair forward."""
    from scenefuse import engine, pipeline

    for name, views in (("forward_to_pool5", 1), ("forward_delta_to_pool5", 1),
                        ("forward_pair_to_pool5", 2)):
        def watched(*args, _fn=getattr(engine, name), _views=views):
            on_call(_views)
            return _fn(*args)

        monkeypatch.setattr(pipeline, name, watched)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(number, description): marks a test as one acceptance criterion",
    )


# setup seconds per test, so that work done in fixtures shows on its ACCEPTANCE line
_SETUP_S = pytest.StashKey[float]()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "setup":
        item.stash[_SETUP_S] = report.duration
    if report.when != "call":
        return
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    status = "PASS" if report.passed else ("SKIP" if report.skipped else "FAIL")
    terminal = item.config.pluginmanager.get_plugin("terminalreporter")
    # a test may add (name, value) pairs to its user_properties for this line
    extra = "".join(f", {name} {value}" for name, value in report.user_properties)
    if terminal is not None:
        terminal.write_line(
            f"\nACCEPTANCE criterion {marker.args[0]}: {status} - {marker.args[1]}"
            f" ({report.duration:.1f} s, setup {item.stash.get(_SETUP_S, 0.0):.1f} s{extra})"
        )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def stub_pair():
    from scenefuse.synthetic import stub_backend_pair

    return stub_backend_pair(seed=11)


@pytest.fixture(scope="session")
def tiny_dataset(tmp_path_factory):
    """3 classes x 6 small images; enough for harness and CLI smoke tests."""
    from scenefuse.synthetic import make_synthetic_dataset

    root = tmp_path_factory.mktemp("tinyset")
    manifest = make_synthetic_dataset(str(root), classes=3, per_class=6,
                                      size=(48, 48), seed=5)
    return root, manifest
