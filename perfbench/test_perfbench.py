"""Tests of the benchmark's own arithmetic, tracer and result format.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402


def span(name, parent, start, end, extra=None):
    return [name, parent, start, end, extra]


# ---------------------------------------------------------------------------
# self time and aggregation
# ---------------------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [
        span("a", -1, 0.0, 10.0),
        span("b", 0, 1.0, 4.0),
        span("c", 1, 2.0, 3.0),
        span("b", 0, 5.0, 9.0),
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    agg = tracer.aggregate(spans)
    assert agg["b"] == {"count": 2, "s": 7.0, "self_s": 6.0}
    assert agg["a"]["self_s"] == 3.0


@pytest.fixture
def fake_package(monkeypatch):
    """fakepkg.b defines g; fakepkg.a imports g by name and calls it from f."""
    pkg = types.ModuleType("fakepkg")
    b = types.ModuleType("fakepkg.b")
    a = types.ModuleType("fakepkg.a")

    def g(x):
        return x + 1

    b.g = g
    a.g = g
    exec("def f(x):\n    return g(x) * 2\n", a.__dict__)
    for name, mod in (("fakepkg", pkg), ("fakepkg.a", a), ("fakepkg.b", b)):
        monkeypatch.setitem(sys.modules, name, mod)
    return a, b, g


def test_tracer_wraps_every_namespace_and_tolerates_missing(fake_package):
    a, b, g = fake_package
    t = tracer.Tracer()
    t.install("fakepkg", {"a": ("f", "removed"), "b": ("g",), "gone": ("h",)})
    assert a.g is not g and b.g is a.g  # the imported name is traced too
    assert a.f(1) == 4 and b.g(1) == 2
    names = [(s[0], s[1]) for s in t.spans]
    assert names == [("a.f", -1), ("b.g", 0), ("b.g", -1)]
    assert t.missing == {"a.removed": "fakepkg.a.removed not found",
                         "gone.h": "fakepkg.gone.h not found"}
    with t.paused():
        a.f(1)
    assert len(t.spans) == 3
    t.uninstall()
    assert a.g is g and b.g is g


def test_failing_span_extra_leaves_the_call_alone(fake_package):
    a, b, g = fake_package
    t = tracer.Tracer()
    t.install("fakepkg", {"b": ("g",)},
              {"b.g": lambda args, kwargs, result: args[5]})  # IndexError
    assert b.g(1) == 2
    assert t.spans[0][4] is None
    t.uninstall()


def test_derive_marks_missing_and_unexercised_metrics():
    spans = [span("classifier.train_binary", -1, 0.0, 1.0)]
    spans += [span("classifier.gradient", 0, 0.1, 0.2) for _ in range(4)]
    spans += [span("classifier.objective", 0, 0.3, 0.4) for _ in range(3)]
    view = layers.TraceView(spans, {"slicing.slice_all": "scenefuse.slicing.slice_all not found"})
    values, unmeasured = layers.derive(view)
    assert values["classifier.newton_iters"]["value"] == 3
    assert values["classifier.linesearch_evals"]["value"] == 2
    assert values["classifier.linesearch_accept_ratio"]["value"] == 1.5
    assert values["classifier.iters_per_solve"]["value"] == 3.0
    assert values["slicing.slice_all.s"]["value"] == 0
    assert unmeasured["slicing.slice_all.s"] == "scenefuse.slicing.slice_all not found"
    assert unmeasured["engine.forward.ms"] == "not exercised on this workload"
    assert [m[0] for m in layers.METRICS] == list(values)


def test_conv_positions_flops_and_cache_hits():
    fwd = "engine.forward_to_pool5"
    spans = [
        span(fwd, -1, 0.0, 1.0, True),
        span("engine.conv2d", 0, 0.0, 0.5, (3, 64, 224, 224)),
        span("engine.conv2d", 0, 0.5, 0.75, (64, 64, 224, 224)),
        span(fwd, -1, 1.0, 2.0, False),  # a non-canonical trunk has no positions
        span("engine.conv2d", 3, 1.0, 1.5, (3, 8, 224, 224)),
        span("experiment.compute_base_features", -1, 2.0, 3.0, True),
        span("cache.load_cache", 5, 2.0, 2.5, 100),
        span("experiment.compute_base_features", -1, 3.0, 4.0, True),
        span("pipeline.extract_base_features", 7, 3.0, 3.5),
    ]
    view = layers.TraceView(spans, {})
    values, _ = layers.derive(view)
    assert values["engine.conv.count"]["value"] == 3
    assert values["engine.conv.L01.ms"]["value"] == 500.0
    assert values["engine.conv.L02.gflops"]["value"] == pytest.approx(
        stats.conv_flops(64, 64, 224, 224) / 0.25 / 1e9)
    assert values["engine.conv.L03.ms"]["value"] == 0
    assert values["experiment.cache_hit_ratio"]["value"] == 0.5
    assert values["cache.bytes_read"]["value"] == 100
    shares = view.layer_self_s("experiment.compute_base_features")
    assert shares == {"experiment": 1.0, "cache": 0.5, "pipeline": 0.5}


# ---------------------------------------------------------------------------
# summaries, percentiles, rates
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n, p", [(1, None), (99, None), (100, 90.0), (199, 90.0),
                                  (200, 95.0), (1000, 99.0), (10000, 99.9)])
def test_supported_percentile_leaves_ten_samples_beyond(n, p):
    assert stats.supported_percentile(n) == p


def test_summarize_reports_median_percentile_and_count():
    values = list(range(1, 201))  # 1..200
    doc = stats.summarize(values, "s")
    assert doc == {"median": 100.5, "unit": "s", "n": 200, "p95": 190.0}
    assert stats.summarize([3.0, 1.0, 2.0], "ms") == {"median": 2.0, "unit": "ms", "n": 3}
    assert stats.percentile([5, 1, 3], 50) == 3


def test_spread_is_interquartile_share_of_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert stats.spread(values) == pytest.approx((4.5 - 1.5) / 3.0)


def test_gflops_from_conv_shapes():
    flops = stats.conv_flops(64, 64, 224, 224)
    assert flops == 2 * 64 * 64 * 9 * 224 * 224
    assert stats.gflops(flops, 0.5) == pytest.approx(flops / 0.5e9)
    assert stats.gflops(flops, 0.0) is None
    assert stats.conv_bytes(64, 128, 112, 112) == 4 * (64 * 9 + 128) * 112 * 112


def test_error_rate_base():
    assert stats.error_rate(0, 3) == 0.0
    assert stats.error_rate(1, 4) == 0.25
    with pytest.raises(ValueError):
        stats.error_rate(0, 0)
    with pytest.raises(ValueError):
        stats.error_rate(2, 1)


# ---------------------------------------------------------------------------
# BENCHMARK.json and the result line
# ---------------------------------------------------------------------------

def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_matches_the_metrics_emitted():
    doc = _benchmark()
    # gridsearch-scene15 runs on request but is not gated (README.md, "Workloads")
    gated = [w for w in run.WORKLOADS if w != "gridsearch-scene15"]
    assert [w["name"] for w in doc["workloads"]] == gated
    per_layer = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    assert per_layer == [m[:3] for m in layers.METRICS] + [layers.OVERHEAD]
    assert [m["name"] for m in doc["end_to_end"]] == ["setup_s", "unit_s", "peak_rss_mb"]


def _last_line(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_smoke_run(workload):
    doc = _benchmark()
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
             "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        result = _last_line(proc)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in doc[group]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gridsearch-scene15",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
