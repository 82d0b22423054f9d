"""What the traced run wraps, and the per-layer metrics derived from its spans.

Layers are the modules of ``scenefuse``. Each metric names the end-to-end
figure it should move (see README.md); a metric whose function is gone, or
whose base is zero on a workload, is reported as 0 in the result line and
listed with its reason under "unmeasured" in the report.
"""

from __future__ import annotations

import os

import stats
import tracer

PACKAGE = "scenefuse"

TARGETS = {
    "engine": ("forward_to_pool5", "conv2d", "relu", "maxpool2", "gap"),
    "resize": ("bilinear_resize",),
    "slicing": ("slice_all", "render_slice", "all_masks"),
    "pipeline": ("resize_to_working", "preprocess", "extract_base_features",
                 "fuse_matrix", "aggregate", "extract_hdf"),
    "classifier": ("grid_search_c", "train_ovr", "evaluate", "train_binary",
                   "gradient", "objective"),
    "experiment": ("run_experiment", "compute_base_features", "config_matrix",
                   "tune_cost"),
    "cache": ("save_cache", "load_cache"),
    "imageio": ("read_raster",),
    "weights": ("load_weights",),
    "datasets": ("scan_dataset", "make_split"),
}

VGG16_CONVS = 13
# a plain float32 GEMM at VGG16 conv7's im2col shape: (256 x 2304) @ (2304 x 56*56)
SGEMM_SHAPE = (256, 2304, 3136)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _file_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


def _conv_shape(args, kwargs, result):
    c_out, h, w = result.shape
    return _arg(args, kwargs, 1, "kernel").shape[1], c_out, h, w


def _forward_canonical(engine):
    """Extra for forward_to_pool5: is the spec the canonical VGG16 trunk?"""
    reference = getattr(engine, "vgg16_spec", None)
    seen: dict[int, bool] = {}

    def extra(args, kwargs, result):
        spec = _arg(args, kwargs, 0, "spec")
        if id(spec) not in seen:
            seen[id(spec)] = reference is not None and spec == reference()
        return seen[id(spec)]

    return extra


def _uses_cache(args, kwargs, result):
    return bool(_arg(args, kwargs, 3, "cache_dir"))


def extras(engine) -> dict:
    return {
        "engine.conv2d": _conv_shape,
        "engine.forward_to_pool5": _forward_canonical(engine),
        "experiment.compute_base_features": _uses_cache,
        "cache.save_cache": _file_bytes,
        "cache.load_cache": _file_bytes,
        "imageio.read_raster": _file_bytes,
        "weights.load_weights": _file_bytes,
    }


class TraceView:
    """Aggregates of one traced run, plus what the metrics need beyond them."""

    def __init__(self, spans, missing, sgemm_ceiling_gflops=None):
        self.spans = spans
        self.missing = missing
        self.agg = tracer.aggregate(spans)
        self.sgemm_ceiling = sgemm_ceiling_gflops
        self.convs = self._convs()

    def count(self, name):
        return self.agg.get(name, {}).get("count", 0)

    def s(self, name):
        return self.agg.get(name, {}).get("s", 0.0)

    def self_s(self, name):
        return self.agg.get(name, {}).get("self_s", 0.0)

    def extras(self, name):
        return [s[4] for s in self.spans if s[0] == name and s[4] is not None]

    def _convs(self):
        """Per conv call: (VGG16 position or None, c_in, c_out, h, w, seconds)."""
        seen: dict[int, int] = {}
        out = []
        for s in self.spans:
            if s[0] != "engine.conv2d" or s[4] is None:
                continue
            pos = None
            parent = self.spans[s[1]] if s[1] >= 0 else None
            if parent is not None and parent[0] == "engine.forward_to_pool5" and parent[4]:
                pos = seen[s[1]] = seen.get(s[1], 0) + 1
            out.append((pos, *s[4], s[3] - s[2]))
        return out

    def conv_flops(self, pos=None):
        return sum(stats.conv_flops(*c[1:5]) for c in self.convs if pos in (None, c[0]))

    def conv_s(self, pos=None):
        return sum(c[5] for c in self.convs if pos in (None, c[0]))

    def conv_calls(self, pos=None):
        return sum(1 for c in self.convs if pos in (None, c[0]))

    def cache_hits(self):
        """(hits, calls) over compute_base_features calls given a cache dir.

        A hit is a call that read the cache and extracted nothing.
        """
        children: dict[int, set] = {}
        for s in self.spans:
            if s[1] >= 0:
                children.setdefault(s[1], set()).add(s[0])
        hits = calls = 0
        for i, s in enumerate(self.spans):
            if s[0] == "experiment.compute_base_features" and s[4]:
                calls += 1
                names = children.get(i, set())
                hits += ("cache.load_cache" in names
                         and "pipeline.extract_base_features" not in names)
        return hits, calls

    def layer_self_s(self, scope: str | None = None) -> dict[str, float]:
        """Self seconds per layer, optionally only inside spans named `scope`."""
        inside = []
        for s in self.spans:
            inside.append(scope is None or s[0] == scope
                          or (s[1] >= 0 and inside[s[1]]))
        out: dict[str, float] = {}
        for s, flag, self_s in zip(self.spans, inside, tracer.self_times(self.spans)):
            if flag:
                layer = s[0].split(".", 1)[0]
                out[layer] = out.get(layer, 0.0) + self_s
        return out


def _mean_ms(total_s, count):
    r = stats.ratio(total_s, count)
    return None if r is None else 1000.0 * r


def _nonzero(value):
    return value if value else None


def _newton_iters(t):
    if not t.count("classifier.train_binary"):
        return None
    return t.count("classifier.gradient") - t.count("classifier.train_binary")


def _linesearch_evals(t):
    if not t.count("classifier.train_binary"):
        return None
    return t.count("classifier.objective") - t.count("classifier.train_binary")


def _ceiling_frac(t):
    g = stats.gflops(t.conv_flops(), t.conv_s())
    return None if g is None or not t.sgemm_ceiling else g / t.sgemm_ceiling


def _cache_hit_ratio(t):
    return stats.ratio(*t.cache_hits())


def _io(name, t):
    return _nonzero(sum(t.extras(name)))


def _metrics():
    """(name, unit, better, span names it needs, value function)."""
    fwd, conv = "engine.forward_to_pool5", "engine.conv2d"
    rs, tb = "resize.bilinear_resize", "classifier.train_binary"
    m = [
        ("engine.forward.count", "count", "lower", (fwd,), lambda t: _nonzero(t.count(fwd))),
        ("engine.forward.ms", "ms", "lower", (fwd,), lambda t: _mean_ms(t.s(fwd), t.count(fwd))),
        ("engine.forward.self_ms", "ms", "lower", (fwd,),
         lambda t: _mean_ms(t.self_s(fwd), t.count(fwd))),
        ("engine.conv.count", "count", "lower", (conv,), lambda t: _nonzero(t.conv_calls())),
        ("engine.conv.s", "s", "lower", (conv,), lambda t: _nonzero(t.conv_s())),
        ("engine.conv.gflops", "GFLOP/s", "higher", (conv,),
         lambda t: stats.gflops(t.conv_flops(), t.conv_s())),
    ]
    for pos in range(1, VGG16_CONVS + 1):
        m.append((f"engine.conv.L{pos:02d}.ms", "ms", "lower", (conv, fwd),
                  lambda t, p=pos: _mean_ms(t.conv_s(p), t.conv_calls(p))))
    for pos in range(1, VGG16_CONVS + 1):
        m.append((f"engine.conv.L{pos:02d}.gflops", "GFLOP/s", "higher", (conv, fwd),
                  lambda t, p=pos: stats.gflops(t.conv_flops(p), t.conv_s(p))))
    m += [
        ("engine.conv.bytes_computed", "B", "lower", (conv,),
         lambda t: _nonzero(sum(stats.conv_bytes(*c[1:5]) for c in t.convs))),
        ("engine.sgemm_ceiling_gflops", "GFLOP/s", "higher", (), lambda t: t.sgemm_ceiling),
        ("engine.conv.ceiling_frac", "ratio", "higher", (conv,), _ceiling_frac),
        ("engine.relu.s", "s", "lower", ("engine.relu",),
         lambda t: _nonzero(t.s("engine.relu"))),
        ("engine.maxpool2.s", "s", "lower", ("engine.maxpool2",),
         lambda t: _nonzero(t.s("engine.maxpool2"))),
        ("engine.gap.s", "s", "lower", ("engine.gap",), lambda t: _nonzero(t.s("engine.gap"))),
        ("resize.bilinear.count", "count", "lower", (rs,), lambda t: _nonzero(t.count(rs))),
        ("resize.bilinear.s", "s", "lower", (rs,), lambda t: _nonzero(t.s(rs))),
        ("resize.bilinear.ms", "ms", "lower", (rs,), lambda t: _mean_ms(t.s(rs), t.count(rs))),
        ("slicing.slice_all.count", "count", "lower", ("slicing.slice_all",),
         lambda t: _nonzero(t.count("slicing.slice_all"))),
        ("slicing.slice_all.s", "s", "lower", ("slicing.slice_all",),
         lambda t: _nonzero(t.s("slicing.slice_all"))),
        ("slicing.render_slice.self_s", "s", "lower", ("slicing.render_slice",),
         lambda t: _nonzero(t.self_s("slicing.render_slice"))),
        ("slicing.all_masks.count", "count", "lower", ("slicing.all_masks",),
         lambda t: _nonzero(t.count("slicing.all_masks"))),
        ("slicing.all_masks.s", "s", "lower", ("slicing.all_masks",),
         lambda t: _nonzero(t.s("slicing.all_masks"))),
        # preprocessing is resize_to_working (what extraction calls) plus
        # preprocess's own time around it
        ("pipeline.preprocess.s", "s", "lower", ("pipeline.resize_to_working",),
         lambda t: _nonzero(t.s("pipeline.resize_to_working")
                            + t.self_s("pipeline.preprocess"))),
        ("pipeline.extract_base_features.self_s", "s", "lower",
         ("pipeline.extract_base_features",),
         lambda t: _nonzero(t.self_s("pipeline.extract_base_features"))),
        ("pipeline.renders_per_image", "renders/image", "lower",
         ("slicing.render_slice", "pipeline.extract_base_features"),
         lambda t: stats.ratio(t.count("slicing.render_slice"),
                               t.count("pipeline.extract_base_features"))),
        ("pipeline.fuse_matrix.s", "s", "lower", ("pipeline.fuse_matrix",),
         lambda t: _nonzero(t.s("pipeline.fuse_matrix"))),
        ("experiment.config_matrix.s", "s", "lower", ("experiment.config_matrix",),
         lambda t: _nonzero(t.s("experiment.config_matrix"))),
        ("experiment.tune_cost.count", "count", "lower", ("experiment.tune_cost",),
         lambda t: _nonzero(t.count("experiment.tune_cost"))),
        ("experiment.tune_cost.s", "s", "lower", ("experiment.tune_cost",),
         lambda t: _nonzero(t.s("experiment.tune_cost"))),
        ("classifier.grid_search_c.s", "s", "lower", ("classifier.grid_search_c",),
         lambda t: _nonzero(t.s("classifier.grid_search_c"))),
        ("classifier.train_ovr.s", "s", "lower", ("classifier.train_ovr",),
         lambda t: _nonzero(t.s("classifier.train_ovr"))),
        ("classifier.evaluate.s", "s", "lower", ("classifier.evaluate",),
         lambda t: _nonzero(t.s("classifier.evaluate"))),
        ("classifier.train_binary.count", "count", "lower", (tb,),
         lambda t: _nonzero(t.count(tb))),
        ("classifier.train_binary.s", "s", "lower", (tb,), lambda t: _nonzero(t.s(tb))),
        ("classifier.iters_per_solve", "iters/solve", "lower",
         (tb, "classifier.gradient"),
         lambda t: None if _newton_iters(t) is None
         else stats.ratio(_newton_iters(t), t.count(tb))),
        ("classifier.newton_iters", "count", "lower", (tb, "classifier.gradient"),
         _newton_iters),
        ("classifier.linesearch_evals", "count", "lower", (tb, "classifier.objective"),
         _linesearch_evals),
        ("classifier.linesearch_accept_ratio", "ratio", "higher",
         (tb, "classifier.gradient", "classifier.objective"),
         lambda t: None if _newton_iters(t) is None
         else stats.ratio(_newton_iters(t), _linesearch_evals(t))),
        ("experiment.compute_base_features.s", "s", "lower",
         ("experiment.compute_base_features",),
         lambda t: _nonzero(t.s("experiment.compute_base_features"))),
        ("experiment.cache_hit_ratio", "ratio", "higher",
         ("experiment.compute_base_features", "cache.load_cache",
          "pipeline.extract_base_features"), _cache_hit_ratio),
        ("cache.save.s", "s", "lower", ("cache.save_cache",),
         lambda t: _nonzero(t.s("cache.save_cache"))),
        ("cache.load.s", "s", "lower", ("cache.load_cache",),
         lambda t: _nonzero(t.s("cache.load_cache"))),
        ("cache.bytes_written", "B", "lower", ("cache.save_cache",),
         lambda t: _io("cache.save_cache", t)),
        ("cache.bytes_read", "B", "lower", ("cache.load_cache",),
         lambda t: _io("cache.load_cache", t)),
        ("imageio.read_raster.s", "s", "lower", ("imageio.read_raster",),
         lambda t: _nonzero(t.s("imageio.read_raster"))),
        ("imageio.bytes_read", "B", "lower", ("imageio.read_raster",),
         lambda t: _io("imageio.read_raster", t)),
        ("weights.load.s", "s", "lower", ("weights.load_weights",),
         lambda t: _nonzero(t.s("weights.load_weights"))),
        ("weights.bytes_read", "B", "lower", ("weights.load_weights",),
         lambda t: _io("weights.load_weights", t)),
        ("datasets.scan.s", "s", "lower", ("datasets.scan_dataset",),
         lambda t: _nonzero(t.s("datasets.scan_dataset"))),
        ("datasets.make_split.s", "s", "lower", ("datasets.make_split",),
         lambda t: _nonzero(t.s("datasets.make_split"))),
    ]
    return m


METRICS = _metrics()
# computed by the parent from the traced and the untraced child
OVERHEAD = ("trace.overhead_frac", "ratio", "lower")


def derive(view: TraceView) -> tuple[dict, dict]:
    """(metric -> {"value", "unit"}, metric -> reason it is unmeasured)."""
    values, unmeasured = {}, {}
    for name, unit, _, needs, fn in METRICS:
        gone = [view.missing[n] for n in needs if n in view.missing]
        value = None if gone else fn(view)
        if value is None:
            unmeasured[name] = "; ".join(gone) or "not exercised on this workload"
            value = 0
        values[name] = {"value": value, "unit": unit}
    return values, unmeasured
