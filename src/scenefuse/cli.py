"""Command-line surface.

Commands: ``slice``, ``extract``, ``train``, ``eval``, ``experiment``,
``validate-weights`` and ``bench``. Exit codes are a stable scripting
contract: 0 success, 2 configuration error, 3 data error, 4 internal
error. Every command validates its configuration before performing any
write.

A flat JSON config file (``--config``) may supply any of the shared
options, each value checked against its flag's type or choices; explicit
flags take precedence over config values, which take precedence over
built-in defaults.

Heavy imports happen inside the command handlers so that ``--threads N``
can pin the BLAS thread-pool environment variables before numpy loads;
``--threads 1`` in a fresh process is the bit-deterministic reference
path.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")

_POOLS = ("max", "mean", "min", "concat")
_FEATURE_TYPES = ("hdf", "op", "ow", "sp", "sw")

# option dests that may come from the config file, each with its flag's
# type or choices
_CONFIG_KEYS = {"object_weights": str, "scene_weights": str, "pool": _POOLS,
                "feature_type": _FEATURE_TYPES, "dataset": str, "protocol": str,
                "seed": int, "threads": int, "out": str, "folds": int}

_DEFAULTS = {"pool": "concat", "feature_type": "hdf", "seed": 0, "folds": 5}

# bad input data, exit 3; the loaders' typed errors (NetpbmError, WeightFileError,
# CacheFileError, DatasetError, ModelFileError) all derive from ValueError
_DATA_ERRORS = (ValueError, FloatingPointError, OSError)


class CliConfigError(Exception):
    """Invalid flags, config values, or missing input paths."""


def _shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat JSON config file; flags override it")
    parser.add_argument("--object-weights", help="HDFW bundle for the object trunk")
    parser.add_argument("--scene-weights", help="HDFW bundle for the scene trunk")
    parser.add_argument("--pool", choices=_POOLS,
                        help="fusion operator for hdf features (default concat)")
    parser.add_argument("--feature-type", choices=_FEATURE_TYPES,
                        help="which descriptor to compute (default hdf)")
    parser.add_argument("--seed", type=int, help="random seed (default 0)")
    parser.add_argument("--threads", type=int,
                        help="pin BLAS thread pools to N (1 = reference path)")
    parser.add_argument("--out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scenefuse",
        description="hybrid object/scene deep features: slicing, extraction, "
                    "classification and experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("slice", help="write the 20 sub-images and masks of one image")
    p.add_argument("image", help="input PPM/PGM image")
    p.add_argument("--fill", default="0,0,0",
                   help="R,G,B fill for masked-out pixels (default 0,0,0)")
    _shared_flags(p)
    p.set_defaults(handler=cmd_slice)

    p = sub.add_parser("extract", help="extract features for a dataset into an HDFC cache")
    p.add_argument("--dataset", dest="dataset", help="dataset root (directory per class)")
    _shared_flags(p)
    p.set_defaults(handler=cmd_extract)

    p = sub.add_parser("train", help="grid-search C and train a one-vs-rest model")
    p.add_argument("--features", required=True, help="HDFC feature cache")
    p.add_argument("--folds", type=int, help="cross-validation folds (default 5)")
    _shared_flags(p)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("eval", help="evaluate a model on an HDFC feature cache")
    p.add_argument("--model", required=True, help="HDFM model file")
    p.add_argument("--features", required=True, help="HDFC feature cache")
    _shared_flags(p)
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("experiment", help="full ablation: tune, train, evaluate per split")
    p.add_argument("--dataset", dest="dataset", help="dataset root (directory per class)")
    p.add_argument("--protocol", dest="protocol",
                   help="mit67 | scene15 | event8 | custom")
    p.add_argument("--train-per-class", type=int, help="custom protocol: train images")
    p.add_argument("--test-per-class",
                   help="custom protocol: test images per class, or 'rest'")
    p.add_argument("--repetitions", type=int, help="custom protocol: repetitions")
    p.add_argument("--split-file", help="JSON split plan to use instead of sampling")
    p.add_argument("--folds", type=int, help="cross-validation folds (default 5)")
    _shared_flags(p)
    p.set_defaults(handler=cmd_experiment)

    p = sub.add_parser("validate-weights", help="check HDFW files load and match a trunk")
    p.add_argument("files", nargs="+", help="HDFW weight files")
    p.add_argument("--trunk", choices=["vgg16", "any"], default="vgg16",
                   help="architecture to validate against (default vgg16)")
    _shared_flags(p)
    p.set_defaults(handler=cmd_validate_weights)

    p = sub.add_parser(
        "bench", help="time optimized conv2d (im2col + sgemm over blocks of output rows, "
        "~4 MiB of columns each) against the direct reference")
    p.add_argument("--channels-in", type=int, default=64)
    p.add_argument("--height", type=int, default=224)
    p.add_argument("--width", type=int, default=224)
    p.add_argument("--channels-out", type=int, default=64)
    p.add_argument("--repeats", type=int, default=3)
    _shared_flags(p)
    p.set_defaults(handler=cmd_bench)

    return parser


def _apply_config(args: argparse.Namespace) -> None:
    if getattr(args, "config", None):
        if not os.path.isfile(args.config):
            raise CliConfigError(f"config file not found: {args.config}")
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CliConfigError(f"config file {args.config}: {exc}") from None
        if not isinstance(cfg, dict):
            raise CliConfigError(f"config file {args.config} must hold a JSON object")
        unknown = set(cfg) - set(_CONFIG_KEYS)
        if unknown:
            raise CliConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in cfg.items():
            rule = _CONFIG_KEYS[key]
            if (value not in rule if isinstance(rule, tuple)
                    else type(value) is not rule):  # type(): JSON true is no int
                raise CliConfigError(f"config key {key!r}: invalid value {value!r}")
            if getattr(args, key, None) is None:
                setattr(args, key, value)
    for key, value in _DEFAULTS.items():
        if getattr(args, key, None) is None and hasattr(args, key):
            setattr(args, key, value)


def _require_file(path, what: str) -> str:
    if not path:
        raise CliConfigError(f"missing {what}")
    if not os.path.isfile(path):
        raise CliConfigError(f"{what} not found: {path}")
    return path


def _require_out(args) -> str:
    if not getattr(args, "out", None):
        raise CliConfigError("missing --out directory")
    out = args.out
    if os.path.exists(out) and not os.path.isdir(out):
        raise CliConfigError(f"--out {out} exists and is not a directory")
    return out


def _require_folds(args) -> int:
    if args.folds < 2:
        raise CliConfigError(f"--folds must be >= 2, got {args.folds}")
    return args.folds


def _load_backends(args, sources):
    """Load only the weight bundles the given base-feature sources need."""
    from .pipeline import Backend
    from .weights import load_weights

    object_backend = scene_backend = None

    def build(kind: str, path: str) -> Backend:
        bundle = load_weights(path)
        spec = _spec_for_bundle(bundle)
        return Backend(kind=kind, spec=spec, weights=bundle)

    if "op" in sources or "ow" in sources:
        object_backend = build("object", _require_file(args.object_weights,
                                                       "--object-weights"))
    if "sp" in sources or "sw" in sources:
        scene_backend = build("scene", _require_file(args.scene_weights,
                                                     "--scene-weights"))
    if object_backend and scene_backend and object_backend.spec != scene_backend.spec:
        raise CliConfigError("object and scene weight bundles have different shapes")
    return object_backend, scene_backend


def _spec_for_bundle(bundle):
    """The known trunk whose conv shapes are the bundle's kernel shapes.

    The file format carries no layer sequence, so the candidates are the
    canonical vgg16 trunk and, for a 2-entry bundle, the stub trunk of the
    synthetic helpers with the bundle's channel counts.
    """
    from .engine import vgg16_spec
    from .synthetic import stub_spec

    shapes = [tuple(e.kernel.shape) for e in bundle.entries]
    candidates = [vgg16_spec()]
    if len(shapes) == 2:
        candidates.append(stub_spec(shapes[0][0], shapes[1][0]))
    for spec in candidates:
        if shapes == [(l.out_channels, l.in_channels, 3, 3) for l in spec.conv_layers]:
            return spec
    raise CliConfigError(
        "weight bundle matches neither the canonical vgg16 trunk nor a stub trunk"
    )


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------

def cmd_slice(args) -> int:
    from .imageio import read_raster, write_pgm, write_ppm
    from .pipeline import resize_to_working
    from .slicing import all_masks, render_slice

    image_path = _require_file(args.image, "input image")
    out_dir = _require_out(args)
    try:
        fill = tuple(float(v) for v in args.fill.split(","))
    except ValueError:
        raise CliConfigError(f"--fill must be R,G,B numbers, got {args.fill!r}") from None
    if len(fill) != 3:
        raise CliConfigError(f"--fill must have 3 components, got {args.fill!r}")

    working = resize_to_working(read_raster(image_path))
    masks = all_masks(working.shape[1])
    rendered = [render_slice(working, m, fill) for m in masks]

    os.makedirs(out_dir, exist_ok=True)
    print(f"{'technique':<9} {'index':>5} {'bbox (t,l,h,w)':>20} {'pixels':>8}")
    for mask, sub in zip(masks, rendered):
        write_ppm(os.path.join(out_dir, f"{mask.technique}_{mask.index}.ppm"),
                  sub.pixels.transpose(1, 2, 0))
        write_pgm(os.path.join(out_dir, f"{mask.technique}_{mask.index}.pgm"),
                  mask.mask.astype("u1") * 255)
        print(f"{mask.technique:<9} {mask.index:>5} {str(mask.bbox):>20} "
              f"{int(mask.mask.sum()):>8}")
    print(f"wrote {2 * len(masks)} files to {out_dir}")
    return EXIT_OK


def cmd_extract(args) -> int:
    from .cache import FeatureRecord, save_cache
    from .datasets import DatasetError, scan_dataset
    from .experiment import FeatureConfig, config_matrix
    from .imageio import read_raster
    from .pipeline import extract_base_features

    if not args.dataset:
        raise CliConfigError("missing --dataset root")
    out_dir = _require_out(args)
    feature_type = args.feature_type
    try:
        config = FeatureConfig(feature_type,
                               args.pool if feature_type == "hdf" else None)
    except ValueError as exc:
        raise CliConfigError(str(exc)) from None
    object_backend, scene_backend = _load_backends(args, config.sources)
    manifest = scan_dataset(args.dataset)
    paths, labels = manifest.flat_paths_labels()

    records = []
    failures = 0
    for path, label in zip(paths, labels):
        try:
            base = extract_base_features(object_backend, scene_backend,
                                         read_raster(path), config.sources)
            values = config_matrix({s: v[None] for s, v in base.items()}, config)[0]
            records.append(FeatureRecord(label=int(label), path=path, values=values))
        except _DATA_ERRORS as exc:  # a bad file: reported, summarized at the end
            failures += 1
            detail = str(exc)  # the reader's errors name the file already
            print(f"error: {detail if path in detail else f'{path}: {detail}'}",
                  file=sys.stderr)
    if failures:
        print(f"{failures} files failed", file=sys.stderr)
    if not records:
        raise DatasetError(f"{args.dataset}: no image produced features; nothing to write")

    suffix = f"{feature_type}-{args.pool}" if feature_type == "hdf" else feature_type
    os.makedirs(out_dir, exist_ok=True)
    cache_path = os.path.join(out_dir, f"{manifest.name}_{suffix}.hdfc")
    save_cache(cache_path, config.dim, records)
    print(f"wrote {len(records)} records (dim {config.dim}) to {cache_path}")
    return EXIT_DATA if failures else EXIT_OK


def cmd_train(args) -> int:
    import numpy as np

    from .cache import load_cache
    from .classifier import grid_search_c, save_model, train_ovr

    cache_path = _require_file(args.features, "--features cache")
    out_dir = _require_out(args)
    folds = _require_folds(args)
    _, records = load_cache(cache_path)
    X = np.stack([r.values for r in records])
    y = np.asarray([r.label for r in records])

    report = grid_search_c(X, y, folds=folds, seed=int(args.seed))
    model = train_ovr(X, y, report.chosen_c)

    os.makedirs(out_dir, exist_ok=True)
    model_path = os.path.join(out_dir, "model.hdfm")
    save_model(model, model_path)
    grid_path = os.path.join(out_dir, "grid_search.json")
    with open(grid_path, "w", encoding="utf-8") as fh:
        json.dump({
            "c_values": list(report.c_values),
            "mean_cv_accuracy": list(report.accuracies),
            "chosen_c": report.chosen_c,
            "folds": report.fold_count,
        }, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"chosen C={report.chosen_c} "
          f"(cv accuracy {max(report.accuracies) * 100:.2f}%)")
    print(f"wrote {model_path} and {grid_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    import numpy as np

    from .cache import load_cache
    from .classifier import evaluate, load_model

    model_path = _require_file(args.model, "--model file")
    cache_path = _require_file(args.features, "--features cache")
    model = load_model(model_path)
    _, records = load_cache(cache_path, expect_dim=model.feature_dim)
    X = np.stack([r.values for r in records])
    y = np.asarray([r.label for r in records])
    accuracy = evaluate(model, X, y)
    doc = {"accuracy": accuracy, "count": len(records), "model": model_path,
           "features": cache_path}
    print(json.dumps(doc, indent=2, sort_keys=True))
    if getattr(args, "out", None):
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "eval.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK


def _build_protocol(args):
    from .datasets import (FIXED_PER_CLASS, REPEATED_RANDOM, SplitProtocol,
                           protocol_preset)

    name = args.protocol
    if not name:
        raise CliConfigError("missing --protocol (mit67 | scene15 | event8 | custom)")
    if name != "custom":
        try:
            return protocol_preset(name, seed=int(args.seed))
        except ValueError as exc:
            raise CliConfigError(str(exc)) from None
    if not args.train_per_class or not args.repetitions:
        raise CliConfigError(
            "custom protocol needs --train-per-class and --repetitions"
        )
    test = args.test_per_class
    try:
        test_per_class = None if test in (None, "rest") else int(test)
        kind = REPEATED_RANDOM if args.repetitions > 1 else FIXED_PER_CLASS
        return SplitProtocol(kind=kind, train_per_class=int(args.train_per_class),
                             test_per_class=test_per_class,
                             repetitions=int(args.repetitions), seed=int(args.seed))
    except ValueError as exc:
        raise CliConfigError(
            f"custom protocol: {exc} (--test-per-class takes an integer >= 1 or 'rest')"
        ) from None


def cmd_experiment(args) -> int:
    from .datasets import load_split, scan_dataset
    from .experiment import (FeatureConfig, default_configs, format_table,
                             run_experiment)
    from .pipeline import SOURCES

    if not args.dataset:
        raise CliConfigError("missing --dataset root")
    out_dir = _require_out(args)
    folds = _require_folds(args)
    protocol = _build_protocol(args)
    object_backend, scene_backend = _load_backends(args, SOURCES)
    manifest = scan_dataset(args.dataset)
    plan = None
    if args.split_file:
        plan = load_split(_require_file(args.split_file, "--split-file"), manifest)

    # full ablation by default; a single-type run when narrowed down
    if args.feature_type in ("op", "ow", "sp", "sw"):
        configs = (FeatureConfig(args.feature_type),)
    else:
        configs = default_configs()

    os.makedirs(out_dir, exist_ok=True)
    report = run_experiment(
        manifest, object_backend, scene_backend, protocol,
        configs=configs, folds=folds,
        plan=plan, cache_dir=os.path.join(out_dir, "cache"),
        out_path=os.path.join(out_dir, "report.json"),
    )
    print(format_table(report), end="")
    print(f"wrote {os.path.join(out_dir, 'report.json')}")
    return EXIT_OK


def cmd_validate_weights(args) -> int:
    from .engine import validate_bundle, vgg16_spec
    from .weights import load_weights

    spec = vgg16_spec() if args.trunk == "vgg16" else None
    for path in args.files:
        _require_file(path, "weight file")
    for path in args.files:
        bundle = load_weights(path)
        if spec is not None:
            validate_bundle(spec, bundle)
        total = sum(e.kernel.size + e.bias.size for e in bundle.entries)
        print(f"{path}: {len(bundle.entries)} conv entries, {total} parameters, "
              f"means {[round(float(m), 2) for m in bundle.means]} "
              f"({'vgg16 trunk' if spec else 'shape-checked only'})")
    return EXIT_OK


def cmd_bench(args) -> int:
    from .engine import benchmark_conv2d

    result = benchmark_conv2d(
        channels_in=args.channels_in, height=args.height, width=args.width,
        channels_out=args.channels_out, repeats=args.repeats, seed=int(args.seed),
    )
    print(json.dumps(result, indent=2, sort_keys=True))
    print(f"optimized {result['optimized_seconds'] * 1000:.1f} ms vs naive "
          f"{result['naive_seconds'] * 1000:.1f} ms: {result['speedup']:.1f}x",
          file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _apply_config(args)
        threads = getattr(args, "threads", None)
        if threads is not None:
            if threads < 1:
                raise CliConfigError(f"--threads must be >= 1, got {threads}")
            for var in _THREAD_VARS:
                os.environ[var] = str(threads)
        return args.handler(args)
    except CliConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except _DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
