"""Command-line surface.

Commands: ``slice``, ``extract``, ``train``, ``eval``, ``experiment``,
``validate-weights`` and ``bench``. Exit codes are a stable scripting
contract: 0 success, 2 configuration or usage error, 3 data error, 4
internal error (any exception but the typed errors that name bad input and
``OSError``). Every command validates its configuration before performing
any write.

Each command takes only the options its handler reads, plus ``--config``
and ``--threads``; `_OPTIONS` states each option's type, choices, bound and
default once. A flat JSON config file may set any option of its command by
dest name, as a JSON value of the option's type within its choices and
bound; flags take precedence over it, and it over the defaults.

Heavy imports happen inside the command handlers so that ``--threads N``
can pin the BLAS thread-pool environment variables before numpy loads;
``--threads 1`` in a fresh process is the bit-deterministic reference
path.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")


def _data_errors() -> tuple[type[Exception], ...]:
    """The errors that name bad input, exit 3; any other exception is a bug, exit 4."""
    from . import cache, classifier, datasets, engine, imageio, weights

    return (imageio.NetpbmError, weights.WeightFileError, engine.BundleError,
            cache.CacheFileError, datasets.DatasetError, classifier.ModelFileError,
            classifier.TrainingDataError, FloatingPointError, OSError)


class CliConfigError(Exception):
    """Invalid flags, config values, or missing input paths."""


class _Parser(argparse.ArgumentParser):
    """Usage errors raise CliConfigError, so that main returns 2 and never exits."""

    def error(self, message):
        raise CliConfigError(f"{self.prog}: {message}")


def _at_least(low: int):
    """The type of an int option whose values start at `low`."""
    def parse(value):
        value = int(value)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid int value" message
    return parse


# every option of every command: the keywords of its add_argument call
_OPTIONS = {
    "--config": {"help": "flat JSON config file; flags override it"},
    "--threads": {"type": _at_least(1), "help": "pin BLAS thread pools to N (1 = reference)"},
    "--out": {"help": "output directory"},
    "image": {"help": "input PPM/PGM image"},
    "--fill": {"default": "0,0,0",
               "help": "R,G,B fill for masked-out pixels (default %(default)s)"},
    "--dataset": {"help": "dataset root (directory per class)"},
    "--object-weights": {"help": "HDFW bundle for the object trunk"},
    "--scene-weights": {"help": "HDFW bundle for the scene trunk"},
    "--feature-type": {"choices": ("hdf", "op", "ow", "sp", "sw"), "default": "hdf",
                       "help": "descriptor (default %(default)s; experiment: all eight)"},
    "--pool": {"choices": ("max", "mean", "min", "concat"), "default": "concat",
               "help": "fusion operator for hdf features (default %(default)s)"},
    "--features": {"help": "HDFC feature cache"},
    "--model": {"help": "HDFM model file"},
    "--folds": {"type": _at_least(2), "default": 5,
                "help": "cross-validation folds (default %(default)s)"},
    "--seed": {"type": _at_least(0), "default": 0, "help": "random seed (default %(default)s)"},
    "--protocol": {"choices": ("mit67", "scene15", "event8", "custom"),
                   "help": "split protocol; custom takes the three options below"},
    "--train-per-class": {"type": _at_least(1), "help": "custom protocol: train images"},
    "--test-per-class": {"help": "custom protocol: test images per class, or 'rest'"},
    "--repetitions": {"type": _at_least(1), "help": "custom protocol: repetitions"},
    "--split-file": {"help": "JSON split plan to use instead of sampling"},
    "files": {"nargs": "+", "help": "HDFW weight files"},
    "--trunk": {"choices": ("vgg16", "any"), "default": "vgg16",
                "help": "architecture to validate against (default %(default)s)"},
    "--repeats": {"type": _at_least(1), "default": 3},
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="scenefuse", description="hybrid object/scene deep features: "
                     "slicing, extraction, classification and experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option in (*options, "--config", "--threads"):
            p.add_argument(option, **_OPTIONS[option])
        p.set_defaults(handler=handler)
    return parser


def commands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    """Each command's parser, by name."""
    return next(a.choices for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))


def _read_config(path: str, command: argparse.ArgumentParser) -> dict:
    """A config file's values, each checked against `command`'s option of that dest."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: JSON and UTF-8 decoding errors
        raise CliConfigError(f"config file {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise CliConfigError(f"config file {path} must hold a JSON object")
    options = {a.dest: a for a in command._actions
               if a.option_strings and a.dest not in ("help", "config")}
    unknown = sorted(set(cfg) - set(options))
    if unknown:
        raise CliConfigError(f"config keys {unknown} are not options of {command.prog}")
    for key, value in cfg.items():
        option = options[key]
        kind = int if option.type else str
        try:
            if type(value) is not kind:  # type(): JSON true is no int
                raise argparse.ArgumentTypeError(f"not a JSON {kind.__name__}")
            if option.type:
                option.type(value)
            if option.choices and value not in option.choices:
                raise argparse.ArgumentTypeError(f"not one of {', '.join(option.choices)}")
        except argparse.ArgumentTypeError as exc:
            raise CliConfigError(f"config key {key!r}: invalid value {value!r}: {exc}") from None
    return cfg


def _require_file(path, what: str) -> str:
    if not path:
        raise CliConfigError(f"missing {what}")
    if not os.path.isfile(path):
        raise CliConfigError(f"{what} not found: {path}")
    return path


def _require_out(args) -> str:
    if not args.out:
        raise CliConfigError("missing --out directory")
    if os.path.exists(args.out) and not os.path.isdir(args.out):
        raise CliConfigError(f"--out {args.out} exists and is not a directory")
    return args.out


def _load_backends(args, sources):
    """Load only the weight bundles the given base-feature sources need."""
    from .pipeline import Backend
    from .weights import load_weights

    def build(kind: str, own: set, path: str, flag: str) -> Backend | None:
        if not own & set(sources):
            return None
        bundle = load_weights(_require_file(path, flag))
        return Backend(kind=kind, spec=_spec_for_bundle(bundle), weights=bundle)

    object_backend = build("object", {"op", "ow"}, args.object_weights, "--object-weights")
    scene_backend = build("scene", {"sp", "sw"}, args.scene_weights, "--scene-weights")
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
    raise CliConfigError("weight bundle matches neither the canonical vgg16 trunk "
                         "nor a stub trunk")


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
    from .cache import save_cache
    from .datasets import DatasetError, scan_dataset
    from .experiment import FeatureConfig, config_matrix, extract_dataset

    if not args.dataset:
        raise CliConfigError("missing --dataset root")
    out_dir = _require_out(args)
    feature_type = args.feature_type
    config = FeatureConfig(feature_type, args.pool if feature_type == "hdf" else None)
    object_backend, scene_backend = _load_backends(args, config.sources)
    manifest = scan_dataset(args.dataset)
    paths, labels = manifest.flat_paths_labels()

    # a file that cannot be read is skipped and reported; the rest are written
    base, failed = extract_dataset(paths, object_backend, scene_backend, config.sources)
    if failed:
        print(*(f"error: {message}" for _, message in failed),
              f"{len(failed)} files failed", sep="\n", file=sys.stderr)
    if len(failed) == len(paths):
        raise DatasetError(f"{args.dataset}: no image produced features; nothing to write")
    bad = {path for path, _ in failed}
    kept = [i for i, path in enumerate(paths) if path not in bad]
    matrix = config_matrix(base, config)

    suffix = f"{feature_type}-{args.pool}" if feature_type == "hdf" else feature_type
    os.makedirs(out_dir, exist_ok=True)
    cache_path = os.path.join(out_dir, f"{manifest.name}_{suffix}.hdfc")
    save_cache(cache_path, labels[kept], [paths[i] for i in kept], matrix)
    print(f"wrote {len(kept)} records (dim {config.dim}) to {cache_path}")
    return EXIT_DATA if failed else EXIT_OK


def cmd_train(args) -> int:
    from .cache import load_cache
    from .classifier import grid_search_c, save_model, train_ovr

    cache_path = _require_file(args.features, "--features cache")
    out_dir = _require_out(args)
    y, _, X = load_cache(cache_path)

    report = grid_search_c(X, y, folds=args.folds, seed=args.seed)
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
    from .cache import load_cache
    from .classifier import evaluate, load_model

    model_path = _require_file(args.model, "--model file")
    cache_path = _require_file(args.features, "--features cache")
    model = load_model(model_path)
    y, _, X = load_cache(cache_path, expect_dim=model.feature_dim)
    accuracy = evaluate(model, X, y)
    doc = {"accuracy": accuracy, "count": len(y), "model": model_path,
           "features": cache_path}
    print(json.dumps(doc, indent=2, sort_keys=True))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "eval.json"), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_OK


def _build_protocol(args):
    from .datasets import (FIXED_PER_CLASS, REPEATED_RANDOM, SplitProtocol,
                           protocol_preset)

    if not args.protocol:
        raise CliConfigError("missing --protocol")
    if args.protocol != "custom":
        return protocol_preset(args.protocol, seed=args.seed)
    if not args.train_per_class or not args.repetitions:
        raise CliConfigError("custom protocol needs --train-per-class and --repetitions")
    test = args.test_per_class
    try:
        test_per_class = None if test in (None, "rest") else int(test)
        kind = REPEATED_RANDOM if args.repetitions > 1 else FIXED_PER_CLASS
        return SplitProtocol(kind=kind, train_per_class=args.train_per_class,
                             test_per_class=test_per_class,
                             repetitions=args.repetitions, seed=args.seed)
    except ValueError as exc:
        raise CliConfigError(
            f"custom protocol: {exc} (--test-per-class takes an integer >= 1 or 'rest')"
        ) from None


def cmd_experiment(args) -> int:
    from .datasets import load_split, scan_dataset
    from .experiment import (FeatureConfig, default_configs, format_table,
                             run_experiment)

    if not args.dataset:
        raise CliConfigError("missing --dataset root")
    out_dir = _require_out(args)
    protocol = _build_protocol(args)
    # hdf runs the full ablation; a single-type run loads only the trunk it needs
    if args.feature_type == "hdf":
        configs = default_configs()
    else:
        configs = (FeatureConfig(args.feature_type),)
    object_backend, scene_backend = _load_backends(
        args, {source for config in configs for source in config.sources})
    manifest = scan_dataset(args.dataset)
    plan = None
    if args.split_file:
        plan = load_split(_require_file(args.split_file, "--split-file"), manifest)

    os.makedirs(out_dir, exist_ok=True)
    cache_dir = os.path.join(out_dir, "cache")
    report = run_experiment(
        manifest, object_backend, scene_backend, protocol,
        configs=configs, folds=args.folds, plan=plan, cache_dir=cache_dir,
        out_path=os.path.join(out_dir, "report.json"),
    )
    computed = sum(len(r.chosen_c) for r in report.results) - report.reused
    print(f"(configuration, repetition) results: {report.reused} reused from {cache_dir}, "
          f"{computed} computed", file=sys.stderr)
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
    from .pipeline import benchmark_delta_forwards

    result = benchmark_conv2d(repeats=args.repeats, seed=args.seed)
    delta = result["delta_forwards"] = benchmark_delta_forwards(seed=args.seed)
    print(json.dumps(result, indent=2, sort_keys=True))
    print(f"optimized {result['optimized_seconds'] * 1000:.1f} ms vs naive "
          f"{result['naive_seconds'] * 1000:.1f} ms: {result['speedup']:.1f}x",
          file=sys.stderr)
    print(f"delta/full VGG16 forwards: rect/circ pair {delta['pair_ratio']:.2f}, tri slice "
          f"{delta['tri_ratio']:.2f}, bit-identical {delta['bit_identical']}", file=sys.stderr)
    return EXIT_OK


# name: (handler, help, the options it reads besides --config and --threads)
_COMMANDS = {
    "slice": (cmd_slice, "write the 20 sub-images and masks of one image",
              ("image", "--fill", "--out")),
    "extract": (cmd_extract, "extract features for a dataset into an HDFC cache",
                ("--dataset", "--object-weights", "--scene-weights", "--feature-type",
                 "--pool", "--out")),
    "train": (cmd_train, "grid-search C and train a one-vs-rest model",
              ("--features", "--folds", "--seed", "--out")),
    "eval": (cmd_eval, "evaluate a model on an HDFC feature cache",
             ("--model", "--features", "--out")),
    "experiment": (cmd_experiment, "full ablation: tune, train, evaluate per split",
                   ("--dataset", "--protocol", "--train-per-class", "--test-per-class",
                    "--repetitions", "--split-file", "--folds", "--object-weights",
                    "--scene-weights", "--feature-type", "--seed", "--out")),
    "validate-weights": (cmd_validate_weights, "check HDFW files load and match a trunk",
                         ("files", "--trunk")),
    "bench": (cmd_bench, "time optimized conv2d (im2col + sgemm over blocks of output rows, "
              "~4 MiB of columns each) against the direct reference at VGG16's conv2 shape "
              "(64 to 64 channels, 224x224), and one rect/circ pair and one tri slice "
              "through the delta forwards against full VGG16 forwards",
              ("--repeats", "--seed")),
}


def main(argv=None) -> int:
    # INFO lines (reused records, loaded or stale caches) reach stderr once per call
    log = logging.getLogger("scenefuse")
    handler, level = logging.StreamHandler(), log.level
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.config:
            command = commands(parser)[args.command]
            command.set_defaults(**_read_config(args.config, command))
            args = parser.parse_args(argv)
        if args.threads is not None:
            for var in _THREAD_VARS:
                os.environ[var] = str(args.threads)
        return args.handler(args)
    except CliConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        if isinstance(exc, _data_errors()):
            print(f"data error: {exc}", file=sys.stderr)
            return EXIT_DATA
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
