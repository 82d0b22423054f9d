"""Benchmark of scenefuse: one workload per run, measured in fresh child processes.

Run from the root of a checkout (the directory that holds src/scenefuse)::

    python3 perfbench/run.py --workload extract-vgg16 --seed 0 --seconds 60 --trace 0

Inputs are generated from --seed into .bench_work/ and removed afterwards.
Every child runs single-threaded: the BLAS thread pools are pinned to 1
through the same variables ``scenefuse --threads 1`` sets, in the child's
environment, before numpy loads. With --trace 0 the run measures end to
end, tracing off; with --trace 1 it runs one unit untraced and one unit
traced and reports per-layer metrics. A readable report goes to standard
output first; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

import layers
import stats

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "workloads.py")
WORKLOADS = ("extract-vgg16", "experiment-stub", "gridsearch-scene15")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# setup_s is the median over this many fresh processes per run
SETUP_SAMPLES = 9
# the whole run, children included, must end well within 180 s
RUN_LIMIT_S = 170.0

# per-workload end-to-end names in the report -> the unit timing they summarize
NAMED = {
    "extract-vgg16": {"extract_s_per_image": "unit_s"},
    "experiment-stub": {"experiment_s": "experiment_s",
                        "experiment_cached_s": "experiment_cached_s",
                        "extract_s_per_image": "extract_s_per_image"},
    "gridsearch-scene15": {"gridsearch_s_per_c": "unit_s"},
}

# per workload: (self-time scope, claim, check on the layer shares)
PREDICTIONS = {
    "extract-vgg16": ("extraction_self_s", "the engine dominates extraction",
                      lambda sh: sh.get("engine", 0.0) > 0.5),
    "experiment-stub": ("extraction_self_s",
                        "slicing plus resize is the largest share of extraction",
                        lambda sh: sh.get("slicing", 0.0) + sh.get("resize", 0.0)
                        > max([v for k, v in sh.items() if k not in ("slicing", "resize")],
                              default=0.0)),
    "gridsearch-scene15": ("layer_self_s", "the classifier dominates the grid search",
                           lambda sh: sh.get("classifier", 0.0) > 0.5),
}


class BenchError(RuntimeError):
    pass


class Children:
    """Starts worker processes one at a time and waits for each to end."""

    def __init__(self, args, root, work, deadline):
        self.args, self.work, self.deadline = args, work, deadline
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = {**os.environ, **{v: "1" for v in THREAD_VARS},
                    "PYTHONPATH": src + (os.pathsep + path if path else "")}
        self.count = 0

    def run(self, mode, *extra):
        """Run one child; returns (its JSON document, spawn time, its rusage)."""
        self.count += 1
        out = os.path.join(self.work, f"{mode}-{self.count}.json")
        cmd = [sys.executable, WORKER, mode, "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--size", self.args.size,
               "--work", self.work, "--out", out, *extra]
        spawned = time.monotonic()
        # the child's own output goes to our stderr, keeping stdout for results
        proc = subprocess.Popen(cmd, env=self.env, stdout=sys.stderr)
        try:
            usage = self._wait(proc)
        finally:
            if proc.returncode is None:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
        if proc.returncode != 0:
            raise BenchError(f"{mode} child exited with {proc.returncode}")
        with open(out, encoding="utf-8") as fh:
            return json.load(fh), spawned, usage

    def _wait(self, proc):
        # wait4 gives this child's own rusage (peak RSS) and none of ours
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return usage
            if time.monotonic() > self.deadline:
                raise BenchError(f"child {proc.args[2]} ran past the time limit")
            time.sleep(0.01)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure_end_to_end(args, children):
    inputs = children.run("gen")[0]["inputs"]
    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        doc, spawned, _ = children.run("setup")
        setup.append(doc["ready"] - spawned)
    doc, spawned, usage = children.run("run", "--seconds", str(args.seconds))
    setup.append(doc["ready"] - spawned)
    if not doc["units"]:
        raise BenchError("no unit of work completed: " + "; ".join(doc["failures"]))
    peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    metrics = {
        "setup_s": _metric(stats.median(setup), "s"),
        "unit_s": _metric(stats.median(u["unit_s"] for u in doc["units"]), "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MiB"),
    }
    named = {"setup_s": stats.summarize(setup, "s")}
    for name, key in NAMED[args.workload].items():
        named[name] = stats.summarize([u[key] for u in doc["units"]], "s")
    named["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MiB"}
    named["error_rate"] = {"value": stats.error_rate(doc["failed"], doc["attempted"]),
                           "unit": "ratio", "base": doc["attempted"]}
    report = {"end_to_end": named, "environment": doc["env"], "inputs": inputs,
              "measuring_child": {"user_s": usage.ru_utime, "sys_s": usage.ru_stime,
                                  "minor_faults": usage.ru_minflt,
                                  "involuntary_switches": usage.ru_nivcsw}}
    return metrics, report, doc["attempted"], doc["failed"], doc["failures"]


def measure_traced(args, children):
    inputs = children.run("gen")[0]["inputs"]
    plain, _, _ = children.run("run", "--units", "1")
    traced, _, _ = children.run("run", "--units", "1", "--trace", "1")
    if not plain["units"] or not traced["units"]:
        raise BenchError("no unit of work completed: "
                         + "; ".join(plain["failures"] + traced["failures"]))
    wall = sum(u["wall_s"] for u in plain["units"])
    metrics = dict(traced["per_layer"])
    name, unit, _ = layers.OVERHEAD
    metrics[name] = _metric(sum(u["wall_s"] for u in traced["units"]) / wall - 1.0, unit)

    scope, claim, check = PREDICTIONS[args.workload]
    self_s = traced[scope]
    total = sum(self_s.values())
    shares = {k: v / total for k, v in sorted(self_s.items())} if total else {}
    report = {
        "per_layer": metrics,
        "unmeasured": traced["unmeasured"],
        "missing_functions": traced["missing"],
        "layer_self_s": traced["layer_self_s"],
        "prediction": {"claim": claim, "holds": bool(shares) and check(shares),
                       "self_time_shares": shares,
                       "scope": "inside compute_base_features"
                       if scope == "extraction_self_s" else "all traced spans"},
        "environment": traced["env"],
        "inputs": inputs,
    }
    failures = plain["failures"] + traced["failures"]
    return (metrics, report, plain["attempted"] + traced["attempted"],
            plain["failed"] + traced["failed"], failures)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: seconds-long inputs for the benchmark's own tests")
    p.add_argument("--write-reference", action="store_true",
                   help="regenerate reference.json for this workload at seed 0")
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "scenefuse", "__init__.py")):
        print("perfbench: src/scenefuse not found; run from the root of a scenefuse "
              "checkout", file=sys.stderr)
        return 2
    bench_dir = os.path.join(root, ".bench_work")
    work = os.path.join(bench_dir, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    children = Children(args, root, work, time.monotonic() + RUN_LIMIT_S)
    try:
        if args.write_reference:
            if args.seed != 0 or args.size != "full":
                print("perfbench: the reference is for --seed 0 at full size",
                      file=sys.stderr)
                return 2
            children.run("gen")
            children.run("reference")
            return 0
        measure = measure_traced if args.trace else measure_end_to_end
        metrics, report, attempted, failed, failures = measure(args, children)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(bench_dir)
        except OSError:
            pass  # another run is still using it

    report.update({"workload": args.workload, "seed": args.seed, "size": args.size,
                   "seconds": args.seconds, "trace": args.trace,
                   "attempted": attempted, "failed": failed, "failures": failures})
    print(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
