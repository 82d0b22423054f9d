"""Median, quartiles and interquartile spread of metrics over several runs.

    python3 perfbench/spread.py out/run-*.txt

Each file holds the standard output of one run.py invocation; its last
line is the result. The spread is (Q3 - Q1) / median, with quartiles from
``statistics.quantiles(values, n=4)``.
"""

from __future__ import annotations

import json
import statistics
import sys

import stats


def main(paths) -> int:
    values: dict[str, list[float]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            result = json.loads(fh.read().strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        if len(vals) < 2:
            print(f"{name}: {vals} (need 2 runs for quartiles)")
            continue
        q1, _, q3 = statistics.quantiles(vals, n=4)
        share = stats.spread(vals) if stats.median(vals) else float("nan")
        print(f"{name}: n={len(vals)} median={stats.median(vals):.6g} "
              f"q1={q1:.6g} q3={q3:.6g} spread={share:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
