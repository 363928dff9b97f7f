"""Run the workloads repeatedly and print every metric next to its bound.

    python3 perfbench/report.py [--runs 10] [--seconds S] [--seed 1]
                                [--workload NAME ...]

Run from the root of a source checkout.  Runs go seed by seed (--seed,
--seed + 1, ...), and for each seed through every workload in turn, so that a
drift in machine speed reaches all workloads alike; each run is untraced and
lasts --seconds (default: run_seconds of BENCHMARK.json).  For every
end-to-end metric the report gives the median, the quartiles, the spread
(q3 - q1) / median and the metric's bound from BENCHMARK.json (op_p50_ms
has none), and marks a spread of a third of the bound or more.  One traced run per workload
follows, with the per-layer metrics grouped by layer and the end-to-end
metrics each layer should move (layer_map.json).  With --runs 1 this prints
every metric of every workload once.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

import run

HERE = os.path.dirname(os.path.abspath(__file__))


def spread_rows(values: dict[str, list[float]]) -> list[str]:
    """Median, quartiles and spread of each end-to-end metric over the runs."""
    bounds = {metric["name"]: metric["bound"] for metric in run.spec()["end_to_end"]}
    rows = [f"{'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}"]
    for name, unit in run.MEASURED_UNITS.items():
        vals = values[name]
        median = statistics.median(vals)
        if len(vals) < 2:
            rows.append(f"{name:14s} {median:12.6g} {unit}")
            continue
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median
        if name in bounds:
            bound = f"{bounds[name]:6.3f}"
            flag = "" if spread < bounds[name] / 3.0 else "  <-- spread >= bound/3"
        else:
            bound, flag = f"{'-':>6s}", "  (not bounded)"
        rows.append(
            f"{name:14s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
            f"{bound}{flag}  [{unit}]"
        )
    return rows


def layer_rows(details: dict, layer_map: dict) -> list[str]:
    """Per-layer metrics under the layer their name starts with."""
    values = run.metrics(details)
    units = run.units(trace=True)
    rows = []
    for layer, entry in layer_map["layers"].items():
        moves = ", ".join(f"{w} {m}" for w, m in entry["moves"]) or "-"
        same = ", ".join(f"{w} {m}" for w, m in entry["no_change"]) or "-"
        rows.append(f"[{layer}] should move: {moves}; no change: {same}")
        rows += [
            f"  {name:44s} {values[name]:14.6g} {unit}"
            for name, unit in units.items()
            if name.split(".")[0] == layer
        ]
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=run.spec()["run_seconds"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=tuple(run.gen.GENERATORS))
    args = parser.parse_args(argv)
    with open(os.path.join(HERE, "layer_map.json"), encoding="utf-8") as fh:
        layer_map = json.load(fh)
    workloads = args.workload or [w["name"] for w in run.spec()["workloads"]]

    try:
        values = {w: {name: [] for name in run.MEASURED_UNITS} for w in workloads}
        for i in range(args.runs):
            for workload in workloads:
                details = run.run_workload(workload, args.seed + i, args.seconds, trace=False)
                if i == 0:
                    print("\n".join(run.describe(details)))
                failed = sum(details["reasons"].values())
                measured = run.metrics(details)
                print(
                    f"# {workload} seed {args.seed + i}: {failed} of {details['attempted']} "
                    f"calls failed, {sum(details['notes'].values())} notes, "
                    f"{'correct' if not details['wrong'] else 'WRONG ANSWERS'}; "
                    + ", ".join(f"{name} {value:.6g}" for name, value in measured.items()),
                    flush=True,
                )
                for name, value in measured.items():
                    values[workload][name].append(value)
        for workload in workloads:
            print(f"## {workload}: {args.runs} runs of {args.seconds:g} s")
            print("\n".join(spread_rows(values[workload])))
        for workload in workloads:
            traced = run.run_workload(workload, args.seed, args.seconds, trace=True)
            print(f"## {workload}: per-layer metrics, traced run of {args.seconds:g} s,"
                  f" seed {args.seed}")
            print("\n".join(layer_rows(traced, layer_map)), flush=True)
    except run.BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
