#!/usr/bin/env python3
"""Run every benchmark workload, each run in a fresh process, and summarize.

Usage, from the root of a source tree:

    python3 bench/suite.py [--runs 10] [--seconds 38] [--write bench/baseline.json]

For each workload this makes --runs untraced runs with seeds 1..runs and
one traced run with seed 1, all through bench/run.py.  It prints every
end-to-end metric by name and unit as the median over the runs, with the
interquartile range as a share of the median (the spread the metric's
bound in BENCHMARK.json is judged against) and the sample count, then the
traced run's per-layer metrics.  Runs go one after another, never in
parallel, so that they do not compete for the processor.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    lines = proc.stdout.splitlines()
    info = json.loads(next(line for line in lines if line.startswith("run: "))[5:])
    return {"run": info, "result": json.loads(lines[-1])}


def spread(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(runs: list, traced: dict) -> dict:
    e2e = {}
    for m in SPEC["end_to_end"]:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
        e2e[m["name"]] = {
            "median": statistics.median(values),
            "unit": m["unit"],
            "iqr_share": spread(values),
            "bound": m["bound"],
            "values": values,
        }
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    return {
        "runs": len(runs),
        "correct": all(r["result"]["correct"] for r in runs),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "end_to_end": e2e,
        "per_layer": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
        "per_layer_run": traced["run"],
        "run_info": [r["run"] for r in runs],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--write", metavar="FILE", help="also write the summary as JSON")
    args = ap.parse_args()

    summary = {}
    for w in SPEC["workloads"]:
        name = w["name"]
        runs = [one_run(name, seed, args.seconds, 0) for seed in range(1, args.runs + 1)]
        traced = one_run(name, 1, args.seconds, 1)
        s = summary[name] = summarize(runs, traced)
        print(f"== {name}: {s['runs']} runs, correct={s['correct']}, "
              f"failed {s['failed']}/{s['attempted']} (failed_ratio {s['failed_ratio']:.6f})")
        for metric, v in s["end_to_end"].items():
            print(f"  {metric:30} {v['median']:14.6f} {v['unit']:8} "
                  f"iqr/median {v['iqr_share']:.4f} (bound {v['bound']}) n={s['runs']}")
        print("  traced run, seed 1:")
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for metric, value in s["per_layer"].items():
            print(f"  {metric:30} {value:14.6f} {units[metric]}")
    if args.write:
        Path(args.write).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
