#!/usr/bin/env python3
"""Run one triform benchmark workload and print its metrics.

Usage, from the root of a source tree:

    python3 bench/run.py --workload sweep|cross-check|requests \
        [--seed N] [--seconds S] [--trace 0|1] [--bound B] [--population P]

--trace 0 measures the end-to-end metrics with nothing wrapped.  --trace 1
spends half the time untraced and half traced (public triform functions
wrapped from bench/spans.py) and reports the per-layer metrics plus the
tracing overhead; its spans are written to bench/.traces/.  --bound sets
the largest finite triangle entry of the sweep and cross-check populations
(default 100, the paper's criteria 1 and 4), and --population the number
of requests of the requests population (default 1000); tests use small
ones.  For the default seed and sizes, the first outputs of cross-check
and requests must hash to the digests in bench/digest.json.  A requests run also sends the
inputs of a known defect once, untimed, and reports what they do.

Human-readable lines come first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.  Exit code 0
means the run completed (its outputs may still be wrong: see "correct");
any other exit code means no result was produced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep", "cross-check", "requests")
DEFAULT_SEED = 1
SETUP_SAMPLES = 9
# one child process: the clock is CLOCK_MONOTONIC, shared with the parent
SETUP_CODE = "import time, triform; print(repr(time.perf_counter()))"


def spawn_setup() -> float:
    """Seconds from spawning a fresh interpreter to the end of import triform."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    return float(proc.stdout) - t0


class SetupSampler:
    """Takes the setup_s samples between workload items, one about every
    seconds / SETUP_SAMPLES, so that they sample the machine's speed over
    the whole run as the other metrics do: its speed drifts over stretches
    of several seconds, and samples taken back to back fall in one stretch.
    The spawns run outside the timed region of every item."""

    def __init__(self, seconds: float):
        spawn_setup()  # unrecorded: byte-code compilation is not measured
        self.every = seconds / SETUP_SAMPLES
        self.due = time.perf_counter()
        self.samples = []

    def __call__(self) -> None:
        if len(self.samples) < SETUP_SAMPLES and time.perf_counter() >= self.due:
            self.samples.append(spawn_setup())
            self.due += self.every

    def finish(self) -> list:
        """Samples a run too short to reach every due time takes now."""
        while len(self.samples) < SETUP_SAMPLES:
            self.samples.append(spawn_setup())
        return self.samples


def commit() -> str:
    """HEAD of the source tree, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_phase(workload: str, args, seconds: float, tracer=None, between=None):
    import workloads

    if workload == "sweep":
        return workloads.run_sweep(args.bound, seconds, tracer, between)
    if workload == "cross-check":
        return workloads.run_cross_check(args.bound, args.seed, seconds, tracer, between)
    return workloads.run_requests(args.seed, seconds, tracer, between, args.population)


def items_per_s(res) -> float:
    completed = res.attempted - res.failed
    return completed / res.busy_s if res.busy_s > 0 else 0.0


def end_to_end(workload: str, args):
    """(result, values, sample counts) of the end-to-end metrics."""
    sampler = SetupSampler(args.seconds)
    res = run_phase(workload, args, args.seconds, between=sampler)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup = sampler.finish()
    lat = res.latencies
    if not lat:
        raise RuntimeError("no item completed; no latency to report")
    values = {
        "items_per_s": items_per_s(res),
        "request_p50_ms": lat.quantile(0.50) * 1e3,
        "request_p99_ms": lat.quantile(0.99) * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    counts = {
        "items_per_s": res.attempted - res.failed,
        "request_p50_ms": f"{len(lat)} in {lat.windows} windows",
        "request_p99_ms": f"{len(lat)} in {lat.windows} windows",
        "setup_s": len(setup),
        "peak_rss_mb": 1,
    }
    return res, values, counts


def per_layer(workload: str, args):
    """Untraced half, then traced half: (both results merged, per-layer
    values of the traced half, sample counts)."""
    from spans import Tracer, layer_metrics

    plain = run_phase(workload, args, args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        res = run_phase(workload, args, args.seconds / 2, tracer)
    finally:
        tracer.uninstall()
    tracer.write(HERE / ".traces" / f"{workload}.spans.csv.gz")
    values = layer_metrics(tracer, res.output_bytes)
    untraced, traced = items_per_s(plain), items_per_s(res)
    values.update(
        {
            "trace.untraced_items_per_s": untraced,
            "trace.traced_items_per_s": traced,
            "trace.overhead_items_per_s": untraced - traced,
            "trace.overhead_ratio": (untraced - traced) / untraced if untraced else 0.0,
        }
    )
    counts = {name: res.attempted for name in values}
    res.attempted += plain.attempted
    res.failed += plain.failed
    res.failures = plain.failures + res.failures
    return res, values, counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=38)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--bound", type=int, default=100)
    ap.add_argument("--population", type=int, default=1000)
    args = ap.parse_args(argv)

    if not (SRC / "triform" / "__init__.py").is_file():
        print(f"error: no triform sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import triform
    from triform import scalars

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "python": platform.python_version(),
        "scalar_backend": f"{scalars.Q.__module__}.{scalars.Q.__qualname__}",
        "nproc": os.cpu_count(),
        "triform": triform.__version__,
    }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        res, values, counts = per_layer(args.workload, args)
    else:
        res, values, counts = end_to_end(args.workload, args)
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec[kind]}
    info.update(res.info)
    if args.workload == "requests":
        import workloads

        info["known_defect"] = workloads.probe_known_defect(res)
    if "digest" in res.info:
        size = args.population if args.workload == "requests" else args.bound
        info["digest_check"] = check_digest(args.workload, args.seed, size, res)

    print("run: " + json.dumps(info))
    if "known_defect" in info:
        print(f"known defect, series-check --expr on a denominator not split over Q: {info['known_defect']}")
    for reason in res.failures:
        print(f"failed: {reason}")
    print(f"{'metric':32} {'value':>16} {'unit':8} samples")
    for name, (value, unit) in metrics.items():
        print(f"{name:32} {value:16.6f} {unit:8} {counts[name]}")
    ratio = res.failed / res.attempted if res.attempted else 0.0
    print(f"{'failed_ratio':32} {ratio:16.6f} {'1':8} {res.attempted}")
    print(
        json.dumps(
            {
                "correct": res.failed == 0,
                "attempted": res.attempted,
                "failed": res.failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


def check_digest(workload: str, seed: int, size: int, res) -> str:
    """For the default seed and size (the bound of cross-check, the
    population of requests), the first items' outputs must hash to the
    digest recorded in digest.json; a mismatch counts as one failure."""
    recorded = json.loads((HERE / "digest.json").read_text())[workload]
    if seed != recorded["seed"] or size != recorded["size"]:
        return "not checked (seed or size is not the recorded one)"
    if res.info["digest"] is None:
        return "not checked (too few items completed)"
    expected = recorded["sha256"]
    if res.info["digest"] == expected:
        return "match"
    res.fail(-1, f"output digest {res.info['digest']} != recorded {expected}")
    return "MISMATCH"


if __name__ == "__main__":
    sys.exit(main())
