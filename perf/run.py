"""Run the repository benchmark.

    python3 perf/run.py [--workload NAME] [--seed N] [--seconds S]
                        [--trace 0|1 | --traced] [--repeat N]

Runs each selected workload (all four by default) one after another,
every sample in its own fresh single-threaded process (``worker.py``).
Without tracing a run measures full windows for about ``--seconds`` of
wall time, then adds cold set-up-only samples until there are
``SETUP_SAMPLES`` of them, and reports the end-to-end metrics.  With
``--trace 1`` (or ``--traced``) it runs one untraced window for the
layer counters and one traced quarter window for the profile and the
phase split, and reports the per-layer metrics.

Prints every metric as ``workload metric value unit`` (with
``--repeat N``: median, first and third quartile), writes
``perf/out/results.json``, and ends each workload with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  Exits 1 if any
correctness check fails or a sample cannot run, 2 on bad usage.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(PERF_DIR)
WORKER = os.path.join(PERF_DIR, "worker.py")
RESULTS = os.path.join(PERF_DIR, "out", "results.json")

#: Cold set-ups per run; set-up time is their median.
SETUP_SAMPLES = 5

#: A sample that runs longer than this is killed and the run fails.
SAMPLE_TIMEOUT_S = 170

#: Printed beside the metrics BENCHMARK.json defines, never compared.
EXTRA_UNITS = {
    "raw_setup_s": "s",
    "raw_run_s": "s",
    "latency_samples": "count",
    "failed_frac": "1",
}

MODELED = ("modeled_mops", "modeled_p50_us", "modeled_p99_us", "modeled_p999_us")


class RunFailed(Exception):
    """A sample could not run; the message is one line."""


def _load_benchmark() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        raise RunFailed(f"cannot read {path}: {error}") from None


def _sample(name: str, seed: int, scale: float, mode: str) -> dict:
    command = [
        sys.executable,
        WORKER,
        "--workload", name,
        "--seed", str(seed),
        "--scale", repr(scale),
        "--mode", mode,
    ]
    try:
        done = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, timeout=SAMPLE_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise RunFailed(
            f"{name}: {mode} sample exceeded {SAMPLE_TIMEOUT_S} s"
        ) from None
    if done.returncode != 0 or not done.stdout.strip():
        raise RunFailed(f"{name}: {mode} sample exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _checks(samples) -> list:
    return [s["check"] for s in samples if "check" in s]


def end_to_end(name: str, seed: int, seconds: float, scale: float) -> dict:
    """Full windows for about ``seconds``, then cold set-ups."""
    began = time.monotonic()
    runs = [_sample(name, seed, scale, "full")]
    while True:
        elapsed = time.monotonic() - began
        # Stop before a window that would end past the budget.
        if elapsed + elapsed / len(runs) > seconds:
            break
        runs.append(_sample(name, seed, scale, "full"))
    setups = runs + [
        _sample(name, seed, scale, "setup")
        for _ in range(SETUP_SAMPLES - len(runs))
    ]
    failures = _checks(runs)
    if any(r["modeled"] != runs[0]["modeled"] for r in runs):
        failures.append(f"{name}: modeled metrics differ between identical runs")
    modeled = runs[0]["modeled"]
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "run_s": statistics.median(r["run_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        **{key: modeled[key] for key in MODELED},
        "failed_frac": modeled["failed_frac"],
        "raw_setup_s": statistics.median(s["raw_setup_s"] for s in setups),
        "raw_run_s": statistics.median(r["raw_run_s"] for r in runs),
        "latency_samples": modeled["latency_samples"],
    }
    return {
        "failures": failures,
        "attempted": modeled["attempted"],
        "failed": modeled["failed"],
        "metrics": metrics,
        "samples": {"windows": len(runs), "setups": len(setups)},
    }


def per_layer(name: str, seed: int, scale: float) -> dict:
    """One untraced window for the counters, one traced quarter window."""
    full = _sample(name, seed, scale, "full")
    traced = _sample(name, seed, scale, "traced")
    failures = _checks([full, traced])
    if traced["modeled"] != full["quarter"]:
        failures.append(f"{name}: tracing changed the modeled metrics")
    untraced_rate = full["run_s"] / full["simulated_us"]
    traced_rate = traced["run_s"] / traced["simulated_us"]
    metrics = {
        **full["layers"],
        **traced["traced"],
        "wall.trace_overhead": traced_rate / untraced_rate,
    }
    return {
        "failures": failures,
        "attempted": full["modeled"]["attempted"],
        "failed": full["modeled"]["failed"],
        "metrics": metrics,
        "spans_file": os.path.relpath(traced["spans_file"], ROOT),
    }


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def _fmt(value: float) -> str:
    if isinstance(value, int) or abs(value) >= 1e6:
        return f"{value:.0f}"
    return f"{value:.6g}"


def run_workload(name: str, args, units: dict, reported) -> dict:
    repeats = []
    for _ in range(args.repeat):
        if args.trace:
            repeats.append(per_layer(name, args.seed, args.scale))
        else:
            repeats.append(end_to_end(name, args.seed, args.seconds, args.scale))
    summary = {}
    for metric in repeats[0]["metrics"]:
        values = [r["metrics"][metric] for r in repeats]
        median, q1, q3 = _quartiles(values)
        unit = units.get(metric) or EXTRA_UNITS[metric]
        summary[metric] = {"value": median, "unit": unit, "q1": q1, "q3": q3}
        line = f"{name} {metric} {_fmt(median)}"
        if args.repeat > 1:
            line += f" {_fmt(q1)} {_fmt(q3)}"
        print(f"{line} {unit}")
    failures = [f for r in repeats for f in r["failures"]]
    for failure in failures:
        print(failure, file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in repeats),
        "failed": sum(r["failed"] for r in repeats),
        "metrics": {
            metric: {"value": summary[metric]["value"], "unit": units[metric]}
            for metric in reported
        },
    }
    print(json.dumps(result), flush=True)
    return {"result": result, "summary": summary, "runs": repeats}


def main(argv=None) -> int:
    try:
        benchmark = _load_benchmark()
    except RunFailed as failure:
        print(f"run: {failure}", file=sys.stderr)
        return 1
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark (see perf/README.md)."
    )
    parser.add_argument("--workload", choices=names, help="default: all, in order")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=benchmark["run_seconds"],
        help="wall time to spend on measured windows per run",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="shrink windows and datasets (smoke tests use 0.05)",
    )
    args = parser.parse_args(argv)
    if args.repeat < 1 or not 0 < args.scale <= 1:
        parser.error("--repeat must be >= 1 and --scale in (0, 1]")
    metrics = benchmark["end_to_end"] + benchmark["per_layer"]
    units = {m["name"]: m["unit"] for m in metrics}
    reported = [
        m["name"] for m in benchmark["per_layer" if args.trace else "end_to_end"]
    ]
    results = {}
    try:
        for name in [args.workload] if args.workload else names:
            results[name] = run_workload(name, args, units, reported)
    except RunFailed as failure:
        print(f"run: {failure}", file=sys.stderr)
        return 1
    os.makedirs(os.path.dirname(RESULTS), exist_ok=True)
    with open(RESULTS, "w") as handle:
        json.dump(
            {
                "seed": args.seed,
                "trace": args.trace,
                "scale": args.scale,
                "workloads": results,
            },
            handle,
            indent=1,
        )
    return 0 if all(r["result"]["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
