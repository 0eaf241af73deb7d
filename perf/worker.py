"""One sample of one workload, in a fresh process.

``run.py`` starts this script once per sample, so every set-up is cold:
nothing the system memoizes (the key-hash memo, the NICs' service-time
caches) survives from an earlier sample.  The process is single
threaded; the simulated clients are simulated, not OS threads.

Modes:

- ``setup``: generate the inputs, time the set-up, stop.
- ``full``: set up, run the warm-up untimed, then time the measured
  window as equal ``sim.run(until=...)`` slices, read every layer's
  counters, and run the correctness checks.
- ``traced``: like ``full`` but only the first quarter of the measured
  window, with a protocol tracer observer and ``cProfile`` on.  Its
  numbers never feed the end-to-end metrics.

Every timed region is preceded by a pass of the reference loop
(:mod:`refloop`) and reported both raw and host-normalized.

Prints one JSON object on standard output.  A failed correctness check
is reported in it under ``"check"``; any other error exits 1 with one
line on standard error and the traceback in ``out/<workload>.error.log``.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import resource
import sys
import time
import traceback

import refloop

PERF_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(PERF_DIR), "src")
OUT_DIR = os.path.join(PERF_DIR, "out")

#: Equal slices the measured window runs in, each preceded by a pass of
#: the reference loop; the traced run takes the first quarter of them.
SLICES = 80


def _timed_setup(workload, traced: bool):
    loop_before = refloop.loop_seconds()
    started = time.perf_counter()
    workload.build(traced)
    raw = time.perf_counter() - started
    loop_after = refloop.loop_seconds()
    return raw, refloop.normalized(raw, (loop_before + loop_after) / 2)


def _timed_run(sim, bounds, profile=None):
    raw = normalized = 0.0
    for until in bounds:
        loop = refloop.loop_seconds()
        if profile is not None:
            profile.enable()
        started = time.perf_counter()
        sim.run(until=until)
        elapsed = time.perf_counter() - started
        if profile is not None:
            profile.disable()
        raw += elapsed
        normalized += refloop.normalized(elapsed, loop)
    return raw, normalized


def _write_spans(name: str, spans) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{name}.spans.json")
    with open(path, "w") as handle:
        json.dump(
            {
                "workload": name,
                "fields": ["op", "name", "start_us", "end_us"],
                "spans": [
                    [op, label, round(start, 4), round(end, 4)]
                    for op, label, start, end in spans
                ],
            },
            handle,
            separators=(",", ":"),
        )
    return path


def sample(name: str, seed: int, scale: float, mode: str, slices: int = SLICES) -> dict:
    """Run one sample; returns the JSON-ready result."""
    import layers
    import workloads

    refloop.warm_up()
    workload = workloads.make(name, seed, scale)
    traced = mode == "traced"
    raw_setup, setup = _timed_setup(workload, traced)
    result = {"raw_setup_s": raw_setup, "setup_s": setup}
    if mode == "setup":
        return result

    sim = workload.sim
    start = workloads.WARMUP_FRAC * workload.window_us
    span = workload.window_us - start
    bounds = [start + span * i / slices for i in range(1, slices + 1)]
    quarter = max(1, slices // 4)
    quarter_end = bounds[quarter - 1]
    profile = None
    if traced:
        bounds = bounds[:quarter]
        observer = layers.PhaseSpans(start, quarter_end)
        workload.tracer.subscribe(observer)
        profile = cProfile.Profile()

    sim.run(until=start)
    before = layers.snapshot(workload)
    raw_run, run = _timed_run(sim, bounds, profile)
    after = layers.snapshot(workload)
    modeled = layers.modeled(workload.logs, start, sim.now)
    result.update(
        raw_run_s=raw_run,
        run_s=run,
        simulated_us=sim.now - start,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        modeled=modeled,
    )
    if traced:
        grouped = layers.profile_by_layer(pstats.Stats(profile).stats)
        result["traced"] = {
            **layers.profile_metrics(grouped, modeled["attempted"]),
            **observer.means(),
        }
        result["spans_file"] = _write_spans(name, observer.spans)
    else:
        result["layers"] = layers.layer_metrics(
            workload, before, after, modeled["attempted"], run
        )
        result["quarter"] = layers.modeled(workload.logs, start, quarter_end)
    try:
        workload.final_check(complete=not traced)
    except workloads.CheckFailed as failure:
        result["check"] = str(failure)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--mode", choices=("setup", "full", "traced"), required=True)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"worker: no repro sources under {SRC_DIR}", file=sys.stderr)
        return 1
    sys.path.insert(0, SRC_DIR)
    try:
        result = sample(args.workload, args.seed, args.scale, args.mode)
    except Exception as error:  # one-line report; the traceback goes to a file
        os.makedirs(OUT_DIR, exist_ok=True)
        log = os.path.join(OUT_DIR, f"{args.workload}.error.log")
        with open(log, "w") as handle:
            traceback.print_exc(file=handle)
        print(
            f"worker: {args.workload}: {type(error).__name__}: {error} "
            f"(traceback in {log})",
            file=sys.stderr,
        )
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
