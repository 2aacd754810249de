"""One process of a benchmark run: set up a workload, warm it up, then time
rounds of its units and write the records to a JSON file.

run.py starts this script in a fresh interpreter for every measurement, so
imports, set-up time and peak memory belong to one run. Modes:

  setup    set up and warm up, report setup_s, stop
  measure  set up, then time whole cycles of rounds for about --seconds
           seconds
  trace    like measure with the span tracer installed, for exactly
           --rounds rounds, and per-layer metrics in the result
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from time import perf_counter, process_time

import numpy as np

from run import THREAD_VARS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Scaled times are seconds at a speed at which calibration_s() takes this
# long; on the 2-vCPU Intel Xeon host the benchmark was defined on it took
# 5 to 9 ms.
REFERENCE_CALIBRATION_S = 0.005
_SMALL = np.arange(64.0).reshape(8, 8) / 640.0
_LARGE = np.linspace(0.0, 1.0, 1 << 20)  # 8 MiB


def calibration_s() -> float:
    """Wall seconds of a fixed piece of work that runs no roughfilter code:
    a pure-Python loop, small numpy products and passes over an 8 MiB array
    and its 8 MiB product, the kinds of work the workloads do.

    The speed of the host the benchmark was defined on changes every 5-25 s
    whatever runs inside the machine: this kernel's time moves between
    about 5 and 9 ms, and a unit's time moves with it. Each unit's times are
    scaled by REFERENCE_CALIBRATION_S over the lesser of the calibrations
    just before and after it (interference only lengthens them), so that
    runs compare at one speed."""
    t0 = perf_counter()
    x = 0
    for i in range(6000):
        x += (i * i) % 7
    y = 0.0
    for _ in range(1000):
        y += float((_SMALL @ _SMALL)[0, 0])
    for _ in range(2):
        y += float(np.sum(_LARGE * 1.0001))
    return perf_counter() - t0


def run_rounds(workload, seconds: float, rounds: int = None):
    """Time whole rounds of units. Without `rounds`, stop only after whole
    cycles of the workload's inputs (`workload.cycle` rounds each), after
    the cycle that brings the elapsed time within half a mean cycle of
    `seconds`, so that every run times the same mix of inputs.
    Each record carries the unit's `scale`, see calibration_s().
    Returns (unit records, rounds done)."""
    records = []
    start_wall = perf_counter()
    r = 0
    cal_after = calibration_s()
    while True:
        for unit in workload.round(r):
            cal_before = cal_after
            w0, c0 = perf_counter(), process_time()
            try:
                out = unit.call()
                error = None
            except Exception as exc:  # a failing unit is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            w1, c1 = perf_counter(), process_time()
            cal_after = calibration_s()
            if error is None:
                try:
                    problem, digest, info = unit.check(out)
                except Exception as exc:
                    problem, digest, info = f"check raised {type(exc).__name__}: {exc}", "", {}
            else:
                problem, digest, info = error, "", {}
            records.append({"kind": unit.kind, "round": r, "wall": w1 - w0,
                            "cpu": c1 - c0, "scale": REFERENCE_CALIBRATION_S
                            / min(cal_before, cal_after), "problem": problem,
                            "digest": digest, "info": info})
        r += 1
        elapsed = perf_counter() - start_wall
        if rounds is not None:
            if r >= rounds:
                break
        elif r % workload.cycle == 0:
            if elapsed + 0.5 * elapsed * workload.cycle / r >= seconds:
                break
    return records, r


def environment(seed: int) -> dict:
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "machine": f"{platform.system()} {platform.machine()} {cpu}".strip(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--rounds", type=int)
    ap.add_argument("--t-spawn", type=float, required=True,
                    help="time.monotonic() of the parent just before spawning")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import roughfilter

    if not os.path.abspath(roughfilter.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"roughfilter imported from {roughfilter.__file__}, "
                           f"not from {SRC}")
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer().install()
    import workloads

    wl = workloads.make(args.workload, args.seed, args.tiny, args.workdir)
    try:
        wl.setup()
        wl.warmup()
        setup_s = time.monotonic() - args.t_spawn
        setup_scale = REFERENCE_CALIBRATION_S / min(calibration_s(), calibration_s())
        result = {"setup_s": setup_s, "setup_scale": setup_scale,
                  "environment": environment(args.seed)}
        if args.mode != "setup":
            if tracer is not None:
                tracer.reset()
            records, rounds = run_rounds(wl, args.seconds, args.rounds)
            result.update(units=records, rounds=rounds,
                          tail_percentile=wl.tail_percentile)
            if tracer is not None:
                from tracer import layer_metrics

                nbytes = sum(u["info"].get("artifact_bytes", 0) for u in records)
                layers = layer_metrics(tracer, rounds, nbytes)
                result["layers"] = layers
                result["missing_spans"] = workloads.missing_spans(
                    wl.layer_spans, tracer.calls)
                result["layer_expectations"] = wl.layer_expectations(layers)
                result["self_s_total"] = sum(tracer.module_self_s().values())
                if args.spans:
                    result["spans_written"] = tracer.write_spans(args.spans)
    finally:
        wl.close()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
