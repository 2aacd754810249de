"""The roughfilter benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see workloads.py): filter_sweep, rough_metrics, cli_pipelines.
Run from the repository root; the package is imported from ./src.

--trace 0 starts fresh interpreters with one BLAS/OpenMP thread: two that
only set up, and one that sets up, warms up and then times whole cycles of
rounds for about --seconds seconds (a cycle runs each of the workload's
input sets once, so every run times the same mix of inputs). It prints the
end-to-end metrics, every time scaled to the host's faster speed by the
calibration kernel of worker.calibration_s:

  wall_s       wall seconds of the timed units, per round
  cpu_s        the same with process CPU seconds
  unit_s_p50   median wall seconds per unit
  unit_s_tail  wall seconds per unit at the workload's tail percentile, the
               highest with at least ten units beyond it in one cycle (the
               report gives the percentile, the unit count and how many
               units lie beyond it)
  setup_s      interpreter start to first timed unit (imports, inputs,
               warm-up unit), median of the three interpreters
  peak_rss_mb  peak resident memory of the timing interpreter
  failed_frac  failed units / attempted units (the result's failed and
               attempted fields)

--trace 1 times whole cycles for half of --seconds untraced (at least one
cycle), then the same rounds with the span tracer of tracer.py, checks that
both give identical outputs, and prints the per-layer metrics (per round of
the workload) and trace_overhead_frac.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A report with every unit, the environment and
the layer checks is written to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("filter_sweep", "rough_metrics", "cli_pipelines")
SETUP_ONLY_RUNS = 2
DEADLINE_S = 170.0  # every run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def end_to_end(units: list, rounds: int, setup_samples: list,
               peak_rss_mb: float, tail_q: int) -> tuple:
    """(metrics, details) of one untraced run. Unit times are scaled to the
    reference speed by each unit's `scale` (see worker.calibration_s), and
    `setup_samples` are (seconds, scale) pairs."""
    walls = [u["wall"] * u["scale"] for u in units]
    tail = statistics.quantiles(walls, n=100, method="inclusive")[tail_q - 1]
    metrics = {
        "wall_s": (sum(walls) / rounds, "s"),
        "cpu_s": (sum(u["cpu"] * u["scale"] for u in units) / rounds, "s"),
        "unit_s_p50": (statistics.median(walls), "s"),
        "unit_s_tail": (tail, "s"),
        "setup_s": (statistics.median(s * k for s, k in setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    details = {"tail_percentile": tail_q, "units": len(walls),
               "units_beyond_tail": sum(w > tail for w in walls),
               "setup_samples": setup_samples,
               "unscaled": {
                   "wall_s": sum(u["wall"] for u in units) / rounds,
                   "cpu_s": sum(u["cpu"] for u in units) / rounds,
                   "setup_s": statistics.median(s for s, _ in setup_samples)},
               "scale_median": statistics.median(u["scale"] for u in units)}
    return metrics, details


class Runner:
    def __init__(self, args):
        self.args = args
        self.start = time.monotonic()
        self.tag = f"{args.workload}-seed{args.seed}"
        self.workdir = os.path.join(OUT, f"{self.tag}-{os.getpid()}")
        self.env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1"),
                    "PYTHONHASHSEED": "0"}
        self.count = 0

    def child(self, mode: str, rounds: int = None, spans: str = None,
              seconds: float = None) -> dict:
        """Run worker.py in a fresh interpreter and return its result."""
        self.count += 1
        result = os.path.join(self.workdir, f"child{self.count}-{mode}.json")
        cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--seconds", str(seconds or self.args.seconds), "--mode", mode,
               "--workdir", self.workdir, "--result", result]
        if rounds is not None:
            cmd += ["--rounds", str(rounds)]
        if spans is not None:
            cmd += ["--spans", spans]
        if self.args.tiny:
            cmd.append("--tiny")
        remaining = DEADLINE_S - (time.monotonic() - self.start)
        if remaining <= 0:
            raise BenchError("out of time before starting a measurement")
        cmd += ["--t-spawn", repr(time.monotonic())]
        # the worker's own output goes to stderr: stdout ends with the result
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, stdout=sys.stderr,
                              timeout=remaining)
        if proc.returncode != 0:
            raise BenchError(f"{mode} interpreter exited with {proc.returncode}")
        with open(result, encoding="utf-8") as fh:
            return json.load(fh)

    def measured(self) -> tuple:
        setups = [self.child("setup") for _ in range(SETUP_ONLY_RUNS)]
        res = self.child("measure")
        setups = [(r["setup_s"], r["setup_scale"]) for r in setups + [res]]
        metrics, details = end_to_end(res["units"], res["rounds"], setups,
                                      res["peak_rss_mb"], res["tail_percentile"])
        details.update(rounds=res["rounds"], environment=res["environment"])
        return metrics, res["units"], details, True

    def traced(self) -> tuple:
        spans = os.path.join(OUT, f"{self.tag}-spans.csv")
        # half the time untraced, then the same rounds traced
        plain = self.child("measure", seconds=self.args.seconds / 2)
        res = self.child("trace", rounds=plain["rounds"], spans=spans)
        metrics = {k: tuple(v) for k, v in res["layers"].items()}
        metrics["trace_overhead_frac"] = (
            sum(u["wall"] * u["scale"] for u in res["units"])
            / sum(u["wall"] * u["scale"] for u in plain["units"]) - 1.0, "frac")
        identical = ([u["digest"] for u in plain["units"]]
                     == [u["digest"] for u in res["units"]])
        unit_wall = sum(u["wall"] for u in res["units"])
        # module self times must add up to the traced units' time; the units'
        # timers also cover the outermost wrappers' bookkeeping
        gap = unit_wall - res["self_s_total"]
        accounted = 0.0 <= gap <= 0.01 * unit_wall + 1e-3 * len(res["units"])
        details = {
            "rounds": res["rounds"], "environment": res["environment"],
            "outputs_identical_to_untraced": identical,
            "missing_spans": res["missing_spans"],
            "layer_expectations": res["layer_expectations"],
            "traced_unit_wall_s": unit_wall,
            "self_s_total": res["self_s_total"],
            "self_s_accounts_for_units": accounted,
            "spans_file": os.path.relpath(spans, ROOT),
            "spans_written": res.get("spans_written"),
            "untraced_units_failed": sum(u["problem"] is not None
                                         for u in plain["units"]),
        }
        ok = (identical and accounted and not res["missing_spans"]
              and not details["untraced_units_failed"])
        return metrics, res["units"], details, ok


def result(ok: bool, units: list, metrics: dict) -> dict:
    """The result object: a unit that raised or failed its check counts in
    `failed` and makes the run incorrect."""
    failed = sum(u["problem"] is not None for u in units)
    return {
        "correct": ok and failed == 0,
        "attempted": len(units),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def report_lines(args, metrics: dict, units: list, details: dict) -> list:
    failed = [u for u in units if u["problem"] is not None]
    env = details["environment"]
    lines = [
        f"# {args.workload} seed={args.seed} trace={args.trace} "
        f"rounds={details['rounds']} units={len(units)} failed={len(failed)}",
        f"# machine: {env['machine']}, nproc {env['nproc']}, python "
        f"{env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
        f"threads {sorted(set(v for v in env['threads'].values()))}",
    ]
    for name, (value, unit) in metrics.items():
        lines.append(f"{name:36s} {value!r} {unit}")
    lines.append(f"{'failed_frac':36s} {len(failed) / len(units)!r} "
                 f"({len(failed)}/{len(units)})")
    if "unscaled" in details:
        raw = details["unscaled"]
        lines.append(f"# times above are scaled to the reference speed; median "
                     f"unit scale {details['scale_median']!r}, unscaled wall_s "
                     f"{raw['wall_s']!r} cpu_s {raw['cpu_s']!r} setup_s "
                     f"{raw['setup_s']!r}")
    if "tail_percentile" in details:
        lines.append(f"# unit_s_tail is p{details['tail_percentile']} of "
                     f"{details['units']} units, {details['units_beyond_tail']} beyond it")
    for text, value, holds, why in details.get("layer_expectations", ()):
        lines.append(f"# layer check {text}: {value!r} "
                     + ("holds" if holds else f"DOES NOT HOLD: {why}"))
    if "outputs_identical_to_untraced" in details:
        lines.append(f"# traced outputs identical to untraced: "
                     f"{details['outputs_identical_to_untraced']}; module self "
                     f"times {details['self_s_total']!r} s of "
                     f"{details['traced_unit_wall_s']!r} s traced; spans never "
                     f"entered: {details['missing_spans'] or 'none'}")
    for u in failed:
        lines.append(f"# FAILED {u['kind']} round {u['round']}: {u['problem']}")
    for u in units:
        if "verdicts" in u["info"]:
            lines.append(f"# verdicts {u['kind']} round {u['round']}: "
                         f"{json.dumps(u['info']['verdicts'], sort_keys=True)}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "roughfilter", "__init__.py")):
        print(f"error: no roughfilter package under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    runner = Runner(args)
    os.makedirs(runner.workdir, exist_ok=True)
    try:
        metrics, units, details, ok = (runner.traced() if args.trace
                                       else runner.measured())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)

    report = {"args": vars(args), "metrics": metrics, "details": details,
              "units": [{k: u[k] for k in ("kind", "round", "wall", "cpu", "scale",
                                           "problem", "info")} for u in units]}
    with open(os.path.join(OUT, f"{runner.tag}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    for line in report_lines(args, metrics, units, details):
        print(line)
    print(json.dumps(result(ok, units, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
