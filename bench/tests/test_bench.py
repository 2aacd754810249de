"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import run_rounds  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload",
         workload, "--seed", "5", "--seconds", "1", "--trace", str(trace),
         "--tiny"], cwd=cwd, capture_output=True, text=True, timeout=170)


def test_workload_names_agree():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert set(workloads.WORKLOADS) == set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_emitted_with_its_unit(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert all(isinstance(v["value"], float) for v in out["metrics"].values())
    assert "failed_frac" in proc.stdout


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_self_times_sum_to_traced_wall(workload, tmp_path):
    t = tracer.Tracer().install()
    try:
        wl = workloads.make(workload, 3, True, str(tmp_path))
        wl.setup()
        t.reset()
        records, rounds = run_rounds(wl, 0.0, rounds=1)
        wl.close()
    finally:
        t.uninstall()
    assert all(r["problem"] is None for r in records)
    unit_wall = sum(r["wall"] for r in records)
    self_total = sum(t.module_self_s().values())
    # the units' own timers also cover the outermost wrapper's bookkeeping
    assert self_total <= unit_wall
    assert unit_wall - self_total <= 0.01 * unit_wall + 1e-3 * len(records)
    layers = tracer.layer_metrics(t, rounds, 0)
    assert {m["name"] for m in SPEC["per_layer"]} == set(layers) | {"trace_overhead_frac"}
    # every wrapper the workload expects exists, sits behind a named
    # per-layer metric, and was entered
    for metrics, spans in wl.layer_spans:
        assert set(metrics) <= set(layers) and set(spans) <= set(t.names)
    assert workloads.missing_spans(wl.layer_spans, t.calls) == []


def test_every_binding_is_wrapped():
    import numpy as np
    from roughfilter import filtering, rde

    rde._alias = rde.davie_step  # one more `from .rde import davie_step` copy
    t = tracer.Tracer().install()
    try:
        assert filtering.davie_step is rde.davie_step is rde._alias
        V = rde.linear_vector_field([np.eye(1)])
        for step in (rde.davie_step, filtering.davie_step, rde._alias):
            step(V, 0.0, np.ones(1), np.ones(1), np.zeros((1, 1)))
        assert t.calls["rde.davie_step"] == 3
        assert t.calls["rde.VectorField.__call__"] == 3
        assert t.counts["rde.field_evals_in_davie_step"] == 3
    finally:
        t.uninstall()
        del rde._alias
    assert filtering.davie_step is rde.davie_step
    assert not hasattr(rde.davie_step, "__wrapped__")


class _Injected:
    tail_percentile = 50
    cycle = 1

    def round(self, r):
        def boom():
            raise RuntimeError("injected")

        return [workloads.Unit("ok", lambda: 1.0, lambda v: (None, "1", {})),
                workloads.Unit("raises", boom, lambda v: (None, "", {})),
                workloads.Unit("wrong", lambda: 2.0,
                               lambda v: ("injected check failure", "2", {}))]


def test_rounds_stop_after_whole_cycles():
    class Cycled(_Injected):
        cycle = 3

    _, rounds = run_rounds(Cycled(), 0.0)
    assert rounds == 3


def test_injected_failing_units_are_counted():
    records, rounds = run_rounds(_Injected(), 0.0, rounds=2)
    assert rounds == 2 and len(records) == 6
    assert all(r["scale"] > 0.0 for r in records)
    metrics, details = run.end_to_end(records, rounds, [(1.0, 1.0)], 50.0, 50)
    out = run.result(True, records, metrics)
    assert out["attempted"] == 6 and out["failed"] == 4 and out["correct"] is False
    details.update(rounds=rounds, environment={
        "machine": "m", "nproc": 1, "python": "3", "numpy": "2", "scipy": "1",
        "threads": {"OMP_NUM_THREADS": "1"}})
    args = run.argparse.Namespace(workload="w", seed=0, trace=0)
    lines = run.report_lines(args, metrics, records, details)
    assert any(line.startswith("failed_frac") and "(4/6)" in line for line in lines)


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("filter_sweep", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
