"""Span tracing of the eight roughfilter modules, installed from outside.

`Tracer.install()` replaces every public function of the modules in
`MODULES`, and the constructors, `__call__` and public methods of their
public classes, with a wrapper that records a span. A function is replaced
on every binding a caller can look it up through: the defining module, each
module that did `from .x import y`, the package namespace and module-level
dicts such as `sim.MODEL_BUILDERS`. `install()` does not prove that no copy
was left unwrapped; instead each workload names the wrappers behind the
per-layer metrics it should move, and a traced run fails if one of them was
never entered.

Every span is kept in memory (28 bytes each) and written out by
`write_spans()` when the run ends.
A span's self time is its duration minus the durations of its child spans.
The source of the package is never edited.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

MODULES = ("paths", "tensor_group", "lift", "fillin", "rde", "sim",
           "filtering", "cli")

# Inclusive timers over several wrappers. Time is counted once while any
# member is open, so nested members (marcus_lift -> stratonovich_lift) are
# not counted twice.
GROUPS = {
    "filtering.sweep": ("filtering.theta", "filtering.g_functional",
                        "filtering.direct_reference_filter",
                        "filtering.scalar_flow_filter_detail"),
    "sim.simulate": ("sim.make_noise_bundle", "sim.simulate_pair",
                     "sim.reconstruct_wtilde"),
    "lift.lifts": ("lift.stratonovich_lift", "lift.marcus_lift",
                   "lift.reverse_rough_path"),
    "paths.p_variation": ("paths.p_variation", "paths.p_variation_of_points"),
}

# The functions of tensor_group that make up its algebra (everything but
# the two element constructors).
TENSOR_OPS = ("identity_element", "group_mul", "group_inv", "group_exp",
              "group_exp_tensor", "group_log", "scale_tensor", "dilate",
              "homogeneous_norm", "group_distance", "geometric_defect")
GROUPS["tensor_group.ops"] = tuple(f"tensor_group.{f}" for f in TENSOR_OPS)

SWEEPS = GROUPS["filtering.sweep"]
ABORT_ERRORS = ("WeightAbortError", "ParticleBlowupError",
                "DegenerateWeightsError")
FIELD_EVAL = "rde.VectorField.__call__"


def _targets(module):
    """(qualified name, owner, attribute, original) for every traced
    callable that `module` defines."""
    short = module.__name__.rsplit(".", 1)[-1]
    out = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((f"{short}.{name}", module, name, obj))
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for attr, meth in vars(obj).items():
                if not inspect.isfunction(meth):
                    continue
                if attr.startswith("_") and attr not in ("__init__", "__call__"):
                    continue
                out.append((f"{short}.{name}.{attr}", obj, attr, meth))
    return out


def merged_length(X, Y) -> int:
    """Length m of the merged visited sequence that lift.rho_p runs its
    dynamic programme over (grid union plus one left limit per jump time
    after the first grid time); the programme touches m(m-1)/2 cells."""
    times = np.union1d(X.times, Y.times)
    jumpy = set(X.times[X.jump_flags].tolist()) | set(Y.times[Y.jump_flags].tolist())
    return len(times) + sum(1 for t in jumpy if t != times[0])


class Tracer:
    def __init__(self):
        self._installed = []  # (owner, attribute, original)
        self.names = []  # wrapper names, index = name id
        self._name_ids = {}
        self._keys = set()
        self.reset()

    # -- recording -------------------------------------------------------

    def reset(self):
        """Forget everything recorded so far (call with no span open)."""
        self.origin = perf_counter()
        self.stack = []
        self.calls = dict.fromkeys(self.names, 0)
        self.self_s = dict.fromkeys(self.names, 0.0)
        self.timers = dict.fromkeys(self._keys, 0.0)
        self.depth = dict.fromkeys(self._keys, 0)
        self.opened = {}
        self.counts = {"filtering.particle_steps": 0,
                       "filtering.aborts": 0,
                       "lift.rho_p.dp_cells": 0,
                       "rde.field_evals_in_davie_step": 0}
        self._seen_aborts = set()
        self.next_id = 0
        self.span_name = array("i")
        self.span_id = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    def _wrap(self, name: str, fn):
        keys = (name,) + tuple(g for g, members in GROUPS.items() if name in members)
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_s[name] = 0.0
        name_id = self._name_ids[name]
        for key in keys:
            if key not in self._keys:
                self._keys.add(key)
                self.timers[key] = 0.0
                self.depth[key] = 0
        after = self._after_hook(name)
        count_field_eval = name == FIELD_EVAL
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth, opened = tracer.depth, tracer.opened
            if count_field_eval and depth["rde.davie_step"]:
                tracer.counts["rde.field_evals_in_davie_step"] += 1
            stack = tracer.stack
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf_counter()
            for key in keys:
                if not depth[key]:
                    opened[key] = t0
                depth[key] += 1
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._note_error(name, exc)
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                tracer.self_s[name] += dur - frame[0]
                tracer.calls[name] += 1
                timers = tracer.timers
                for key in keys:
                    depth[key] -= 1
                    if not depth[key]:
                        timers[key] += t1 - opened[key]
                tracer.span_name.append(name_id)
                tracer.span_id.append(sid)
                tracer.span_parent.append(parent)
                tracer.span_start.append(t0 - tracer.origin)
                tracer.span_end.append(t1 - tracer.origin)
            if after is not None:
                result = after(args, kwargs, result)
            return result

        return traced

    def _after_hook(self, name: str):
        if name == "filtering.gaussian_poisson_sampler":
            # the per-particle sampler closure is where the draw time goes
            return lambda a, k, sampler: self._wrap("filtering.sampler", sampler)
        if name in SWEEPS:
            def steps(a, k, res):
                meta = getattr(res, "driver_meta", None)
                if meta and "grid_points" in meta:
                    self.counts["filtering.particle_steps"] += (
                        res.particles * (meta["grid_points"] - 1))
                return res
            return steps
        if name == "lift.rho_p":
            def cells(a, k, res):
                m = merged_length(a[0], a[1])
                self.counts["lift.rho_p.dp_cells"] += m * (m - 1) // 2
                return res
            return cells
        return None

    def _note_error(self, name: str, exc: BaseException):
        # an abort passes through every enclosing sweep span; count it once
        if (name in SWEEPS and type(exc).__name__ in ABORT_ERRORS
                and exc not in self._seen_aborts):
            self._seen_aborts.add(exc)
            self.counts["filtering.aborts"] += 1

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap the modules' public callables on every binding."""
        pkg = importlib.import_module("roughfilter")
        mods = [pkg] + [importlib.import_module(f"roughfilter.{m}") for m in MODULES]
        replaced = {}
        for mod in mods[1:]:
            for name, owner, attr, orig in _targets(mod):
                wrapper = self._wrap(name, orig)
                replaced[id(orig)] = (orig, wrapper)
                self._installed.append((owner, attr, orig))
                setattr(owner, attr, wrapper)
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if id(value) in replaced and value is replaced[id(value)][0]:
                    self._installed.append((mod, attr, value))
                    setattr(mod, attr, replaced[id(value)][1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in replaced and item is replaced[id(item)][0]:
                            self._installed.append((value, key, item))
                            value[key] = replaced[id(item)][1]
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._installed):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._installed.clear()

    # -- results ---------------------------------------------------------

    def module_self_s(self) -> dict:
        out = {m: 0.0 for m in MODULES}
        for name, s in self.self_s.items():
            out[name.split(".", 1)[0]] += s
        return out

    def write_spans(self, path: str):
        """One CSV row per recorded span, times in seconds from reset()."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["span", "parent", "name", "start_s", "end_s"])
            for i in range(len(self.span_id)):
                w.writerow([self.span_id[i], self.span_parent[i],
                            self.names[self.span_name[i]],
                            repr(self.span_start[i]), repr(self.span_end[i])])
        return len(self.span_id)


def layer_metrics(tracer: Tracer, rounds: int, artifact_bytes: float) -> dict:
    """Per-layer metrics of one traced run, per round of the workload."""
    per = 1.0 / rounds
    mod_self = tracer.module_self_s()
    total_self = sum(mod_self.values())
    calls, timers, counts = tracer.calls, tracer.timers, tracer.counts
    out = {}
    for m in MODULES:
        out[f"{m}.self_s"] = (mod_self[m] * per, "s")
    for m in MODULES:
        out[f"{m}.share"] = (mod_self[m] / total_self if total_self else 0.0, "frac")

    def n(name):
        return calls.get(name, 0)

    sweep_s = timers.get("filtering.sweep", 0.0)
    davie = n("rde.davie_step")
    out.update({
        "filtering.sweeps": (sum(n(s) for s in SWEEPS) * per, "count"),
        "filtering.particle_steps": (counts["filtering.particle_steps"] * per, "count"),
        "filtering.particle_steps_per_s": (
            counts["filtering.particle_steps"] / sweep_s if sweep_s else 0.0, "1/s"),
        "filtering.sampler.calls": (n("filtering.sampler") * per, "count"),
        "filtering.sampler.s": (timers.get("filtering.sampler", 0.0) * per, "s"),
        "filtering.flow_map.calls": (n("filtering.flow_map") * per, "count"),
        "filtering.flow_map.s": (timers["filtering.flow_map"] * per, "s"),
        "filtering.aborts": (counts["filtering.aborts"] * per, "count"),
        "rde.davie_step.calls": (davie * per, "count"),
        "rde.davie_step.s": (timers["rde.davie_step"] * per, "s"),
        "rde.field_evals": (n(FIELD_EVAL) * per, "count"),
        "rde.field_evals_per_davie_step": (
            counts["rde.field_evals_in_davie_step"] / davie if davie else 0.0,
            "evals/step"),
        "rde.marcus_jump.calls": (n("rde.marcus_jump") * per, "count"),
        "rde.marcus_jump.s": (timers["rde.marcus_jump"] * per, "s"),
        "rde.solve_canonical_rde.s": (timers["rde.solve_canonical_rde"] * per, "s"),
        "sim.h_function.calls": (n("sim.h_function") * per, "count"),
        "sim.h_function.s": (timers["sim.h_function"] * per, "s"),
        "sim.simulate.s": (timers["sim.simulate"] * per, "s"),
        "lift.rho_p.calls": (n("lift.rho_p") * per, "count"),
        "lift.rho_p.s": (timers["lift.rho_p"] * per, "s"),
        "lift.rho_p.dp_cells": (counts["lift.rho_p.dp_cells"] * per, "count"),
        "lift.running_at.s": (timers["lift.RoughPath.running_at"] * per, "s"),
        "lift.lifts.s": (timers["lift.lifts"] * per, "s"),
        "tensor_group.group_elements": (n("tensor_group.GroupElement.__init__") * per, "count"),
        "tensor_group.group_log.calls": (n("tensor_group.group_log") * per, "count"),
        "tensor_group.ops.s": (timers["tensor_group.ops"] * per, "s"),
        "fillin.build_representative.calls": (n("fillin.build_representative") * per, "count"),
        "fillin.build_representative.s": (timers["fillin.build_representative"] * per, "s"),
        "fillin.path_function.calls": (n("fillin.PathFunction.__call__") * per, "count"),
        "paths.skorokhod_sigma_p.s": (timers["paths.skorokhod_sigma_p"] * per, "s"),
        "paths.p_variation.s": (timers["paths.p_variation"] * per, "s"),
        "paths.cadlag_paths": (n("paths.CadlagPath.__init__") * per, "count"),
        "cli.artifact_bytes": (artifact_bytes * per, "bytes"),
    })
    return out
