"""The benchmark's three workloads.

A workload builds its inputs from the workload seed in `setup()`, runs one
warm-up unit in `warmup()`, and hands out rounds of units. A unit is one
public call into roughfilter (one `theta`, one `beta_p`, one CLI command);
every round holds each unit kind once, on one of the workload's input sets.
Round r uses input set r % cycle, so a cycle of `cycle` rounds runs every
input set once. Each unit's output is checked right after the call, outside
its timed span, and a failed check counts the unit as failed.

Each workload also names, in `layer_spans`, the per-layer metrics it should
move and the tracer wrappers behind each of them. A traced run fails if one
of those wrappers was never entered, so a binding the tracer missed cannot
make a metric read zero without notice.

Units call roughfilter through module attributes (`filtering.theta`, not a
name bound at import), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np

from roughfilter import cli, fillin, filtering, lift, paths, sim

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass(frozen=True)
class Unit:
    kind: str
    call: Callable[[], object]
    # check(output) -> (problem or None, digest of the output, info dict)
    check: Callable[[object], tuple]


def _seeds(seed: int, stream: int, n: int) -> list:
    rng = np.random.default_rng([int(seed), stream])
    return [int(s) for s in rng.integers(0, 2**31 - 1, n)]


# -- filter_sweep -------------------------------------------------------------

MODELS = ("linear_gaussian", "scalar_jump_diffusion",
          "correlated_jump_multidim", "stable_shot_noise")
STABLE_EPSILON = 0.05
# Rough and direct routes discretize the same conditional expectation
# differently; they must agree within this many combined standard errors.
Z_MAX = 4.0


def missing_spans(layer_spans, calls: dict) -> list:
    """'<wrapper> (<metrics>)' for each wrapper of `layer_spans` that
    `calls` never counted."""
    return [f"{span} ({', '.join(metrics)})" for metrics, spans in layer_spans
            for span in spans if not calls.get(span)]


def _estimate_problem(res) -> str | None:
    vals = (res.theta, res.theta_se, res.g_f.value, res.g_f.stderr,
            res.g_1.value, res.g_1.stderr)
    if not all(math.isfinite(v) for v in vals):
        return f"non-finite estimate {vals}"
    if not res.g_1.value > 0.0:
        return f"g_1 = {res.g_1.value} is not positive"
    return None


def _estimate_digest(res) -> str:
    return repr((res.theta, res.theta_se, res.g_f.value, res.g_1.value))


class FilterSweep:
    """theta on the four catalog models, the direct reference filter on each,
    and the scalar flow route on linear_gaussian, per observation seed."""

    name = "filter_sweep"
    # Highest percentile with at least ten units beyond it in one cycle of
    # four rounds (36 units).
    tail_percentile = 72
    layer_spans = (
        (("filtering.sweeps", "filtering.particle_steps",
          "filtering.particle_steps_per_s"),
         ("filtering.theta", "filtering.direct_reference_filter",
          "filtering.scalar_flow_filter_detail")),
        (("filtering.sampler.calls", "filtering.sampler.s"), ("filtering.sampler",)),
        (("filtering.flow_map.calls", "filtering.flow_map.s"), ("filtering.flow_map",)),
        (("rde.davie_step.calls", "rde.davie_step.s", "rde.field_evals",
          "rde.field_evals_per_davie_step"),
         ("rde.davie_step", "rde.VectorField.jac", "rde.VectorField.__call__")),
        (("rde.marcus_jump.calls", "rde.marcus_jump.s"), ("rde.marcus_jump",)),
        (("sim.h_function.calls", "sim.h_function.s"), ("sim.h_function",)),
        (("sim.simulate.s",), ("sim.reconstruct_wtilde",)),
    )

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.steps = 16 if tiny else 128
        self.particles = 64 if tiny else 2000
        self.flow_particles = 32 if tiny else 500
        self.obs_seeds = _seeds(seed, 1, 1 if tiny else 4)
        self.cycle = len(self.obs_seeds)
        self.seed_base = _seeds(seed, 2, 1)[0] % 10**8
        self.f = filtering.FUNCTION_CATALOG["identity"]

    def setup(self):
        self.models = {m: sim.get_model(m) for m in MODELS}
        self.observations = [
            {m: filtering.realized_observation(
                model, 1.0, self.steps, s,
                epsilon=STABLE_EPSILON if model.regime == "infinite_jumps" else None)
             for m, model in self.models.items()}
            for s in self.obs_seeds]

    def warmup(self):
        obs = self.observations[0]["linear_gaussian"]
        filtering.theta(self.models["linear_gaussian"], self.f, obs["driver"],
                        obs["jump_record"], 1.0, self.particles, 1)

    def round(self, r: int) -> list:
        observations = self.observations[r % self.cycle]
        base = self.seed_base + 100_003 * r
        rough = {}  # model -> theta result of this round, for the cross-checks
        units = []
        for m in MODELS:
            model, obs = self.models[m], observations[m]

            def run_theta(model=model, obs=obs):
                return filtering.theta(model, self.f, obs["driver"],
                                       obs["jump_record"], 1.0,
                                       self.particles, base)

            def check_theta(res, m=m):
                problem = _estimate_problem(res)
                if problem is None:
                    rough[m] = res
                return problem, _estimate_digest(res), {}

            units.append(Unit(f"theta.{m}", run_theta, check_theta))
        for m in MODELS:
            model, obs = self.models[m], observations[m]

            def run_direct(model=model, obs=obs):
                return filtering.direct_reference_filter(
                    model, self.f, obs["Y"], obs["atoms"], 1.0,
                    self.particles, base)

            units.append(Unit(f"direct.{m}", run_direct,
                              self._agreement_check(rough, m)))
        lg, obs = self.models["linear_gaussian"], observations["linear_gaussian"]

        def run_flow():
            return filtering.scalar_flow_filter_detail(
                lg, self.f, obs["Y"], self.flow_particles, base, obs["atoms"])

        units.append(Unit("flow.linear_gaussian", run_flow,
                          self._agreement_check(rough, "linear_gaussian")))
        return units

    @staticmethod
    def _agreement_check(rough: dict, m: str):
        def check(res):
            problem = _estimate_problem(res)
            if problem is None:
                ref = rough.get(m)
                if ref is None:
                    problem = "no valid rough theta to compare against"
                else:
                    z = abs(res.theta - ref.theta) / math.hypot(res.theta_se, ref.theta_se)
                    if not z <= Z_MAX:
                        problem = (f"theta {res.theta} vs rough {ref.theta}: "
                                   f"{z:.2f} combined SE apart (limit {Z_MAX})")
            return problem, _estimate_digest(res), {}
        return check

    def close(self):
        pass

    @staticmethod
    def layer_expectations(layers: dict) -> list:
        share = sum(layers[f"{m}.share"][0] for m in ("filtering", "rde", "sim"))
        return [("filtering+rde+sim share > 0.9", share, share > 0.9,
                 "time outside the particle sweep's layers went up")]


# -- rough_metrics ------------------------------------------------------------

P = 2.5
REFERENCE_SEED = 20261017  # fixed input of the golden units, any workload seed


def _brownian(seed: int, level: int):
    n = 2 ** level
    rng = np.random.default_rng(seed)
    w = np.concatenate([[0.0], np.cumsum(rng.standard_normal(n) / math.sqrt(n))])
    return np.linspace(0.0, 1.0, n + 1), w


def _interpolant_lifts(t_fine, w, mesh: int):
    """Stratonovich lift of the linear interpolant and Marcus lift of the
    rectangular interpolant of w sampled at `mesh` equal steps."""
    sub = np.linspace(0.0, 1.0, mesh + 1)
    v = np.interp(sub, t_fine, w)
    lin = paths.CadlagPath(sub, v[:, None], None, "linear")
    pre = np.concatenate([v[:1], v[:-1]])
    rect = paths.CadlagPath(sub, v[:, None], pre[:, None], "constant")
    return lift.stratonovich_lift(lin), lift.marcus_lift(rect)


def _dyadic_lift(t_fine, w, level: int):
    tk = np.linspace(0.0, 1.0, 2 ** level + 1)
    return lift.stratonovich_lift(
        paths.CadlagPath(tk, np.interp(tk, t_fine, w)[:, None], None, "linear"))


def _load_golden() -> dict:
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        return json.load(fh)


class RoughMetrics:
    """beta_p between linear and rectangular interpolant lifts at meshes
    16-256, rho_p at merged lengths 1025 and 2049 on Wong-Zakai dyadic and
    interpolant lifts, alpha_p at mesh 8, and two golden units on a fixed
    input."""

    name = "rough_metrics"
    # 11 units a round, one cycle of three rounds (33 units).
    tail_percentile = 69
    # lift.lifts.s is not here: the lifts are built in set-up
    layer_spans = (
        (("fillin.self_s",), ("fillin.beta_p", "fillin.alpha_p")),
        (("lift.rho_p.calls", "lift.rho_p.s", "lift.rho_p.dp_cells"), ("lift.rho_p",)),
        (("lift.running_at.s",), ("lift.RoughPath.running_at",)),
        (("tensor_group.group_elements",), ("tensor_group.GroupElement.__init__",)),
        (("tensor_group.group_log.calls", "tensor_group.ops.s"),
         ("tensor_group.group_log", "tensor_group.group_mul")),
        (("fillin.build_representative.calls", "fillin.build_representative.s"),
         ("fillin.build_representative",)),
        (("fillin.path_function.calls",), ("fillin.PathFunction.__call__",)),
        (("paths.skorokhod_sigma_p.s",), ("paths.skorokhod_sigma_p",)),
        (("paths.p_variation.s",), ("paths.p_variation_of_points",)),
        (("paths.cadlag_paths",), ("paths.CadlagPath.__init__",)),
    )

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.fine_level = 6 if tiny else 11
        self.beta_meshes = (4, 8) if tiny else (16, 64, 256)
        self.deltas = (1.0, 0.5) if tiny else (1.0, 0.5, 0.25, 0.125)
        self.alpha_mesh = 4 if tiny else 8
        self.alpha_deltas = (1.0,) if tiny else (1.0, 0.5)
        # (coarse, fine) dyadic levels: merged lengths 2^fine + 1
        self.wz_levels = ((2, 5), (5, 6)) if tiny else ((5, 10), (10, 11))
        self.interp_mesh = 16 if tiny else 512
        self.input_seeds = _seeds(seed, 3, 1 if tiny else 3)
        self.cycle = len(self.input_seeds)

    def _inputs(self, seed: int) -> dict:
        t, w = _brownian(seed, self.fine_level)
        pair = fillin.AdmissiblePair
        out = {"beta": {}, "wz": {}}
        for mesh in self.beta_meshes:
            L, R = _interpolant_lifts(t, w, mesh)
            out["beta"][mesh] = (pair(L), pair(R))
        L, R = _interpolant_lifts(t, w, self.alpha_mesh)
        out["alpha"] = (pair(L), pair(R))
        dyadic = {lev: _dyadic_lift(t, w, lev)
                  for levs in self.wz_levels for lev in levs}
        for coarse, fine in self.wz_levels:
            out["wz"][2 ** fine + 1] = (dyadic[coarse], dyadic[fine])
        out["interp"] = _interpolant_lifts(t, w, self.interp_mesh)
        out["self"] = dyadic[self.wz_levels[-1][1]]
        return out

    def setup(self):
        self.golden = _load_golden()
        self.inputs = [self._inputs(s) for s in self.input_seeds]
        t, w = _brownian(REFERENCE_SEED, 11)
        L, R = _interpolant_lifts(t, w, 16)
        self.reference = {
            "beta_p_mesh16": (fillin.AdmissiblePair(L), fillin.AdmissiblePair(R)),
            "rho_p_wz_1025": (_dyadic_lift(t, w, 5), _dyadic_lift(t, w, 10)),
        }

    def warmup(self):
        X, Y = self.inputs[0]["beta"][self.beta_meshes[0]]
        fillin.beta_p(X, Y, P, delta_seq=self.deltas)

    def round(self, r: int) -> list:
        inp = self.inputs[r % self.cycle]
        seen = {}
        units = []
        for mesh, (X, Y) in inp["beta"].items():
            units.append(Unit(
                f"beta_p.mesh{mesh}",
                lambda X=X, Y=Y: fillin.beta_p(X, Y, P, delta_seq=self.deltas),
                _sweep_check))
        X, Y = inp["alpha"]
        units.append(Unit(
            f"alpha_p.mesh{self.alpha_mesh}",
            lambda X=X, Y=Y: fillin.alpha_p(X, Y, P, delta_seq=self.alpha_deltas),
            _sweep_check))
        for m, (A, B) in inp["wz"].items():
            units.append(Unit(f"rho_p.wz{m}", lambda A=A, B=B: lift.rho_p(A, B, P),
                              _distance_check(seen, f"wz{m}")))
        L, R = inp["interp"]
        m = 2 * self.interp_mesh + 1
        units.append(Unit(f"rho_p.interp{m}", lambda L=L, R=R: lift.rho_p(L, R, P),
                          _distance_check(seen, "interp")))
        units.append(Unit(f"rho_p.interp{m}.swapped",
                          lambda L=L, R=R: lift.rho_p(R, L, P),
                          _distance_check(seen, "swapped", equal_to="interp")))
        S = inp["self"]
        units.append(Unit(f"rho_p.self{len(S.times)}", lambda S=S: lift.rho_p(S, S, P),
                          _distance_check(seen, "self", zero=True)))
        X, Y = self.reference["beta_p_mesh16"]
        units.append(Unit(
            "golden.beta_p_mesh16",
            lambda X=X, Y=Y: fillin.beta_p(X, Y, P, delta_seq=(1.0, 0.5, 0.25, 0.125)),
            _golden_check(self.golden["beta_p_mesh16"], lambda s: s.estimate)))
        A, B = self.reference["rho_p_wz_1025"]
        units.append(Unit("golden.rho_p_wz_1025", lambda A=A, B=B: lift.rho_p(A, B, P),
                          _golden_check(self.golden["rho_p_wz_1025"], float)))
        return units

    def close(self):
        pass

    @staticmethod
    def layer_expectations(layers: dict) -> list:
        return [(f"{m} share == 0", layers[f"{m}.share"][0],
                 layers[f"{m}.share"][0] == 0.0, "a metric now calls into it")
                for m in ("filtering", "rde", "sim")]


def _sweep_check(sweep):
    vals = [v for _, v in sweep.per_delta]
    if not all(math.isfinite(v) and v >= 0.0 for v in vals):
        return f"per-delta values {vals} not finite and >= 0", repr(sweep.per_delta), {}
    return None, repr(sweep.per_delta), {}


def _distance_check(seen: dict, key: str, equal_to: str = None, zero: bool = False):
    def check(value):
        value = float(value)
        problem = None
        if not (math.isfinite(value) and value >= 0.0):
            problem = f"distance {value} is not finite and >= 0"
        elif zero and value != 0.0:
            problem = f"rho_p(X, X) = {value}, expected 0"
        elif equal_to is not None and seen.get(equal_to) != value:
            problem = f"rho_p(Y, X) = {value} differs from rho_p(X, Y) = {seen.get(equal_to)}"
        seen[key] = value
        return problem, repr(value), {}
    return check


def _golden_check(expected: float, value_of):
    def check(out):
        value = float(value_of(out))
        problem = None
        if not abs(value - expected) <= 1e-9 * abs(expected):
            problem = f"value {value!r} differs from the recorded {expected!r}"
        return problem, repr(value), {}
    return check


# -- cli_pipelines ------------------------------------------------------------

# (kind, argv) of one round; every command gets --seed and --out added.
CLI_COMMANDS = (
    ("robustness", ["robustness", "--model", "scalar_jump_diffusion"]),
    ("consistency.scalar_jump_diffusion",
     ["consistency", "--model", "scalar_jump_diffusion", "--n-seeds", "2"]),
    ("consistency.stable_shot_noise",
     ["consistency", "--model", "stable_shot_noise", "--n-seeds", "2"]),
    ("metrics", ["metrics"]),
    ("rde", ["rde"]),
    ("filter", ["filter", "--particles", "20000"]),
    ("simulate", ["simulate"]),
    ("lift", ["lift"]),
    ("wongzakai", ["wongzakai"]),
)
CLI_TINY = {
    "robustness": ["--particles", "50", "--steps", "16", "--meshes", "4,8"],
    "consistency": ["--particles", "50", "--steps", "16"],
    "metrics": ["--steps", "32", "--meshes", "4,8", "--delta-seq", "1.0,0.5"],
    "rde": ["--steps", "16"],
    "filter": ["--particles", "200", "--steps", "16"],
    "simulate": ["--steps", "16"],
    "lift": ["--steps", "16"],
    "wongzakai": ["--levels", "3"],
}
VERDICT_FIELDS = ("trend_non_increasing", "final_gap_within_3se",
                  "all_pass", "n_pass", "n_seeds")


class CliPipelines:
    """In-process `roughfilter.cli.main` calls of all eight commands, with
    --out in a scratch directory of the run."""

    name = "cli_pipelines"
    # 9 units a round, one cycle of three rounds (27 units).
    tail_percentile = 62
    layer_spans = (
        (("cli.self_s", "cli.artifact_bytes"), ("cli.main", "cli.run")),
        (("filtering.sweeps", "filtering.particle_steps",
          "filtering.particle_steps_per_s"),
         ("filtering.robustness_experiment", "filtering.robust_consistency_check",
          "filtering.theta", "filtering.direct_reference_filter")),
        (("filtering.sampler.calls", "filtering.sampler.s"), ("filtering.sampler",)),
        (("rde.davie_step.calls", "rde.davie_step.s"), ("rde.davie_step",)),
        (("rde.marcus_jump.calls", "rde.marcus_jump.s"), ("rde.marcus_jump",)),
        (("rde.solve_canonical_rde.s",), ("rde.solve_canonical_rde",)),
        (("sim.simulate.s",),
         ("sim.make_noise_bundle", "sim.simulate_pair", "sim.reconstruct_wtilde")),
        (("lift.rho_p.calls", "lift.rho_p.s", "lift.rho_p.dp_cells"), ("lift.rho_p",)),
        (("lift.lifts.s",), ("lift.stratonovich_lift", "lift.marcus_lift")),
        (("fillin.self_s",), ("fillin.beta_p",)),
        (("fillin.build_representative.calls", "fillin.build_representative.s",
          "fillin.path_function.calls"),
         ("fillin.build_representative", "fillin.PathFunction.__call__")),
    )

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.tiny = tiny
        self.cli_seeds = [s % 10**6 for s in _seeds(seed, 4, 1 if tiny else 3)]
        self.cycle = len(self.cli_seeds)
        self.out_root = os.path.join(workdir, "cli")

    def setup(self):
        os.makedirs(self.out_root, exist_ok=True)

    def _argv(self, argv: list, seed: int, out: str) -> list:
        extra = CLI_TINY[argv[0]] if self.tiny else []
        return argv + extra + ["--seed", str(seed), "--out", out]

    def warmup(self):
        out = os.path.join(self.out_root, "warmup")
        cli.main(self._argv(["simulate"], 0, out))
        shutil.rmtree(out, ignore_errors=True)

    def round(self, r: int) -> list:
        seed = self.cli_seeds[r % self.cycle]
        units = []
        for kind, argv in CLI_COMMANDS:
            out = os.path.join(self.out_root, f"r{r}-{kind}")
            units.append(Unit(kind, lambda a=self._argv(argv, seed, out): cli.main(a),
                              _artifact_check(argv[0], out)))
        return units

    def close(self):
        shutil.rmtree(self.out_root, ignore_errors=True)

    @staticmethod
    def layer_expectations(layers: dict) -> list:
        mj, ds = layers["rde.marcus_jump.s"][0], layers["rde.davie_step.s"][0]
        return [("rde.marcus_jump.s / rde.davie_step.s > 1",
                 mj / ds if ds else math.inf, mj > ds,
                 "Marcus jumps run only in robustness (rectangular lifts) and "
                 "on the stable driver, while the 20k-particle filter, both "
                 "consistency runs and rde take Davie steps on jump-free "
                 "drivers; robustness alone spends more in marcus_jump")]


def _artifact_check(command: str, out: str):
    """Exit code 0; <command>.csv has a header and rows; <command>.json and
    the manifest parse; verdict fields of the payload are recorded."""

    def check(rc):
        info = {"artifact_bytes": sum(
            os.path.getsize(os.path.join(out, f)) for f in os.listdir(out))
            if os.path.isdir(out) else 0}
        digest = hashlib.sha256()
        problem = None
        try:
            if rc != 0:
                raise ValueError(f"exit code {rc}")
            with open(os.path.join(out, f"{command}.csv"), encoding="utf-8") as fh:
                text = fh.read()
            rows = list(csv.DictReader(text.splitlines()))
            if not rows or not rows[0]:
                raise ValueError(f"{command}.csv has no rows")
            with open(os.path.join(out, f"{command}.json"), encoding="utf-8") as fh:
                payload_text = fh.read()
            payload = json.loads(payload_text)
            with open(os.path.join(out, f"{command}_manifest.json"), encoding="utf-8") as fh:
                json.load(fh)
            # the manifest carries the wall time and the output path, so it
            # is left out of the digest
            digest.update(text.encode())
            digest.update(payload_text.encode())
            verdicts = {k: payload[k] for k in VERDICT_FIELDS if k in payload}
            if verdicts:
                info["verdicts"] = verdicts
        except (OSError, ValueError) as exc:
            problem = str(exc)
        shutil.rmtree(out, ignore_errors=True)
        return problem, digest.hexdigest(), info

    return check


WORKLOADS = {w.name: w for w in (FilterSweep, RoughMetrics, CliPipelines)}


def make(name: str, seed: int, tiny: bool, workdir: str):
    return WORKLOADS[name](seed, tiny, workdir)
