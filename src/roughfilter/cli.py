"""Command-line driver: pick a catalog model, run one named pipeline, and
write plot-ready CSV/JSON artifacts plus a manifest.

Artifacts go to --out (or $ROUGHFILTER_OUT, or the working directory). Every
CSV row carries seed, mesh, and norm provenance columns; CSV output is UTF-8
with "\n" line endings and "." decimals. The manifest echoes the full
configuration, so re-running with --config <manifest> reproduces the numeric
artifacts byte for byte. Particle sweeps are vectorized internally; mesh and
seed sweeps run in order and output writing is single-threaded.

Exit codes: 0 success, 2 validation failure, 3 numerical abort.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__
from .fillin import DELTA_SEQ, AdmissiblePair, beta_p
from .filtering import (
    ABORT_LOG_WEIGHT,
    AUX_STREAM,
    FUNCTION_CATALOG,
    _joint_field,
    mesh_lifts,
    realized_observation,
    robust_consistency_check,
    robustness_experiment,
    theta,
    trend_non_increasing,
)
from .lift import rho_p, stratonovich_lift, write_rough_path_json
from .paths import P_VAR, CadlagPath
from .rde import NumericalAbort, solve_canonical_rde
from .sim import MODEL_BUILDERS, get_model

@dataclass(frozen=True)
class RunConfig:
    command: str
    model_id: str = "linear_gaussian"
    T: float = 1.0
    steps: int = 128
    particles: int = 1000
    p: float = P_VAR
    alpha: float = None  # type: ignore[assignment]
    epsilon: float = None  # type: ignore[assignment]
    meshes: tuple = (4, 8, 16, 32, 64)
    delta_seq: tuple = DELTA_SEQ
    seed: int = 0
    out: str = None  # type: ignore[assignment]
    f_name: str = "identity"
    levels: int = 5
    n_seeds: int = 5
    abort_log_weight: float = ABORT_LOG_WEIGHT

    def validate(self) -> None:
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.model_id not in MODEL_BUILDERS:
            raise ValueError(f"unknown model {self.model_id!r}; "
                             f"available: {sorted(MODEL_BUILDERS)}")
        if not self.T > 0:
            raise ValueError(f"T must be positive, got {self.T}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.particles < 1:
            raise ValueError(f"particles must be >= 1, got {self.particles}")
        if not 2.0 <= self.p < 3.0:
            raise ValueError(f"p must lie in [2, 3), got {self.p}")
        if self.f_name not in FUNCTION_CATALOG:
            raise ValueError(f"unknown test function {self.f_name!r}; "
                             f"available: {sorted(FUNCTION_CATALOG)}")
        if self.epsilon is not None and not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.alpha is not None and not 0.0 < self.alpha < 2.0:
            raise ValueError(f"alpha must lie in (0, 2), got {self.alpha}")
        if not self.meshes or any(int(m) < 1 for m in self.meshes):
            raise ValueError("meshes must be a non-empty list of positive ints")
        ds = tuple(float(d) for d in self.delta_seq)
        if not ds or any(d2 >= d1 for d1, d2 in zip(ds, ds[1:])):
            raise ValueError("delta_seq must be non-empty and strictly decreasing")
        if self.levels < 2:
            raise ValueError(f"levels must be >= 2, got {self.levels}")
        if self.n_seeds < 1:
            raise ValueError(f"n_seeds must be >= 1, got {self.n_seeds}")

    def out_dir(self) -> str:
        return self.out or os.environ.get("ROUGHFILTER_OUT") or "."


# -- config file handling ---------------------------------------------------


def _parse_scalar(text: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, ValueError):
        return text


def _parse_listish(value, cast):
    if isinstance(value, str):
        parts = [v for v in value.split(",") if v.strip()]
        return tuple(cast(v) for v in parts)
    return tuple(cast(v) for v in value)


def load_config_file(path: str) -> dict:
    """A flat key=value file, or a previously emitted JSON manifest (its
    `config` block is used)."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        obj = None
    if isinstance(obj, dict):
        return dict(obj.get("config", obj))
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line without '=': {line!r}")
        key, _, val = line.partition("=")
        out[key.strip()] = _parse_scalar(val.strip())
    return out


def build_config(command: str, file_values: dict, flag_values: dict) -> RunConfig:
    merged = {f.name: f.default for f in fields(RunConfig) if f.name != "command"}
    for src in (file_values, flag_values):
        for key, val in src.items():
            if val is None:
                continue
            if key == "command":
                continue
            if key not in merged:
                raise ValueError(f"unknown config key {key!r}")
            merged[key] = val
    merged["meshes"] = _parse_listish(merged["meshes"], int)
    merged["delta_seq"] = _parse_listish(merged["delta_seq"], float)
    cfg = RunConfig(command=command, **merged)
    cfg.validate()
    return cfg


# -- artifact writing -------------------------------------------------------


def _write_csv(path: str, rows: list, columns: list) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _model_for(cfg: RunConfig):
    if cfg.model_id == "stable_shot_noise" and cfg.alpha is not None:
        return get_model(cfg.model_id, alpha=cfg.alpha)
    return get_model(cfg.model_id)


def _epsilon_for(cfg: RunConfig, model):
    if model.regime == "infinite_jumps":
        return cfg.epsilon if cfg.epsilon is not None else 0.05
    return cfg.epsilon


def _observation(cfg: RunConfig, model) -> dict:
    return realized_observation(model, cfg.T, cfg.steps, cfg.seed,
                                epsilon=_epsilon_for(cfg, model))


def _time_rows(cfg: RunConfig, times, columns: dict) -> list:
    """One CSV row per time: the provenance columns, the time, then each
    named column's entry at it."""
    return [{"seed": cfg.seed, "mesh": cfg.steps, "norm": "none", "time": float(t),
             **{name: col[i] for name, col in columns.items()}}
            for i, t in enumerate(times)]


def _require_finite_regime(cfg: RunConfig, model):
    if model.regime == "infinite_jumps":
        raise ValueError(
            f"command {cfg.command!r} subsamples a scalar Brownian input and "
            "needs a finite-activity model")


# -- pipelines --------------------------------------------------------------


def _run_simulate(cfg: RunConfig, model, out_dir):
    obs = _observation(cfg, model)
    xv, yv = obs["X"].values, obs["Y"].values
    rows = _time_rows(cfg, obs["X"].times, {
        **{f"x{j}": xv[:, j] for j in range(xv.shape[1])},
        **{f"y{j}": yv[:, j] for j in range(yv.shape[1])},
        "wtilde": obs["wtilde"].values[:, 0]})
    payload = {
        "model_id": model.model_id, "seed": cfg.seed, "T": cfg.T,
        "steps": cfg.steps,
        "atoms": [[at, mark] for at, mark in zip(*(a.tolist() for a in obs["atoms"]))],
        "terminal_x": [float(v) for v in xv[-1]],
        "terminal_y": [float(v) for v in yv[-1]],
    }
    return rows, list(rows[0]), payload, "none"


def _run_lift(cfg: RunConfig, model, out_dir):
    drv = _observation(cfg, model)["driver"]
    write_rough_path_json(drv, os.path.join(out_dir, "lift_rough_path.json"))
    d = drv.dim
    rows = _time_rows(cfg, drv.times, {
        "jump": drv.jump_flags.astype(int),
        **{f"l1_{a}": drv.level1[:, a] for a in range(d)},
        **{f"l2_{a}{b}": drv.level2[:, a, b] for a in range(d) for b in range(d)}})
    payload = {"model_id": model.model_id, "seed": cfg.seed, "dim": d,
               "grid_points": len(drv.times),
               "jumps": int(np.sum(drv.jump_flags))}
    return rows, list(rows[0]), payload, "none"


def _run_metrics(cfg: RunConfig, model, out_dir):
    _require_finite_regime(cfg, model)
    obs = _observation(cfg, model)
    rows = []
    for mesh in cfg.meshes:
        L, R = mesh_lifts(obs, cfg.T, mesh)
        rows.append({"seed": cfg.seed, "mesh": int(mesh), "norm": "rho_p",
                     "value": rho_p(L, R, cfg.p)})
        sweep = beta_p(AdmissiblePair(L), AdmissiblePair(R), cfg.p,
                       delta_seq=cfg.delta_seq)
        rows.append({"seed": cfg.seed, "mesh": int(mesh), "norm": "beta_p",
                     "value": sweep.estimate})
    payload = {"model_id": model.model_id, "p": cfg.p,
               "delta_seq": list(cfg.delta_seq),
               "meshes": [int(m) for m in cfg.meshes]}
    return rows, ["seed", "mesh", "norm", "value"], payload, "rho_p+beta_p"


def _run_rde(cfg: RunConfig, model, out_dir):
    drv = _observation(cfg, model)["driver"]
    V = _joint_field(model, drv.dim)
    z0 = np.concatenate([np.array(model.x0), np.array(model.y0), [0.0]])
    sol = solve_canonical_rde(V, drv, z0, cfg.steps)
    rows = _time_rows(cfg, sol.times, {
        f"z{j}": sol.states[:, j] for j in range(sol.states.shape[1])})
    payload = {"model_id": model.model_id, "seed": cfg.seed,
               "terminal": [float(v) for v in sol.states[-1]],
               "scheme": dict(sol.scheme_meta)}
    return rows, list(rows[0]), payload, "none"


def _run_filter(cfg: RunConfig, model, out_dir):
    obs = _observation(cfg, model)
    f = FUNCTION_CATALOG[cfg.f_name]
    res = theta(model, f, obs["driver"], obs["jump_record"], cfg.T,
                cfg.particles, cfg.seed * 1000 + 17,
                abort_log_weight=cfg.abort_log_weight)
    row = {"seed": cfg.seed, "mesh": cfg.steps, "norm": "none",
           "f": cfg.f_name, "theta": res.theta, "theta_se": res.theta_se,
           "g_f": res.g_f.value, "g_f_se": res.g_f.stderr,
           "g_1": res.g_1.value, "g_1_se": res.g_1.stderr,
           "particles": cfg.particles}
    payload = {
        "model_id": model.model_id, "f": cfg.f_name, "t": cfg.T,
        "particles": cfg.particles, "seed": cfg.seed,
        "seed_base": res.seed_base, "theta": res.theta,
        "theta_se": res.theta_se,
        "g_f": {"value": res.g_f.value, "stderr": res.g_f.stderr,
                "n": res.g_f.n},
        "g_1": {"value": res.g_1.value, "stderr": res.g_1.stderr,
                "n": res.g_1.n},
        "driver_meta": res.driver_meta,
    }
    return [row], list(row), payload, "none"


def _run_robustness(cfg: RunConfig, model, out_dir):
    _require_finite_regime(cfg, model)
    f = FUNCTION_CATALOG[cfg.f_name]
    rows = robustness_experiment(model, f, cfg.T, list(cfg.meshes),
                                 particles=cfg.particles, seed_base=cfg.seed,
                                 truth_steps=cfg.steps, p=cfg.p,
                                 abort_log_weight=cfg.abort_log_weight)
    gaps = [r["gap"] for r in rows]
    slacks = [2.0 * r["combined_se"] for r in rows]
    trend = trend_non_increasing(gaps, slacks)
    final_ok = bool(gaps[-1] <= 3.0 * rows[-1]["combined_se"])
    payload = {"model_id": model.model_id, "f": cfg.f_name,
               "meshes": [int(m) for m in cfg.meshes],
               "particles": cfg.particles, "p": cfg.p,
               "trend_non_increasing": bool(trend),
               "final_gap_within_3se": final_ok,
               "rows": rows}
    cols = ["seed", "mesh", "norm", "theta_linear", "theta_rectangular",
            "gap", "driver_dist", "ratio", "se_linear", "se_rectangular",
            "combined_se", "particles"]
    return rows, cols, payload, "rho_p"


def _run_consistency(cfg: RunConfig, model, out_dir):
    f = FUNCTION_CATALOG[cfg.f_name]
    out = robust_consistency_check(
        model, f, cfg.T, cfg.particles,
        seeds=range(cfg.seed, cfg.seed + cfg.n_seeds), grid=cfg.steps,
        epsilon=_epsilon_for(cfg, model), abort_log_weight=cfg.abort_log_weight)
    rows = [{"seed": r["seed"], "mesh": cfg.steps, "norm": "none", **{
        k: r[k] for k in ("theta_rough", "theta_direct", "gap",
                          "combined_se", "pass")}} for r in out["rows"]]
    payload = {"model_id": model.model_id, "f": cfg.f_name,
               "particles": cfg.particles, "grid": cfg.steps,
               "n_pass": out["n_pass"], "n_seeds": out["n_seeds"],
               "all_pass": out["all_pass"], "rows": out["rows"]}
    return rows, list(rows[0]), payload, "none"


def _run_wongzakai(cfg: RunConfig, model, out_dir):
    rng = np.random.default_rng(cfg.seed)
    fine_level = cfg.levels + 2
    n_fine = 2 ** fine_level
    t_fine = np.linspace(0.0, cfg.T, n_fine + 1)
    dw = rng.standard_normal(n_fine) * np.sqrt(cfg.T / n_fine)
    w = np.concatenate([[0.0], np.cumsum(dw)])
    ref = stratonovich_lift(CadlagPath(t_fine, w[:, None], None, "linear"))
    rows = []
    dists = []
    for lev in range(1, cfg.levels + 1):
        n = 2 ** lev
        tk = np.linspace(0.0, cfg.T, n + 1)
        vk = np.interp(tk, t_fine, w)
        Xk = stratonovich_lift(CadlagPath(tk, vk[:, None], None, "linear"))
        d = rho_p(Xk, ref, cfg.p)
        dists.append(d)
        rows.append({"seed": cfg.seed, "mesh": n, "norm": "rho_p",
                     "level": lev, "dist_to_fine": d})
    payload = {"levels": cfg.levels, "p": cfg.p, "seed": cfg.seed,
               "distances": dists,
               "decreasing": bool(all(b < a for a, b in zip(dists, dists[1:])))}
    return rows, ["seed", "mesh", "norm", "level", "dist_to_fine"], payload, "rho_p"


# -- entry point ------------------------------------------------------------


_PIPELINES = {"lift": _run_lift, "metrics": _run_metrics, "rde": _run_rde,
              "simulate": _run_simulate, "filter": _run_filter,
              "robustness": _run_robustness, "consistency": _run_consistency,
              "wongzakai": _run_wongzakai}
COMMANDS = tuple(_PIPELINES)


def run(cfg: RunConfig) -> int:
    start = time.perf_counter()
    out_dir = cfg.out_dir()
    os.makedirs(out_dir, exist_ok=True)
    model = _model_for(cfg)
    base = os.path.join(out_dir, cfg.command)
    manifest = {
        "config": {**asdict(cfg),
                   "meshes": [int(m) for m in cfg.meshes],
                   "delta_seq": [float(d) for d in cfg.delta_seq]},
        "version": __version__,
        "aux_stream": AUX_STREAM,
    }
    try:
        rows, cols, payload, norm = _PIPELINES[cfg.command](cfg, model, out_dir)
    except NumericalAbort as exc:  # exit code 3, with an "aborted" manifest
        manifest.update(status="aborted", wall_time_s=time.perf_counter() - start,
                        error={"type": type(exc).__name__, "message": str(exc),
                               "diagnostics": dict(exc.diagnostics)})
        _write_json(base + "_manifest.json", manifest)
        raise

    _write_csv(base + ".csv", rows, cols)
    _write_json(base + ".json", payload)
    manifest.update(status="ok", norm=norm,
                    wall_time_s=time.perf_counter() - start)
    _write_json(base + "_manifest.json", manifest)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args leaves
    it as it was, so every main call reuses it."""
    parser = argparse.ArgumentParser(
        prog="roughfilter",
        description="Rough-path lifts, canonical RDEs and robust particle "
                    "filtering experiments on catalog models.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="flat key=value file or an emitted "
                                         "manifest to start from")
        sp.add_argument("--model", dest="model_id",
                        help="catalog model id")
        sp.add_argument("--T", type=float, help="time horizon")
        sp.add_argument("--steps", type=int, help="simulation grid steps")
        sp.add_argument("--particles", type=int)
        sp.add_argument("--p", type=float, help="p-variation exponent in [2,3)")
        sp.add_argument("--alpha", type=float,
                        help="stable tail index for stable_shot_noise")
        sp.add_argument("--epsilon", type=float,
                        help="small-jump truncation level")
        sp.add_argument("--meshes", help="comma-separated mesh list")
        sp.add_argument("--delta-seq", dest="delta_seq",
                        help="comma-separated decreasing delta sweep")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--out", help="output directory "
                                      "(default $ROUGHFILTER_OUT or '.')")
        sp.add_argument("--f", dest="f_name",
                        help="test function from the catalog")
        sp.add_argument("--levels", type=int,
                        help="number of dyadic levels (wongzakai)")
        sp.add_argument("--n-seeds", dest="n_seeds", type=int,
                        help="observation seeds to sweep (consistency)")
        sp.add_argument("--abort-log-weight", dest="abort_log_weight",
                        type=float, help="log-weight abort threshold")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    flag_values = {k: v for k, v in vars(args).items()
                   if k not in ("command", "config")}
    try:
        file_values = load_config_file(args.config) if args.config else {}
        cfg = build_config(args.command, file_values, flag_values)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(cfg)
    except NumericalAbort as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
