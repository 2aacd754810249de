"""End-to-end tests of the command-line driver: artifacts, provenance
columns, determinism, manifest round-trips, and exit codes."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import roughfilter
from roughfilter import cli
from roughfilter.cli import (
    COMMANDS,
    RunConfig,
    build_config,
    load_config_file,
    main,
)
from roughfilter.filtering import (
    AUX_STREAM,
    DegenerateWeightsError,
    ParticleBlowupError,
    WeightAbortError,
    realized_observation,
)
from roughfilter.lift import read_rough_path_json
from roughfilter.rde import NumericalAbort, RdeBlowupError
from roughfilter.sim import SimulationBlowupError, get_model


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- config handling --------------------------------------------------------


def test_config_defaults_and_validation():
    cfg = build_config("filter", {}, {})
    assert cfg.model_id == "linear_gaussian" and cfg.p == 2.5
    with pytest.raises(ValueError, match="unknown model"):
        build_config("filter", {}, {"model_id": "nope"})
    with pytest.raises(ValueError, match=r"p must lie"):
        build_config("metrics", {}, {"p": 1.5})
    with pytest.raises(ValueError, match="particles"):
        build_config("filter", {}, {"particles": 0})
    with pytest.raises(ValueError, match="T must"):
        build_config("filter", {}, {"T": -1.0})
    with pytest.raises(ValueError, match="delta_seq"):
        build_config("metrics", {}, {"delta_seq": "0.5,0.5"})
    with pytest.raises(ValueError, match="unknown config key"):
        build_config("filter", {"bogus": 1}, {})
    with pytest.raises(ValueError, match="unknown command"):
        build_config("nope", {}, {})
    for flags, match in (({"steps": 0}, "steps"), ({"f_name": "nope"}, "unknown test function"),
                         ({"epsilon": 0.0}, "epsilon"), ({"alpha": 2.0}, "alpha"),
                         ({"meshes": "4,0"}, "meshes"), ({"levels": 1}, "levels"),
                         ({"n_seeds": 0}, "n_seeds")):
        with pytest.raises(ValueError, match=match):
            build_config("filter", {}, flags)


def test_flat_config_file_with_flag_override(tmp_path):
    cfile = tmp_path / "run.cfg"
    cfile.write_text("# comment\nmodel_id = scalar_jump_diffusion\n"
                     "particles = 77\nmeshes = 4,8\n", encoding="utf-8")
    cfg = build_config("robustness", load_config_file(str(cfile)),
                       {"particles": 99})
    assert cfg.model_id == "scalar_jump_diffusion"
    assert cfg.particles == 99  # flag wins
    assert cfg.meshes == (4, 8)
    cfile.write_text("particles 77\n", encoding="utf-8")
    with pytest.raises(ValueError, match="without '='"):
        load_config_file(str(cfile))


def test_output_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("ROUGHFILTER_OUT", str(tmp_path / "envout"))
    cfg = RunConfig(command="filter")
    assert cfg.out_dir() == str(tmp_path / "envout")
    assert RunConfig(command="filter", out="x").out_dir() == "x"


# -- pipelines --------------------------------------------------------------


def test_filter_single_particle_reproducible(tmp_path):
    args = ["filter", "--model", "scalar_jump_diffusion", "--f", "identity",
            "--particles", "1", "--steps", "32", "--seed", "4"]
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(args + ["--out", out1]) == 0
    assert main(args + ["--out", out2]) == 0
    r1 = _read_json(os.path.join(out1, "filter.json"))
    r2 = _read_json(os.path.join(out2, "filter.json"))
    assert r1 == r2
    with open(os.path.join(out1, "filter.csv"), "rb") as fh:
        b1 = fh.read()
    with open(os.path.join(out2, "filter.csv"), "rb") as fh:
        b2 = fh.read()
    assert b1 == b2
    assert b"\r" not in b1  # plain \n line endings
    rows = _read_csv(os.path.join(out1, "filter.csv"))
    assert rows[0]["seed"] == "4" and rows[0]["norm"] == "none"


def test_robustness_artifacts_and_trend_flag(tmp_path):
    out = str(tmp_path / "rb")
    assert main(["robustness", "--model", "linear_gaussian",
                 "--meshes", "4,8", "--particles", "150", "--steps", "64",
                 "--out", out]) == 0
    rows = _read_csv(os.path.join(out, "robustness.csv"))
    assert [r["mesh"] for r in rows] == ["4", "8"]
    for r in rows:
        assert r["norm"] == "rho_p"
        assert float(r["driver_dist"]) > 0
        assert {"seed", "mesh", "norm"} <= set(r)
    payload = _read_json(os.path.join(out, "robustness.json"))
    assert isinstance(payload["trend_non_increasing"], bool)
    assert isinstance(payload["final_gap_within_3se"], bool)
    manifest = _read_json(os.path.join(out, "robustness_manifest.json"))
    assert manifest["norm"] == "rho_p" and manifest["status"] == "ok"
    assert manifest["config"]["meshes"] == [4, 8]
    assert "version" in manifest and manifest["wall_time_s"] > 0
    assert manifest["aux_stream"] == AUX_STREAM


def test_manifest_round_trip_bit_identical(tmp_path):
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert main(["metrics", "--model", "scalar_jump_diffusion",
                 "--meshes", "4,8", "--steps", "64", "--seed", "2",
                 "--out", out1]) == 0
    assert main(["metrics", "--config",
                 os.path.join(out1, "metrics_manifest.json"),
                 "--out", out2]) == 0
    for name in ("metrics.csv", "metrics.json"):
        with open(os.path.join(out1, name), "rb") as fh:
            b1 = fh.read()
        with open(os.path.join(out2, name), "rb") as fh:
            b2 = fh.read()
        assert b1 == b2, name


def test_wongzakai_distances_decrease(tmp_path):
    out = str(tmp_path / "wz")
    assert main(["wongzakai", "--levels", "5", "--seed", "3",
                 "--out", out]) == 0
    payload = _read_json(os.path.join(out, "wongzakai.json"))
    d = payload["distances"]
    assert len(d) == 5
    assert payload["decreasing"] == all(b < a for a, b in zip(d, d[1:]))
    rows = _read_csv(os.path.join(out, "wongzakai.csv"))
    assert rows[0]["norm"] == "rho_p" and rows[-1]["mesh"] == "32"


def test_simulate_lift_rde_consistency_artifacts(tmp_path):
    out = str(tmp_path / "misc")
    assert main(["simulate", "--model", "stable_shot_noise", "--epsilon",
                 "0.1", "--alpha", "1.5", "--steps", "16", "--out", out]) == 0
    sim_rows = _read_csv(os.path.join(out, "simulate.csv"))
    assert {"time", "x0", "y0", "wtilde"} <= set(sim_rows[0])
    # --alpha builds the stable model with that tail index, bit for bit
    obs = realized_observation(get_model("stable_shot_noise", alpha=1.5),
                               1.0, 16, 0, epsilon=0.1)
    for col, path in (("x0", obs["X"]), ("y0", obs["Y"]), ("wtilde", obs["wtilde"])):
        assert [float(r[col]) for r in sim_rows] == path.values[:, 0].tolist()
    assert _read_json(os.path.join(out, "simulate.json"))["atoms"] == [
        [at, mark.tolist()] for at, mark in zip(*obs["atoms"])]
    default_alpha = realized_observation(get_model("stable_shot_noise"), 1.0, 16, 0,
                                      epsilon=0.1)
    assert default_alpha["X"].values[-1, 0] != obs["X"].values[-1, 0]

    assert main(["lift", "--model", "scalar_jump_diffusion", "--steps", "16",
                 "--out", out]) == 0
    lift_rows = _read_csv(os.path.join(out, "lift.csv"))
    assert {"l1_0", "l2_00", "jump"} <= set(lift_rows[0])
    drv = read_rough_path_json(os.path.join(out, "lift_rough_path.json"))
    assert len(drv.times) == len(lift_rows)
    assert np.array_equal(drv.level1[:, 0],
                          [float(r["l1_0"]) for r in lift_rows])
    lift_payload = _read_json(os.path.join(out, "lift.json"))
    assert lift_payload["grid_points"] == len(lift_rows)

    assert main(["rde", "--model", "linear_gaussian", "--steps", "16",
                 "--out", out]) == 0
    rde_payload = _read_json(os.path.join(out, "rde.json"))
    assert len(rde_payload["terminal"]) == 3  # (x, y, log-weight)

    assert main(["consistency", "--model", "linear_gaussian", "--steps", "32",
                 "--particles", "200", "--n-seeds", "2", "--out", out]) == 0
    cons = _read_json(os.path.join(out, "consistency.json"))
    assert cons["n_seeds"] == 2
    rows = _read_csv(os.path.join(out, "consistency.csv"))
    assert [r["seed"] for r in rows] == ["0", "1"]


def test_exit_codes(tmp_path, capsys):
    out = str(tmp_path / "x")
    assert main(["filter", "--model", "nope", "--out", out]) == 2
    assert main(["filter", "--model", "linear_gaussian", "--p", "3.5",
                 "--out", out]) == 2
    assert main(["robustness", "--model", "stable_shot_noise",
                 "--out", out]) == 2  # infinite-activity model rejected
    assert "unknown model" in capsys.readouterr().err
    # every command that runs particle sweeps stops at the threshold
    written = []
    for command in ("filter", "robustness", "consistency"):
        assert main([command, "--model", "scalar_jump_diffusion",
                     "--steps", "32", "--abort-log-weight", "1e-6",
                     "--out", out]) == 3, command
        assert "numerical abort" in capsys.readouterr().err
        # an aborted run leaves only its manifest, with the error's diagnostics
        written.append(f"{command}_manifest.json")
        assert sorted(os.listdir(out)) == sorted(written)
        manifest = _read_json(os.path.join(out, written[-1]))
        assert manifest["status"] == "aborted"
        assert manifest["aux_stream"] == AUX_STREAM
        assert manifest["config"]["abort_log_weight"] == 1e-6
        error = manifest["error"]
        assert error["type"] == "WeightAbortError"
        assert "exceeds the abort threshold" in error["message"]
        diag = error["diagnostics"]
        assert diag["threshold"] == 1e-6
        assert diag["min_log_weight"] <= diag["max_log_weight"]
        assert isinstance(diag["particle_index"], int)


def _abort_types():
    """Every subclass of NumericalAbort that the package defines, found
    recursively, in a fixed order."""
    found, todo = set(), [NumericalAbort]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("roughfilter.") and sub not in found:
                found.add(sub)
                todo.append(sub)
    return sorted(found, key=lambda kind: kind.__name__)


def test_every_abort_carries_its_diagnostics():
    """Each abort type is built as NumericalAbort(message, diagnostics) and
    keeps that dict as its raise site gave it. The table lists the dict each
    raise site builds; an abort type added without an entry fails here."""
    built = {
        WeightAbortError: {"max_log_weight": 70.0, "min_log_weight": -1.0,
                           "particle_index": 2, "threshold": 60.0},
        ParticleBlowupError: {"particle_index": 4, "step_index": 7},
        DegenerateWeightsError: {"max_log_weight": 1.0, "min_log_weight": 0.5,
                                 "n_nonfinite": 3},
        RdeBlowupError: {"step_index": 3},
        SimulationBlowupError: {"step_index": 9},
    }
    assert set(built) == set(_abort_types())
    for kind, diagnostics in built.items():
        assert "__init__" not in vars(kind)
        exc = kind("m", diagnostics)
        assert str(exc) == "m" and exc.diagnostics == diagnostics


@pytest.mark.parametrize("kind", _abort_types(), ids=lambda kind: kind.__name__)
def test_cli_reports_every_abort(kind, tmp_path, monkeypatch, capsys):
    """Whatever abort type a pipeline raises, main exits 3 and writes only
    the aborted manifest, whose diagnostics equal the raised dict."""
    command = COMMANDS[_abort_types().index(kind) % len(COMMANDS)]
    diagnostics = {"step_index": 5, "particle_index": 2, "max_log_weight": 61.5}

    def pipeline(cfg, model, out_dir):
        raise kind("it broke", diagnostics)

    monkeypatch.setitem(cli._PIPELINES, command, pipeline)
    out = str(tmp_path)
    assert main([command, "--out", out]) == 3
    assert capsys.readouterr().err == "numerical abort: it broke\n"
    assert os.listdir(out) == [f"{command}_manifest.json"]
    manifest = _read_json(os.path.join(out, f"{command}_manifest.json"))
    assert manifest["status"] == "aborted"
    assert manifest["error"] == {"type": kind.__name__, "message": "it broke",
                                 "diagnostics": diagnostics}


def test_simulation_blowup_aborts(tmp_path, capsys):
    """A Heun step of dt = 1000 overflows the linear_gaussian signal: the
    run exits 3 with an aborted manifest naming the grid step."""
    out = str(tmp_path)
    # the overflow warns before the finiteness check raises
    with pytest.warns(RuntimeWarning):
        code = main(["simulate", "--T", "1e6", "--steps", "1000", "--out", out])
    assert code == 3
    assert "simulation blew up" in capsys.readouterr().err
    assert os.listdir(out) == ["simulate_manifest.json"]
    manifest = _read_json(os.path.join(out, "simulate_manifest.json"))
    assert manifest["status"] == "aborted"
    error = manifest["error"]
    assert error["type"] == "SimulationBlowupError"
    step = error["diagnostics"]["step_index"]
    assert isinstance(step, int) and 0 <= step < 1000
    assert error["message"] == f"simulation blew up at step {step}"


def test_runtime_imports_leave_scipy_out():
    """scipy is a test dependency only: importing the package and the CLI
    must not load it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(roughfilter.__file__)))
    code = (f"import sys; sys.path.insert(0, {src!r}); "
            "import roughfilter, roughfilter.cli; print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
