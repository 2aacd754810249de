"""Golden CLI artifacts, pinned at fixed seeds and tiny sizes.

Each of the eight commands runs in process on scalar_jump_diffusion and on
stable_shot_noise, and `robustness` also on linear_gaussian (stable_shot_noise
is infinite-activity, which `metrics` and `robustness` reject with exit code
2). Every CSV, JSON and manifest a run writes is parsed and compared with
tests/golden_cli.json: numbers within RTOL 1e-12 relative plus ATOL 1e-11
absolute, and every other field exactly. A manifest may differ only in
`wall_time_s` and in the output directory `out`.

The pins were recorded before the rough route took the closed-form Davie
step for affine h. That step drops the finite-difference error of the h-row
action (up to 9e-11 per step in I at |z| <= 2), so log weights move by a few
1e-12 absolute: 6.0e-12 on the stable_shot_noise filter's min_log_weight of
-0.172, a relative move of 3.5e-11. ATOL covers that and the differences of
two estimates (robustness and consistency gaps); filter values themselves
are held at 1e-12 relative by test_golden.py. A 1e-9 relative change of
h_function still moves every sweep case here by more than 2.8e-11.
`python tests/test_golden_cli.py` prints the artifacts of the current code
in the pin format, for inspecting a difference.
"""

import csv
import json
import math
import os
import sys

import pytest

from roughfilter.cli import main

RTOL, ATOL = 1e-12, 1e-11
GOLDEN = os.path.join(os.path.dirname(__file__), "golden_cli.json")

_COMMON = ["--steps", "32", "--seed", "3", "--particles", "200"]
_EXTRA = {
    "metrics": ["--meshes", "4,8", "--delta-seq", "1.0,0.5"],
    "robustness": ["--meshes", "4,8"],
    "consistency": ["--n-seeds", "2"],
    "wongzakai": ["--levels", "3"],
}
COMMANDS = ("simulate", "lift", "metrics", "rde", "filter", "robustness",
            "consistency", "wongzakai")
CASES = ([(m, c) for m in ("scalar_jump_diffusion", "stable_shot_noise")
          for c in COMMANDS] + [("linear_gaussian", "robustness")])


def _parse_file(path):
    if path.endswith(".csv"):
        with open(path, encoding="utf-8", newline="") as fh:
            return list(csv.reader(fh))
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if path.endswith("_manifest.json"):
        payload.pop("wall_time_s", None)
        payload.get("config", {}).pop("out", None)
    return payload


def run_case(model_id, command, out_dir):
    """Exit code and the parsed artifacts of one command, by file name."""
    os.makedirs(out_dir, exist_ok=True)
    code = main([command, "--model", model_id, "--out", out_dir]
                + _COMMON + _EXTRA.get(command, []))
    files = {name: _parse_file(os.path.join(out_dir, name))
             for name in sorted(os.listdir(out_dir))}
    return {"exit": code, "files": files}


def _number(value):
    """The float a field holds, or None when it is not a number (booleans
    and text stay exact)."""
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    return None


def _compare(got, expect, where, errors):
    a, b = _number(got), _number(expect)
    if a is not None and b is not None:
        if math.isnan(a) or math.isnan(b):
            ok = math.isnan(a) and math.isnan(b)
        else:
            ok = abs(a - b) <= RTOL * abs(b) + ATOL
        if not ok:
            errors.append(f"{where}: {got!r} != {expect!r}")
    elif isinstance(expect, dict) and isinstance(got, dict):
        if sorted(got) != sorted(expect):
            errors.append(f"{where}: keys {sorted(got)} != {sorted(expect)}")
            return
        for key in expect:
            _compare(got[key], expect[key], f"{where}.{key}", errors)
    elif isinstance(expect, list) and isinstance(got, list):
        if len(got) != len(expect):
            errors.append(f"{where}: length {len(got)} != {len(expect)}")
            return
        for i, (g, e) in enumerate(zip(got, expect)):
            _compare(g, e, f"{where}[{i}]", errors)
    elif got != expect or type(got) is not type(expect):
        errors.append(f"{where}: {got!r} != {expect!r}")


with open(GOLDEN, encoding="utf-8") as _fh:
    PINS = json.load(_fh)


@pytest.mark.parametrize("model_id,command", CASES)
def test_cli_artifacts_pinned(model_id, command, tmp_path):
    got = run_case(model_id, command, str(tmp_path / "out"))
    errors = []
    _compare(got, PINS[f"{model_id}/{command}"], f"{model_id}/{command}", errors)
    assert not errors, "\n".join(errors[:20])


def test_pins_cover_every_case():
    assert sorted(PINS) == sorted(f"{m}/{c}" for m, c in CASES)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        pins = {f"{m}/{c}": run_case(m, c, os.path.join(tmp, m, c))
                for m, c in CASES}
    json.dump(pins, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
