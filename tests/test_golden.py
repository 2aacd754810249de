"""Golden outputs pinned at fixed seeds.

The filter value is a deterministic function of the driver, the jump record
and the seeds, so a change that only speeds up the particle sweep must
reproduce these numbers to rounding. Values were recorded before the sweep's
inner step was reworked (directional Davie term, one constant-sigma2 solve,
stacked flow-map stages, hoisted sampler tables); the "rough-mesh8" pin and
the flow pin on scalar_jump_diffusion were recorded before the three sweep
loops became one kernel. The flow pin was recorded again when the flow route
began to apply a particle's repeated auxiliary atoms in one segment each in
turn (before, only the last of them counted).
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from roughfilter.filtering import (
    FUNCTION_CATALOG,
    direct_reference_filter,
    gaussian_poisson_sampler,
    mesh_lifts,
    realized_observation,
    scalar_flow_filter_detail,
    theta,
)
from roughfilter.sim import get_model

OBS_SEED, SEED_BASE, PARTICLES, STEPS = 5, 4242, 200, 32
RTOL = 1e-12

# (route, model) -> (theta, theta_se, g_1). "rough-mesh8" runs the rough
# route on the Marcus lift of the mesh-8 rectangular interpolant of a 64-step
# observation (driver jumps and observed atoms in one sweep); the suffix
# ":f3=0" zeroes the loading of observed jumps on the signal, which the flow
# route needs, so that its auxiliary-atom pull-back and lambda reweighting
# are covered.
GOLDEN = {
    ("rough", "linear_gaussian"): (
        0.42870530587925565, 0.017954438368001476, 0.33847394694370997),
    ("direct", "linear_gaussian"): (
        0.42558288038604636, 0.01787501076534599, 0.34020468313945895),
    ("flow", "linear_gaussian"): (
        0.42558288038604636, 0.017875010765346002, 0.3402046831394591),
    ("rough", "scalar_jump_diffusion"): (
        -0.395430627417284, 0.020405105555712195, 1.5454191166351092),
    ("direct", "scalar_jump_diffusion"): (
        -0.39238063148597563, 0.02050093368628641, 1.5470299984033395),
    ("rough", "correlated_jump_multidim"): (
        0.13253097808756548, 0.013504884005763506, 3.7075042827531526),
    ("direct", "correlated_jump_multidim"): (
        0.13361900832751078, 0.013523476579481464, 3.7847699265367134),
    ("rough", "stable_shot_noise"): (
        0.48171568309318763, 0.016498136002418555, 0.9247181369916482),
    ("direct", "stable_shot_noise"): (
        0.4786514658118788, 0.016468503405083892, 0.9284930958883095),
    ("flow", "scalar_jump_diffusion:f3=0"): (
        -0.021664664934500106, 0.021607052480785757, 0.9579079052313998),
    ("rough-mesh8", "scalar_jump_diffusion"): (
        0.01512507416326413, 0.018001414278504182, 0.6400362351307265),
}

# gaussian_poisson_sampler on scalar_jump_diffusion, 32 equal steps on
# [0, 1], seeds 0-49: sha256 over every dB block and (segment, mark) pair,
# and the (seed, segment, mark) atoms themselves.
SAMPLER_SHA256 = "1c558659f80646fbc8f89bedb0d73602055bd5a165d2c8edc6881a99b73f0992"
SAMPLER_ATOMS = [
    (1, 29, 1.0), (2, 20, 1.0), (3, 20, 1.0), (4, 8, 1.0), (12, 4, 1.0),
    (14, 5, 1.0), (14, 24, 1.0), (14, 26, 1.0), (21, 17, 1.0), (24, 6, 1.0),
    (25, 0, 1.0), (27, 27, 1.0), (29, 17, 1.0), (41, 11, 1.0), (41, 18, 1.0),
    (44, 9, 1.0),
]


def _model(model_id):
    name, _, variant = model_id.partition(":")
    model = get_model(name)
    if variant == "f3=0":
        model = replace(model, f3=lambda t, x, y, u: np.zeros_like(
            np.asarray(x, dtype=float)))
    return model


def _observation(model):
    eps = 0.05 if model.regime == "infinite_jumps" else None
    return realized_observation(model, 1.0, STEPS, OBS_SEED, epsilon=eps)


def _run(route, model):
    f = FUNCTION_CATALOG["identity"]
    if route == "rough-mesh8":
        obs = realized_observation(model, 1.0, 2 * STEPS, OBS_SEED)
        _, rectangular = mesh_lifts(obs, 1.0, 8)
        return theta(model, f, rectangular, obs["jump_record"], 1.0,
                     PARTICLES, SEED_BASE)
    obs = _observation(model)
    if route == "rough":
        return theta(model, f, obs["driver"], obs["jump_record"], 1.0,
                     PARTICLES, SEED_BASE)
    if route == "direct":
        return direct_reference_filter(model, f, obs["Y"], obs["atoms"], 1.0,
                                       PARTICLES, SEED_BASE)
    return scalar_flow_filter_detail(model, f, obs["Y"], PARTICLES, SEED_BASE,
                                     obs["atoms"])


@pytest.mark.parametrize("route,model_id", sorted(GOLDEN))
def test_golden_filter_values(route, model_id):
    res = _run(route, _model(model_id))
    got = (res.theta, res.theta_se, res.g_1.value)
    np.testing.assert_allclose(got, GOLDEN[(route, model_id)], rtol=RTOL, atol=0)


def test_golden_sampler_stream():
    sample = gaussian_poisson_sampler(get_model("scalar_jump_diffusion"),
                                      np.linspace(0.0, 1.0, STEPS + 1))
    digest = hashlib.sha256()
    atoms = []
    for seed in range(50):
        dB, drawn = sample(seed)
        digest.update(dB.tobytes())
        for seg, mark in drawn:
            digest.update(np.int64(seg).tobytes() + np.asarray(mark).tobytes())
            atoms.append((seed, seg, float(mark[0])))
    assert atoms == SAMPLER_ATOMS
    assert digest.hexdigest() == SAMPLER_SHA256
