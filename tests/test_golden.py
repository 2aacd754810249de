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

GOLDEN and the per-seed sampler pins were recorded with the per-seed
auxiliary stream (particle i drawing from default_rng(seed_base + i)); they
are checked through `per_seed_sampler` on `_reference_sampler`, which keeps
that stream. GOLDEN_BLOCK and BLOCK_SHA256 pin the default block stream
named by `filtering.AUX_STREAM` on the same configurations.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from roughfilter.filtering import (
    AUX_STREAM,
    FUNCTION_CATALOG,
    direct_reference_filter,
    gaussian_poisson_sampler,
    mesh_lifts,
    per_seed_sampler,
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

# _reference_sampler on scalar_jump_diffusion, 32 equal steps on [0, 1],
# seeds 0-49: sha256 over every dB block and (segment, mark) pair,
# and the (seed, segment, mark) atoms themselves.
SAMPLER_SHA256 = "1c558659f80646fbc8f89bedb0d73602055bd5a165d2c8edc6881a99b73f0992"
SAMPLER_ATOMS = [
    (1, 29, 1.0), (2, 20, 1.0), (3, 20, 1.0), (4, 8, 1.0), (12, 4, 1.0),
    (14, 5, 1.0), (14, 24, 1.0), (14, 26, 1.0), (21, 17, 1.0), (24, 6, 1.0),
    (25, 0, 1.0), (27, 27, 1.0), (29, 17, 1.0), (41, 11, 1.0), (41, 18, 1.0),
    (44, 9, 1.0),
]

# the default block stream on the same configurations as GOLDEN
GOLDEN_BLOCK = {
    ("direct", "correlated_jump_multidim"): (
        0.10554926646939623, 0.014276924739835993, 3.8340573432181735),
    ("direct", "linear_gaussian"): (
        0.4285756555535343, 0.017739788365168256, 0.35152956015809456),
    ("direct", "scalar_jump_diffusion"): (
        -0.3813134904364749, 0.020590029030919495, 1.5103984787739977),
    ("direct", "stable_shot_noise"): (
        0.46549039764055183, 0.016185147359008858, 0.9380424905135673),
    ("flow", "linear_gaussian"): (
        0.4285756555535344, 0.01773978836516827, 0.35152956015809467),
    ("flow", "scalar_jump_diffusion:f3=0"): (
        -0.0115401008829079, 0.021699590723362455, 0.9375607154034111),
    ("rough", "correlated_jump_multidim"): (
        0.10306519194175542, 0.014479955002262937, 3.738890822855044),
    ("rough", "linear_gaussian"): (
        0.4317845187164409, 0.01800522662873009, 0.3507597573809957),
    ("rough", "scalar_jump_diffusion"): (
        -0.38573054725951006, 0.020846515010875834, 1.5029953371574873),
    ("rough", "stable_shot_noise"): (
        0.4687297825527894, 0.016159455349204686, 0.9372363964082219),
    ("rough-mesh8", "scalar_jump_diffusion"): (
        -0.014342035090069658, 0.0186135167829413, 0.6309857422737587),
}

# gaussian_poisson_sampler on scalar_jump_diffusion, 32 equal steps on
# [0, 1]: sample(0, 50), over dB and every (segment, particle, mark)
BLOCK_SHA256 = "aa6478411c1bef7c50ca0dc60827cf01e512913dcfae4cd66f95e3772c70d8b3"


def _model(model_id):
    name, _, variant = model_id.partition(":")
    model = get_model(name)
    if variant == "f3=0":
        model = replace(model, f3=lambda t, x, y, u: np.zeros_like(
            np.asarray(x, dtype=float)))
    return model


def _reference_sampler(model, times):
    """The per-seed auxiliary stream GOLDEN was recorded with: one
    default_rng(seed) per particle, Brownian increments first, then a
    Poisson atom count, sorted uniform atom times and the marks' uniforms."""
    times = np.asarray(times, dtype=float)
    n_seg = len(times) - 1
    sq = np.sqrt(np.diff(times))
    jumps = model.nu1 is not None and bool(model.nu1.atoms)
    if jumps:
        mean_count = model.nu1.total_rate * float(times[-1] - times[0])
        marks = model.nu1.marks()
        cdf = np.cumsum(model.nu1.rates() / model.nu1.total_rate)
        cdf /= cdf[-1]

    def sample(seed):
        rng = np.random.default_rng(seed)
        dB = rng.standard_normal((n_seg, model.dim_b)) * sq[:, None]
        atoms = []
        if jumps:
            k = rng.poisson(mean_count)
            if k:
                at = np.sort(rng.uniform(times[0], times[-1], k))
                pick = cdf.searchsorted(rng.random(k), side="right")
                seg = np.clip(np.searchsorted(times, at, side="left") - 1,
                              0, n_seg - 1)
                atoms = [(int(s), marks[c]) for s, c in zip(seg, pick)]
        return dB, atoms

    return sample


def _observation(model):
    eps = 0.05 if model.regime == "infinite_jumps" else None
    return realized_observation(model, 1.0, STEPS, OBS_SEED, epsilon=eps)


def _run(route, model, per_seed):
    """One pinned sweep; per_seed runs it on the reference per-seed stream
    over the route's grid, else on the default block stream."""
    f = FUNCTION_CATALOG["identity"]

    def aux(times):
        return per_seed_sampler(_reference_sampler(model, times)) if per_seed else None

    if route == "rough-mesh8":
        obs = realized_observation(model, 1.0, 2 * STEPS, OBS_SEED)
        _, rectangular = mesh_lifts(obs, 1.0, 8)
        return theta(model, f, rectangular, obs["jump_record"], 1.0,
                     PARTICLES, SEED_BASE, aux_sampler=aux(rectangular.times))
    obs = _observation(model)
    if route == "rough":
        return theta(model, f, obs["driver"], obs["jump_record"], 1.0,
                     PARTICLES, SEED_BASE, aux_sampler=aux(obs["driver"].times))
    sampler = aux(obs["wtilde"].times)
    if route == "direct":
        return direct_reference_filter(model, f, obs["Y"], obs["atoms"], 1.0,
                                       PARTICLES, SEED_BASE, aux_sampler=sampler)
    return scalar_flow_filter_detail(model, f, obs["Y"], PARTICLES, SEED_BASE,
                                     obs["atoms"], aux_sampler=sampler)


@pytest.mark.parametrize("route,model_id", sorted(GOLDEN))
def test_golden_filter_values(route, model_id):
    res = _run(route, _model(model_id), per_seed=True)
    got = (res.theta, res.theta_se, res.g_1.value)
    np.testing.assert_allclose(got, GOLDEN[(route, model_id)], rtol=RTOL, atol=0)


@pytest.mark.parametrize("route,model_id", sorted(GOLDEN_BLOCK))
def test_golden_block_stream_values(route, model_id):
    res = _run(route, _model(model_id), per_seed=False)
    got = (res.theta, res.theta_se, res.g_1.value)
    np.testing.assert_allclose(got, GOLDEN_BLOCK[(route, model_id)],
                               rtol=RTOL, atol=0)


def test_golden_sampler_stream():
    sample = _reference_sampler(get_model("scalar_jump_diffusion"),
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


def _block_digest(dB, table):
    digest = hashlib.sha256(dB.tobytes())
    for seg, i, mark in zip(*table):
        digest.update(np.int64(seg).tobytes() + np.int64(i).tobytes()
                      + np.asarray(mark).tobytes())
    return digest.hexdigest()


def test_golden_block_sampler_stream():
    """One block draw of the default stream: 50 particles at seed base 0."""
    sample = gaussian_poisson_sampler(get_model("scalar_jump_diffusion"),
                                      np.linspace(0.0, 1.0, STEPS + 1))
    dB, table = sample(0, 50)
    assert dB.shape == (50, STEPS, 1)
    assert AUX_STREAM.startswith("block/v1:")
    assert _block_digest(dB, table) == BLOCK_SHA256
