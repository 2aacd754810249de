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


# -- exact sweep bits -------------------------------------------------------

# sha256 over the float64 bytes of (theta, theta_se, g_f, g_f se, g_1, g_1 se)
# of one sweep on the default block stream, at the configurations of GOLDEN
# and at N = 10 and 200. Unlike the rtol pins above, a reordered sum or any
# other last-bit change fails these. "geometric" is the flow tests' model
# with every coefficient a plain callable. Recorded before the routes bound
# their steps at construction.
SWEEP_SHA256 = {
    ('direct', 'correlated_jump_multidim', 10):
        "eea0faaf14d9374e440f4f4ba8e7db102f97e2aa3189e02f4d8a130cc6d27e71",
    ('direct', 'correlated_jump_multidim', 200):
        "e6c744336dff19305aad7e3bcb84a3c243b368f71eaf8ed6ab7da9642710c43d",
    ('direct', 'geometric', 10):
        "7bd12bb87f5987e0641a1f2b6decbc1b644ddfb405f098ab7f8a87cd25118bea",
    ('direct', 'geometric', 200):
        "9036d0abc4155d8aaf2f1e1ed4e7803fa9852a40eadf9d61efd7853f6066d952",
    ('direct', 'linear_gaussian', 10):
        "f9f0c21d7c38a0ce2c35e9ba9a93e2e76d46de50eb71a38f1e15fc07d9f8cbc2",
    ('direct', 'linear_gaussian', 200):
        "7066746619504b19d66ffcb0db906bca61262c8bfb23207ec5ffe83ba88446b5",
    ('direct', 'scalar_jump_diffusion', 10):
        "77505e95c2eecc41665451eda555abdfbdc527d6ee09b37af4b616ed1da8b29b",
    ('direct', 'scalar_jump_diffusion', 200):
        "9909e0cf8e40d667611b2af49fa44cc86effe051a25bda8ea241d3761c8457e0",
    ('direct', 'stable_shot_noise', 10):
        "9e5fda4d28e67e00d0e57a2ebf2fb05aad6eb32e79330e18174b5593d48065dc",
    ('direct', 'stable_shot_noise', 200):
        "9ad70d66c822c092291152e58b5a0d12e91b6aa9fe6e9f20127b6730f74c0125",
    ('flow', 'geometric', 10):
        "40cca12d43470016b3c538db8143b57f47ff00cbccd0f0da41e85749494ce144",
    ('flow', 'geometric', 200):
        "e2006dd238bd7a9b3b788ce7bf78a621cbbdc59266dc33c4c3b12450e1496c5a",
    ('flow', 'linear_gaussian', 10):
        "f9a5111be4eac31a4ad5c0a55862c48f5ae86c018e3ed4bf8166266d220108cf",
    ('flow', 'linear_gaussian', 200):
        "3f99f67585363abe6980b4b923fbdf4eb237668dd2d07d282ed7f57828449e77",
    ('flow', 'scalar_jump_diffusion:f3=0', 10):
        "8509cd15f7a00d6a39185a110cb27705c299f402bc7046dbe408d8812ae3d67e",
    ('flow', 'scalar_jump_diffusion:f3=0', 200):
        "364aac12f2d1c303762539162a7855c5ca6bca8bfe733e786e5e22e41589fc60",
    ('rough', 'correlated_jump_multidim', 10):
        "988e9ae942f09ba3c935c52c31f75d4ff0bdc37361847c8b90205abf96886655",
    ('rough', 'correlated_jump_multidim', 200):
        "cecf4349bba22995143c2fdc0f72731d7e57bda4bc6a2c31c959cc38e8fd09f7",
    ('rough', 'geometric', 10):
        "89a4d90d6e5da697f7546321e8ce54e401699403456ef879284e3ce167c4979c",
    ('rough', 'geometric', 200):
        "6dcb34c65eae15cbd35ccf323539bfb2a5b3cce63eba1645ad2d4c0b7a001a4e",
    ('rough', 'linear_gaussian', 10):
        "3ac925f1e6818b7207c27a6d4a4f4af72ff3d879900c766b3af5163c7528ab96",
    ('rough', 'linear_gaussian', 200):
        "efa36afafa746b194b53c04c5e25c9fcf2396931002489a8eb39c20001fe2c9a",
    ('rough', 'scalar_jump_diffusion', 10):
        "adc5f9eb8b4162aaa24f4d9ec6b3949cbcdad41baee8cae164eb6a2ef58fd173",
    ('rough', 'scalar_jump_diffusion', 200):
        "ca7197950278437ca3312748e9059422f03301c9fc5d6bef843aaacf515715d8",
    ('rough', 'stable_shot_noise', 10):
        "f4f89daf8756435693330256242af55f8800c1e5d868c4ed9eb6cb67d230ff85",
    ('rough', 'stable_shot_noise', 200):
        "2acdc0ab8266313215cf8c2a326beb2c631f6d7c79903d0525e453f67fdf2c0f",
    ('rough-mesh8', 'scalar_jump_diffusion', 10):
        "c28f786bcaaa39aed0df4f42964d5fec1ea0d66170961656a2a37c5bbf3badc7",
    ('rough-mesh8', 'scalar_jump_diffusion', 200):
        "fad0b123501efdf4cf24a9b1dfbdd927a9d53a32bac234ec4d50b305a6c9a6dc",
}


def _sweep_digest(res) -> str:
    vals = (res.theta, res.theta_se, res.g_f.value, res.g_f.stderr,
            res.g_1.value, res.g_1.stderr)
    return hashlib.sha256(np.array(vals, dtype=float).tobytes()).hexdigest()


def _pinned_sweep(route, model_id, N):
    from test_filtering import _geometric_model

    model = _geometric_model() if model_id == "geometric" else _model(model_id)
    f = FUNCTION_CATALOG["identity"]
    if route == "rough-mesh8":
        obs = realized_observation(model, 1.0, 2 * STEPS, OBS_SEED)
        return theta(model, f, mesh_lifts(obs, 1.0, 8)[1], obs["jump_record"],
                     1.0, N, SEED_BASE)
    obs = _observation(model)
    if route == "rough":
        return theta(model, f, obs["driver"], obs["jump_record"], 1.0, N, SEED_BASE)
    if route == "direct":
        return direct_reference_filter(model, f, obs["Y"], obs["atoms"], 1.0,
                                       N, SEED_BASE)
    return scalar_flow_filter_detail(model, f, obs["Y"], N, SEED_BASE, obs["atoms"])


@pytest.mark.parametrize("route,model_id,N", sorted(SWEEP_SHA256))
def test_sweep_bits_pinned(route, model_id, N):
    assert _sweep_digest(_pinned_sweep(route, model_id, N)) == SWEEP_SHA256[
        (route, model_id, N)]
