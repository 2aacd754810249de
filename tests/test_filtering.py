"""Tests for the particle filtering functionals.

The exactness test enumerates every outcome of a tiny discrete-noise
instance (Bernoulli Brownian signs times three-way jump outcomes per step)
and checks the Monte Carlo functional against an independent scalar
recursion over the same outcome tree.
"""

import gc
import itertools
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughfilter import filtering, sim
from roughfilter.filtering import (
    JUMP_SUBSTEPS,
    DegenerateWeightsError,
    FUNCTION_CATALOG,
    FilterResult,
    McEstimate,
    ParticleBlowupError,
    WeightAbortError,
    _Route,
    _RoughRoute,
    _joint_field,
    _scalar_sigma1,
    direct_reference_filter,
    epsilon_stability_experiment,
    flow_map,
    gaussian_poisson_sampler,
    mesh_lifts,
    per_seed_sampler,
    realized_observation,
    robust_consistency_check,
    robustness_experiment,
    scalar_flow_filter_detail,
    theta,
    trend_non_increasing,
)
from roughfilter.lift import marcus_lift, stratonovich_lift
from roughfilter.paths import CadlagPath
from roughfilter.rde import VectorField, davie_step, marcus_jump
from roughfilter.sim import MODEL_BUILDERS, LevyMeasure, get_model


# -- test functions ---------------------------------------------------------


def test_function_catalog():
    x = np.array([[1.5, -2.0]])
    y = np.array([[0.3]])
    assert set(FUNCTION_CATALOG) == {"identity", "one", "square", "sin"}
    assert FUNCTION_CATALOG["square"](x, y)[0] == pytest.approx(2.25)
    assert FUNCTION_CATALOG["sin"](x, y)[0] == pytest.approx(math.sin(1.5))


def test_mc_estimate_single_sample():
    f = lambda x, y: np.full(x.shape[:-1], 2.0)
    model = get_model("linear_gaussian")
    drv = _linear_driver([0.0, 0.5, 1.0], [0.0, 0.1, -0.2])
    est = theta(model, f, drv, None, 1.0, 1, 7).g_f
    assert isinstance(est, McEstimate)
    assert est.n == 1 and est.stderr == 0.0


# -- small discrete-noise instance: exhaustive enumeration ------------------

# Per step the auxiliary noise takes 8 equally likely micro-outcomes:
# Brownian sign (2) times jump outcome in {none, none, mark +1, mark -1}
# (4, so "none" has probability 1/2).  Three steps give 8^3 = 512 equally
# weighted trajectories covering every combination of 2^3 sign patterns and
# 3^3 distinct jump patterns; running the sweep with 512 particles whose
# seeds decode their outcome index makes the Monte Carlo average an exact
# expectation over the tree.

_ENUM_BASE = 40000


def _enum_sampler(times):
    n_seg = len(times) - 1
    sq = np.sqrt(np.diff(times))

    def sample(seed):
        idx = seed - _ENUM_BASE
        dB = np.zeros((n_seg, 1))
        atoms = []
        for k in range(n_seg):
            digit = (idx // 8 ** k) % 8
            dB[k, 0] = sq[k] if (digit & 1) == 0 else -sq[k]
            jump = digit >> 1
            if jump == 2:
                atoms.append((k, np.array([1.0])))
            elif jump == 3:
                atoms.append((k, np.array([-1.0])))
        return dB, atoms

    return sample


def _linear_driver(times, values):
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    return stratonovich_lift(CadlagPath(t, v[:, None], None, "linear"))


def _oracle_enumeration(params, times, w_values, record, f):
    """Scalar recursion over the full outcome tree of the documented scheme:
    left-endpoint weight rates, a Heun drift/auxiliary-Brownian step, a
    Davie level-2 step on (x, y, log w) with a central finite-difference
    Jacobian, auxiliary atoms at segment ends, then observed atoms."""
    a, s0, s1, c, gamma = (params[k] for k in ("a", "s0", "s1", "c", "gamma"))
    kappa = params["kappa"]
    j1, j2, j3 = params["jump1"], params["jump2"], params["jump3"]
    r1, r2 = params["rate1"], params["rate2"]

    def lam(x, u):
        return math.exp(kappa * math.tanh(x) * u)

    def h(x):
        q = j2 * (1.0 - lam(x, 1.0)) * (0.5 * r2) - j2 * (1.0 - lam(x, -1.0)) * (0.5 * r2)
        return (c * x + q) / gamma

    def comp(x):
        return (1.0 - lam(x, 1.0)) * (0.5 * r2) + (1.0 - lam(x, -1.0)) * (0.5 * r2)

    def ref_rates(x):
        bx = a * x - j1 * 1.0 * r1 - (j3 * lam(x, 1.0) * (0.5 * r2)
                                      - j3 * lam(x, -1.0) * (0.5 * r2))
        by = c * x - (j2 * lam(x, 1.0) * (0.5 * r2)
                      - j2 * lam(x, -1.0) * (0.5 * r2))
        hv = h(x)
        return bx - s1 * hv, by - gamma * hv

    atoms_by_index = {}
    for at, mark in zip(*record):
        i = int(np.argmin(np.abs(times - at)))
        atoms_by_index.setdefault(i, []).append(float(np.atleast_1d(mark)[0]))

    n_seg = len(times) - 1
    sq = np.sqrt(np.diff(times))
    total = 0.0
    total_w = 0.0
    n_outcomes = 8 ** n_seg
    for idx in range(n_outcomes):
        x, y, logw = params["x0"], params["y0"], 0.0
        for k in range(n_seg):
            t0, t1 = times[k], times[k + 1]
            dt = t1 - t0
            digit = (idx // 8 ** k) % 8
            dB = sq[k] if (digit & 1) == 0 else -sq[k]
            jump = digit >> 1

            h0 = h(x)
            logw += (-0.5 * h0 * h0 + comp(x)) * dt

            bx0, by0 = ref_rates(x)
            d1x = bx0 * dt + s0 * dB
            d1y = by0 * dt
            bx1, by1 = ref_rates(x + d1x)
            d2x = bx1 * dt + s0 * dB
            d2y = by1 * dt
            x = x + 0.5 * (d1x + d2x)
            y = y + 0.5 * (d1y + d2y)

            cg1 = w_values[k + 1] - w_values[k]
            cg2 = 0.5 * cg1 * cg1
            eps = 1e-6 * (1.0 + abs(x))
            dh_fd = (h(x + eps) - h(x - eps)) / (2.0 * eps)
            hx = h(x)
            x = x + s1 * cg1
            y = y + gamma * cg1
            logw = logw + hx * cg1 + dh_fd * s1 * cg2

            if jump == 2:
                x = x + j1 * 1.0
            elif jump == 3:
                x = x + j1 * (-1.0)

            for mark in atoms_by_index.get(k + 1, ()):
                logw += math.log(lam(x, mark))
                x = x + j3 * mark
                y = y + j2 * mark

        w = math.exp(logw)
        total += f(x, y) * w
        total_w += w
    return total / n_outcomes, total_w / n_outcomes


PARAMS = dict(a=-0.4, s0=0.35, s1=0.25, c=0.8, gamma=0.5, kappa=0.5,
              jump2=0.3, jump3=0.2, jump1=0.15, rate2=1.0, rate1=0.5,
              x0=0.5, y0=0.0)


def test_exhaustive_outcome_tree_matches_sweep():
    model = get_model("scalar_jump_diffusion", **{
        k: v for k, v in PARAMS.items()})
    times = np.linspace(0.0, 1.0, 4)
    w_values = np.array([0.0, 0.3, -0.2, 0.4])
    driver = _linear_driver(times, w_values)
    record = (times[[1, 2]], np.array([[1.0], [-1.0]]))
    sampler = per_seed_sampler(_enum_sampler(times))

    res = theta(model, FUNCTION_CATALOG["identity"], driver, record,
                1.0, 512, _ENUM_BASE, aux_sampler=sampler)
    oracle_f, oracle_w = _oracle_enumeration(
        PARAMS, times, w_values, record, lambda x, y: x)

    assert res.g_f.value == pytest.approx(oracle_f, abs=1e-12)
    assert res.g_1.value == pytest.approx(oracle_w, abs=1e-12)
    assert res.theta == pytest.approx(oracle_f / oracle_w, abs=1e-12)


def test_exhaustive_tree_other_functional_and_path():
    model = get_model("scalar_jump_diffusion", **{
        k: v for k, v in PARAMS.items()})
    times = np.linspace(0.0, 0.6, 4)
    w_values = np.array([0.0, -0.25, 0.1, 0.05])
    driver = _linear_driver(times, w_values)
    record = (times[[2]], np.array([[1.0]]))
    sampler = per_seed_sampler(_enum_sampler(times))

    est = theta(model, FUNCTION_CATALOG["square"], driver, record,
                0.6, 512, _ENUM_BASE, aux_sampler=sampler).g_f
    oracle, _ = _oracle_enumeration(
        PARAMS, times, w_values, record, lambda x, y: x * x)
    assert est.value == pytest.approx(oracle, abs=1e-12)


# -- filter invariants ------------------------------------------------------


def _jump_model_observation(seed=3, steps=128):
    model = get_model("scalar_jump_diffusion")
    obs = realized_observation(model, 1.0, steps, seed)
    return model, obs


def test_theta_of_one_is_exactly_one():
    model, obs = _jump_model_observation()
    res = theta(model, FUNCTION_CATALOG["one"], obs["driver"],
                obs["jump_record"], 1.0, 400, 11)
    assert res.theta == 1.0
    assert res.theta_se == 0.0


def test_theta_linearity_under_common_noise():
    model, obs = _jump_model_observation()
    args = (obs["driver"], obs["jump_record"], 1.0, 500, 11)
    t_id = theta(model, FUNCTION_CATALOG["identity"], *args)
    t_sin = theta(model, FUNCTION_CATALOG["sin"], *args)
    combo = lambda x, y: 2.0 * x[..., 0] + 3.0 * np.sin(x[..., 0])
    t_combo = theta(model, combo, *args)
    assert t_combo.theta == pytest.approx(
        2.0 * t_id.theta + 3.0 * t_sin.theta, rel=1e-12, abs=1e-13)
    scaled = lambda x, y: -1.75 * x[..., 0]
    t_scaled = theta(model, scaled, *args)
    assert t_scaled.theta == pytest.approx(-1.75 * t_id.theta,
                                           rel=1e-12, abs=1e-13)


def test_theta_deterministic_given_seeds():
    model, obs = _jump_model_observation()
    a = theta(model, FUNCTION_CATALOG["identity"], obs["driver"],
              obs["jump_record"], 1.0, 300, 42)
    b = theta(model, FUNCTION_CATALOG["identity"], obs["driver"],
              obs["jump_record"], 1.0, 300, 42)
    assert a.theta == b.theta and a.theta_se == b.theta_se
    c = theta(model, FUNCTION_CATALOG["identity"], obs["driver"],
              obs["jump_record"], 1.0, 300, 43)
    assert c.theta != a.theta


def test_filter_result_fields():
    model, obs = _jump_model_observation()
    res = theta(model, FUNCTION_CATALOG["identity"], obs["driver"],
                obs["jump_record"], 1.0, 200, 5)
    assert isinstance(res, FilterResult)
    assert res.particles == 200 and res.seed_base == 5
    assert res.g_1.value > 0 and res.theta_se > 0
    assert res.driver_meta["t"] == 1.0
    assert res.driver_meta["observed_atoms"] == len(obs["jump_record"][0])
    # terminal weight health: the Kish ESS (sum w)^2 / sum w^2 agrees with the
    # mean and standard error of g^1, and g^1 lies within the weight range
    meta, m, se = res.driver_meta, res.g_1.value, res.g_1.stderr
    assert meta["ess"] == pytest.approx(200 * m**2 / (199 * se**2 + m**2),
                                        rel=1e-9)
    assert 1.0 <= meta["ess"] <= 200
    assert (np.exp(meta["min_log_weight"]) <= m
            <= np.exp(meta["max_log_weight"]))


# -- Kalman-Bucy cross-check ------------------------------------------------


def _kalman_mean(meta, y_values, times):
    """Innovation-form conditional mean for the correlated linear-Gaussian
    model, with the variance from the Riccati equation (solve_ivp) and an
    Euler update of the mean on the observation grid."""
    from scipy.integrate import solve_ivp

    a, s0, s1 = meta["a"], meta["s0"], meta["s1"]
    c, g = meta["c"], meta["gamma"]

    def ric(t, P):
        return 2.0 * a * P + s0 ** 2 + s1 ** 2 - (P * c + s1 * g) ** 2 / g ** 2

    sol = solve_ivp(ric, (times[0], times[-1]), [0.0], t_eval=times,
                    rtol=1e-10, atol=1e-12)
    P = sol.y[0]
    m = 0.0
    for k in range(len(times) - 1):
        dt = times[k + 1] - times[k]
        K = (P[k] * c + s1 * g) / g ** 2
        dY = y_values[k + 1] - y_values[k]
        m = m + a * m * dt + K * (dY - c * m * dt)
    return m


def test_matches_kalman_bucy_mean():
    model = get_model("linear_gaussian", x0=0.0)
    for seed in (1, 2):
        obs = realized_observation(model, 1.0, 256, seed)
        res = theta(model, FUNCTION_CATALOG["identity"], obs["driver"],
                    obs["jump_record"], 1.0, 4000, 100 + seed)
        yv = obs["Y"].values[:, 0]
        m = _kalman_mean(model.meta, yv, obs["Y"].times)
        assert abs(res.theta - m) < 3.5 * res.theta_se


# -- scalar flow route ------------------------------------------------------


def _geometric_model():
    from roughfilter.sim import ModelSpec

    return ModelSpec(
        model_id="geometric_test",
        dim_x=1, dim_y=1, dim_b=1,
        b1=lambda t, x, y: -0.3 * x,
        b2=lambda t, x, y: 0.8 * x,
        sigma0=lambda t, x, y: np.broadcast_to(
            np.array([[0.3]]), np.asarray(x).shape[:-1] + (1, 1)),
        sigma1=lambda t, x, y: 0.25 * np.asarray(x, dtype=float)[..., None],
        sigma2=lambda t, y: np.broadcast_to(
            np.array([[0.5]]), np.asarray(y).shape[:-1] + (1, 1)),
        f1=lambda t, x, y, u: np.zeros_like(np.asarray(x, dtype=float)),
        f2=lambda t, y, u: np.zeros_like(np.asarray(y, dtype=float)),
        f3=lambda t, x, y, u: np.zeros_like(np.asarray(x, dtype=float)),
        lambda_fn=lambda t, x, u: np.ones(np.asarray(x).shape[:-1]),
        nu1=None, nu2=None, x0=(1.0,), y0=(0.0,),
        meta={"lambda_min": 1.0, "lambda_max": 1.0},
    )


def test_flow_map_geometric_closed_form():
    s = lambda x: 0.25 * x
    x = np.array([0.4, 1.0, 2.5])
    for w in (-1.3, 0.0, 0.7):
        phi, J = flow_map(s, w, x)
        assert np.allclose(phi, x * np.exp(0.25 * w), rtol=1e-7)
        assert np.allclose(J, np.exp(0.25 * w), rtol=1e-7)


def test_flow_map_inverse_roundtrip():
    s = lambda x: 1.0 + 0.3 * np.sin(x)
    x = np.linspace(-2.0, 2.0, 9)
    for w in (0.8, -1.1):
        phi, _ = flow_map(s, w, x, substeps=32)
        back, _ = flow_map(s, -w, phi, substeps=32)
        assert np.max(np.abs(back - x)) < 1e-9


def test_flow_filter_agrees_constant_loading():
    model = get_model("linear_gaussian")
    obs = realized_observation(model, 1.0, 128, 4)
    res = theta(model, FUNCTION_CATALOG["identity"], obs["driver"],
                obs["jump_record"], 1.0, 3000, 21)
    detail = scalar_flow_filter_detail(model, FUNCTION_CATALOG["identity"],
                                       obs["Y"], 3000, 9021)
    comb = np.hypot(res.theta_se, detail.theta_se)
    assert abs(res.theta - detail.theta) < 3.0 * comb


def test_flow_filter_agrees_geometric_loading():
    model = _geometric_model()
    obs = realized_observation(model, 1.0, 128, 8)
    res = theta(model, FUNCTION_CATALOG["identity"], obs["driver"],
                obs["jump_record"], 1.0, 3000, 33)
    detail = scalar_flow_filter_detail(model, FUNCTION_CATALOG["identity"],
                                       obs["Y"], 3000, 9033)
    comb = np.hypot(res.theta_se, detail.theta_se)
    assert abs(res.theta - detail.theta) < 3.0 * comb


def test_flow_route_compounds_repeated_atoms():
    """One particle drawing several nu1 atoms in one segment moves by each
    of them in turn, on the flow route as on the direct route (sigma0 = 0
    and zero Brownian draws make both deterministic)."""
    model = replace(
        get_model("scalar_jump_diffusion"),
        f3=lambda t, x, y, u: np.zeros_like(np.asarray(x, dtype=float)),
        sigma0=lambda t, x, y: np.zeros(np.asarray(x).shape[:-1] + (1, 1)))
    obs = realized_observation(model, 1.0, 8, 5)
    n_seg = len(obs["Y"].times) - 1
    f = FUNCTION_CATALOG["identity"]
    ends = []
    for count in (1, 2, 3):
        @per_seed_sampler
        def sampler(seed, count=count):
            return np.zeros((n_seg, 1)), [(3, np.array([1.0]))] * count
        direct = direct_reference_filter(model, f, obs["Y"], None, 1.0, 1, 0,
                                         aux_sampler=sampler).theta
        flow = scalar_flow_filter_detail(model, f, obs["Y"], 1, 0,
                                         aux_sampler=sampler).theta
        assert flow == pytest.approx(direct, abs=1e-9)
        ends.append(flow)
    assert ends[0] == pytest.approx(0.1600, abs=1e-4)
    assert ends[1] == pytest.approx(0.2491, abs=1e-4)
    assert ends[0] < ends[1] < ends[2]


def test_flow_filter_rejects_unsupported_models():
    multi = get_model("correlated_jump_multidim")
    obs_y = CadlagPath(np.array([0.0, 1.0]), np.zeros((2, 2)), None, "linear")
    with pytest.raises(ValueError, match="scalar"):
        scalar_flow_filter_detail(multi, FUNCTION_CATALOG["one"], obs_y, 10, 0)

    jumpy = get_model("scalar_jump_diffusion")
    obs = realized_observation(jumpy, 1.0, 32, 2)
    with pytest.raises(ValueError, match="f3"):
        scalar_flow_filter_detail(jumpy, FUNCTION_CATALOG["one"], obs["Y"], 10,
                                  0, jump_record=obs["atoms"])

    import dataclasses
    lg = get_model("linear_gaussian")
    timedep = dataclasses.replace(lg, sigma1=lambda t, x, y: np.broadcast_to(
        np.array([[0.3]]) * (1.0 + t), np.asarray(x).shape[:-1] + (1, 1)))
    obs2 = realized_observation(lg, 1.0, 32, 2)
    with pytest.raises(ValueError, match="sigma1 depends"):
        scalar_flow_filter_detail(timedep, FUNCTION_CATALOG["one"], obs2["Y"],
                                  10, 0)


def test_flow_map_constant_loading_closed_form():
    x = np.linspace(-2.0, 2.0, 9)
    for s_val, w in ((0.3, 0.7), (0.3, -1.3), (-0.25, 2.4), (0.3, 0.0)):
        phi, J = flow_map(s_val, w, x)
        assert np.array_equal(phi, x + s_val * w)
        assert np.array_equal(J, np.ones_like(x))
        rk_phi, rk_J = flow_map(lambda v, c=s_val: c + 0.0 * v, w, x)
        assert np.allclose(rk_phi, phi, rtol=0.0, atol=1e-13)
        assert np.allclose(rk_J, J, rtol=0.0, atol=1e-13)


# -- declared coefficients ---------------------------------------------------


def test_catalog_declares_constant_coefficients():
    """Every catalog model builds its loadings with sim._const, its jump
    loadings with sim._linear_mark and its drifts b1, b2 with
    sim._linear_state, and the three lambda = 1 models build lambda_fn with
    sim._const, so the sweep takes the structured path (the closed-form
    affine-h route for those three): a catalog edit cannot drop it
    silently."""
    rng = np.random.default_rng(63)
    for name, build in MODEL_BUILDERS.items():
        model = build()
        for coef in ("sigma0", "sigma1", "sigma2", "f1", "f2", "f3"):
            assert sim._declared_matrix(getattr(model, coef)) is not None, (
                name, coef)
            assert sim._state_matrix(getattr(model, coef)) is None
        assert _joint_field(model, model.dim_y).varying is not None, name
        dx, dy = model.dim_x, model.dim_y
        x, y = rng.standard_normal((3, dx)), rng.standard_normal((3, dy))
        for coef, rows in (("b1", dx), ("b2", dy)):
            M = sim._state_matrix(getattr(model, coef))
            assert M is not None and M.shape == (rows, dx), (name, coef)
            assert np.allclose(getattr(model, coef)(0.0, x, y), x @ M.T,
                               rtol=1e-15, atol=1e-15), (name, coef)
        assert _RoughRoute(model, _random_driver(rng, dy, 1.0)).affine == (
            name != "scalar_jump_diffusion"), name
    for name in ("linear_gaussian", "correlated_jump_multidim",
                 "stable_shot_noise"):
        model = get_model(name)
        assert sim._declared_matrix(model.lambda_fn) == 1.0, name
        assert np.array_equal(model.lambda_fn(0.0, np.zeros((3, model.dim_x)),
                                              np.array([0.4])), np.ones(3))
    stable = get_model("stable_shot_noise")
    assert _joint_field(stable, stable.dim_y + 1).varying is not None
    mark = np.array([-0.4])
    assert np.array_equal(stable.f2(0.0, np.zeros((3, 1)), mark),
                          np.full((3, 1), 0.25 * -0.4))


_FIELD_CASES = [(name, MODEL_BUILDERS[name]().dim_y) for name in MODEL_BUILDERS]
_FIELD_CASES.append(("stable_shot_noise", 2))


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(_FIELD_CASES), seed=st.integers(0, 2**32 - 1),
       n=st.integers(1, 5), t=st.floats(0.0, 1.0),
       special=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2),
                                  st.sampled_from([0.0, 5e-324])),
                        max_size=4))
def test_structured_action_matches_generic_bitwise(case, seed, n, t, special):
    """The h-row-only directional action of a declared model equals the
    central-difference action over the whole joint field bit for bit,
    zero and subnormal direction rows included."""
    name, driver_dim = case
    model = MODEL_BUILDERS[name]()
    V = _joint_field(model, driver_dim)
    e = model.dim_x + model.dim_y + 1
    rng = np.random.default_rng(seed)
    z = rng.uniform(-2.0, 2.0, (n, e))
    U = rng.uniform(-2.0, 2.0, (n, driver_dim, e))
    for p, i, v in special:
        U[p % n, i % driver_dim] = v
    got = V.jac(t, z, U)
    expect = VectorField(V.evaluator).jac(t, z, U)
    assert got.shape == (n, e)
    assert np.array_equal(got, expect)
    assert np.array_equal(np.signbit(got), np.signbit(expect))


def _plain(coefficient):
    """The same coefficient as a plain callable, which declares nothing."""
    return lambda *args: np.array(coefficient(*args))


def _no_f3(t, x, y, u):
    """f3 = 0, which the flow route needs: common jumps do not move X."""
    return np.zeros_like(np.asarray(x, dtype=float))


def test_plain_callable_loadings_take_the_generic_path():
    """Swapping the declared loadings and lambda for plain callables of the
    same values keeps the rough and direct values to the bit and the flow
    value to rounding (RK4 of a constant loading against its closed form).
    The bitwise baseline has a plain b2, which keeps the differenced h-row
    path; the declared catalog model takes the closed-form affine-h step,
    which agrees with it to rounding. On correlated_jump_multidim a plain
    lambda alone moves the nu2 integrals from one constant vector to every
    particle's state; its 2 x 2 sigma2 stays declared, since a plain one is
    solved per particle, which rounds differently from the declared one."""
    f = FUNCTION_CATALOG["identity"]
    for name, epsilon in (("linear_gaussian", None), ("stable_shot_noise", 0.1),
                          ("correlated_jump_multidim", None)):
        model = get_model(name)
        base = replace(model, b2=_plain(model.b2))
        plain = replace(base, sigma1=_plain(model.sigma1), f2=_plain(model.f2),
                        f3=_plain(model.f3), lambda_fn=_plain(model.lambda_fn))
        if model.dim_y == 1:
            plain = replace(plain, sigma2=_plain(model.sigma2))
        variants = [plain, replace(base, lambda_fn=_plain(model.lambda_fn))]
        obs = realized_observation(model, 1.0, 32, 5, epsilon=epsilon)
        assert _joint_field(plain, obs["driver"].dim).varying is None
        assert _joint_field(base, obs["driver"].dim).varying is not None
        assert _RoughRoute(model, obs["driver"]).affine
        assert not _RoughRoute(base, obs["driver"]).affine
        runs = [
            lambda m: theta(m, f, obs["driver"], obs["jump_record"], 1.0,
                            150, 77),
            lambda m: direct_reference_filter(m, f, obs["Y"], obs["atoms"],
                                              1.0, 150, 77),
        ]
        # the direct route has no closed form: there the declared model
        # matches the baseline to the bit as well
        for run, declared in zip(runs, ([], [model])):
            a = run(base)
            for other in variants + declared:
                b = run(other)
                assert (a.theta, a.theta_se, a.g_f, a.g_1) == (
                    b.theta, b.theta_se, b.g_f, b.g_1), name
        a, b = runs[0](base), runs[0](model)
        np.testing.assert_allclose(
            (b.theta, b.theta_se, b.g_1.value),
            (a.theta, a.theta_se, a.g_1.value), rtol=1e-11, atol=0, err_msg=name)
        if name == "linear_gaussian":
            assert callable(_scalar_sigma1(plain))
            assert not callable(_scalar_sigma1(model))
            a = scalar_flow_filter_detail(model, f, obs["Y"], 150, 77)
            b = scalar_flow_filter_detail(plain, f, obs["Y"], 150, 77)
            assert a.theta == pytest.approx(b.theta, rel=1e-12)
            assert a.g_1.value == pytest.approx(b.g_1.value, rel=1e-12)


def _random_driver(rng, dim, scale, n=6):
    """Marcus lift of a random path with `dim` components on n steps of
    [0, 1], with jumps of size 0.05-3 per component at two sample times."""
    vals = np.vstack([np.zeros(dim), scale * np.cumsum(
        rng.standard_normal((n, dim)), axis=0) / np.sqrt(n)])
    pre = vals.copy()
    at = rng.choice(np.arange(1, n + 1), size=2, replace=False)
    pre[at] = vals[at] - rng.uniform(0.05, 3.0, (2, dim)) * rng.choice(
        [-1.0, 1.0], (2, dim))
    return marcus_lift(CadlagPath(np.linspace(0.0, 1.0, n + 1), vals, pre))


def _close(got, expect, rtol):
    """Agreement to rtol relative to the larger of 1 and the largest entry."""
    return np.max(np.abs(got - expect)) <= rtol * max(1.0, np.max(np.abs(expect)))


_AFFINE_CASES = [("linear_gaussian", 1), ("correlated_jump_multidim", 2),
                 ("stable_shot_noise", 1), ("stable_shot_noise", 2)]


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(_AFFINE_CASES), seed=st.integers(0, 2**32 - 1),
       n=st.integers(1, 6), scale=st.floats(0.05, 3.0))
def test_closed_form_step_matches_davie_step(case, seed, n, scale):
    """The rough route's closed-form step for affine h equals the generic
    davie_step on the joint field, whose h row is finite-differenced, within
    1e-9 relative, on random states and chords (jump column included)."""
    name, dim = case
    model = get_model(name)
    dx, dy = model.dim_x, model.dim_y
    rng = np.random.default_rng(seed)
    route = _RoughRoute(model, _random_driver(rng, dim, scale))
    assert route.affine
    z = rng.uniform(-2.0, 2.0, (n, dx + dy + 1))
    k = int(rng.integers(len(route.times) - 1))
    t = float(route.times[k])
    zc = z.T  # the route's states are component-major
    logw = route.davie(k, t, zc[:dx], zc[dx:dx + dy], zc[-1])
    got = np.column_stack([route.x.T, route.y.T, logw])
    expect = davie_step(_joint_field(model, dim), t, z,
                        route.chords.level1[k], route.chords.level2[k])
    assert _close(got, expect, 1e-9)


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(_AFFINE_CASES), seed=st.integers(0, 2**32 - 1),
       n=st.integers(1, 6), size=st.floats(0.05, 3.0))
def test_one_substep_marcus_jump_is_exact(case, seed, n, size):
    """For affine h the Marcus flow's X and Y slope is constant and its I
    slope linear in the flow time, so one RK4 substep per unit jump size
    agrees with JUMP_SUBSTEPS substeps within 1e-9 relative."""
    name, dim = case
    model = get_model(name)
    V = _joint_field(model, dim)
    rng = np.random.default_rng(seed)
    z = rng.uniform(-2.0, 2.0, (n, model.dim_x + model.dim_y + 1))
    delta = rng.standard_normal(dim)
    delta *= size / np.linalg.norm(delta)
    assert _close(marcus_jump(V, 0.3, z, delta, 1),
                  marcus_jump(V, 0.3, z, delta, JUMP_SUBSTEPS), 1e-9)


def _count_calls(monkeypatch, name):
    """Record the arguments of every call of a filtering module global."""
    calls, real = [], getattr(filtering, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(filtering, name, counted)
    return calls


def _sweep_calls(monkeypatch, model, driver, record, N):
    davie = _count_calls(monkeypatch, "davie_step")
    jumps = _count_calls(monkeypatch, "marcus_jump")
    h, real_h = [], sim._Bound.h

    def counted_h(bound, t, x, y):
        h.append(np.shape(x))
        return real_h(bound, t, x, y)

    monkeypatch.setattr(sim._Bound, "h", counted_h)
    res = theta(model, FUNCTION_CATALOG["identity"], driver, record, 1.0, N, 5)
    return res, davie, h, [a[4] for a in jumps]


def test_closed_form_sweep_calls(monkeypatch):
    """A closed-form sweep makes no davie_step call, one h evaluation
    (sim._Bound.h, component-major) on the N particle states per step, and
    one marcus_jump call of one substep (per unit size) per driver jump; the
    jump's own h evaluations are its one full-field call on the N states and
    its stacked RK4 stages."""
    N = 40
    for name, eps in (("linear_gaussian", None), ("correlated_jump_multidim", None),
                      ("stable_shot_noise", 0.05)):
        model = get_model(name)
        obs = realized_observation(model, 1.0, 16, 3, epsilon=eps)
        res, davie, h_shapes, substeps = _sweep_calls(
            monkeypatch, model, obs["driver"], obs["jump_record"], N)
        steps = len(obs["driver"].times) - 1
        jumps = res.driver_meta["driver_jumps"]
        assert davie == []
        assert substeps == [1] * jumps
        assert [s for s in h_shapes if s[-1:] == (N,)] == (
            [(model.dim_x, N)] * (steps + jumps))
        if name == "stable_shot_noise":
            assert res.driver_meta["driver_jumps"] > 0


def test_generic_sweeps_keep_their_calls(monkeypatch):
    """scalar_jump_diffusion (state-dependent lambda) and a model with a
    plain b2 keep one davie_step call per step and JUMP_SUBSTEPS per unit
    size for each driver jump."""
    sjd = get_model("scalar_jump_diffusion")
    obs = realized_observation(sjd, 1.0, 32, 5)
    _, rectangular = mesh_lifts(obs, 1.0, 8)
    stable = get_model("stable_shot_noise")
    obs2 = realized_observation(stable, 1.0, 16, 3, epsilon=0.05)
    for model, driver, record in (
            (sjd, rectangular, obs["jump_record"]),
            (replace(stable, b2=_plain(stable.b2)), obs2["driver"], None)):
        assert not _RoughRoute(model, driver).affine
        res, davie, _, substeps = _sweep_calls(monkeypatch, model, driver,
                                               record, 30)
        assert len(davie) == len(driver.times) - 1
        assert res.driver_meta["driver_jumps"] > 0
        assert substeps == [JUMP_SUBSTEPS] * res.driver_meta["driver_jumps"]


def _counting_lambda(model):
    """The model with its lambda_fn wrapped to record the state shape of
    each evaluation; a declared lambda stays declared."""
    calls = []

    def lam(t, x, u):
        calls.append(np.shape(x))
        return model.lambda_fn(t, x, u)

    if sim._declared_matrix(model.lambda_fn) is not None:
        lam.matrix = sim._declared_matrix(model.lambda_fn)
    return replace(model, lambda_fn=lam), calls


def test_reference_rates_evaluate_lambda_once_per_atom():
    """One reference-rate call evaluates lambda once per atom of nu2 and
    gives the drifts, h and the (1 - lambda) compensator of their separate
    definitions bit for bit."""
    model, calls = _counting_lambda(get_model("scalar_jump_diffusion"))
    rng = np.random.default_rng(61)
    t, x, y = 0.3, rng.standard_normal((40, 1)), rng.standard_normal((40, 1))
    bx, by, h, comp = (np.asarray(r).T for r in
                       model._bound_batch.reference_rates(t, x.T, y.T))
    assert calls == [(40, 1)] * len(model.nu2.atoms)

    def lam(u):
        return np.asarray(model.lambda_fn(t, x, u), dtype=float)

    marks = model.nu2.marks()
    rhs_ref = model.b2(t, x, y) + sim._atom_sum(
        model.nu2, [model.f2(t, y, u) * (1.0 - lam(u))[..., None] for u in marks])
    h_ref = rhs_ref / model.sigma2(t, y)[..., 0]  # sigma2 is 1 x 1
    bx_ref = (model.b1(t, x, y)
              - sim._atom_sum(model.nu1,
                              [model.f1(t, x, y, u) for u in model.nu1.marks()])
              - sim._atom_sum(
                  model.nu2, [model.f3(t, x, y, u) * lam(u)[..., None] for u in marks])
              - np.einsum("...ij,...j->...i", model.sigma1(t, x, y), h_ref))
    by_ref = (model.b2(t, x, y)
              - sim._atom_sum(
                  model.nu2, [model.f2(t, y, u) * lam(u)[..., None] for u in marks])
              - np.einsum("...ij,...j->...i", model.sigma2(t, y), h_ref))
    comp_ref = sim._atom_sum(model.nu2, [1.0 - lam(u) for u in marks])
    for got, expect in ((bx, bx_ref), (by, by_ref), (h, h_ref),
                        (comp, comp_ref)):
        assert np.array_equal(got, expect)


def test_plain_lambda_evaluations_per_step():
    """A plain lambda_fn (scalar_jump_diffusion, two atoms) is evaluated at
    most 8 times per rough step (the reference rates at both Heun stages,
    the Davie step's field and its stacked differences, once per atom each)
    and 6 per direct step, plus once per observed atom: binding a route's
    step adds no evaluation."""
    base = get_model("scalar_jump_diffusion")
    obs = realized_observation(base, 1.0, 32, 5)
    model, calls = _counting_lambda(base)
    f = FUNCTION_CATALOG["identity"]
    atoms = len(obs["atoms"][0])
    assert atoms > 0 and len(obs["jump_record"][0]) == atoms
    theta(model, f, obs["driver"], obs["jump_record"], 1.0, 20, 3)
    assert 0 < len(calls) <= 8 * (len(obs["driver"].times) - 1) + atoms
    calls.clear()
    direct_reference_filter(model, f, obs["Y"], obs["atoms"], 1.0, 20, 3)
    assert 0 < len(calls) <= 6 * (len(obs["Y"].times) - 1) + atoms


def test_sweeps_leave_no_reference_cycle():
    """No route refers to itself (a bound method kept on it would), so its
    particles are freed when the sweep returns, not when the cyclic
    collector next runs: with the collector off, the rough route (affine
    and not), the direct route and the flow route leave nothing for it."""
    f = FUNCTION_CATALOG["identity"]
    runs = []
    for name in ("linear_gaussian", "scalar_jump_diffusion"):
        model = get_model(name)
        obs = realized_observation(model, 1.0, 16, 3)
        runs += [lambda m=model, o=obs: theta(m, f, o["driver"], o["jump_record"],
                                              1.0, 20, 5),
                 lambda m=model, o=obs: direct_reference_filter(m, f, o["Y"], o["atoms"],
                                                                1.0, 20, 5)]
    runs.append(lambda m=model, o=obs: scalar_flow_filter_detail(
        replace(m, f3=sim._linear_mark([[0.0]])), f, o["Y"], 20, 5, o["atoms"]))
    for run in runs:
        run()  # first use: the models keep what they bind
        gc.collect()
        gc.disable()
        try:
            run()
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_declared_lambda_integrals_at_one_state():
    """With lambda_fn, f2 and f3 declared, lambda is evaluated once per atom
    at one state, once per model: h and the reference rates share the nu2
    integrals kept on first use, and give the values of a plain lambda
    evaluated at every particle's state bit for bit."""
    base = get_model("correlated_jump_multidim")
    model, calls = _counting_lambda(base)
    plain = replace(base, lambda_fn=_plain(base.lambda_fn))
    rng = np.random.default_rng(62)
    x, y = rng.standard_normal((30, 2)), rng.standard_normal((30, 2))
    assert np.array_equal(sim.h_function(model, 0.1, x, y),
                          sim.h_function(plain, 0.1, x, y))
    assert calls == [(1, 2)] * len(base.nu2.atoms)  # one zero state
    calls.clear()
    got = model._bound_batch.reference_rates(0.1, x.T, y.T)
    sim.h_function(model, 0.4, x[:3], y[:3])
    assert calls == []
    for g, e in zip(got, plain._bound_batch.reference_rates(0.1, x.T, y.T)):
        assert np.array_equal(np.broadcast_to(g, np.shape(e)), e)


# -- rough-vs-direct consistency --------------------------------------------


def test_rough_and_direct_routes_agree():
    model = get_model("scalar_jump_diffusion")
    out = robust_consistency_check(model, FUNCTION_CATALOG["identity"],
                                   1.0, 800, seeds=(0, 1), grid=64)
    assert out["n_seeds"] == 2
    assert out["all_pass"], out["rows"]
    for row in out["rows"]:
        assert row["combined_se"] > 0
        assert row["gap"] <= 3.0 * row["combined_se"]


def test_rough_and_direct_routes_agree_infinite_activity():
    model = get_model("stable_shot_noise")
    out = robust_consistency_check(model, FUNCTION_CATALOG["identity"],
                                   1.0, 600, seeds=(0,), grid=64, epsilon=0.05)
    assert out["all_pass"], out["rows"]


def test_direct_route_reads_every_observation_component():
    """At d_Y = 2 the direct route ends at the observation's whole row at
    the horizon, so theta of the second component is that component."""
    model = get_model("correlated_jump_multidim")
    obs = realized_observation(model, 1.0, 16, 2)
    f = lambda x, y: y[..., 1]
    res = direct_reference_filter(model, f, obs["Y"], obs["atoms"], 1.0, 4, 0)
    y_T = obs["Y"].values[-1]
    assert y_T[0] != y_T[1]
    assert res.theta == pytest.approx(y_T[1], rel=1e-12, abs=1e-12)


# -- interpolation robustness experiment ------------------------------------


def test_robustness_experiment_rows():
    model = get_model("scalar_jump_diffusion")
    rows = robustness_experiment(model, FUNCTION_CATALOG["identity"], 1.0,
                                 [4, 8], particles=300, seed_base=3)
    assert [r["mesh"] for r in rows] == [4, 8]
    for r in rows:
        assert r["norm"] == "rho_p"
        assert r["driver_dist"] > 0
        assert r["gap"] == abs(r["theta_linear"] - r["theta_rectangular"])
        assert r["ratio"] == pytest.approx(r["gap"] / r["driver_dist"])
        assert r["particles"] == 300
    again = robustness_experiment(model, FUNCTION_CATALOG["identity"], 1.0,
                                  [4, 8], particles=300, seed_base=3)
    assert [r["theta_linear"] for r in rows] == [r["theta_linear"] for r in again]


def test_trend_non_increasing():
    assert trend_non_increasing([3.0, 2.0, 1.0], [0.0, 0.0, 0.0])
    assert not trend_non_increasing([1.0, 2.0], [0.0, 0.0])
    assert trend_non_increasing([1.0, 1.05], [0.1, 0.1])
    with pytest.raises(ValueError):
        trend_non_increasing([1.0], [])


# -- small-jump truncation stability ----------------------------------------


def test_epsilon_stability_smoke():
    model = get_model("stable_shot_noise")
    out = epsilon_stability_experiment(model, FUNCTION_CATALOG["identity"],
                                       1.0, [0.2, 0.1], particles=200,
                                       seed=1, steps=32)
    assert out["epsilons"] == [0.2, 0.1]
    assert len(out["thetas"]) == 2 and len(out["beta_p"]) == 1
    assert len(out["theta_gaps"]) == 1
    assert out["beta_p"][0] > 0
    assert all(np.isfinite(v) for v in out["thetas"])


def test_epsilon_stability_validation():
    model = get_model("stable_shot_noise")
    with pytest.raises(ValueError, match="decrease"):
        epsilon_stability_experiment(model, FUNCTION_CATALOG["identity"],
                                     1.0, [0.1, 0.2], particles=10, seed=0)
    finite = get_model("scalar_jump_diffusion")
    with pytest.raises(ValueError, match="infinite"):
        epsilon_stability_experiment(finite, FUNCTION_CATALOG["identity"],
                                     1.0, [0.2, 0.1], particles=10, seed=0)


# -- validation and failure paths -------------------------------------------


def test_rejects_bad_particle_count_and_horizon():
    model, obs = _jump_model_observation()
    with pytest.raises(ValueError, match="particles"):
        theta(model, FUNCTION_CATALOG["one"], obs["driver"],
              obs["jump_record"], 1.0, 0, 0)
    with pytest.raises(ValueError, match="grid"):
        theta(model, FUNCTION_CATALOG["one"], obs["driver"],
              obs["jump_record"], 0.777, 10, 0)
    with pytest.raises(ValueError, match="horizon t must be positive"):
        theta(model, FUNCTION_CATALOG["one"], obs["driver"],
              obs["jump_record"], 0.0, 10, 0)


def test_rejects_off_grid_and_initial_atoms():
    model = get_model("scalar_jump_diffusion")
    drv = _linear_driver(np.linspace(0.0, 1.0, 5), [0.0, 0.1, 0.0, -0.1, 0.2])
    with pytest.raises(ValueError, match="not on the driver grid"):
        theta(model, FUNCTION_CATALOG["one"], drv, ([0.3], [[1.0]]), 1.0, 10, 0)
    with pytest.raises(ValueError, match="initial time"):
        theta(model, FUNCTION_CATALOG["one"], drv, ([0.0], [[1.0]]), 1.0, 10, 0)


def test_declared_aux_jumps_match_the_atom_loop():
    """A declared f1 adds its kept values at a segment's slice of the
    auxiliary table by one np.add.at, without calling f1: the particles end
    where the loop over the rows of a plain f1 puts them, bit for bit, with
    several atoms of one mark and of different marks on one particle, and
    particles without atoms. A mark that is not one of nu1's sends the
    segment through the loop."""
    rng = np.random.default_rng(11)
    marks = rng.standard_normal((3, 2))
    calls = []
    jump = sim._linear_mark(rng.standard_normal((2, 2)))

    def counted(*args):
        calls.append(args[-1])
        return jump(*args)

    counted.matrix = jump.matrix
    declared = replace(get_model("correlated_jump_multidim"), f1=counted,
                       nu1=LevyMeasure(tuple((tuple(u), 0.5) for u in marks)))
    plain = replace(declared, f1=_plain(jump))
    particle = [0, 2, 2, 2, 3, 5, 5]
    mark = marks[[1, 0, 2, 0, 1, 2, 2]]
    x, y = rng.standard_normal((2, 6)), rng.standard_normal((2, 6))
    for extra, f1_calls in ((0, 0), (1, len(particle) + 1)):
        rows = (np.array(particle + [4] * extra),
                np.concatenate([mark, np.full((extra, 2), 9.0)]))
        ends = []
        for model in (declared, plain):
            route = _Route(model)
            route.start(6)
            route.x, route.y = x.copy(), y.copy()
            # the model's first use evaluates a declared f1 at nu1's marks
            column = filtering._kept_columns(model, rows[1])
            calls.clear()
            route.aux_jumps(0.5, *rows, column)
            ends.append(route.x)
            if model is declared:
                assert len(calls) == f1_calls
        assert ends[0].tobytes() == ends[1].tobytes()
        assert not np.array_equal(ends[0], x)


def test_atoms_past_the_horizon_are_skipped():
    """Observed atoms after t, on the grid or off it, leave theta at t as it
    is, bit for bit."""
    model = get_model("scalar_jump_diffusion")
    drv = _linear_driver(np.linspace(0.0, 1.0, 5), [0.0, 0.1, 0.0, -0.1, 0.2])
    f = FUNCTION_CATALOG["identity"]
    record = ([0.25], [[1.0]])
    res = theta(model, f, drv, record, 0.5, 50, 3)
    assert res.driver_meta["observed_atoms"] == 1
    assert theta(model, f, drv, ([0.25, 0.75, 0.8], [[1.0], [-1.0], [1.0]]),
                 0.5, 50, 3) == res


def _normalize_each_atom(jump_record, times, t):
    """The per-atom loop that _normalize_record replaced, reading the table
    row by row: the reference of test_normalize_record_matches_the_atom_loop."""
    tol = 1e-9 * max(1.0, float(times[-1]))
    rows = []
    for at, mark in zip(*jump_record):
        at = float(at)
        if at > t + tol:
            continue
        i = int(np.argmin(np.abs(times - at)))
        if abs(times[i] - at) > tol:
            raise ValueError(f"observed atom at t={at} is not on the driver grid")
        if i == 0:
            raise ValueError("observed atom at the initial time")
        rows.append((i - 1, np.atleast_1d(np.asarray(mark, dtype=float))))
    rows.sort(key=lambda row: row[0])  # stable
    return tuple(map(np.array, zip(*rows))) if rows else (np.zeros(0, dtype=int),
                                                         np.zeros((0, 1)))


def _outcome(normalize, record, times, t):
    try:
        return normalize(record, times, t)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_normalize_record_matches_the_atom_loop(data):
    """Random observed-atom tables against the per-atom loop, bit for bit:
    on-grid times jittered within the grid tolerance, exact ties between two
    grid times closer than it, rows past the horizon (jittered onto it too),
    unsorted and repeated rows, and the odd off-grid or initial-time row,
    which must raise the loop's message for the first such row. A table
    that is not (times 1-d, marks 2-d, equal lengths) raises ValueError
    naming the field."""
    T = data.draw(st.sampled_from([1.0, 2.5]))
    tol = 1e-9 * T
    times = np.linspace(0.0, T, data.draw(st.integers(2, 7)))
    close = times[data.draw(st.lists(st.integers(1, len(times) - 2), max_size=2))
                  if len(times) > 2 else []]
    times = np.union1d(times, close + 2.0 ** -40)  # pairs closer than tol
    t = float(times[data.draw(st.integers(1, len(times) - 1))])
    t += data.draw(st.sampled_from([0.0, 0.5, -0.5])) * tol
    good = data.draw(st.lists(st.sampled_from(["grid"] * 3 + ["tie"]), max_size=40))
    bad = data.draw(st.sampled_from([[], [], [], ["off"], ["initial"], ["initial", "off"]]))
    at = []
    for kind in good + bad:
        k = data.draw(st.integers(1, len(times) - 1))
        if kind == "grid":
            at.append(times[k] + data.draw(st.floats(-0.99, 0.99)) * tol)
        elif kind == "tie" and len(close):
            at.append(data.draw(st.sampled_from(close)) + 2.0 ** -41)
        elif kind == "off":
            at.append(times[k] + data.draw(st.sampled_from([-1.0, 1.0])) * 1e-3)
        elif kind == "initial":
            at.append(data.draw(st.floats(0.0, 0.99)) * tol)
    at = at + data.draw(st.lists(st.sampled_from(at), max_size=5)) if at else at
    d_u = data.draw(st.integers(1, 2))
    marks = np.random.default_rng(data.draw(st.integers(0, 2**32))).standard_normal((len(at), d_u))
    order = data.draw(st.permutations(range(len(at))))
    record = (np.array(at, dtype=float)[order], marks[order])

    got = _outcome(filtering._normalize_record, record, times, t)
    want = _outcome(_normalize_each_atom, record, times, t)
    if isinstance(want, str):
        assert got == want
    else:
        assert got[0].dtype == want[0].dtype and np.array_equal(got[0], want[0])
        assert len(got[1]) == len(want[1]) and got[1].tobytes() == want[1].tobytes()
    assert filtering._normalize_record(None, times, t)[0].size == 0

    for field, broken in (("table", list(zip(*record))[:1] or [(0.5, [1.0])]),
                          ("times", (record[0][:, None], record[1])),
                          ("marks", (record[0], record[1][:, 0])),
                          ("lengths", (np.append(record[0], T), record[1]))):
        with pytest.raises(ValueError, match=f"jump record: .*{field}"):
            filtering._normalize_record(broken, times, t)


def test_rejects_wrong_driver_dimension():
    model = get_model("linear_gaussian")
    times = np.linspace(0.0, 1.0, 5)
    vals = np.zeros((5, 3))
    vals[:, 0] = [0.0, 0.1, 0.0, -0.1, 0.2]
    drv = stratonovich_lift(CadlagPath(times, vals, None, "linear"))
    with pytest.raises(ValueError, match="driver dimension"):
        theta(model, FUNCTION_CATALOG["one"], drv, None, 1.0, 10, 0)


def test_weight_abort_reports_extremes():
    model, obs = _jump_model_observation()
    with pytest.raises(WeightAbortError) as info:
        theta(model, FUNCTION_CATALOG["one"], obs["driver"],
              obs["jump_record"], 1.0, 50, 0, abort_log_weight=1e-4)
    diag = info.value.diagnostics
    assert diag["max_log_weight"] >= diag["min_log_weight"]
    assert diag["threshold"] == 1e-4
    assert 0 <= diag["particle_index"] < 50


def test_degenerate_weights_raise():
    model = get_model("linear_gaussian", c=60.0, gamma=0.05, x0=2.0)
    obs = realized_observation(model, 1.0, 64, 0)
    with pytest.raises(DegenerateWeightsError) as info:
        theta(model, FUNCTION_CATALOG["one"], obs["driver"], None, 1.0,
              20, 0, abort_log_weight=np.inf)
    assert "max_log_weight" in info.value.diagnostics


@pytest.mark.parametrize("route", ["rough", "direct"])
def test_particle_blowup_names_particle_and_step(route):
    """An infinite auxiliary increment of one particle in one segment stops
    the sweep at that step with ParticleBlowupError naming that particle."""
    model = get_model("linear_gaussian")
    obs = realized_observation(model, 1.0, 16, 2)
    block = gaussian_poisson_sampler(model, obs["driver"].times)

    def sampler(seed_base, N):
        dB, atoms = block(seed_base, N)
        dB[3, 5, 0] = np.inf
        return dB, atoms

    f = FUNCTION_CATALOG["identity"]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        with pytest.raises(ParticleBlowupError) as info:
            if route == "rough":
                theta(model, f, obs["driver"], None, 1.0, 8, 0,
                      aux_sampler=sampler)
            else:
                direct_reference_filter(model, f, obs["Y"], None, 1.0, 8, 0,
                                        aux_sampler=sampler)
    assert info.value.diagnostics == {"particle_index": 3, "step_index": 5}
    assert str(info.value).startswith("particle 3 blew up at step 5 ")


# -- auxiliary noise sampler ------------------------------------------------


def _atom_list(table):
    """The rows of a (segment, particle, mark) table as comparable tuples,
    in table order."""
    seg, particle, mark = table
    return [(int(s), int(i), tuple(m)) for s, i, m in zip(seg, particle, mark.tolist())]


def test_gaussian_poisson_sampler_shapes_and_determinism():
    model = get_model("scalar_jump_diffusion")
    times = np.linspace(0.0, 1.0, 9)
    sample = gaussian_poisson_sampler(model, times)
    dB, atoms = sample(123, 400)
    assert dB.shape == (400, 8, 1)
    dB2, atoms2 = sample(123, 400)
    assert np.array_equal(dB, dB2)
    assert _atom_list(atoms) == _atom_list(atoms2)
    seg, particle, mark = atoms
    assert seg.shape == particle.shape == (len(mark),) and mark.shape[1:] == (1,)
    assert np.all((0 <= seg) & (seg < 8)) and np.all((0 <= particle) & (particle < 400))
    # across the block the nu1 atoms appear at the configured rate
    assert 0.3 < len(seg) / 400 < 0.7  # rate1 * T = 0.5


def test_sampler_marks_follow_choice_stream():
    """Three auxiliary marks at unequal rates: a block draw is the scheme
    gaussian_poisson_sampler documents, each atom's mark being the index
    Generator.choice(p=...) returns for the atom's mark uniform, and the
    marks come out at the rates' proportions."""
    nu1 = LevyMeasure((((1.0,), 0.4), ((-0.5,), 1.1), ((2.0,), 0.7)))
    model = replace(get_model("scalar_jump_diffusion"), nu1=nu1)
    times = np.linspace(0.0, 1.0, 17)
    sample = gaussian_poisson_sampler(model, times)
    probs = nu1.rates() / nu1.total_rate
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    N = 3000
    for seed_base in (0, 1, 2**40 + 7):
        noise, counts_ss, rows_ss = np.random.SeedSequence(seed_base).spawn(3)
        dB = (np.random.default_rng(noise).standard_normal((N, 16, 1))
              * np.sqrt(np.diff(times))[:, None])
        counts = np.random.default_rng(counts_ss).poisson(nu1.total_rate, N)
        rows = np.random.default_rng(rows_ss).random((counts.sum(), 2))
        expected = []
        start = 0
        for i, k in enumerate(counts):
            own = rows[start:start + k]
            start += k
            for at, u in own[np.argsort(own[:, 0], kind="stable")]:
                seg = min(max(int(np.searchsorted(times, at, side="left")) - 1, 0), 15)
                pick = int(cdf.searchsorted(u, side="right"))
                expected.append((seg, i, tuple(nu1.marks()[pick])))
        got_dB, atoms = sample(seed_base, N)
        assert np.array_equal(got_dB, dB)
        assert _atom_list(atoms) == sorted(expected, key=lambda a: a[0])
    picks = [int(np.flatnonzero(nu1.marks()[:, 0] == m)[0]) for m in atoms[2][:, 0]]
    freq = np.bincount(picks, minlength=3) / len(picks)
    se = np.sqrt(probs * (1.0 - probs) / len(picks))
    assert len(picks) > 5000
    assert np.all(np.abs(freq - probs) < 5.0 * se)


def test_sampler_without_auxiliary_jumps():
    model = get_model("linear_gaussian")
    sample = gaussian_poisson_sampler(model, np.linspace(0.0, 1.0, 5))
    dB, atoms = sample(7, 3)
    assert dB.shape == (3, 4, 1) and _atom_list(atoms) == []


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**63), n=st.integers(1, 2000))
def test_block_sampler_prefix_independence_and_rate(seed, n):
    """A draw of n particles is the first n of a draw of 2000 at the same
    seed base; seed bases s and s + 1 share no Brownian row (a per-seed
    stream would share all but one); atoms come at the nu1 rate."""
    N = 2000
    times = np.linspace(0.0, 1.0, 9)
    sample = gaussian_poisson_sampler(get_model("scalar_jump_diffusion"), times)
    dB, atoms = sample(seed, N)
    dB_n, atoms_n = sample(seed, n)
    assert np.array_equal(dB_n, dB[:n])
    prefix = [a for a in _atom_list(atoms) if a[1] < n]
    assert _atom_list(atoms_n) == prefix
    dB_next, _ = sample(seed + 1, N)
    assert not ({r.tobytes() for r in dB.reshape(N, -1)}
                & {r.tobytes() for r in dB_next.reshape(N, -1)})
    rate = len(atoms[0]) / N
    assert abs(rate - 0.5) < 5.0 * np.sqrt(0.5 / N)  # rate1 * T = 0.5


# -- realized observations --------------------------------------------------


def test_realized_observation_finite_regime():
    model = get_model("scalar_jump_diffusion")
    obs = realized_observation(model, 1.0, 64, 6)
    assert set(obs) == {"X", "Y", "wtilde", "driver", "jump_record",
                        "atoms", "noise"}
    assert obs["driver"].dim == 1
    assert obs["jump_record"] is obs["atoms"]
    for at, mark in zip(*obs["atoms"]):
        assert 0.0 < at <= 1.0
        assert mark.shape == (1,)
    # atom times sit on the driver grid
    for at in obs["atoms"][0]:
        assert np.min(np.abs(obs["driver"].times - at)) < 1e-9
    # no observed atom on a short horizon: the empty nu2 record and the
    # empty table keep correlated_jump_multidim's two mark components
    model = get_model("correlated_jump_multidim")
    assert sim.make_noise_bundle(model, 0.01, 4, seed=0).pp_jumps["nu2"].marks.shape == (0, 2)
    obs = realized_observation(model, 0.01, 4, 0)
    assert [a.shape for a in obs["atoms"]] == [(0,), (0, 2)]
    # marks given flat: one row per atom, width 1 when there is none
    for times, marks, shape in (([0.2, 0.5], [1.0, -1.0], (2, 1)),
                                ([0.2], [0.4, -0.2], (1, 2)), ([], [], (0, 1))):
        assert sim.JumpRecord(times, marks, np.zeros(len(times))).marks.shape == shape


def test_realized_observation_infinite_regime():
    model = get_model("stable_shot_noise")
    obs = realized_observation(model, 1.0, 64, 6, epsilon=0.05)
    assert obs["driver"].dim == 2
    assert [len(a) for a in obs["jump_record"]] == [0, 0]
    assert len(obs["atoms"][0]) > 0
    # the second driver column is the cumulative observed jump path
    jumps = int(np.sum(obs["driver"].jump_flags))
    assert jumps == len(obs["atoms"][0])
    # the mesh lifts carry the input alone, so they would drop those atoms
    with pytest.raises(ValueError, match="joined jump path"):
        mesh_lifts(obs, 1.0, 8)
    # the driver carries the atoms: the sweep refuses them a second time as
    # a record, and a row past the horizon is dropped before that rule
    f = FUNCTION_CATALOG["identity"]
    with pytest.raises(ValueError, match="carries the observed jump path"):
        theta(model, f, obs["driver"], obs["atoms"], 1.0, 50, 17)
    past = theta(model, f, obs["driver"], ([2.0], [[0.1]]), 1.0, 50, 17)
    assert past == theta(model, f, obs["driver"], None, 1.0, 50, 17)
    first = float(obs["atoms"][0][0])
    with pytest.raises(ValueError, match="carries the observed jump path"):
        theta(model, f, obs["driver"], ([first], [[0.1]]), first, 50, 17)


# -- batch independence and the per-step arithmetic --------------------------


@pytest.fixture(scope="module")
def batch_observations():
    """One 16-step observation per catalog model."""
    out = {}
    for name in MODEL_BUILDERS:
        model = get_model(name)
        eps = 0.05 if model.regime == "infinite_jumps" else None
        out[name] = realized_observation(model, 1.0, 16, 7, epsilon=eps)
    return out


def _terminal_states(model, route, obs, particles, seed_base):
    """The particles' terminal (x, y, log w) of one sweep, particle-major."""
    real, got = filtering._result_from_sweep, {}

    def capture(f, x, y, logw, *rest):
        got.update(x=np.array(x), y=np.array(y), logw=np.array(logw))
        return real(f, x, y, logw, *rest)

    f = FUNCTION_CATALOG["identity"]
    with mock.patch.object(filtering, "_result_from_sweep", capture):
        if route == "rough":
            theta(model, f, obs["driver"], obs["jump_record"], 1.0, particles,
                  seed_base)
        elif route == "flow":
            scalar_flow_filter_detail(model, f, obs["Y"], particles, seed_base,
                                      jump_record=obs["atoms"])
        else:
            direct_reference_filter(model, f, obs["Y"], obs["atoms"], 1.0,
                                    particles, seed_base)
    return got


@settings(max_examples=4, deadline=None)
@given(seed_base=st.integers(0, 2**31 - 1))
def test_particle_does_not_depend_on_the_batch(batch_observations, seed_base):
    """A particle's terminal (x, y, log w) is the same bits in a sweep of 1,
    7 or 300 particles: the block sampler's first N particles of a draw of
    N' are the draw of N, and no batch operation of the sweep mixes
    particles. Every example checks all four catalog models, on the rough
    and the direct route, with declared sigma1 and sigma2 and with plain
    callables of the same values (the generic Davie step, and per-particle
    solves of a 2 x 2 sigma2). The flow route, which pulls back and flows
    again only the particles that jumped, runs on linear_gaussian and on
    scalar_jump_diffusion with f3 = 0 (closed-form and RK4 flows)."""
    for name in sorted(MODEL_BUILDERS):
        obs = batch_observations[name]
        base = get_model(name)
        cases = [(base, "rough"), (base, "direct")]
        if name in ("linear_gaussian", "scalar_jump_diffusion"):
            cases.append((replace(base, f3=_no_f3), "flow"))
        for (declared, route), plain in itertools.product(cases, (False, True)):
            model = replace(declared, sigma1=_plain(declared.sigma1),
                            sigma2=_plain(declared.sigma2)) if plain else declared
            ref = _terminal_states(model, route, obs, 300, seed_base)
            for n in (1, 7):
                got = _terminal_states(model, route, obs, n, seed_base)
                for key in ("x", "y", "logw"):
                    assert got[key].tobytes() == ref[key][:n].tobytes(), (
                        name, route, plain, key, n)


def test_no_einsum_runs_per_step(monkeypatch):
    """theta and direct_reference_filter call np.einsum as often on a
    16-step grid as on a 32-step one, on every catalog model: every
    per-step product is an ordered column sum (rde._column_sum), and
    einsum runs only where a sweep sets up."""
    real, count = np.einsum, [0]

    def counted(*args, **kwargs):
        count[0] += 1
        return real(*args, **kwargs)

    f = FUNCTION_CATALOG["identity"]
    for name in sorted(MODEL_BUILDERS):
        model = get_model(name)
        eps = 0.05 if model.regime == "infinite_jumps" else None
        counts = {}
        for steps in (16, 32):
            obs = realized_observation(model, 1.0, steps, 3, epsilon=eps)
            monkeypatch.setattr(np, "einsum", counted)
            count[0] = 0
            theta(model, f, obs["driver"], obs["jump_record"], 1.0, 20, 1)
            counts["rough", steps] = count[0]
            count[0] = 0
            direct_reference_filter(model, f, obs["Y"], obs["atoms"], 1.0,
                                    20, 1)
            counts["direct", steps] = count[0]
            monkeypatch.setattr(np, "einsum", real)
        for route in ("rough", "direct"):
            assert counts[route, 16] == counts[route, 32], (name, counts)


def _table(rows):
    """(segment, particle, mark) rows as the block sampler's table."""
    seg, particle, mark = zip(*rows) if rows else ((), (), ())
    return (np.array(seg, dtype=int), np.array(particle, dtype=int),
            np.array(mark, dtype=float).reshape(-1, 1))


@pytest.mark.parametrize("field,broken", [
    ("table", lambda dB, s, i, m: (dB, {0: [(0, m[0])], 1: [], 2: [(0, m[1]), (1, m[2])]})),
    ("table", lambda dB, s, i, m: (dB, (s, m))),
    ("lengths", lambda dB, s, i, m: (dB, (s, i[:2], m))),
    ("segment", lambda dB, s, i, m: (dB, (s[::-1], i, m))),
    ("segment", lambda dB, s, i, m: (dB, (s - 1, i, m))),
    ("segment", lambda dB, s, i, m: (dB, (s + 2, i, m))),
    ("particle", lambda dB, s, i, m: (dB, (s, i - 1, m))),
    ("particle", lambda dB, s, i, m: (dB, (s, i + 1, m))),
    ("mark", lambda dB, s, i, m: (dB, (s, i, m[:, 0]))),
    ("dB", lambda dB, s, i, m: (dB[1:], (s, i, m))),
    ("dB", lambda dB, s, i, m: (dB[:, :1], (s, i, m))),
    ("dB", lambda dB, s, i, m: (np.concatenate([dB, dB], axis=2), (s, i, m))),
])
def test_block_sampler_table_is_checked(field, broken):
    """A custom block sampler's draw is checked once per sweep, and a
    violation names its field. Unchecked, particle -1 would move particle
    N - 1 and a negative segment would be dropped; the dict of the earlier
    protocol is named as not a table. Atoms past the horizon's
    segment, on a sampler's longer grid, are accepted and never applied."""
    model = get_model("scalar_jump_diffusion")
    drv = _linear_driver(np.linspace(0.0, 1.0, 5), [0.0, 0.1, 0.0, -0.1, 0.2])
    f = FUNCTION_CATALOG["identity"]
    dB = np.zeros((2, 4, 1))
    table = _table([(0, 0, 1.0), (2, 0, -1.0), (2, 1, 1.0)])
    late = _table([(0, 0, 1.0), (2, 0, -1.0), (2, 1, 1.0), (3, 1, 5.0)])
    assert (theta(model, f, drv, None, 0.75, 2, 0, aux_sampler=lambda s, n: (dB, table))
            == theta(model, f, drv, None, 0.75, 2, 0, aux_sampler=lambda s, n: (dB, late)))
    with pytest.raises(ValueError, match=f"aux sampler: .*{field}"):
        theta(model, f, drv, None, 1.0, 2, 0,
              aux_sampler=lambda s, n: broken(dB, *table))


# nu1's support and two marks off it, for the auxiliary table property
_AUX_MARKS = (1.0, -0.5, 2.0)
_OFF_MARKS = (0.3, -1.0)


def _pull_back_each_atom(route, t1, particle, mark, column):
    """The flow route's auxiliary jumps atom by atom, the reference for its
    shared rule: each atom moves phi by f1 and pulls X~ back through
    phi(-W), and then every particle is flowed forward again."""
    for i, u in zip(particle.tolist(), mark):
        xi = route.phi[i:i + 1]
        xp = xi + np.asarray(route.model.f1(t1, xi[:, None], route.y[:, i], u))[..., 0]
        route.xt[i] = flow_map(route.s, -route.w1, xp)[0][0]
        route.phi[i] = xp[0]
    route.phi, route.dphi = flow_map(route.s, route.w1, route.xt)


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_aux_table_sweeps(data):
    """Random auxiliary tables (repeated particles, several nu1 marks,
    off-support marks, empty segments) on the rough and direct routes, with
    observed atoms:
    - a declared f1 and the same f1 plain end bit for bit equal;
    - with a plain f1 that moves x to the mark, one particle's two different
      marks in one segment apply in table order: swapping them changes the
      result;
    - the flow route (f3 = 0, sigma1 declared and an x-dependent callable)
      ends bit for bit where the atom-by-atom pull-back puts it, with the
      declared, plain and state-dependent f1;
    - per_seed_sampler, replaying a block draw's rows particle by particle,
      returns that draw's dB and table."""
    nu1 = LevyMeasure(tuple(((u,), r) for u, r in zip(_AUX_MARKS, (0.4, 1.1, 0.7))))
    declared = replace(get_model("scalar_jump_diffusion", rate2=3.0), nu1=nu1)
    obs = realized_observation(declared, 1.0, 4, data.draw(st.integers(0, 20)))
    n_seg = len(obs["driver"].times) - 1
    f = FUNCTION_CATALOG["identity"]
    N = data.draw(st.integers(1, 6))
    rows = data.draw(st.lists(st.tuples(
        st.integers(0, n_seg - 1), st.integers(0, N - 1),
        st.sampled_from(_AUX_MARKS + _OFF_MARKS)), max_size=16))
    pair = (data.draw(st.integers(0, n_seg - 1)), data.draw(st.integers(0, N - 1)))
    rows = sorted(rows + [pair + (1.0,), pair + (2.0,)], key=lambda r: r[:2])
    at = max(k for k, r in enumerate(rows) if r[:2] == pair) - 1  # the pair's 1.0
    swapped = rows[:at] + [rows[at + 1], rows[at]] + rows[at + 2:]
    dB = np.random.default_rng(data.draw(st.integers(0, 2**32))).standard_normal((N, n_seg, 1))

    def sweeps(model, rows):
        def sampler(seed_base, n):
            return 0.3 * dB, _table(rows)
        return (theta(model, f, obs["driver"], obs["jump_record"], 1.0, N, 0,
                      aux_sampler=sampler),
                direct_reference_filter(model, f, obs["Y"], obs["atoms"], 1.0, N, 0,
                                        aux_sampler=sampler))

    assert sweeps(declared, rows) == sweeps(replace(declared, f1=_plain(declared.f1)), rows)
    to_mark = replace(declared, f1=lambda t, x, y, u: np.asarray(u, dtype=float) - x)
    ordered, reordered = sweeps(to_mark, rows), sweeps(to_mark, swapped)
    assert all(a != b for a, b in zip(ordered, reordered))

    def flow(model):
        return scalar_flow_filter_detail(model, f, obs["Y"], N, 0, obs["atoms"],
                                         lambda seed_base, n: (0.3 * dB, _table(rows)))

    for f1_model, sigma1 in itertools.product(
            (declared, replace(declared, f1=_plain(declared.f1)), to_mark),
            (declared.sigma1, lambda t, x, y: (0.3 + 0.2 * np.tanh(x))[..., None])):
        model = replace(f1_model, f3=_no_f3, sigma1=sigma1)
        with mock.patch.object(filtering._FlowRoute, "aux_jumps", _pull_back_each_atom):
            oracle = flow(model)
        assert flow(model) == oracle

    n, seed = data.draw(st.integers(1, 300)), data.draw(st.integers(0, 2**63))
    block_dB, block = gaussian_poisson_sampler(declared, np.linspace(0.0, 1.0, 9))(seed, n)
    replay = per_seed_sampler(lambda s: (block_dB[s - 5], [
        (g, u) for g, i, u in zip(*block) if i == s - 5]))(5, n)
    assert np.array_equal(replay[0], block_dB)
    assert all(np.array_equal(a, b) for a, b in zip(replay[1], block))
