"""End-to-end verification gate.

Each test here exercises one headline guarantee of the library at its stated
tolerance and prints a single summary line, so `pytest -s tests/test_acceptance.py`
doubles as a verification report:

 1. algebraic identities (Chen, shuffle, exp/log) on randomized lifts;
 2. p-variation dynamic program vs exhaustive partition enumeration;
 3. canonical solutions invariant to the jump slot layout (r_seq, delta, phi);
 4. single-jump state change vs the unit-time jump ODE flow;
 5. piecewise-linear refinements tracking the SDE solver path by path;
 6. conditional-mean filter vs the Kalman-Bucy closed form;
 7. three-step Bernoulli/two-atom sweep vs exact outcome-tree expectation;
 8. linear-vs-rectangular interpolation gap shrinking with mesh refinement;
 9. scalar flow-decomposition filter vs the rough-driver route;
10. jump-truncation stability in both driver distance and filter value;
11. inverse-flow residual of forward-then-reversed solves.
"""

import time

import numpy as np

from test_filtering import (
    PARAMS,
    _ENUM_BASE,
    _enum_sampler,
    _geometric_model,
    _kalman_mean,
    _linear_driver,
    _oracle_enumeration,
)
from test_paths import brute_force_p_variation, random_path
from test_rde import jumpy_lift_2d, representative_gaps

from roughfilter.fillin import AdmissiblePair, RSeq, beta_p, tabulated_path_function
from roughfilter.filtering import (
    FUNCTION_CATALOG,
    epsilon_stability_experiment,
    per_seed_sampler,
    realized_observation,
    robustness_experiment,
    scalar_flow_filter_detail,
    theta,
    trend_non_increasing,
)
from roughfilter.lift import (
    chen_defect,
    geometric_defect_max,
    marcus_lift,
    stratonovich_lift,
)
from roughfilter.paths import CadlagPath, p_variation, visited_points
from roughfilter.rde import (
    VectorField,
    flow_and_inverse,
    linear_vector_field,
    solve_canonical_rde,
)
from roughfilter.sim import get_model, shot_noise
from roughfilter.tensor_group import group_exp, group_log


# -- 1: algebraic identities on randomized lifts -----------------------------


def test_lift_algebra_on_randomized_paths():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst_chen = worst_geo = worst_rt = 0.0
    for k in range(1000):
        d = 1 + k % 3
        n = int(rng.integers(3, 9))
        times = np.concatenate(
            [[0.0], np.sort(rng.uniform(0.05, 0.95, n - 2)), [1.0]])
        vals = 0.7 * rng.standard_normal((n, d))
        if k % 2:
            pre = vals.copy()
            j = int(rng.integers(1, n))
            pre[j] = vals[j] + 0.5 * rng.standard_normal(d)
            interp = "constant" if k % 4 == 1 else "linear"
            R = marcus_lift(CadlagPath(times, vals, pre, interp))
        else:
            R = stratonovich_lift(CadlagPath(times, vals, None, "linear"))
        worst_chen = max(worst_chen, float(chen_defect(R)))
        worst_geo = max(worst_geo, float(geometric_defect_max(R)))

        el1, el2 = rng.standard_normal(d), rng.standard_normal((d, d))
        back1, back2 = group_log(group_exp(el1, el2))
        rt = max(float(np.max(np.abs(back1 - el1))),
                 float(np.max(np.abs(back2 - el2))))
        g = R.increment(0, n - 1)
        g2 = group_exp(*group_log(g))
        rt = max(rt, float(np.max(np.abs(g2.level1 - g.level1))),
                 float(np.max(np.abs(g2.level2 - g.level2))))
        worst_rt = max(worst_rt, rt)
    dt = time.time() - t0
    assert worst_chen <= 1e-10, worst_chen
    assert worst_geo <= 1e-10, worst_geo
    assert worst_rt <= 1e-12, worst_rt
    assert dt < 10.0, dt
    print(f"PASS lift algebra: 1000 paths, chen {worst_chen:.1e}, "
          f"shuffle {worst_geo:.1e}, exp/log {worst_rt:.1e} ({dt:.1f}s)")


# -- 2: p-variation vs exhaustive enumeration --------------------------------


def test_p_variation_matches_exhaustive_enumeration():
    t0 = time.time()
    rng = np.random.default_rng(202)
    p_cycle = (2.0, 2.3, 2.7, 2.9)
    worst = 0.0
    for k in range(500):
        n = int(rng.integers(3, 13))
        d = 1 + k % 3
        x = random_path(rng, n, d, with_jumps=bool(k % 2))
        p = p_cycle[k % 4]
        got = p_variation(x, p)
        ref = brute_force_p_variation(visited_points(x), p)
        worst = max(worst, abs(got - ref))
    dt = time.time() - t0
    assert worst <= 1e-12, worst
    assert dt < 30.0, dt
    print(f"PASS p-variation: 500 paths (<=12 samples), max deviation "
          f"{worst:.1e} ({dt:.1f}s)")


# -- 3: canonical solutions invariant to slot layout -------------------------


def test_canonical_solution_invariant_to_slot_layout():
    t0 = time.time()
    rng = np.random.default_rng(303)
    V_lin = linear_vector_field(np.stack([
        np.diag([1.0, -0.5]), np.array([[0.0, 1.0], [0.2, 0.0]])]))

    def smooth(t, y):
        y = np.asarray(y, dtype=float)
        c0 = np.stack([0.6 + 0.2 * np.sin(y[..., 1]),
                       0.3 * np.cos(y[..., 0])], axis=-1)
        c1 = np.stack([0.2 * np.cos(y[..., 1]),
                       0.5 + 0.2 * np.sin(y[..., 0])], axis=-1)
        return np.stack([c0, c1], axis=-1)

    V_smooth = VectorField(smooth)
    y0 = [0.8, -0.3]
    layouts = (
        dict(r_seq=RSeq.geometric(2.0), delta=1.0),
        dict(r_seq=RSeq.geometric(3.0), delta=1.0),
        dict(r_seq=RSeq.geometric(2.0), delta=0.25),
        dict(r_seq=RSeq.geometric(3.0), delta=0.25),
        dict(r_seq=RSeq.geometric(2.0), delta=0.5,
             phi=tabulated_path_function([0.0, 0.5, 1.0], [0.0, 0.1, 1.0])),
    )
    gaps = np.array([representative_gaps(
        V_lin if k % 2 else V_smooth, jumpy_lift_2d(rng, n=9, n_jumps=1 + k % 5),
        layouts, y0, ((8, 2), (32, 8), (128, 32))) for k in range(10)])
    dt = time.time() - t0
    falls = np.all(np.diff(gaps, axis=2) < 0, axis=2)
    worst = float(np.max(gaps[..., -1]))
    assert falls.all(), gaps[~falls]
    # the worst final gap measured is 7.4e-3 (3 jumps, tabulated phi)
    assert worst < 1e-2, worst
    print("PASS slot-layout invariance: 10 jumpy drivers x 5 layouts, the gap "
          "to the representative solve falls at each refinement, worst "
          + ", ".join(f"{g:.1e}" for g in np.max(gaps, axis=(0, 1)))
          + f" ({dt:.1f}s)")


# -- 4: single-jump state change vs unit-time jump flow ----------------------


def _rk4_unit_flow(rhs, y0, nsub=64):
    y = np.array(y0, dtype=float)
    h = 1.0 / nsub
    for _ in range(nsub):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def _single_jump_driver(jump, d=1):
    times = np.array([0.0, 0.5, 1.0])
    vals = np.array([[0.0] * d, list(jump), list(jump)])
    pre = np.array([[0.0] * d, [0.0] * d, list(jump)])
    return marcus_lift(CadlagPath(times, vals, pre, "linear"))


def test_single_jump_matches_unit_time_flow():
    t0 = time.time()
    V_s = VectorField(lambda t, y: (0.8 + 0.3 * np.sin(
        np.asarray(y, dtype=float)))[..., None])
    J = 0.7
    sol = solve_canonical_rde(V_s, _single_jump_driver((J,)), [0.4], steps=8,
                              slot_substeps=32)
    ref = _rk4_unit_flow(lambda y: J * (0.8 + 0.3 * np.sin(y)), [0.4])
    d_sol = sol.states[1] - sol.states[0]
    d_ref = ref - np.array([0.4])
    rel_s = float(np.linalg.norm(d_sol - d_ref) / np.linalg.norm(d_ref))
    assert np.array_equal(sol.states[2], sol.states[1])

    A = np.array([[0.0, 1.0], [-0.4, 0.1]])
    V_m = linear_vector_field([A])
    J2 = 0.9
    y0 = [0.7, -0.2]
    sol2 = solve_canonical_rde(V_m, _single_jump_driver((J2,)), y0, steps=8,
                               slot_substeps=32)
    ref2 = _rk4_unit_flow(lambda y: J2 * (A @ y), y0)
    d_sol2 = sol2.states[1] - sol2.states[0]
    d_ref2 = ref2 - np.asarray(y0)
    rel_m = float(np.linalg.norm(d_sol2 - d_ref2) / np.linalg.norm(d_ref2))
    dt = time.time() - t0
    assert rel_s <= 1e-8, rel_s
    assert rel_m <= 1e-8, rel_m
    print(f"PASS jump rule: state change vs 64-substep flow, rel err "
          f"scalar {rel_s:.1e}, 2-D linear {rel_m:.1e} ({dt:.1f}s)")


# -- 5: piecewise-linear refinements track the SDE solver --------------------

_WZ_ALPHA, _WZ_BETA = 0.5, 2.0


def _channel_field(e):
    """Diagonal field: channel i sees Brownian component i through
    v(y) = 1/(alpha y + beta), whose Heun truncation bias is one-signed."""

    def ev(t, y):
        y = np.asarray(y, dtype=float)
        vals = 1.0 / (_WZ_ALPHA * y + _WZ_BETA)
        out = np.zeros(y.shape + (e,))
        idx = np.arange(e)
        out[..., idx, idx] = vals
        return out

    def jac(t, y):
        y = np.asarray(y, dtype=float)
        dv = -_WZ_ALPHA / (_WZ_ALPHA * y + _WZ_BETA) ** 2
        out = np.zeros(y.shape + (e, e))
        idx = np.arange(e)
        out[..., idx, idx, idx] = dv
        return out

    return VectorField(ev, jac)


def _heun_path(V, times, w, y0):
    y = np.array(y0, dtype=float)
    for k in range(len(times) - 1):
        dw = w[k + 1] - w[k]
        f0 = V(times[k], y)
        pred = y + f0 @ dw
        f1 = V(times[k + 1], pred)
        y = y + 0.5 * (f0 + f1) @ dw
    return y


def test_piecewise_linear_refinement_tracks_sde_solver():
    t0 = time.time()
    e = 16
    V = _channel_field(e)
    y0 = np.ones(e)
    monotone = 0
    for seed in range(20):
        rng = np.random.default_rng(7000 + seed)
        nf = 2 ** 9
        tf = np.linspace(0.0, 1.0, nf + 1)
        dw = rng.standard_normal((nf, e)) * np.sqrt(1.0 / nf)
        w = np.vstack([np.zeros(e), np.cumsum(dw, axis=0)])
        errs = []
        for level in range(4, 10):
            n = 2 ** level
            idx = np.arange(n + 1) * (nf // n)
            X = stratonovich_lift(CadlagPath(tf[idx], w[idx], None, "linear"))
            sol = solve_canonical_rde(V, X, y0, steps=6 * n)
            sde = _heun_path(V, tf[idx], w[idx], y0)
            errs.append(float(np.sum(np.abs(sol.states[-1] - sde))))
        monotone += all(b < a for a, b in zip(errs, errs[1:]))
    dt = time.time() - t0
    assert monotone >= 18, monotone
    print(f"PASS refinement tracking: terminal error strictly decreasing over "
          f"levels 4-9 in {monotone}/20 Brownian paths ({dt:.1f}s)")


# -- 6: conditional mean vs Kalman-Bucy --------------------------------------


def test_conditional_mean_matches_kalman_bucy():
    t0 = time.time()
    model = get_model("linear_gaussian", x0=0.0)
    f = FUNCTION_CATALOG["identity"]
    passes = 0
    worst_z = 0.0
    for seed in range(1, 21):
        obs = realized_observation(model, 1.0, 512, seed)
        res = theta(model, f, obs["driver"], obs["jump_record"], 1.0,
                    10_000, 5000 + 97 * seed)
        m = _kalman_mean(model.meta, obs["Y"].values[:, 0], obs["Y"].times)
        z = abs(res.theta - m) / res.theta_se
        worst_z = max(worst_z, z)
        passes += z <= 3.0
    dt = time.time() - t0
    assert passes >= 19, (passes, worst_z)
    assert dt < 120.0, dt
    print(f"PASS Kalman cross-check: {passes}/20 obs seeds within 3 SE at "
          f"1e4 particles, worst z {worst_z:.2f} ({dt:.1f}s)")


# -- 7: exact three-step outcome-tree expectation ----------------------------


def test_bernoulli_sweep_matches_outcome_tree():
    t0 = time.time()
    model = get_model("scalar_jump_diffusion", **PARAMS)
    times = np.linspace(0.0, 1.0, 4)
    w_values = np.array([0.0, 0.3, -0.2, 0.4])
    driver = _linear_driver(times, w_values)
    record = (times[[1, 2]], np.array([[1.0], [-1.0]]))
    sampler = per_seed_sampler(_enum_sampler(times))

    res = theta(model, FUNCTION_CATALOG["identity"], driver, record,
                1.0, 512, _ENUM_BASE, aux_sampler=sampler)
    est_f, est_1 = res.g_f, res.g_1
    oracle_f, oracle_w = _oracle_enumeration(
        PARAMS, times, w_values, record, lambda x, y: x)
    d1 = abs(est_f.value - oracle_f)
    d2 = abs(est_1.value - oracle_w)
    d3 = abs(res.theta - oracle_f / oracle_w)
    dt = time.time() - t0
    assert d1 <= 1e-12, d1
    assert d2 <= 1e-12, d2
    assert d3 <= 1e-12, d3
    print(f"PASS outcome-tree exactness: numerator {d1:.1e}, weight "
          f"{d2:.1e}, ratio {d3:.1e} from exhaustive enumeration ({dt:.1f}s)")


# -- 8: interpolation gap shrinks with mesh refinement -----------------------


def test_interpolation_gap_shrinks_with_mesh():
    t0 = time.time()
    model = get_model("scalar_jump_diffusion")
    f = FUNCTION_CATALOG["identity"]
    meshes = (4, 8, 16, 32, 64)
    n_seeds = 24
    gaps = {m: [] for m in meshes}
    dists = {m: [] for m in meshes}
    combs = {m: [] for m in meshes}
    for k in range(n_seeds):
        rows = robustness_experiment(model, f, 1.0, meshes, particles=2000,
                                     seed_base=2000 * k + 17,
                                     obs_seed=999983 + k)
        for row in rows:
            gaps[row["mesh"]].append(row["gap"])
            dists[row["mesh"]].append(row["driver_dist"])
            combs[row["mesh"]].append(row["combined_se"])
    med_gap = [float(np.median(gaps[m])) for m in meshes]
    # standard error of a median from n approximately normal samples
    slack = [2.0 * 1.2533 * float(np.std(gaps[m])) / np.sqrt(n_seeds)
             for m in meshes]
    med_se = float(np.median(combs[meshes[-1]]))
    ratios = [float(np.median(gaps[m]) / np.median(dists[m])) for m in meshes]
    spread = max(ratios) / min(ratios)
    dt = time.time() - t0
    assert trend_non_increasing(med_gap, slack), (med_gap, slack)
    assert med_gap[-1] <= 3.0 * med_se, (med_gap[-1], med_se)
    assert spread <= 10.0, ratios
    assert dt < 300.0, dt
    print(f"PASS interpolation robustness: median gaps "
          f"{np.array2string(np.array(med_gap), precision=4)} over meshes "
          f"{meshes}, final <= 3 SE ({med_gap[-1]:.4f} vs {3 * med_se:.4f}), "
          f"gap/distance spread {spread:.2f}x ({dt:.1f}s)")


# -- 9: flow-decomposition route vs rough route ------------------------------


def test_flow_route_agrees_with_rough_route():
    t0 = time.time()
    model = _geometric_model()
    f = FUNCTION_CATALOG["identity"]
    worst_z = 0.0
    for seed in range(20):
        obs = realized_observation(model, 1.0, 128, 300 + seed)
        res = theta(model, f, obs["driver"], obs["jump_record"], 1.0,
                    3000, 7000 + seed)
        det = scalar_flow_filter_detail(model, f, obs["Y"], 3000, 7000 + seed)
        comb = float(np.hypot(res.theta_se, det.theta_se))
        worst_z = max(worst_z, abs(res.theta - det.theta) / comb)
    dt = time.time() - t0
    assert worst_z <= 3.0, worst_z
    print(f"PASS flow-route agreement: 20 seeds within 3 combined SE, worst "
          f"z {worst_z:.2f} ({dt:.1f}s)")


# -- 10: jump-truncation stability -------------------------------------------


def test_truncation_stability_in_distance_and_value():
    t0 = time.time()
    model = get_model("stable_shot_noise", alpha=0.7, c=0.9)
    f = FUNCTION_CATALOG["identity"]
    eps = (0.1, 0.05, 0.025, 0.0125)

    base = np.linspace(0.0, 1.0, 129)
    betas = []
    for seed in range(81):
        jump_seed = 3000017 + seed
        grid = shot_noise(model.nu2, eps[-1], jump_seed, base).times
        pairs = [AdmissiblePair(marcus_lift(
            shot_noise(model.nu2, e, jump_seed, grid))) for e in eps]
        betas.append([float(beta_p(pairs[i], pairs[i + 1], 2.5,
                                   delta_seq=(1.0,)).estimate)
                      for i in range(3)])
    med_beta = np.median(np.array(betas), axis=0)

    gaps = []
    for seed in range(41):
        out = epsilon_stability_experiment(model, f, 1.0, eps, particles=500,
                                           seed=seed)
        gaps.append(out["theta_gaps"])
    med_gap = np.median(np.array(gaps), axis=0)
    dt = time.time() - t0
    assert med_beta[0] > med_beta[1] > med_beta[2], med_beta
    assert med_gap[0] > med_gap[1] > med_gap[2], med_gap
    print(f"PASS truncation stability: median successive distances "
          f"{np.array2string(med_beta, precision=3)} (81 seeds) and filter "
          f"gaps {np.array2string(med_gap, precision=4)} (41 seeds) both "
          f"decreasing ({dt:.1f}s)")


# -- 11: inverse-flow residual -----------------------------------------------


def test_inverse_flow_residual_small():
    t0 = time.time()

    def smooth_lift(fn, n=2048):
        t = np.linspace(0.0, 1.0, n + 1)
        return stratonovich_lift(CadlagPath(t, fn(t), None, "linear"))

    def ev(t, y):
        y = np.asarray(y, dtype=float)
        c0 = np.stack([0.8 + 0.2 * np.sin(y[..., 1]),
                       0.3 * np.cos(y[..., 0])], axis=-1)
        c1 = np.stack([0.15 * np.cos(y[..., 1]),
                       0.7 + 0.25 * np.sin(y[..., 0])], axis=-1)
        return np.stack([c0, c1], axis=-1)

    V = VectorField(ev)
    drivers = {
        "trig": (smooth_lift(lambda t: np.column_stack(
            [np.sin(2 * np.pi * t) + 0.3 * t, np.cos(3 * np.pi * t)])),
            [[0.0, 0.0], [0.5, -0.3]]),
        "poly": (smooth_lift(lambda t: np.column_stack(
            [t ** 2 - 0.5 * t, 0.4 * np.sin(5 * t) + 0.2 * t ** 3])),
            [[-0.4, 0.8], [0.2, 0.1]]),
    }
    worst = 0.0
    for X, grid in drivers.values():
        _, res = flow_and_inverse(V, X, grid, steps=10_000)
        worst = max(worst, float(np.max(res)))
    dt = time.time() - t0
    assert worst <= 1e-6, worst
    print(f"PASS inverse flow: max residual {worst:.1e} at 1e4 steps on 2 "
          f"smooth drivers ({dt:.1f}s)")
