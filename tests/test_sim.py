"""Tests for the signal-observation simulator, the measure-change exponent,
and the shot-noise sampler."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from roughfilter import fillin, sim
from roughfilter.lift import marcus_lift, stratonovich_lift
from roughfilter.paths import CadlagPath
from roughfilter.rde import VectorField, solve_canonical_rde


def zero_coeff_model(nu2=None, f2_scale=0.0):
    """All coefficients zero; optional observed atoms with constant f2."""
    return sim.ModelSpec(
        model_id="zero", regime="finite_jumps" if nu2 else "scalar",
        dim_x=1, dim_y=1, dim_b=1,
        b1=lambda t, x, y: np.zeros_like(np.asarray(x, dtype=float)),
        b2=lambda t, x, y: np.zeros_like(np.asarray(y, dtype=float)),
        sigma0=sim._const([[0.0]]), sigma1=sim._const([[0.0]]),
        sigma2=sim._const([[0.0]]),
        f1=lambda t, x, y, u: np.zeros_like(np.asarray(x, dtype=float)),
        f2=lambda t, y, u: f2_scale * np.ones_like(np.asarray(y, dtype=float)),
        f3=lambda t, x, y, u: np.zeros_like(np.asarray(x, dtype=float)),
        lambda_fn=lambda t, x, u: np.ones(np.asarray(x).shape[:-1]),
        nu1=None, nu2=nu2, x0=(0.7,), y0=(-0.2,),
        meta={"lambda_min": 1.0, "lambda_max": 1.0},
    )


class TestLevyDescriptors:
    def test_levy_measure_basics(self):
        nu = sim.LevyMeasure((((1.0,), 0.75), ((-2.0,), 0.25)))
        assert nu.total_rate == 1.0
        assert np.allclose(nu.marks(), [[1.0], [-2.0]])
        # int u nu(du) = 0.75*1 + 0.25*(-2) = 0.25
        assert np.isclose(nu.integrate(lambda u: u[0]), 0.25)

    def test_levy_measure_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            sim.LevyMeasure((((1.0,), 0.0),))

    def test_stable_tail_moments(self):
        tail = sim.StableTail(1.5, 0.1)
        # tail_mass(r) = (2c/alpha)(r^-alpha - 1)
        r = 0.25
        assert np.isclose(tail.tail_mass(r), 0.2 / 1.5 * (r ** -1.5 - 1.0))
        # inverse round trip
        assert np.isclose(tail.inv_tail(tail.tail_mass(r)), r)
        assert np.isclose(tail.p_moment(2.5), 0.2)
        assert tail.p_moment(1.5) == np.inf
        assert tail.mean(0.1) == 0.0

    def test_stable_tail_validation(self):
        with pytest.raises(ValueError):
            sim.StableTail(2.0, 0.1)
        with pytest.raises(ValueError):
            sim.StableTail(1.0, 0.0)


class TestModelCatalog:
    @pytest.mark.parametrize("name", sorted(sim.MODEL_BUILDERS))
    def test_catalog_models_validate(self, name):
        model = sim.get_model(name)
        report = sim.validate_model(model)
        assert report["ok"], report

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown model"):
            sim.get_model("nope")

    def test_model_dim_mismatch(self):
        with pytest.raises(ValueError, match="dimensions"):
            sim.linear_gaussian(x0=1.0).__class__(
                **{**sim.linear_gaussian().__dict__, "x0": (1.0, 2.0)})

    def test_infinite_regime_needs_stable_tail(self):
        good = sim.stable_shot_noise()
        with pytest.raises(ValueError, match="StableTail"):
            sim.ModelSpec(**{**good.__dict__, "nu2": None})


class TestNoiseBundle:
    def test_deterministic(self):
        model = sim.scalar_jump_diffusion()
        a = sim.make_noise_bundle(model, 2.0, 32, seed=5)
        b = sim.make_noise_bundle(model, 2.0, 32, seed=5)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.brownian_B, b.brownian_B)
        assert np.array_equal(a.brownian_W, b.brownian_W)
        for key in ("nu1", "nu2"):
            assert np.array_equal(a.pp_jumps[key].times, b.pp_jumps[key].times)
            assert np.array_equal(a.pp_jumps[key].marks, b.pp_jumps[key].marks)

    def test_grid_covers_atoms(self):
        model = sim.scalar_jump_diffusion()
        nb = sim.make_noise_bundle(model, 2.0, 16, seed=11)
        for key in ("nu1", "nu2"):
            assert np.all(np.isin(nb.pp_jumps[key].times, nb.times))

    def test_no_shared_jump_times(self):
        model = sim.scalar_jump_diffusion()
        for seed in range(50):
            nb = sim.make_noise_bundle(model, 2.0, 16, seed=seed)
            t1 = set(nb.pp_jumps["nu1"].times.tolist())
            t2 = set(nb.pp_jumps["nu2"].times.tolist())
            assert not (t1 & t2)

    def test_brownian_increment_scale(self):
        model = sim.linear_gaussian()
        nb = sim.make_noise_bundle(model, 1.0, 400, seed=3)
        # quadratic variation of a Brownian path over [0,1] is close to 1
        qv = float(np.sum(nb.brownian_W ** 2))
        assert abs(qv - 1.0) < 0.25

    def test_validation(self):
        model = sim.linear_gaussian()
        with pytest.raises(ValueError, match="measure"):
            sim.make_noise_bundle(model, 1.0, 8, 0, measure="quantum")
        with pytest.raises(ValueError, match="steps"):
            sim.make_noise_bundle(model, 1.0, 0, 0)
        ms = sim.stable_shot_noise()
        with pytest.raises(ValueError, match="epsilon"):
            sim.make_noise_bundle(ms, 1.0, 8, 0)
        with pytest.raises(ValueError, match="epsilon"):
            sim.make_noise_bundle(ms, 1.0, 8, 0, epsilon=1.5)


class TestSimulatePair:
    def test_zero_coefficients_constant(self):
        nu2 = sim.LevyMeasure((((1.0,), 2.0),))
        model = zero_coeff_model(nu2=nu2, f2_scale=0.0)
        nb = sim.make_noise_bundle(model, 2.0, 32, seed=9)
        X, Y = sim.simulate_pair(model, nb, 32)
        assert np.array_equal(X.values, np.full_like(X.values, 0.7))
        assert np.array_equal(Y.values, np.full_like(Y.values, -0.2))
        assert not X.jump_mask.any() and not Y.jump_mask.any()

    def test_pure_jump_observation_count_minus_t(self):
        # f2 = 1 against a unit-rate compensated atom: Y_T - Y_0 equals
        # the jump count minus T, exactly, per path.
        nu2 = sim.LevyMeasure((((1.0,), 1.0),))
        model = zero_coeff_model(nu2=nu2, f2_scale=1.0)
        for seed in range(5):
            nb = sim.make_noise_bundle(model, 2.0, 16, seed=seed)
            X, Y = sim.simulate_pair(model, nb, 16)
            count = len(nb.pp_jumps["nu2"])
            got = float(Y.values[-1, 0] - Y.values[0, 0])
            assert abs(got - (count - 2.0)) < 1e-12

    def test_deterministic_bit_identical(self):
        model = sim.scalar_jump_diffusion()
        nb = sim.make_noise_bundle(model, 1.5, 24, seed=21)
        X1, Y1 = sim.simulate_pair(model, nb, 24)
        X2, Y2 = sim.simulate_pair(model, nb, 24)
        assert np.array_equal(X1.values, X2.values)
        assert np.array_equal(Y1.values, Y2.values)
        assert np.array_equal(X1.pre_values, X2.pre_values)

    def test_steps_mismatch_rejected(self):
        model = sim.linear_gaussian()
        nb = sim.make_noise_bundle(model, 1.0, 16, seed=0)
        with pytest.raises(ValueError, match="steps"):
            sim.simulate_pair(model, nb, 17)

    def test_common_jumps_hit_both_components(self):
        model = sim.scalar_jump_diffusion()
        nb = sim.make_noise_bundle(model, 2.0, 24, seed=7, measure="reference")
        X, Y = sim.simulate_pair(model, nb, 24)
        # under the reference measure every nu2 atom is kept, and it must
        # appear as a jump of both X (via f3) and Y (via f2)
        t2 = nb.pp_jumps["nu2"].times
        assert len(t2) > 0
        for t in t2:
            i = int(np.searchsorted(X.times, t))
            assert X.jump_mask[i] and Y.jump_mask[i]
        # nu1 atoms hit only X
        for t in nb.pp_jumps["nu1"].times:
            i = int(np.searchsorted(X.times, t))
            assert X.jump_mask[i] and not Y.jump_mask[i]

    def test_thinning_keeps_subset(self):
        model = sim.scalar_jump_diffusion()
        nb = sim.make_noise_bundle(model, 3.0, 24, seed=13, measure="physical")
        X, Y = sim.simulate_pair(model, nb, 24)
        kept = int(Y.jump_mask.sum())
        assert 0 <= kept <= len(nb.pp_jumps["nu2"])

    def test_linear_gaussian_moments(self):
        """Sample mean/covariance of (X_T, Y_T) vs the matrix-ODE closed form
        (tight solve_ivp integration), within 3 standard errors at 1e4 draws."""
        model = sim.linear_gaussian()
        a, s0, s1, c, gamma = (model.meta[k]
                               for k in ("a", "s0", "s1", "c", "gamma"))
        T, steps, n = 0.5, 8, 10_000
        F = np.array([[a, 0.0], [c, 0.0]])
        G = np.array([[s0, s1], [0.0, gamma]])

        def ode(t, z):
            P = z[2:].reshape(2, 2)
            return np.concatenate([F @ z[:2], (F @ P + P @ F.T + G @ G.T).ravel()])

        z0 = np.concatenate([[model.x0[0], model.y0[0]], np.zeros(4)])
        ref = solve_ivp(ode, (0.0, T), z0, rtol=1e-11, atol=1e-13)
        m_true = ref.y[:2, -1]
        P_true = ref.y[2:, -1].reshape(2, 2)

        draws = np.empty((n, 2))
        for i in range(n):
            nb = sim.make_noise_bundle(model, T, steps, seed=1000 + i)
            X, Y = sim.simulate_pair(model, nb, steps)
            draws[i] = X.values[-1, 0], Y.values[-1, 0]
        se_mean = draws.std(axis=0, ddof=1) / np.sqrt(n)
        assert np.all(np.abs(draws.mean(axis=0) - m_true) < 3.0 * se_mean)
        Phat = np.cov(draws.T)
        for i, j in ((0, 0), (0, 1), (1, 1)):
            se = np.sqrt((P_true[i, i] * P_true[j, j] + P_true[i, j] ** 2) / n)
            assert abs(Phat[i, j] - P_true[i, j]) < 3.0 * se

    def test_geometric_observation_exp_field_oracle(self):
        """dY = Y o dW has the exact Stratonovich solution y0 exp(W)."""
        model = sim.ModelSpec(
            model_id="geo", regime="scalar", dim_x=1, dim_y=1, dim_b=1,
            b1=lambda t, x, y: np.zeros_like(np.asarray(x, dtype=float)),
            b2=lambda t, x, y: np.zeros_like(np.asarray(y, dtype=float)),
            sigma0=sim._const([[0.0]]), sigma1=sim._const([[0.0]]),
            sigma2=lambda t, y: np.asarray(y, dtype=float)[..., None],
            f1=lambda t, x, y, u: np.zeros_like(np.asarray(x, dtype=float)),
            f2=lambda t, y, u: np.zeros_like(np.asarray(y, dtype=float)),
            f3=lambda t, x, y, u: np.zeros_like(np.asarray(x, dtype=float)),
            lambda_fn=lambda t, x, u: np.ones(np.asarray(x).shape[:-1]),
            x0=(0.0,), y0=(1.0,),
        )
        nb = sim.make_noise_bundle(model, 1.0, 4096, seed=2)
        X, Y = sim.simulate_pair(model, nb, 4096)
        w = np.concatenate([[0.0], np.cumsum(nb.brownian_W[:, 0])])
        rel = np.max(np.abs(Y.values[:, 0] - np.exp(w))) / np.max(np.exp(w))
        assert rel < 1e-3

    def test_wong_zakai_refinement(self):
        """The Heun observation converges to the rough-path solution of
        dY = sigma2(Y) o dW under grid refinement with nested Brownians."""

        def sigma2(t, y):
            return (0.4 + 0.2 * np.sin(np.asarray(y, dtype=float)))[..., None]

        model = sim.ModelSpec(
            model_id="wz", regime="scalar", dim_x=1, dim_y=1, dim_b=1,
            b1=lambda t, x, y: np.zeros_like(np.asarray(x, dtype=float)),
            b2=lambda t, x, y: np.zeros_like(np.asarray(y, dtype=float)),
            sigma0=sim._const([[0.0]]), sigma1=sim._const([[0.0]]),
            sigma2=sigma2,
            f1=lambda t, x, y, u: np.zeros_like(np.asarray(x, dtype=float)),
            f2=lambda t, y, u: np.zeros_like(np.asarray(y, dtype=float)),
            f3=lambda t, x, y, u: np.zeros_like(np.asarray(x, dtype=float)),
            lambda_fn=lambda t, x, u: np.ones(np.asarray(x).shape[:-1]),
            x0=(0.0,), y0=(0.3,),
        )
        rng = np.random.default_rng(17)
        n_fine = 1024
        dw_fine = rng.standard_normal(n_fine) * np.sqrt(1.0 / n_fine)

        # rough-path reference on the finest grid
        t_fine = np.linspace(0.0, 1.0, n_fine + 1)
        w_fine = np.concatenate([[0.0], np.cumsum(dw_fine)])
        ref_lift = stratonovich_lift(CadlagPath(t_fine, w_fine[:, None]))
        V = VectorField(lambda t, y: sigma2(t, y))
        ref = solve_canonical_rde(V, fillin.AdmissiblePair(ref_lift),
                                  np.array([0.3]), steps=4096)
        y_ref = ref.states[-1, 0]

        errs = []
        for steps in (16, 64, 256):
            agg = dw_fine.reshape(steps, -1).sum(axis=1)
            times = np.linspace(0.0, 1.0, steps + 1)
            empty = sim.JumpRecord(np.zeros(0), np.zeros((0, 1)), np.zeros(0))
            nb = sim.NoiseBundle(
                seed=17, T=1.0, base_steps=steps, times=times,
                brownian_B=np.zeros((steps, 1)), brownian_W=agg[:, None],
                pp_jumps={"nu1": empty, "nu2": empty})
            X, Y = sim.simulate_pair(model, nb, steps)
            errs.append(abs(float(Y.values[-1, 0]) - y_ref))
        assert errs[2] < errs[0]
        assert errs[2] < 2e-3


class TestHFunction:
    def test_zero_drift_unit_lambda(self):
        model = sim.linear_gaussian(c=0.0)
        h = sim.h_function(model, 0.3, np.array([2.0]), np.array([1.0]))
        assert np.array_equal(h, np.zeros(1))

    def test_scalar_identity(self):
        # sigma2 = 1, b2 = x, no jumps: h = x
        model = sim.linear_gaussian(c=1.0, gamma=1.0)
        h = sim.h_function(model, 0.0, np.array([1.7]), np.array([0.0]))
        assert np.allclose(h, [1.7])

    def test_atom_sum_oracle(self):
        """Hand-computed h for the scalar jump-diffusion: h = (c x + S)/gamma
        with S = sum_a rate_a * jump2 * u_a * (1 - exp(kappa tanh(x) u_a))."""
        model = sim.scalar_jump_diffusion()
        c, gamma, kappa = (model.meta[k] for k in ("c", "gamma", "kappa"))
        x, y, t = 0.8, -0.3, 0.25
        s = 0.0
        for u, rate in ((1.0, 0.5), (-1.0, 0.5)):
            s += rate * 0.3 * u * (1.0 - np.exp(kappa * np.tanh(x) * u))
        expect = (c * x + s) / gamma
        h = sim.h_function(model, t, np.array([x]), np.array([y]))
        assert np.allclose(h, [expect], atol=1e-14)

    def test_broadcasts_over_batches(self):
        model = sim.scalar_jump_diffusion()
        xs = np.linspace(-1, 1, 12).reshape(12, 1)
        ys = np.zeros((12, 1))
        h = sim.h_function(model, 0.0, xs, ys)
        assert h.shape == (12, 1)
        one = sim.h_function(model, 0.0, xs[3], ys[3])
        assert np.allclose(h[3], one)

    def test_singular_sigma2(self):
        model = sim.linear_gaussian(gamma=0.0)
        with pytest.raises(ValueError, match="singular"):
            sim.h_function(model, 0.0, np.array([1.0]), np.array([0.0]))

    def test_constant_sigma2_solved_once_matches_batched(self):
        """A declared sigma2 (built by _const) is solved once with every
        right-hand side as a column; a plain callable returning the same
        matrices takes the batched solve. Same h."""
        base = sim.correlated_jump_multidim()
        rng = np.random.default_rng(5)
        xs = rng.standard_normal((7, 3, 2))
        ys = rng.standard_normal((7, 3, 2))
        broadcast = base.sigma2(0.0, ys)
        assert not any(broadcast.strides[:-2])
        copied = replace(base, sigma2=lambda t, y: np.array(base.sigma2(t, y)))
        assert sim._declared_matrix(base.sigma2) is not None
        assert sim._declared_matrix(copied.sigma2) is None
        h_once = sim.h_function(base, 0.0, xs, ys)
        h_batched = sim.h_function(copied, 0.0, xs, ys)
        assert h_once.shape == (7, 3, 2)
        assert np.allclose(h_once, h_batched, rtol=0.0, atol=1e-14)

    def test_singular_constant_sigma2(self):
        base = sim.correlated_jump_multidim()
        model = replace(base, sigma2=sim._const([[1.0, 2.0], [0.5, 1.0]]))
        with pytest.raises(ValueError, match="singular"):
            sim.h_function(model, 0.0, np.zeros((4, 2)), np.zeros((4, 2)))


class TestGirsanovExponent:
    def test_identically_zero(self):
        # h = 0 and lambda = 1: I vanishes even with observed jumps present
        model = sim.scalar_jump_diffusion(c=0.0, kappa=0.0)
        nb = sim.make_noise_bundle(model, 2.0, 24, seed=3)
        X, Y = sim.simulate_pair(model, nb, 24)
        assert len(nb.pp_jumps["nu2"]) > 0
        I = sim.girsanov_exponent(model, nb, X, Y)
        assert np.array_equal(I.values, np.zeros_like(I.values))

    def test_constant_h_closed_form(self):
        """b2 constant: I_t = h W_t + |h|^2 t / 2 exactly on the grid."""
        beta = 0.7
        model = sim.ModelSpec(
            model_id="consth", regime="scalar", dim_x=1, dim_y=1, dim_b=1,
            b1=lambda t, x, y: np.zeros_like(np.asarray(x, dtype=float)),
            b2=lambda t, x, y: beta * np.ones_like(np.asarray(y, dtype=float)),
            sigma0=sim._const([[0.3]]), sigma1=sim._const([[0.0]]),
            sigma2=sim._const([[0.5]]),
            f1=lambda t, x, y, u: np.zeros_like(np.asarray(x, dtype=float)),
            f2=lambda t, y, u: np.zeros_like(np.asarray(y, dtype=float)),
            f3=lambda t, x, y, u: np.zeros_like(np.asarray(x, dtype=float)),
            lambda_fn=lambda t, x, u: np.ones(np.asarray(x).shape[:-1]),
            x0=(0.0,), y0=(0.0,),
        )
        h = beta / 0.5
        nb = sim.make_noise_bundle(model, 1.0, 32, seed=8)
        X, Y = sim.simulate_pair(model, nb, 32)
        w = np.concatenate([[0.0], np.cumsum(nb.brownian_W[:, 0])])
        expect = h * w + 0.5 * h * h * nb.times
        for mode in ("stratonovich", "ito"):
            I = sim.girsanov_exponent(model, nb, X, Y, mode=mode)
            assert np.max(np.abs(I.values[:, 0] - expect)) < 1e-12

    def test_hand_recomputed_quadrature(self):
        """Independent re-accumulation of I (trapezoid h dW, trapezoid
        |h|^2 dt, log lambda at atoms, left-endpoint compensator) matches."""
        model = sim.scalar_jump_diffusion()
        nb = sim.make_noise_bundle(model, 1.5, 16, seed=19, measure="reference")
        X, Y = sim.simulate_pair(model, nb, 16)
        I = sim.girsanov_exponent(model, nb, X, Y, mode="stratonovich")

        def h_at(t, xv, yv):
            return sim.h_function(model, t, xv, yv)[0]

        acc = 0.0
        times = nb.times
        for k in range(len(times) - 1):
            t0, t1 = float(times[k]), float(times[k + 1])
            h0 = h_at(t0, X.values[k], Y.values[k])
            h1 = h_at(t1, X.evaluate_left(t1), Y.evaluate_left(t1))
            acc += 0.5 * (h0 + h1) * float(nb.brownian_W[k, 0])
            acc -= 0.25 * (h0 * h0 + h1 * h1) * (t1 - t0)
            lam_sum = sum(
                rate * (1.0 - float(model.lambda_fn(t0, X.values[k], np.array(u))))
                for u, rate in model.nu2.atoms)
            acc += lam_sum * (t1 - t0)
        for a in range(len(nb.pp_jumps["nu2"])):
            t = float(nb.pp_jumps["nu2"].times[a])
            u = nb.pp_jumps["nu2"].marks[a]
            acc += np.log(float(model.lambda_fn(t, X.evaluate_left(t), u)))
        assert abs(float(I.values[-1, 0]) - acc) < 1e-12

    def test_martingale_reference_measure(self):
        """E[exp(I_T)] = 1 over reference bundles (exact identity in discrete
        time for the ito quadrature with adapted h)."""
        model = sim.linear_gaussian()
        n = 4000
        vals = np.empty(n)
        for i in range(n):
            nb = sim.make_noise_bundle(model, 0.5, 8, seed=5000 + i,
                                       measure="reference")
            X, Y = sim.simulate_pair(model, nb, 8)
            I = sim.girsanov_exponent(model, nb, X, Y, mode="ito")
            vals[i] = np.exp(I.values[-1, 0])
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - 1.0) < 3.0 * se

    def test_martingale_physical_measure(self):
        """E[exp(-I_T)] = 1 over physical bundles."""
        model = sim.linear_gaussian()
        n = 4000
        vals = np.empty(n)
        for i in range(n):
            nb = sim.make_noise_bundle(model, 0.5, 8, seed=5000 + i,
                                       measure="physical")
            X, Y = sim.simulate_pair(model, nb, 8)
            I = sim.girsanov_exponent(model, nb, X, Y, mode="ito")
            vals[i] = np.exp(-I.values[-1, 0])
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - 1.0) < 3.0 * se

    def test_martingale_with_jumps(self):
        """Observed atoms with a mark-dependent lambda: both martingale
        identities hold (exact in discrete time when lambda is state-free)."""
        base = sim.scalar_jump_diffusion()
        kap = 0.4

        def lam(t, x, u):
            return np.exp(kap * float(np.atleast_1d(u)[0])) * np.ones(
                np.asarray(x).shape[:-1])

        model = sim.ModelSpec(**{
            **base.__dict__, "model_id": "jump_const_lambda",
            "lambda_fn": lam,
            "meta": {**base.meta, "lambda_min": float(np.exp(-kap)),
                     "lambda_max": float(np.exp(kap))},
        })
        n = 600
        for measure, flip in (("reference", 1.0), ("physical", -1.0)):
            vals = np.empty(n)
            for i in range(n):
                nb = sim.make_noise_bundle(model, 1.0, 16, seed=3000 + i,
                                           measure=measure)
                X, Y = sim.simulate_pair(model, nb, 16)
                I = sim.girsanov_exponent(model, nb, X, Y, mode="ito")
                vals[i] = np.exp(flip * I.values[-1, 0])
            se = vals.std(ddof=1) / np.sqrt(n)
            assert abs(vals.mean() - 1.0) < 3.0 * se, measure

    def test_nonpositive_lambda_raises(self):
        base = sim.scalar_jump_diffusion()
        model = sim.ModelSpec(**{
            **base.__dict__, "model_id": "badlam",
            "lambda_fn": lambda t, x, u: -np.ones(np.asarray(x).shape[:-1]),
        })
        nb = sim.make_noise_bundle(model, 3.0, 16, seed=4, measure="reference")
        assert len(nb.pp_jumps["nu2"]) > 0
        X, Y = sim.simulate_pair(model, nb, 16)
        with pytest.raises(ValueError, match="lambda"):
            sim.girsanov_exponent(model, nb, X, Y)

    def test_unknown_mode(self):
        model = sim.linear_gaussian()
        nb = sim.make_noise_bundle(model, 1.0, 8, seed=0)
        X, Y = sim.simulate_pair(model, nb, 8)
        with pytest.raises(ValueError, match="mode"):
            sim.girsanov_exponent(model, nb, X, Y, mode="midpoint")


class TestWtildeReconstruction:
    def test_linear_gaussian_exact(self):
        model = sim.linear_gaussian()
        nb = sim.make_noise_bundle(model, 1.0, 64, seed=4)
        X, Y = sim.simulate_pair(model, nb, 64)
        W = sim.reconstruct_wtilde(model, Y)
        assert np.allclose(W.values[:, 0],
                           (Y.values[:, 0] - Y.values[0, 0]) / 0.5, atol=1e-12)

    def test_observed_jumps_drop_out(self):
        model = sim.scalar_jump_diffusion()
        nb = sim.make_noise_bundle(model, 2.0, 32, seed=6, measure="reference")
        X, Y = sim.simulate_pair(model, nb, 32)
        W = sim.reconstruct_wtilde(model, Y)
        # continuous path: increments bounded by diffusion scale, no atoms
        assert not np.any(np.abs(np.diff(W.values[:, 0])) > 1.0)
        # reference measure: gamma * Wtilde should recover Y's continuous part
        gamma = model.meta["gamma"]
        jump_sum = np.zeros(len(Y.times))
        jm = Y.jump_mask
        jumps = np.zeros(len(Y.times))
        jumps[jm] = (Y.values - Y.pre_values)[jm, 0]
        jump_sum = np.cumsum(jumps)
        # under the reference measure the compensator drift of Y is
        # -int f2 dnu2 dt, which reconstruct_wtilde adds back
        resid = Y.values[:, 0] - Y.values[0, 0] - gamma * W.values[:, 0] - jump_sum
        comp = model.nu2.integrate(lambda u: model.f2(0.0, np.zeros(1), u))[0]
        assert np.allclose(resid, -comp * Y.times, atol=1e-10)


class TestShotNoise:
    def test_few_jumps_near_one(self):
        tail = sim.StableTail(1.5, 0.1)
        grid = np.linspace(0.0, 1.0, 17)
        for seed in range(6):
            xi = sim.shot_noise(tail, 0.95, seed, grid)
            assert int(xi.jump_mask.sum()) <= 1

    def test_symmetric_zero_drift(self):
        tail = sim.StableTail(1.2, 0.2)
        grid = np.linspace(0.0, 1.0, 9)
        xi = sim.shot_noise(tail, 0.5, 3, grid)
        # symmetric measure: zero compensator drift, so the path is flat
        # between atoms; every non-jump grid point repeats the value exactly
        vals = xi.values[:, 0]
        for i in range(1, len(vals)):
            if not xi.jump_mask[i]:
                assert vals[i] == vals[i - 1]

    def test_atom_sizes_in_band(self):
        tail = sim.StableTail(1.0, 0.3)
        grid = np.linspace(0.0, 2.0, 33)
        xi = sim.shot_noise(tail, 0.1, 11, grid)
        sizes = np.abs((xi.values - xi.pre_values)[xi.jump_mask, 0])
        assert len(sizes) > 0
        assert np.all(sizes > 0.1) and np.all(sizes < 1.0)

    def test_nesting_across_epsilon(self):
        """Fixed seed: the atom set at eps/2 extends the atom set at eps,
        with identical shared times and sizes."""
        tail = sim.StableTail(1.0, 0.3)
        grid = np.linspace(0.0, 1.0, 5)
        coarse = sim.shot_noise(tail, 0.2, 42, grid)
        fine = sim.shot_noise(tail, 0.05, 42, grid)

        def atom_dict(path):
            out = {}
            for i in np.nonzero(path.jump_mask)[0]:
                out[float(path.times[i])] = float(
                    (path.values - path.pre_values)[i, 0])
            return out

        ac, af = atom_dict(coarse), atom_dict(fine)
        assert set(ac) <= set(af)
        for t, s in ac.items():
            assert af[t] == s

    def test_epsilon_validation(self):
        tail = sim.StableTail(1.0, 0.3)
        with pytest.raises(ValueError):
            sim.shot_noise(tail, 1.0, 0, np.linspace(0, 1, 5))
        with pytest.raises(ValueError):
            sim.shot_noise(tail, 0.0, 0, np.linspace(0, 1, 5))
        with pytest.raises(ValueError, match="StableTail"):
            sim.shot_noise(sim.LevyMeasure((((1.0,), 1.0),)), 0.5, 0,
                           np.linspace(0, 1, 5))

    def test_beta_p_cauchy_decrease(self):
        """Successive beta_p distances of the Marcus lifts decrease on
        average as the truncation halves."""
        tail = sim.StableTail(1.0, 0.3)
        grid = np.linspace(0.0, 1.0, 65)
        ladder = (0.2, 0.1, 0.05, 0.025)
        sums = np.zeros(3)
        for seed in range(10):
            pairs = [
                fillin.AdmissiblePair(marcus_lift(sim.shot_noise(tail, e, seed, grid)))
                for e in ladder
            ]
            for i in range(3):
                sums[i] += fillin.beta_p(pairs[i], pairs[i + 1], p=2.5,
                                         delta_seq=(1.0,)).estimate
        assert sums[1] < sums[0]
        assert sums[2] < sums[1]
