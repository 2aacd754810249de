"""Tests for the signal-observation simulator, the measure-change exponent,
and the shot-noise sampler."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import solve_ivp

from roughfilter import fillin, sim
from roughfilter.lift import marcus_lift, stratonovich_lift
from roughfilter.paths import CadlagPath
from roughfilter.rde import VectorField, _column_sum, solve_canonical_rde


def zero_coeff_model(nu2=None, f2_scale=0.0):
    """All coefficients zero; optional observed atoms with constant f2."""
    return sim.ModelSpec(
        model_id="zero",
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
        assert np.isclose(sim._atom_sum(nu, [u[0] for u in nu.marks()]), 0.25)
        # a uniform on a step of the cdf (0.75, 1) picks the next mark, as
        # Generator.choice does
        assert np.array_equal(nu.pick_marks(np.array([0.0, 0.5, 0.75, 0.9])),
                              [[1.0], [1.0], [-2.0], [-2.0]])

    def test_levy_measure_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            sim.LevyMeasure((((1.0,), 0.0),))
        # "no jumps" is None: an empty measure is rejected, not integrated
        with pytest.raises(ValueError, match="at least one atom"):
            sim.LevyMeasure(())

    @settings(max_examples=200, deadline=None)
    @given(rates=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=4),
           seed=st.integers(0, 2**32 - 1), size=st.integers(0, 50))
    def test_pick_marks_is_generator_choice(self, rates, seed, size):
        """pick_marks on k uniforms picks what Generator.choice(p=rates /
        total_rate) picks, and leaves the generator in the same state."""
        nu = sim.LevyMeasure(tuple(((float(i), -float(i)), r) for i, r in enumerate(rates)))
        rng, rng2 = np.random.default_rng(seed), np.random.default_rng(seed)
        got = nu.pick_marks(rng.random(size))
        idx = rng2.choice(len(rates), size=size, p=nu.rates() / nu.total_rate)
        assert got.shape == (size, 2)
        assert np.array_equal(got, nu.marks()[idx])
        assert rng.random() == rng2.random()

    def test_stable_tail_moments(self):
        tail = sim.StableTail(1.5, 0.1)
        # tail_mass(r) = (2c/alpha)(r^-alpha - 1)
        r = 0.25
        assert np.isclose(tail.tail_mass(r), 0.2 / 1.5 * (r ** -1.5 - 1.0))
        # inverse round trip
        assert np.isclose(tail.inv_tail(tail.tail_mass(r)), r)
        assert np.isclose(tail.p_moment(2.5), 0.2)
        assert tail.p_moment(1.5) == np.inf

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

    def test_validate_model_failure_reports(self):
        """A non-finite coefficient and a singular sigma2 at a probe each
        fail the report, with their reason; so does lambda outside the
        declared [lambda_min, lambda_max]."""
        base = sim.get_model("linear_gaussian")
        nan_drift = replace(base, b1=lambda t, x, y: np.full(np.shape(x), np.nan))
        assert sim.validate_model(nan_drift) == {
            "ok": False, "reason": "non-finite coefficient at probe"}
        report = sim.validate_model(replace(base, sigma2=sim._const([[0.0]])))
        assert report["ok"] is False
        assert report["reason"].startswith("sigma2 singular at probe t=")
        # lambda above the thinning bound: 1.0 when meta gives none
        report = sim.validate_model(replace(sim.scalar_jump_diffusion(), meta={}))
        assert report["ok"] is False
        assert report["lambda_range"][1] > 1.0
        # lambda below the declared lambda_min
        model = sim.scalar_jump_diffusion()
        report = sim.validate_model(replace(model, meta={**model.meta, "lambda_min": 0.9}))
        assert report["ok"] is False
        assert report["lambda_range"][0] < 0.9

    def test_mark_nonlinear_jump_loadings_fail(self):
        """The infinite regime joins the jump path to the driver at unit mark,
        so f3 and f2 must be linear in the mark. f3 = 0.3 u^2 and 0.3 u^3
        fail validate_model, and theta on a joined driver raises; the
        declared catalog loadings pass with no call, a plain linear one by
        the probe."""
        from roughfilter.filtering import FUNCTION_CATALOG, realized_observation, theta

        base = sim.stable_shot_noise()
        assert sim.validate_model(base)["mark_linearity_defect"] == 0.0
        linear = replace(base, f3=lambda t, x, y, u: np.asarray(base.f3(t, x, y, u)))
        report = sim.validate_model(linear)
        assert report["ok"] and report["mark_linearity_defect"] <= sim.MARK_LINEARITY_TOL
        obs = realized_observation(base, 1.0, 16, 3, epsilon=0.05)
        for power in (2, 3):
            def f3(t, x, y, u, power=power):
                jump = 0.3 * np.asarray(u, dtype=float)[..., :1] ** power
                return np.broadcast_to(jump, np.shape(x))

            model = replace(base, f3=f3)
            report = sim.validate_model(model)
            assert report["ok"] is False
            assert report["mark_linearity_defect"] > 0.1
            with pytest.raises(ValueError, match="linear in a 1-d mark"):
                theta(model, FUNCTION_CATALOG["identity"], obs["driver"],
                      obs["jump_record"], 1.0, 20, 17)
        wide = replace(base, f2=sim._linear_mark([[0.25, 0.1]]))
        assert sim.validate_model(wide)["mark_linearity_defect"] == np.inf

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown model"):
            sim.get_model("nope")

    def test_model_dim_mismatch(self):
        with pytest.raises(ValueError, match="dimensions"):
            sim.linear_gaussian(x0=1.0).__class__(
                **{**sim.linear_gaussian().__dict__, "x0": (1.0, 2.0)})

    def test_infinite_regime_needs_stable_tail(self):
        """The regime is read off the measures, so a model is infinite_jumps
        exactly when nu2 is a StableTail: finite_jumps with atoms in nu1,
        nu2 or both, scalar with neither."""
        good = sim.stable_shot_noise()
        assert good.regime == "infinite_jumps"
        assert sim.ModelSpec(**{**good.__dict__, "nu2": None}).regime == "scalar"
        atoms = sim.LevyMeasure((((1.0,), 0.5),))
        for nu1, nu2, regime in ((atoms, None, "finite_jumps"),
                                 (None, atoms, "finite_jumps"),
                                 (atoms, atoms, "finite_jumps"),
                                 (None, None, "scalar"),
                                 (atoms, good.nu2, "infinite_jumps")):
            assert replace(good, nu1=nu1, nu2=nu2).regime == regime
        assert [sim.get_model(name).regime for name in sorted(sim.MODEL_BUILDERS)] == [
            "finite_jumps", "scalar", "finite_jumps", "infinite_jumps"]


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
        X, Y = sim.simulate_pair(model, nb)
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
            X, Y = sim.simulate_pair(model, nb)
            count = len(nb.pp_jumps["nu2"])
            got = float(Y.values[-1, 0] - Y.values[0, 0])
            assert abs(got - (count - 2.0)) < 1e-12

    def test_deterministic_bit_identical(self):
        model = sim.scalar_jump_diffusion()
        nb = sim.make_noise_bundle(model, 1.5, 24, seed=21)
        X1, Y1 = sim.simulate_pair(model, nb)
        X2, Y2 = sim.simulate_pair(model, nb)
        assert np.array_equal(X1.values, X2.values)
        assert np.array_equal(Y1.values, Y2.values)
        assert np.array_equal(X1.pre_values, X2.pre_values)

    # sha256 over X values, X pre-values, Y values and Y pre-values of
    # simulate_pair at seed 5, 32 steps on [0, 1] (epsilon 0.05 for the
    # stable tail), recorded before b1 and b2 were built by sim._linear_state:
    # declaring the drifts keeps the simulation's bits.
    SIMULATION_SHA256 = {
        ("linear_gaussian", "physical"):
            "3810aaa554332a7a0a22ef2514bbe8fc78975fa78a6c8de871f1dd5fb9766eb7",
        ("linear_gaussian", "reference"):
            "88b2a3d21685feea9d81dde1e4c48052aee7df4d490a476b058aba643d43490f",
        ("scalar_jump_diffusion", "physical"):
            "646ceff2bbcca93e5212b41fa6dc10e3aea3721f4e4aed6c1599cc8845f215c4",
        ("scalar_jump_diffusion", "reference"):
            "3314cb889943af5e8dc83fbfa80e2495dddd05c5878e3f8865506912e35f9c0a",
        ("correlated_jump_multidim", "physical"):
            "38c9b851786ebc711e19f0f1f76961ff5b580bf0801117d2d6e70e477847e548",
        ("correlated_jump_multidim", "reference"):
            "545571f79bc97e25da417ae0de61ea7742b89bfd018423125d4b7eee7508fea1",
        ("stable_shot_noise", "physical"):
            "dd50228f3c8748f6cadb13a4c4bcda614c3180843d5048ea64a2fa4a644ddd5c",
        ("stable_shot_noise", "reference"):
            "2dd0f085f8c00f4b32a99fc4c9861456e2e1db0aa6b8c34066d3f325fb54999d",
    }

    @pytest.mark.parametrize("name,measure", sorted(SIMULATION_SHA256))
    def test_simulation_bits_pinned(self, name, measure):
        model = sim.get_model(name)
        eps = 0.05 if model.regime == "infinite_jumps" else None
        nb = sim.make_noise_bundle(model, 1.0, 32, 5, epsilon=eps,
                                   measure=measure)
        X, Y = sim.simulate_pair(model, nb)
        digest = hashlib.sha256()
        for path in (X, Y):
            digest.update(path.values.tobytes())
            digest.update(path.pre_values.tobytes())
        assert digest.hexdigest() == self.SIMULATION_SHA256[(name, measure)]

    def test_common_jumps_hit_both_components(self):
        model = sim.scalar_jump_diffusion()
        nb = sim.make_noise_bundle(model, 2.0, 24, seed=7, measure="reference")
        X, Y = sim.simulate_pair(model, nb)
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
        X, Y = sim.simulate_pair(model, nb)
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
            X, Y = sim.simulate_pair(model, nb)
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
            model_id="geo", dim_x=1, dim_y=1, dim_b=1,
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
        X, Y = sim.simulate_pair(model, nb)
        w = np.concatenate([[0.0], np.cumsum(nb.brownian_W[:, 0])])
        rel = np.max(np.abs(Y.values[:, 0] - np.exp(w))) / np.max(np.exp(w))
        assert rel < 1e-3

    def test_wong_zakai_refinement(self):
        """The Heun observation converges to the rough-path solution of
        dY = sigma2(Y) o dW under grid refinement with nested Brownians."""

        def sigma2(t, y):
            return (0.4 + 0.2 * np.sin(np.asarray(y, dtype=float)))[..., None]

        model = sim.ModelSpec(
            model_id="wz", dim_x=1, dim_y=1, dim_b=1,
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
                seed=17, T=1.0, times=times,
                brownian_B=np.zeros((steps, 1)), brownian_W=agg[:, None],
                pp_jumps={"nu1": empty, "nu2": empty})
            X, Y = sim.simulate_pair(model, nb)
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
        """A declared sigma2 (built by _const) is applied through its
        inverse, kept once; a plain callable returning the same matrices
        takes the batched solve. Same h to rounding, and one state gets
        the bits of its row in a batch."""
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
        one = [sim.h_function(base, 0.0, x, y)
               for x, y in zip(xs.reshape(-1, 2), ys.reshape(-1, 2))]
        assert np.array_equal(np.reshape(one, h_once.shape), h_once)

    def test_singular_constant_sigma2(self):
        base = sim.correlated_jump_multidim()
        model = replace(base, sigma2=sim._const([[1.0, 2.0], [0.5, 1.0]]))
        with pytest.raises(ValueError, match="singular"):
            sim.h_function(model, 0.0, np.zeros((4, 2)), np.zeros((4, 2)))

    def test_plain_square_sigma2_one_state_matches_batch_row(self):
        """A plain d x d sigma2 at one state is solved as one system: the
        bits of that state's row in a batch, and a singular one raises
        there as in the batch."""
        base = sim.correlated_jump_multidim()
        model = replace(base, sigma2=lambda t, y: np.array(base.sigma2(t, y)))
        rng = np.random.default_rng(6)
        xs, ys = rng.standard_normal((5, 2)), rng.standard_normal((5, 2))
        batch = sim.h_function(model, 0.3, xs, ys)
        for i in range(5):
            assert np.array_equal(sim.h_function(model, 0.3, xs[i], ys[i]), batch[i])
        singular = replace(base, sigma2=lambda t, y: np.broadcast_to(
            [[1.0, 2.0], [0.5, 1.0]], np.shape(y)[:-1] + (2, 2)))
        with pytest.raises(ValueError, match="singular"):
            sim.h_function(singular, 0.3, xs[0], ys[0])
        with pytest.raises(ValueError, match="singular"):
            sim.h_function(singular, 0.3, xs, ys)

    @pytest.mark.parametrize("name, x_shape, y_shape", [
        ("correlated_jump_multidim", (3, 4, 2), (4, 2)),
        ("correlated_jump_multidim", (4, 2), (3, 1, 2)),
        ("scalar_jump_diffusion", (5, 1), (1,)),
        ("scalar_jump_diffusion", (1,), (2, 3, 1)),
    ])
    def test_leading_shapes_broadcast_like_single_states(self, name, x_shape, y_shape):
        """x and y of different leading shapes broadcast against each other;
        each entry is h at its own pair of states, bit for bit."""
        model = sim.get_model(name)
        rng = np.random.default_rng(7)
        x, y = rng.standard_normal(x_shape), rng.standard_normal(y_shape)
        h = sim.h_function(model, 0.2, x, y)
        lead = np.broadcast_shapes(x_shape[:-1], y_shape[:-1])
        assert h.shape == lead + (model.dim_y,)
        xb = np.broadcast_to(x, lead + x_shape[-1:])
        yb = np.broadcast_to(y, lead + y_shape[-1:])
        for idx in np.ndindex(*lead):
            assert np.array_equal(sim.h_function(model, 0.2, xb[idx], yb[idx]), h[idx])

    def test_declared_sigma2_kept_once_on_the_model(self):
        """A declared sigma2 is kept in the model's _Bound, not on the
        shared coefficient: its 1 x 1 entry as the divisor, a d x d
        matrix's inverse as (d, d) for one state and (d, d, 1) for a batch,
        and a singular one as 0.0, which every solve reports, at every call
        and through every rate."""
        lg = sim.linear_gaussian(gamma=0.5)
        assert lg._bound_one.sigma2_inv == lg._bound_batch.sigma2_inv == 0.5
        x = np.array([[0.3], [-1.2], [0.0]])
        assert np.array_equal(sim.h_function(lg, 0.0, x, np.zeros((3, 1))),
                              (float(lg.meta["c"]) * x) / 0.5)
        cjm = sim.correlated_jump_multidim()
        one, batch = cjm._bound_one.sigma2_inv, cjm._bound_batch.sigma2_inv
        assert one.shape == (2, 2) and batch.shape == (2, 2, 1)
        assert np.array_equal(batch[..., 0], one)
        assert np.array_equal(one, np.linalg.inv(sim._const_matrix(cjm.sigma2)))
        assert not hasattr(cjm.sigma2, "inverse")
        for model in (sim.linear_gaussian(gamma=0.0),
                      replace(cjm, sigma2=sim._const([[1.0, 2.0], [0.5, 1.0]]))):
            assert model._bound_one.sigma2_inv == model._bound_batch.sigma2_inv == 0.0
            d = model.dim_x
            for _ in range(2):
                with pytest.raises(ValueError, match="sigma2 singular at t=0.25"):
                    model._bound_batch.reference_rates(0.25, np.zeros((d, 3)),
                                                       np.zeros((model.dim_y, 3)))
            with pytest.raises(ValueError, match="singular"):
                sim.h_function(model, 0.0, np.zeros(d), np.zeros(model.dim_y))
        # a plain 1 x 1 sigma2 callable is read at every call
        plain = replace(sim.linear_gaussian(), sigma2=lambda t, y: np.zeros((1, 1)))
        with pytest.raises(ValueError, match="sigma2 singular at t=0.25"):
            plain._bound_batch.reference_rates(0.25, np.zeros((1, 3)), np.zeros((1, 3)))


class TestGirsanovExponent:
    def test_identically_zero(self):
        # h = 0 and lambda = 1: I vanishes even with observed jumps present
        model = sim.scalar_jump_diffusion(c=0.0, kappa=0.0)
        nb = sim.make_noise_bundle(model, 2.0, 24, seed=3)
        X, Y = sim.simulate_pair(model, nb)
        assert len(nb.pp_jumps["nu2"]) > 0
        I = sim.girsanov_exponent(model, nb, X, Y)
        assert np.array_equal(I.values, np.zeros_like(I.values))

    def test_constant_h_closed_form(self):
        """b2 constant: I_t = h W_t + |h|^2 t / 2 exactly on the grid."""
        beta = 0.7
        model = sim.ModelSpec(
            model_id="consth", dim_x=1, dim_y=1, dim_b=1,
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
        X, Y = sim.simulate_pair(model, nb)
        w = np.concatenate([[0.0], np.cumsum(nb.brownian_W[:, 0])])
        expect = h * w + 0.5 * h * h * nb.times
        for mode in ("stratonovich", "ito"):
            I = sim.girsanov_exponent(model, nb, X, Y, mode=mode)
            assert np.max(np.abs(I.values[:, 0] - expect)) < 1e-12

    def test_hand_recomputed_quadrature(self):
        """Independent re-accumulation of I (trapezoid h dW, trapezoid
        |h|^2 dt, log lambda at atoms, left-endpoint compensator) matches,
        also with a lambda that grows in time by the factor 1 + t."""
        model = sim.scalar_jump_diffusion()
        lam = model.lambda_fn
        self._hand_recomputed_quadrature(model)
        self._hand_recomputed_quadrature(
            replace(model, lambda_fn=lambda t, x, u: lam(t, x, u) * (1.0 + t)))

    @staticmethod
    def _hand_recomputed_quadrature(model):
        nb = sim.make_noise_bundle(model, 1.5, 16, seed=19, measure="reference")
        X, Y = sim.simulate_pair(model, nb)
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
            X, Y = sim.simulate_pair(model, nb)
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
            X, Y = sim.simulate_pair(model, nb)
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
        # lambda reaches lambda_max exactly, which the probe allows
        assert sim.validate_model(model)["ok"]
        n = 600
        for measure, flip in (("reference", 1.0), ("physical", -1.0)):
            vals = np.empty(n)
            for i in range(n):
                nb = sim.make_noise_bundle(model, 1.0, 16, seed=3000 + i,
                                           measure=measure)
                X, Y = sim.simulate_pair(model, nb)
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
        X, Y = sim.simulate_pair(model, nb)
        with pytest.raises(ValueError, match="lambda"):
            sim.girsanov_exponent(model, nb, X, Y)

    def test_lambda_above_its_thinning_bound_raises(self):
        """Physical bundles draw observed candidates at lambda_max nu2 and
        thin them, so a lambda above lambda_max (meta, 1.0 when meta gives
        none) cannot be reached: simulate_pair raises instead of accepting
        every such atom. Reference bundles are not thinned."""
        model = replace(sim.scalar_jump_diffusion(), meta={})
        nb = sim.make_noise_bundle(model, 3.0, 16, seed=4)
        with pytest.raises(ValueError, match=r"lambda 1\.31.* at t=0\.40.* exceeds the "
                                             r"thinning bound lambda_max=1\.0"):
            sim.simulate_pair(model, nb)
        sim.simulate_pair(model, sim.make_noise_bundle(model, 3.0, 16, seed=4,
                                                       measure="reference"))

    # sha256 over I values and I pre-values of girsanov_exponent on [0, 1],
    # 16 steps, for three catalog models, both measures, seeds 0-24 and both
    # quadrature modes, recorded before the exponent read its compensator
    # from sim._Bound.rates and its log lambda from sim._observed_lambda.
    GIRSANOV_SHA256 = "f2c0d0b7d1c9ab4fa57050474e17f4dca84da1505115c1eb3c78e0b98c03883a"

    def test_girsanov_bits_pinned(self):
        digest = hashlib.sha256()
        for name in ("linear_gaussian", "scalar_jump_diffusion", "correlated_jump_multidim"):
            model = sim.get_model(name)
            for measure in ("physical", "reference"):
                for seed in range(25):
                    nb = sim.make_noise_bundle(model, 1.0, 16, seed, measure=measure)
                    X, Y = sim.simulate_pair(model, nb)
                    for mode in ("stratonovich", "ito"):
                        I = sim.girsanov_exponent(model, nb, X, Y, mode=mode)
                        digest.update(I.values.tobytes())
                        digest.update(I.pre_values.tobytes())
        assert digest.hexdigest() == self.GIRSANOV_SHA256

    def test_unknown_mode(self):
        model = sim.linear_gaussian()
        nb = sim.make_noise_bundle(model, 1.0, 8, seed=0)
        X, Y = sim.simulate_pair(model, nb)
        with pytest.raises(ValueError, match="mode"):
            sim.girsanov_exponent(model, nb, X, Y, mode="midpoint")
        # paths simulated on another bundle's grid
        X, Y = sim.simulate_pair(model, sim.make_noise_bundle(model, 1.0, 16, seed=0))
        with pytest.raises(ValueError, match="simulate_pair on this bundle"):
            sim.girsanov_exponent(model, nb, X, Y)


class TestWtildeReconstruction:
    def test_linear_gaussian_exact(self):
        model = sim.linear_gaussian()
        nb = sim.make_noise_bundle(model, 1.0, 64, seed=4)
        X, Y = sim.simulate_pair(model, nb)
        W = sim.reconstruct_wtilde(model, Y)
        assert np.allclose(W.values[:, 0],
                           (Y.values[:, 0] - Y.values[0, 0]) / 0.5, atol=1e-12)

    def test_observed_jumps_drop_out(self):
        model = sim.scalar_jump_diffusion()
        nb = sim.make_noise_bundle(model, 2.0, 32, seed=6, measure="reference")
        X, Y = sim.simulate_pair(model, nb)
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
        comp = sim._atom_sum(model.nu2, [model.f2(0.0, np.zeros(1), u)
                                           for u in model.nu2.marks()])[0]
        assert np.allclose(resid, -comp * Y.times, atol=1e-10)

    def test_batched_solve_matches_the_segment_loop(self):
        """All segments are solved in one batched call and summed by one
        accumulate: the values of the loop that evaluates f2 and sigma2,
        solves and adds segment by segment from 0, bit for bit, on the
        catalog and on a plain, time-dependent 2 x 2 sigma2 with a plain f2."""
        def loop(model, Y):
            out, w = np.zeros((len(Y.times), model.dim_y)), np.zeros(model.dim_y)
            for k in range(len(Y.times) - 1):
                t, y = float(Y.times[k]), Y.values[k]
                dy = Y.pre_values[k + 1] - y
                if isinstance(model.nu2, sim.LevyMeasure):
                    dy = dy + float(Y.times[k + 1] - Y.times[k]) * sim._atom_sum(
                        model.nu2, [np.asarray(model.f2(t, y, u), dtype=float)
                                    for u in model.nu2.marks()])
                w = w + np.linalg.solve(np.asarray(model.sigma2(t, y), dtype=float), dy)
                out[k + 1] = w
            return out

        cjm = sim.correlated_jump_multidim()
        plain = replace(
            cjm, f2=lambda t, y, u: 0.5 * np.asarray(u) + 0.1 * np.asarray(y),
            sigma2=lambda t, y: np.broadcast_to(
                np.array([[0.5, 0.0], [0.1, 0.45]]) * (1.0 + t),
                np.shape(y)[:-1] + (2, 2)))
        for model in [sim.get_model(name) for name in sim.MODEL_BUILDERS] + [plain]:
            eps = 0.05 if model.regime == "infinite_jumps" else None
            for seed in range(3):
                nb = sim.make_noise_bundle(model, 1.0, 32, seed, epsilon=eps)
                Y = sim.simulate_pair(model, nb)[1]
                got = sim.reconstruct_wtilde(model, Y).values
                assert got.tobytes() == loop(model, Y).tobytes(), model.model_id


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


class TestDeclaredViews:
    """_const hands out read-only views; _linear_mark keeps nothing per
    mark."""

    def test_const_view_is_read_only(self):
        f = sim._const([[0.5, 0.1], [0.0, 0.4]])
        for state in (np.zeros(2), np.zeros((5, 2)), np.zeros((5, 3, 2))):
            view = f(0.0, state, state)
            assert view.shape == state.shape[:-1] + (2, 2)
            with pytest.raises(ValueError, match="read-only"):
                view[...] = 0.0
        assert np.array_equal(f.matrix, [[0.5, 0.1], [0.0, 0.4]])

    def test_linear_mark_keeps_nothing_per_mark(self):
        """1,000 distinct observed marks on single and batched states leave
        no memory behind, and each jump is mat @ u."""
        import tracemalloc

        mat = np.array([[0.0, 0.3], [0.3, 0.0]])
        f = sim._linear_mark(mat)
        marks = np.random.default_rng(8).standard_normal((1000, 2))
        states = (np.zeros(2), np.zeros((4, 2)))
        for x in states:  # first calls with each shape
            f(0.0, x, x, marks[0])
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        for u in marks:
            for x in states:
                out = f(0.0, x, x, u)
        del out
        grown = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.stop()
        assert grown < 4096, grown
        for x in states:
            out = f(0.0, x, x, marks[-1])
            assert out.shape == x.shape
            assert np.array_equal(out, np.broadcast_to(mat @ marks[-1], x.shape))


# -- products in column order and the reference rates ------------------------

_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                     st.floats(-1e3, 1e3))


def _column_order(M, v):
    """out[..., i] = sum_j M[..., i, j] v[..., j], one Python float at a
    time, added in column order from 0.0."""
    lead = np.broadcast_shapes(M.shape[:-2], v.shape[:-1])
    M = np.broadcast_to(M, lead + M.shape[-2:])
    v = np.broadcast_to(v, lead + v.shape[-1:])
    out = np.empty(lead + M.shape[-2:-1])
    for idx in np.ndindex(out.shape):
        acc = 0.0
        for j in range(M.shape[-1]):
            acc += float(M[idx + (j,)]) * float(v[idx[:-1] + (j,)])
        out[idx] = acc
    return out


# layout -> (einsum the product replaced, M's shape, whether v is one vector)
_MATVEC_LAYOUTS = {
    "declared matrix": ("ij,...j->...i", "matrix", False),  # _linear_state
    "per-particle stack": ("...ij,...j->...i", "stack", False),  # sigma1 h
    "declared, strided rows": ("...ab,...b->...a", "matrix", False),  # sigma0 dB
    "declared, one vector": ("...ab,b->...a", "matrix", True),  # sigma1 dW
}


@settings(max_examples=80, deadline=None)
@given(data=st.data(), layout=st.sampled_from(sorted(_MATVEC_LAYOUTS)),
       rows=st.integers(1, 3), cols=st.integers(1, 3), n=st.integers(1, 5))
def test_matvec_is_the_einsum_it_replaces(data, layout, rows, cols, n):
    """rde._column_sum, the product of every rate, adds each component in
    column order from 0.0, signed zeros included, on component-major
    layouts: a declared matrix kept as (rows, cols, 1) or a per-particle
    stack (rows, cols, n), against particle rows (contiguous, or strided as
    a step's slice of the dB draw) or one vector of floats, whose product
    comes out once, as (rows, 1). For the one- and two-term sums of the
    catalog models that is the particle-major einsum it replaced, bit for
    bit. (einsum's own order for three terms is not the column order: it
    read (p0 + p2) + p1 with numpy 2.4.6 on x86-64.)"""
    spec, shape, one_vector = _MATVEC_LAYOUTS[layout]
    M = data.draw(arrays(float, (n, rows, cols) if shape == "stack"
                         else (rows, cols), elements=_ENTRIES))
    if one_vector:
        v = data.draw(arrays(float, (cols,), elements=_ENTRIES))
        vc = v
    elif layout == "declared, strided rows":
        v = data.draw(arrays(float, (n, 2, cols), elements=_ENTRIES))[:, 1]
        vc = v.T
    else:
        v = data.draw(arrays(float, (n, cols), elements=_ENTRIES))
        vc = np.ascontiguousarray(v.T)
    Mc = M[..., None] if shape == "matrix" else M.transpose(1, 2, 0)
    got = _column_sum(Mc, vc)
    expect = _column_order(M, v)
    assert got.shape == (rows, 1 if one_vector else n)
    assert got.T.tobytes() == np.broadcast_to(
        expect, got.T.shape).tobytes()
    if cols <= 2:
        assert got.T.tobytes() == np.broadcast_to(
            np.einsum(spec, M, v), got.T.shape).tobytes()


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.integers(1, 3), n=st.integers(1, 5),
       one_vector=st.booleans())
def test_dot_is_the_einsum_it_replaces(data, d, n, one_vector):
    """The sweep's inner products over components (h . h, h . g1 and
    (h0 + h1) . dW) add in order from 0.0, as the column sum does: the
    particle-major einsums bit for bit at one or two terms."""
    from roughfilter.filtering import _inner

    a = data.draw(arrays(float, (n, d), elements=_ENTRIES))
    b = data.draw(arrays(float, (d,) if one_vector else (n, d),
                         elements=_ENTRIES))
    got = _inner(np.ascontiguousarray(a.T), b if one_vector else b.T)
    expect = _column_order(a[..., None, :], b)[..., 0]
    assert got.shape == expect.shape == (n,)
    assert got.tobytes() == expect.tobytes()
    if d <= 2:
        spec = "...i,i->..." if one_vector else "...i,...i->..."
        assert got.tobytes() == np.einsum(spec, a, b).tobytes()


@settings(max_examples=40, deadline=None)
@given(data=st.data(), d=st.integers(1, 3), n=st.integers(1, 5),
       subtract=st.booleans())
def test_by_column_is_the_broadcast_it_replaces(data, d, n, subtract):
    """A vector that is the same for every particle, kept as a column
    (d, 1), meets a component-major batch (d, n) in one broadcast: the
    particle-major ufunc(a, c) bit for bit, signed zeros included."""
    ufunc = np.subtract if subtract else np.add
    a = data.draw(arrays(float, (n, d), elements=_ENTRIES))
    c = data.draw(arrays(float, (d,), elements=_ENTRIES))
    got, expect = ufunc(np.ascontiguousarray(a.T), c[:, None]), ufunc(a, c)
    assert got.shape == (d, n)
    assert got.T.tobytes() == expect.tobytes()


def _reference_drift(coefficient, t, x, y):
    """b1 or b2 as _linear_state evaluated it per call: c * x for a 1 x 1
    matrix, one einsum otherwise."""
    M = sim._state_matrix(coefficient)
    if M is None:
        return np.asarray(coefficient(t, x, y), dtype=float)
    if M.shape == (1, 1):
        return float(M[0, 0]) * x
    return np.einsum("ij,...j->...i", M, x)


def _reference_state(model, coefficient, x, y):
    """The state at which a nu2 coefficient was evaluated per call: one zero
    state when it is declared, else (x, y)."""
    if sim._declared_matrix(coefficient) is not None:
        return np.zeros(model.dim_x), np.zeros(model.dim_y)
    return x, y


def _reference_solve(model, t, y, rhs):
    """sigma2^{-1} rhs as computed per call: a division for 1 x 1, the
    declared inverse as a column sum from the first column, else a solve."""
    declared = sim._declared_matrix(model.sigma2)
    s2 = declared if declared is not None else np.asarray(
        model.sigma2(t, y), dtype=float)
    if s2.shape[-2:] == (1, 1):
        return rhs / s2[..., 0]
    if declared is not None:
        inv = np.linalg.inv(s2)
        out = rhs[..., :1] * inv[:, 0]
        for j in range(1, inv.shape[1]):
            out = out + rhs[..., j:j + 1] * inv[:, j]
        return out
    if s2.ndim > 2:
        return np.linalg.solve(s2, rhs[..., None])[..., 0]
    sol = np.linalg.solve(s2, rhs.reshape(-1, rhs.shape[-1]).T)
    return sol.T.reshape(rhs.shape)


def _reference_nu2_values(model, t, x, y):
    """lambda_fn, f2 and f3 at nu2's marks, each evaluated at its state."""
    xl = _reference_state(model, model.lambda_fn, x, y)[0]
    y2 = _reference_state(model, model.f2, x, y)[1]
    x3, y3 = _reference_state(model, model.f3, x, y)
    marks = model.nu2.marks()
    return ([np.asarray(model.lambda_fn(t, xl, u), dtype=float) for u in marks],
            [np.asarray(model.f2(t, y2, u), dtype=float) for u in marks],
            [np.asarray(model.f3(t, x3, y3, u), dtype=float) for u in marks])


def _per_call_rates(model, t, x, y):
    """(bx, by, h, comp) evaluated in full at every call, with einsum
    products: the formula the kept values and _matvec must reproduce."""
    bx = _reference_drift(model.b1, t, x, y)
    by = rhs = _reference_drift(model.b2, t, x, y)
    comp = 0.0
    if model.nu1 is not None and model.nu1.atoms:
        bx = bx - sim._atom_sum(model.nu1,
                                [model.f1(t, x, y, u) for u in model.nu1.marks()])
    nu2 = model.nu2
    if isinstance(nu2, sim.LevyMeasure):
        lam, f2, f3 = _reference_nu2_values(model, t, x, y)
        bx = bx - sim._atom_sum(nu2, (f * l[..., None] for f, l in zip(f3, lam)))
        by = by - sim._atom_sum(nu2, (f * l[..., None] for f, l in zip(f2, lam)))
        rhs = rhs + sim._atom_sum(
            nu2, (f * (1.0 - l)[..., None] for f, l in zip(f2, lam)))
        comp = sim._atom_sum(nu2, (1.0 - l for l in lam))
    h = _reference_solve(model, t, y, rhs)
    bx = bx - np.einsum("...ij,...j->...i", model.sigma1(t, x, y), h)
    by = by - np.einsum("...ij,...j->...i", model.sigma2(t, y), h)
    return bx, by, h, comp


def _per_call_h(model, t, x, y):
    """h evaluated in full at every call."""
    rhs = _reference_drift(model.b2, t, x, y)
    if isinstance(model.nu2, sim.LevyMeasure):
        lam, f2, _ = _reference_nu2_values(model, t, x, y)
        rhs = rhs + sim._atom_sum(
            model.nu2, (f * (1.0 - l)[..., None] for f, l in zip(f2, lam)))
    return _reference_solve(model, t, y, rhs)


def _plain_coefficient(coefficient):
    return lambda *args: np.array(coefficient(*args))


def _rate_models():
    models = {name: sim.get_model(name) for name in sim.MODEL_BUILDERS}
    sjd = models["scalar_jump_diffusion"]
    models["scalar_jump_diffusion, plain"] = replace(sjd, **{
        c: _plain_coefficient(getattr(sjd, c))
        for c in ("sigma1", "sigma2", "f2", "f3")})
    cjm = models["correlated_jump_multidim"]
    models["correlated_jump_multidim, plain lambda"] = replace(
        cjm, lambda_fn=_plain_coefficient(cjm.lambda_fn))
    return models


_RATE_MODELS = _rate_models()


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(_RATE_MODELS)),
       seed=st.integers(0, 2**32 - 1), n=st.integers(0, 6),
       t=st.floats(0.0, 1.0), h_first=st.booleans())
def test_reference_rates_match_the_per_call_formula(name, seed, n, t, h_first):
    """_Bound.reference_rates and h_function, with declared values kept once per
    model and products through rde._column_sum on component-major states,
    equal the per-call formula with particle-major einsum products bit for
    bit, at random states (n = 0: one unbatched state, both as 1-d arrays
    and as a batch of one component-major), whichever of the two computes
    the kept values. With
    `signal`, reference_rates gives the same bx, h and comp, and by at its
    physical-measure value from _Bound.rates."""
    model = replace(_RATE_MODELS[name])  # a copy that has kept nothing yet
    rng = np.random.default_rng(seed)
    lead = (n,) if n else ()
    x = rng.uniform(-3.0, 3.0, lead + (model.dim_x,))
    y = rng.uniform(-3.0, 3.0, lead + (model.dim_y,))
    xc, yc = x.reshape(-1, model.dim_x).T, y.reshape(-1, model.dim_y).T
    if h_first:
        h = sim.h_function(model, t, x, y)
    rates = model._bound_batch.reference_rates(t, xc, yc)
    if not h_first:
        h = sim.h_function(model, t, x, y)
    expect = _per_call_rates(model, t, x, y)

    def particle_major(got, want):
        return np.asarray(got).T.reshape(np.shape(want))

    for got, want in zip(rates, expect):
        want = np.asarray(want)
        assert particle_major(got, want).tobytes() == want.tobytes(), name
    if not n:
        for got, want in zip(model._bound_one.reference_rates(t, x, y), expect):
            assert np.shape(got) == np.shape(want), name
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name
    want_h = _per_call_h(model, t, x, y)
    assert h.shape == want_h.shape, name
    assert h.tobytes() == want_h.tobytes(), name
    # the routes that move X alone skip sigma2 h: by stays physical
    signal = model._bound_batch.reference_rates(t, xc, yc, signal=True)
    physical_by = model._bound_batch.rates(t, xc, yc)[1]
    for got, want in zip(signal, (rates[0], physical_by) + rates[2:]):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name


def test_only_const_builds_a_fixed_loading():
    """_const marks its callable constant. _linear_mark and _linear_state
    carry a matrix too, but one that maps the mark or the state, so the
    rates and routes never apply theirs as a loading fixed at every state."""
    M = np.array([[0.5, 0.1], [0.0, 0.4]])
    assert sim._const_matrix(sim._const(M)) is not None
    for built in (sim._linear_mark(M), sim._linear_state(M), lambda t, x, y: M):
        assert sim._const_matrix(built) is None


def test_declared_values_kept_once_per_model():
    """The declared values live on the model that computed them, on first
    use, laid out for one state and for a batch: a model built by
    dataclasses.replace computes its own."""
    model = sim.get_model("correlated_jump_multidim")
    kept = model._bound_one, model._bound_batch
    one, batch = kept
    assert model._bound_one is one and model._bound_batch is batch
    assert one.integrals[0].shape == (2,) and batch.integrals[0].shape == (2, 1)
    assert all(k.integrals is not None and k.f1 is None for k in kept)
    other = replace(model, lambda_fn=_plain_coefficient(model.lambda_fn))
    assert other._bound_batch is not batch
    for k in (other._bound_one, other._bound_batch):
        assert k.lam is None and k.integrals is None and k.f2 is not None
    sjd = sim.get_model("scalar_jump_diffusion")
    for k in (sjd._bound_one, sjd._bound_batch):
        assert k.integrals is None and k.lam is None
        assert len(k.f1) == len(sjd.nu1.atoms)
