import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughfilter.fillin import AdmissiblePair, linear_path_function
from roughfilter.filtering import FUNCTION_CATALOG, theta
from roughfilter.lift import (
    RoughPath,
    chen_defect,
    geometric_defect_max,
    marcus_increment,
    marcus_jump_defect,
    marcus_lift,
    read_rough_path_json,
    reverse_rough_path,
    rho_p,
    rough_path_from_dict,
    rough_path_to_dict,
    stratonovich_lift,
    write_rough_path_json,
)
from roughfilter.paths import CadlagPath
from roughfilter.rde import constant_vector_field, solve_canonical_rde
from roughfilter.sim import get_model
from roughfilter.tensor_group import group_exp, group_log, group_mul


def brownian_path(rng, n, d, T=1.0):
    dt = T / n
    incs = rng.standard_normal((n, d)) * np.sqrt(dt)
    vals = np.vstack([np.zeros(d), np.cumsum(incs, axis=0)])
    return CadlagPath(np.linspace(0.0, T, n + 1), vals)


def jumpy_path(rng, n, d, n_jumps=2):
    x = brownian_path(rng, n, d)
    pre = x.values.copy()
    for i in rng.choice(np.arange(1, n + 1), size=n_jumps, replace=False):
        pre[i] = x.values[i] + rng.standard_normal(d)
    return CadlagPath(x.times, x.values, pre)


def test_single_segment_is_exp():
    v = np.array([0.7, -0.2])
    x = CadlagPath([0.0, 1.0], [np.zeros(2), v])
    X = stratonovich_lift(x)
    g = group_exp(v)
    assert np.allclose(X.level1[-1], g.level1, atol=1e-15)
    assert np.allclose(X.level2[-1], g.level2, atol=1e-15)


def test_two_segment_levels_and_area():
    x = CadlagPath([0.0, 1.0, 2.0], [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    X = stratonovich_lift(x)
    top = X.level2[-1]
    assert top[0, 1] == pytest.approx(1.0)
    assert top[1, 0] == pytest.approx(0.0)
    anti = 0.5 * (top - top.T)
    assert anti[0, 1] == pytest.approx(0.5)


def test_refinement_invariance_on_collinear_midpoint():
    x = CadlagPath([0.0, 1.0], [[0.0, 0.0], [2.0, 1.0]])
    y = CadlagPath([0.0, 0.5, 1.0], [[0.0, 0.0], [1.0, 0.5], [2.0, 1.0]])
    X, Y = stratonovich_lift(x), stratonovich_lift(y)
    assert np.allclose(X.level1[-1], Y.level1[-1], atol=1e-14)
    assert np.allclose(X.level2[-1], Y.level2[-1], atol=1e-14)


def test_stratonovich_rejects_jumps():
    x = CadlagPath([0.0, 1.0], [[0.0], [1.0]], [[0.0], [0.5]])
    with pytest.raises(ValueError):
        stratonovich_lift(x)


def test_lift_consistency_random():
    rng = np.random.default_rng(20)
    for d in (1, 2, 3):
        X = stratonovich_lift(brownian_path(rng, 16, d))
        assert chen_defect(X) < 1e-12
        assert geometric_defect_max(X) < 1e-12


def test_marcus_pure_jump():
    delta = np.array([1.5, -0.5])
    x = CadlagPath([0.0, 1.0], [np.zeros(2), delta],
                   [np.zeros(2), np.zeros(2)])
    X = marcus_lift(x)
    g = group_exp(delta)
    assert np.allclose(X.level1[-1], g.level1)
    assert np.allclose(X.level2[-1], g.level2)
    assert X.jump_flags[1]
    _, lg2 = group_log(X.increment(1, 1, left_i=True))
    assert np.max(np.abs(lg2)) < 1e-12


def test_marcus_jumpless_bit_identical_to_stratonovich():
    rng = np.random.default_rng(21)
    x = brownian_path(rng, 32, 2)
    S, M = stratonovich_lift(x), marcus_lift(x)
    assert np.array_equal(S.level1, M.level1)
    assert np.array_equal(S.level2, M.level2)
    assert not M.has_jumps()


def test_marcus_lift_jump_logs_vanish():
    rng = np.random.default_rng(22)
    X = marcus_lift(jumpy_path(rng, 12, 3, n_jumps=3))
    assert marcus_jump_defect(X) < 1e-12
    assert chen_defect(X) < 1e-12
    assert geometric_defect_max(X) < 1e-12


def test_marcus_increment_and_non_marcus_jump_rejected():
    times = np.array([0.0, 0.5, 1.0])
    vals = np.array([[0.0, 0.0], [0.5, 0.2], [0.4, 0.1]])
    pre = vals.copy()
    pre[1] = [0.1, 0.0]
    X = marcus_lift(CadlagPath(times, vals, pre))
    np.testing.assert_allclose(marcus_increment(X, 1), vals[1] - pre[1],
                               rtol=0, atol=1e-15)

    # an area A added from the jump on: the jump's log gains level 2 A
    A = np.array([[0.0, 0.2], [-0.2, 0.0]])
    bad = RoughPath(X.times, X.level1,
                    X.level2 + np.array([0.0, 1.0, 1.0])[:, None, None] * A,
                    X.jump_flags, X.pre_level1,
                    X.pre_level2 + np.array([0.0, 0.0, 1.0])[:, None, None] * A)
    with pytest.raises(ValueError, match="not of Marcus type"):
        marcus_increment(bad, 1)
    with pytest.raises(ValueError, match="not of Marcus type"):
        theta(get_model("scalar_jump_diffusion"), FUNCTION_CATALOG["one"],
              bad, None, 1.0, 10, 0)
    with pytest.raises(ValueError, match="not of Marcus type"):
        solve_canonical_rde(constant_vector_field(np.zeros((1, 2))),
                            AdmissiblePair(bad), [0.0], steps=4)
    with pytest.raises(ValueError, match="inadmissible.*not of Marcus type"):
        AdmissiblePair(bad, linear_path_function())
    AdmissiblePair(X, linear_path_function())


def test_increment_and_pre_point():
    rng = np.random.default_rng(23)
    X = marcus_lift(jumpy_path(rng, 8, 2))
    i = int(np.nonzero(X.jump_flags)[0][0])
    jump = X.increment(i, i, left_i=True)
    _, lg2 = group_log(jump)
    assert np.max(np.abs(lg2)) < 1e-12
    pre = X.point(i, left=True)
    assert np.array_equal(pre.level1, X.pre_level1[i])
    assert np.array_equal(group_mul(pre, jump).level1, X.level1[i])
    full = X.increment(0, len(X.times) - 1)
    assert np.allclose(full.level1, X.level1[-1])


def _malformed(case):
    """Arguments of a 3-point, 2-d RoughPath with one defect."""
    rng = np.random.default_rng(25)
    X = marcus_lift(jumpy_path(rng, 2, 2, n_jumps=1))
    kw = dict(times=X.times.copy(), level1=X.level1.copy(),
              level2=X.level2.copy(), jump_flags=X.jump_flags.copy(),
              pre_level1=X.pre_level1.copy(), pre_level2=X.pre_level2.copy())
    if case == "times not increasing":
        kw["times"] = np.array([0.0, 1.0, 0.5])
    elif case == "time nan":
        kw["times"] = np.array([0.0, 0.5, np.nan])
    elif case == "time inf":
        kw["times"] = np.array([0.0, 0.5, np.inf])
    elif case == "level1 1-d":
        kw["level1"] = kw["level1"][:, 0]
    elif case == "level1 rows":
        kw["level1"] = kw["level1"][:2]
    elif case in ("level2 shape", "pre_level2 shape"):
        key = case.split()[0]
        kw[key] = kw[key][:, :1]
    elif case == "pre_level1 shape":
        kw["pre_level1"] = kw["pre_level1"][:2]
    elif case == "jump_flags shape":
        kw["jump_flags"] = kw["jump_flags"][:2]
    elif case == "level1 start":
        kw["level1"][0, 1] = 1e-3
    elif case == "level2 start":
        kw["level2"][0, 0, 1] = 1e-3
    elif case == "jump at t=0":
        kw["jump_flags"][0] = True
    else:  # "<name> non-finite"
        key = case.split()[0]
        kw[key][(1,) * kw[key].ndim] = np.nan if "1" in key else np.inf
    return kw


@pytest.mark.parametrize("case", [
    "times not increasing", "time nan", "time inf", "level1 1-d", "level1 rows",
    "level2 shape", "pre_level1 shape", "pre_level2 shape", "jump_flags shape",
    "level1 start", "level2 start", "jump at t=0", "level1 non-finite",
    "level2 non-finite", "pre_level1 non-finite", "pre_level2 non-finite"])
def test_rough_path_rejects_malformed_input(case):
    with pytest.raises(ValueError):
        RoughPath(**_malformed(case))


def test_rough_path_without_pre_levels_has_no_jumps():
    rng = np.random.default_rng(26)
    X = stratonovich_lift(brownian_path(rng, 6, 2))
    Y = RoughPath(X.times, X.level1, X.level2)
    assert not Y.has_jumps()
    assert np.array_equal(Y.pre_level1, Y.level1)
    assert np.array_equal(Y.pre_level2, Y.level2)
    jumps = Y.increment(np.arange(7), np.arange(7), left_i=True)
    assert np.all(jumps.level1 == 0.0) and np.all(jumps.level2 == 0.0)


def test_points_are_not_validated_again(monkeypatch):
    """RoughPath validates its two batches when it is built; points and
    increments are sub-batches of them and build no new GroupElement."""
    from roughfilter import tensor_group

    rng = np.random.default_rng(27)
    X = marcus_lift(jumpy_path(rng, 8, 2))
    built = []
    init = tensor_group.GroupElement.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(tensor_group.GroupElement, "__init__", counting_init)
    i = int(np.nonzero(X.jump_flags)[0][0])
    pre = X.point(i, left=True)
    batch = X.point(np.arange(9))
    X.increment(np.arange(8), np.arange(1, 9), left_j=True)
    assert built == []
    assert np.array_equal(pre.level1, X.pre_level1[i])
    assert np.array_equal(batch.level2, X.level2)


def test_running_at_interpolates_segment():
    x = CadlagPath([0.0, 1.0], [[0.0, 0.0], [1.0, 1.0]])
    X = stratonovich_lift(x)
    L1, L2 = X.running_at([0.5])
    assert np.allclose(L1[0], [0.5, 0.5])
    # half of a straight segment is exp(v/2)
    g = group_exp(np.array([0.5, 0.5]))
    assert np.allclose(L2[0], g.level2, atol=1e-14)


def test_rho_p_validation_and_identity():
    rng = np.random.default_rng(24)
    X = stratonovich_lift(brownian_path(rng, 8, 2))
    assert rho_p(X, X, 2.5) == 0.0
    with pytest.raises(ValueError):
        rho_p(X, X, 1.5)
    with pytest.raises(ValueError):
        rho_p(X, X, 3.0)
    Y = stratonovich_lift(brownian_path(rng, 8, 3))
    with pytest.raises(ValueError):
        rho_p(X, Y, 2.5)


def test_rho_p_sees_pure_area_difference():
    # same level-1 path, extra area in level 2
    times = np.array([0.0, 1.0])
    L1 = np.zeros((2, 2))
    L2 = np.zeros((2, 2, 2))
    A = np.array([[0.0, 0.4], [-0.4, 0.0]])
    X = RoughPath(times, L1, L2)
    Y = RoughPath(times, L1, np.stack([np.zeros((2, 2)), A]))
    assert rho_p(X, Y, 2.5) == pytest.approx(np.linalg.norm(A), rel=1e-12)


def brute_force_rho_p(X, Y, p):
    n = len(X.times)
    best = 0.0
    for r in range(n - 1):
        for combo in itertools.combinations(range(1, n - 1), r):
            idx = [0, *combo, n - 1]
            s1 = s2 = 0.0
            for i, j in zip(idx, idx[1:]):
                a, b = X.increment(i, j), Y.increment(i, j)
                s1 += np.linalg.norm(a.level1 - b.level1) ** p
                s2 += np.linalg.norm(a.level2 - b.level2) ** (p / 2)
            best = max(best, s1 ** (1 / p), s2 ** (2 / p))
    return best


def test_rho_p_matches_brute_force_small_grids():
    rng = np.random.default_rng(25)
    for _ in range(10):
        t = np.linspace(0.0, 1.0, 6)
        x = CadlagPath(t, rng.standard_normal((6, 2)))
        y = CadlagPath(t, rng.standard_normal((6, 2)))
        X, Y = stratonovich_lift(x), stratonovich_lift(y)
        p = float(rng.uniform(2.0, 2.9))
        assert rho_p(X, Y, p) == pytest.approx(brute_force_rho_p(X, Y, p), abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 2), n=st.integers(2, 12),
       p=st.floats(2.0, 2.9))
def test_rho_p_metric_axioms(seed, d, n, p):
    """Exactly symmetric, exactly 0 on equal paths, and the triangle
    inequality on Stratonovich and Marcus lifts sampled on one grid."""
    rng = np.random.default_rng(seed)
    t = np.concatenate([[0.0], np.sort(rng.uniform(0.01, 0.99, n - 2)), [1.0]])

    def random_lift():
        vals = rng.standard_normal((n, d))
        if rng.random() < 0.5:
            return stratonovich_lift(CadlagPath(t, vals))
        pre = vals.copy()
        jumps = rng.random(n) < 0.4
        jumps[0] = False
        pre[jumps] += rng.standard_normal((int(jumps.sum()), d))
        return marcus_lift(CadlagPath(t, vals, pre, "linear"))

    X, Y, Z = random_lift(), random_lift(), random_lift()
    xy, yz, xz = rho_p(X, Y, p), rho_p(Y, Z, p), rho_p(X, Z, p)
    assert rho_p(Y, X, p) == xy
    assert rho_p(X, X, p) == 0.0 and rho_p(Z, Z, p) == 0.0
    assert xz <= (xy + yz) * (1.0 + 1e-12)


def test_wong_zakai_shape_refinement():
    rng = np.random.default_rng(26)
    fine = brownian_path(rng, 2**7, 2)
    finest = stratonovich_lift(fine)
    dists = []
    for lvl in (2, 3, 4, 5):
        step = 2 ** (7 - lvl)
        sub = CadlagPath(fine.times[::step], fine.values[::step])
        dists.append(rho_p(stratonovich_lift(sub), finest, 2.5))
    assert all(a >= b for a, b in zip(dists, dists[1:]))


def test_reverse_round_trip():
    rng = np.random.default_rng(27)
    X = stratonovich_lift(brownian_path(rng, 16, 2))
    R = reverse_rough_path(X)
    RR = reverse_rough_path(R)
    assert np.allclose(RR.level1, X.level1, atol=1e-12)
    assert np.allclose(RR.level2, X.level2, atol=1e-12)
    assert chen_defect(R) < 1e-12


def test_json_round_trip(tmp_path):
    rng = np.random.default_rng(28)
    X = marcus_lift(jumpy_path(rng, 10, 2))
    f = tmp_path / "rough.json"
    write_rough_path_json(X, str(f))
    back = read_rough_path_json(str(f))
    assert np.array_equal(back.times, X.times)
    assert np.array_equal(back.level1, X.level1)
    assert np.array_equal(back.level2, X.level2)
    assert np.array_equal(back.jump_flags, X.jump_flags)
    assert np.array_equal(back.pre_level1, X.pre_level1)
    d = rough_path_to_dict(X)
    assert d["norm"].startswith("max(")
    Y = rough_path_from_dict(d)
    assert np.array_equal(Y.level2, X.level2)
