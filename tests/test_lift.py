import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_paths import block_edge_lengths, cell_counts, first_pruned_length

from roughfilter.fillin import AdmissiblePair, build_representative
from roughfilter import lift
from roughfilter.filtering import FUNCTION_CATALOG, theta
from roughfilter.lift import (
    RoughPath,
    _merged_running,
    chen_defect,
    geometric_defect_max,
    marcus_increment,
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
from roughfilter.tensor_group import (
    GroupElement,
    _element,
    group_exp,
    group_increment,
    group_log,
    group_mul,
)


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


def test_chen_defect_past_40_points_matches_loop():
    """Past 40 points chen_defect checks the splits (0, j, n - 1) of the
    whole path: the value of an explicit loop over those triples."""
    rng = np.random.default_rng(23)
    X = marcus_lift(jumpy_path(rng, 60, 2, n_jumps=4))
    n = len(X.times)
    assert n > 40
    whole = X.increment(0, n - 1)
    loop = 0.0
    for j in range(1, n - 1):
        ab = group_mul(X.increment(0, j), X.increment(j, n - 1))
        loop = max(loop, float(np.max(np.abs(ab.level1 - whole.level1))),
                   float(np.max(np.abs(ab.level2 - whole.level2))))
    assert chen_defect(X) == loop
    assert loop < 1e-12


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
    jumps = np.nonzero(X.jump_flags)[0]
    _, lg2 = group_log(X.increment(jumps, jumps, left_i=True))
    assert np.max(np.abs(lg2)) < 1e-12
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
        solve_canonical_rde(constant_vector_field(np.zeros((1, 2))), bad, [0.0],
                            steps=4)


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
    elif case == "pre-level rows":
        kw["pre_level1"], kw["pre_level2"] = kw["pre_level1"][:2], kw["pre_level2"][:2]
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
    "level2 shape", "pre_level1 shape", "pre_level2 shape", "pre-level rows",
    "jump_flags shape",
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


def test_rho_p_horizon_check_and_single_point():
    """Paths on [0, 1] and [0, 2] are refused by the shared horizon check;
    two one-point paths merge to one point, at distance 0."""
    rng = np.random.default_rng(25)
    X = stratonovich_lift(brownian_path(rng, 8, 2))
    Y = stratonovich_lift(brownian_path(rng, 8, 2, T=2.0))
    with pytest.raises(ValueError, match="horizon"):
        rho_p(X, Y, 2.5)
    with pytest.raises(ValueError, match="horizon"):
        rho_p(Y, X, 2.5)
    P = RoughPath(np.array([0.0]), np.zeros((1, 2)), np.zeros((1, 2, 2)))
    assert rho_p(P, P, 2.5) == 0.0


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


def row_loop_rho_p(X, Y, p):
    """rho_p as one numpy row at a time, each level-2 row built from
    GroupElement sub-batches by group_increment; NaN when either level is
    NaN."""
    _, (A1, A2), (B1, B2) = _merged_running(X, Y)
    return row_loop_levels(A1, A2, B1, B2, p)


def row_loop_levels(A1, A2, B1, B2, p):
    """row_loop_rho_p on merged running signatures, which may hold inf and
    NaN (unvalidated batches)."""
    m = len(A1)
    if m < 2:
        return 0.0
    q = p / 2.0
    A, B = _element(A1, A2), _element(B1, B2)
    best1, best2 = np.zeros(m), np.zeros(m)
    for j in range(1, m):
        c1 = np.linalg.norm((A1 - B1)[:j] - (A1 - B1)[j], axis=1) ** p
        best1[j] = np.maximum.reduce(best1[:j] + c1)
        dx2 = group_increment(A[:j], A[j]).level2
        dy2 = group_increment(B[:j], B[j]).level2
        c2 = np.linalg.norm((dx2 - dy2).reshape(j, -1), axis=1) ** q
        best2[j] = np.maximum.reduce(best2[:j] + c2)
    lvl1, lvl2 = float(best1[-1]) ** (1.0 / p), float(best2[-1]) ** (1.0 / q)
    if math.isnan(lvl1) or math.isnan(lvl2):
        return math.nan
    return max(lvl1, lvl2)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), m=st.integers(2, 40),
       kind=st.sampled_from(["equal", "large", "ulp level 1", "ulp level 2", "huge level 1",
                             "huge level 2", "inf", "nan"]),
       p=st.one_of(st.just(2.5), st.floats(2.0, 3.0, exclude_max=True)))
def test_rho_p_zero_difference_exit_matches_row_loop(seed, d, m, kind, p):
    """rho_p skips both recursions for equal merged signatures whose
    entries are finite and small enough that no level-2 increment
    overflows ("equal", and "large", just below 2^500 at level 1 and
    2^1000 at level 2), and returns the row loop's 0.0. Every other pair
    takes the recursions and equals the row loop, NaN as NaN: one entry one
    ulp off, equal entries at 2^500 or 2^1000 and beyond, inf or NaN."""
    rng = np.random.default_rng(seed)
    A1, A2 = rng.standard_normal((m, d)), rng.standard_normal((m, d, d))
    A1[0], A2[0] = 0.0, 0.0
    j = int(rng.integers(1, m))
    if kind == "large":
        A1 *= 1.99 * 2.0 ** 499 / np.max(np.abs(A1))
        A2 *= 1.99 * 2.0 ** 999 / np.max(np.abs(A2))
    elif kind == "huge level 1":
        A1 *= 2.0 ** 500 * rng.uniform(1.0, 2.0 ** 20) / np.max(np.abs(A1))
    elif kind == "huge level 2":
        A2 *= 2.0 ** 1000 * rng.uniform(1.0, 2.0 ** 20) / np.max(np.abs(A2))
    elif kind in ("inf", "nan"):
        (A1 if rng.random() < 0.5 else A2)[j] = np.inf if kind == "inf" else np.nan
    B1, B2 = A1.copy(), A2.copy()
    if kind == "ulp level 1":
        B1[j, 0] = np.nextafter(B1[j, 0], np.inf)
    elif kind == "ulp level 2":
        B2[j, 0, -1] = np.nextafter(B2[j, 0, -1], -np.inf)
    X = RoughPath(np.linspace(0.0, 1.0, m), np.zeros((m, d)), np.zeros((m, d, d)))
    with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
        patch.setattr(lift, "_merged_running", lambda *_: (None, (A1, A2), (B1, B2)))
        level2_runs = []
        inner = lift._pvar_sum_dp
        patch.setattr(lift, "_pvar_sum_dp", lambda *a: level2_runs.append(1) or inner(*a))
        got = lift.rho_p(X, X, p)
        want = row_loop_levels(A1, A2, B1, B2, p)
    assert repr(got) == repr(want)
    exits = kind in ("equal", "large")
    assert (not level2_runs) == exits
    if exits:
        assert repr(got) == "0.0"


def shared_grid_marcus_pair(rng, m, d, jumps, rounded):
    """Marcus lifts X, Y on one grid of m - jumps times, both jumping at the
    same `jumps` interior times: their merged visited sequence has m
    points. `rounded` rounds values to halves (repeated points, tied
    costs)."""
    n = m - jumps
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.01, 0.99, n - 2)), [1.0]])
    at = rng.choice(np.arange(1, n), size=jumps, replace=False)

    def lift():
        vals = rng.standard_normal((n, d))
        if rounded:
            vals = np.round(2.0 * vals) / 2.0
        pre = vals.copy()
        pre[at, 0] -= 1.0 + np.round(np.abs(rng.standard_normal(jumps)))
        return marcus_lift(CadlagPath(times, vals, pre, "linear"))

    return lift(), lift()


@st.composite
def block_edge_pairs(draw):
    """(d, m): merged lengths around the row-block edges of rho_p's level-2
    recursion, which sizes its blocks at d * d elements a cost."""
    d = draw(st.integers(1, 3))
    return d, draw(st.sampled_from(block_edge_lengths(d * d)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dm=block_edge_pairs(),
       jumps=st.integers(0, 3), rounded=st.booleans(), level2_only=st.booleans(),
       p=st.one_of(st.just(2.5), st.floats(2.0, 2.9)))
def test_rho_p_matches_row_loop_at_block_edges(seed, dm, jumps, rounded, level2_only, p):
    """Bit for bit against the row loop; with level2_only, Y carries X's
    level 1 and a level 2 moved by a random walk, so that rho_p is the
    level-2 value and not the level-1 one."""
    d, m = dm
    jumps = min(jumps, (m - 1) // 2)
    rng = np.random.default_rng(seed)
    X, Y = shared_grid_marcus_pair(rng, m, d, jumps, rounded)
    if level2_only:
        walk = np.cumsum(rng.standard_normal((len(X.times), d, d)), axis=0)
        walk[0] = 0.0
        Y = RoughPath(X.times, X.level1, X.level2 + walk, X.jump_flags,
                      X.pre_level1, X.pre_level2 + walk)
    assert len(_merged_running(X, Y)[0]) == m
    assert repr(rho_p(X, Y, p)) == repr(row_loop_rho_p(X, Y, p))


def test_rho_p_of_overflowing_increments_matches_row_loop():
    """Signatures near the largest double have increments that overflow to
    inf, and to NaN where inf - inf meets; numpy's max propagates a NaN
    that Python's would drop. Each result equals the row loop's, NaN as
    NaN. Paths with one level 1 whose level 2 is NaN read NaN, not their
    level-1 value 0.0."""
    big = 1.7e308
    outcomes = set()
    with np.errstate(all="ignore"):
        for seed in range(12):
            rng = np.random.default_rng(seed)
            d, m = 1 + seed % 3, (40, 80, 600, 40)[seed % 4]
            t = np.linspace(0.0, 1.0, m)

            def huge_path(level1=None, scale1=big):
                L1 = rng.uniform(-1.0, 1.0, (m, d)) * scale1 if level1 is None else level1
                L2 = rng.uniform(-1.0, 1.0, (m, d, d)) * big
                L1[0], L2[0] = 0.0, 0.0
                return RoughPath(t, L1, L2)

            X = huge_path()
            kind = seed % 3
            if kind == 0:  # one level 1: level 2 alone overflows
                Y = huge_path(X.level1.copy())
            elif kind == 1:  # level 1 overflows too
                Y = huge_path()
            else:  # squares overflow to inf, differences stay finite
                X = huge_path(scale1=1e154)
                Y = RoughPath(t, np.zeros((m, d)), np.zeros((m, d, d)))
            got = rho_p(X, Y, 2.5)
            assert repr(got) == repr(row_loop_rho_p(X, Y, 2.5))
            if kind == 0:
                assert repr(got) == "nan"
            outcomes.add(repr(got))
    assert {"nan", "inf"} <= outcomes


def pruning_pair(rng, family, m, d):
    """Stratonovich lifts X of a path on m equal steps of [0, 1] and Y of
    its every other point (a Wong-Zakai pair, merged length m + 1), of one
    of the families the pruned recursion must reproduce bit for bit: a
    Brownian path, the path rounded to halves (ties), one step of 1e3 and
    then steps of 1e-6 (the level-2 increments cancel), a constant path
    (zero costs), steps near 1e-170 or 1e-155 (their squares underflow),
    or the level2_only pair of test_rho_p_matches_row_loop_at_block_edges
    (Y with X's level 1). In the bump family Y is X, drifting by 10 in
    each component, moved by 1e-3 at points 3 to 5 of the first column
    block: level 1 differs only there, so from every later block center c
    to j the level-2 difference is 0, and the row maxima come from that
    block through its cross terms of lift._chen_bound alone."""
    t = np.linspace(0.0, 1.0, m + 1)
    steps = rng.standard_normal((m, d)) / np.sqrt(m)
    if family == "bump":
        steps += 10.0 / m
    elif family == "offset":
        steps[0] = 1e3
        steps[1:] *= 1e-6
    elif family == "equal":
        steps[:] = 0.0
    elif family == "tiny":
        steps *= rng.choice([1e-170, 1e-155])
    v = np.concatenate([np.zeros((1, d)), np.cumsum(steps, axis=0)])
    if family == "ties":
        v = np.round(2.0 * v) / 2.0
    X = stratonovich_lift(CadlagPath(t, v))
    if family == "level2_only":
        walk = np.cumsum(rng.standard_normal((m + 1, d, d)) / np.sqrt(m), axis=0)
        walk[0] = 0.0
        return X, RoughPath(t, X.level1, X.level2 + walk)
    if family == "bump":
        w = v.copy()
        w[3:6] += 1e-3 * rng.standard_normal(d)
        return X, stratonovich_lift(CadlagPath(t, w))
    coarse = np.unique(np.append(np.arange(0, m + 1, 2), m))
    return X, stratonovich_lift(CadlagPath(t[coarse], v[coarse]))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), extra=st.integers(0, 250),
       family=st.sampled_from(("walk", "ties", "offset", "equal", "tiny", "level2_only",
                               "bump")),
       p=st.one_of(st.just(2.5), st.floats(2.0, 3.0, exclude_max=True)))
@example(seed=1, d=2, extra=118, family="bump", p=2.5)
@example(seed=0, d=1, extra=0, family="level2_only", p=2.5)
def test_rho_p_matches_row_loop_when_pruned(seed, d, extra, family, p):
    """Merged lengths from the first at which either level's recursion
    tries its bound, plus `extra`. The bump family's row maxima rest on the
    cross terms of lift._chen_bound: with them halved, rho_p leaves the row
    loop on it, the explicit example included. The level2_only example
    prunes level 1 at d = 1 with every level-1 point 0, which sets no
    bound (paths._distance_bound)."""
    start = min(first_pruned_length(d), first_pruned_length(d * d))
    m = start + extra
    X, Y = pruning_pair(np.random.default_rng(seed), family, m - 1, d)
    assert len(_merged_running(X, Y)[0]) == m
    assert repr(rho_p(X, Y, p)) == repr(row_loop_rho_p(X, Y, p))


def turning_count(x):
    """The number of points of the sequence x that the d = 1 recursion
    runs on: its two ends and each point where the direction of travel
    changes, a plateau counted once."""
    signs = [b > a for a, b in zip(x, x[1:]) if b != a]
    return 2 + sum(s != t for s, t in zip(signs, signs[1:]))


def test_rho_p_of_one_overflowing_cell_in_the_pruning_regime(monkeypatch):
    """A Wong-Zakai pair long enough that both levels prune, with both
    paths' level 2 moved by +big at i1 and by -big at i2 > i1: every
    level-2 increment stays finite except the one from i1 to i2, inf - inf,
    a NaN cost in a column block that the finite pair's rows skip. The
    result is NaN, as the row loop's. At d = 1, level 1 runs on the turning
    points of the level-1 difference, and still prunes there."""
    big = 1.7e308
    counts = cell_counts(monkeypatch)
    for d in (1, 2, 3):
        X, Y = pruning_pair(np.random.default_rng(40 + d), "walk", 1199, d)
        counts.clear()
        rho_p(X, Y, 2.5)
        _, (A1, _), (B1, _) = _merged_running(X, Y)
        level1 = 1200 if d > 1 else turning_count((A1 - B1)[:, 0])
        assert [m for m, _ in counts] == [level1, 1200] and level1 > 800
        for m, cells in counts:
            assert cells < 0.5 * m * (m - 1) / 2  # the finite pair prunes
        moved = []
        for Z in (X, Y):
            L2 = Z.level2.copy()
            i1, i2 = np.searchsorted(Z.times, [0.25, 0.9])
            L2[i1] += big
            L2[i2] -= big
            moved.append(RoughPath(Z.times, Z.level1, L2))
        with np.errstate(all="ignore"):
            got = rho_p(*moved, 2.5)
            assert repr(got) == repr(row_loop_rho_p(*moved, 2.5)) == "nan"


def test_rho_p_prunes_interpolant_lifts(monkeypatch):
    """rho_p between the delta-1 representatives of the linear and
    rectangular interpolant lifts of a Brownian path at mesh 256 (merged
    length about 2,561, as beta_p's at mesh 256): level 1 runs on the
    turning points of the level-1 difference (380 of them), computing at
    most 5% of the m(m - 1)/2 cells of the merged length (16% with every
    point kept), and the pruned level-2 recursion at most 40% of its cells,
    so that neither the reduction nor pruning can switch off unseen."""
    rng = np.random.default_rng(4242)
    n = 2 ** 11
    w = np.concatenate([[0.0], np.cumsum(rng.standard_normal(n) / np.sqrt(n))])
    sub = np.linspace(0.0, 1.0, 257)
    v = np.interp(sub, np.linspace(0.0, 1.0, n + 1), w)
    pre = np.concatenate([v[:1], v[:-1]])
    L = stratonovich_lift(CadlagPath(sub, v[:, None], None, "linear"))
    R = marcus_lift(CadlagPath(sub, v[:, None], pre[:, None], "constant"))
    X, Y = (build_representative(AdmissiblePair(Z)).rough for Z in (L, R))
    counts = cell_counts(monkeypatch)
    rho_p(X, Y, 2.5)
    (m1, cells1), (m2, cells2) = counts
    _, (A1, _), (B1, _) = _merged_running(X, Y)
    assert m2 == len(A1) > 2500
    assert m1 == turning_count((A1 - B1)[:, 0])
    assert cells1 <= 0.05 * m2 * (m2 - 1) / 2
    assert cells2 <= 0.40 * m2 * (m2 - 1) / 2


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
    with pytest.raises(ValueError, match="continuous paths"):
        reverse_rough_path(marcus_lift(jumpy_path(rng, 8, 2)))


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
