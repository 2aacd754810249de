import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import fminbound

from roughfilter import lift, paths
from roughfilter.fillin import AdmissiblePair, alpha_p
from roughfilter.paths import (
    _BLOCK_ELEMENTS,
    _MIN_COLUMNS,
    _TURNING_P,
    CadlagPath,
    _group_shape,
    _jump_alignment_anchors,
    _needed_points,
    _pinned_values,
    _prunes,
    d_p,
    merge_difference,
    p_variation,
    p_variation_of_points,
    skorokhod_sigma_p,
    visited_points,
)


def brute_force_p_variation(points, p):
    """Exhaustive max over all subsequences keeping both endpoints."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    m = len(pts)
    if m < 2:
        return 0.0
    best = 0.0
    interior = range(1, m - 1)
    for r in range(len(list(interior)) + 1):
        for combo in itertools.combinations(range(1, m - 1), r):
            idx = [0, *combo, m - 1]
            seg = np.diff(pts[idx], axis=0)
            best = max(best, float(np.sum(np.linalg.norm(seg, axis=1) ** p)))
    return best ** (1.0 / p)


def random_path(rng, n, d, with_jumps=False):
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 1.0, n - 2)), [1.0]])
    values = rng.standard_normal((n, d))
    pre = None
    if with_jumps:
        pre = values.copy()
        for i in rng.choice(np.arange(1, n), size=max(1, n // 4), replace=False):
            pre[i] = values[i] + rng.standard_normal(d)
    return CadlagPath(times, values, pre, "linear")


def test_construction_validation():
    with pytest.raises(ValueError):
        CadlagPath([0.0, 0.0], [[1.0], [2.0]])
    with pytest.raises(ValueError):
        CadlagPath([0.0, 1.0], [[1.0], [np.inf]])
    with pytest.raises(ValueError):
        CadlagPath([0.0, 1.0], [[1.0], [2.0]], [[0.0], [2.0]])  # jump at t=0
    with pytest.raises(ValueError):
        CadlagPath([0.0, 1.0], [[1.0], [2.0]], interp="spline")
    with pytest.raises(ValueError, match="one row per time"):
        CadlagPath([0.0, 1.0], [[1.0], [2.0], [3.0]])
    with pytest.raises(ValueError, match="pre_values must match"):
        CadlagPath([0.0, 1.0], [[1.0], [2.0]], [[1.0, 0.0], [2.0, 0.0]])


def test_left_limits_equal_to_values_mean_no_jump():
    """pre_values equal to values, up to the sign of a zero, are replaced
    by a copy of values: the path has no jump and keeps its values' bits."""
    values = np.array([[0.0], [1.0], [-0.0]])
    x = CadlagPath([0.0, 0.5, 1.0], values, np.array([[0.0], [1.0], [0.0]]))
    assert not x.has_jumps()
    assert np.array_equal(np.signbit(x.pre_values), np.signbit(values))
    assert x.pre_values is not x.values
    jumpy = CadlagPath([0.0, 0.5, 1.0], values, np.array([[0.0], [0.5], [0.0]]))
    assert jumpy.jump_mask.tolist() == [False, True, False]


def test_evaluate_linear_and_left_limits():
    x = CadlagPath([0.0, 1.0, 2.0], [[0.0], [1.0], [3.0]],
                   [[0.0], [0.5], [3.0]], "linear")
    assert x.evaluate(0.5)[0] == pytest.approx(0.25)  # toward the left limit 0.5
    assert x.evaluate(1.0)[0] == 1.0
    assert x.evaluate_left(1.0)[0] == 0.5
    assert x.evaluate(1.5)[0] == pytest.approx(2.0)
    assert x.evaluate_left(0.0)[0] == 0.0
    assert np.array_equal(np.nonzero(x.jump_mask)[0], [1])


def test_evaluate_constant_interp():
    x = CadlagPath([0.0, 1.0, 2.0], [0.0, 1.0, 3.0], [0.0, 0.0, 1.0], "constant")
    assert x.evaluate(0.5)[0] == 0.0
    assert x.evaluate(1.0)[0] == 1.0
    assert x.evaluate_left(1.0)[0] == 0.0
    assert x.evaluate(1.99)[0] == 1.0
    assert x.evaluate_left(2.0)[0] == 1.0


def test_visited_points_interleaves_jumps():
    x = CadlagPath([0.0, 1.0, 2.0], [[0.0], [2.0], [2.5]], [[0.0], [1.0], [2.5]])
    assert np.allclose(visited_points(x), [[0.0], [1.0], [2.0], [2.5]])


def test_p_variation_trivial_cases():
    x = CadlagPath([0.0, 0.5, 1.0], np.ones((3, 2)))
    assert p_variation(x, 2.0) == 0.0
    y = CadlagPath([0.0, 0.5, 1.0], [[0.0], [1.0], [0.0]])
    assert p_variation(y, 1.0) == pytest.approx(2.0, abs=1e-14)


def test_p_variation_rejects_bad_p():
    x = CadlagPath([0.0, 1.0], [[0.0], [1.0]])
    with pytest.raises(ValueError):
        p_variation(x, 0.5)


def test_p_variation_matches_brute_force():
    rng = np.random.default_rng(10)
    for _ in range(40):
        n = rng.integers(3, 11)
        d = int(rng.integers(1, 3))
        x = random_path(rng, int(n), d, with_jumps=bool(rng.integers(0, 2)))
        p = float(rng.uniform(1.0, 3.0))
        pts = visited_points(x)
        assert p_variation(x, p) == pytest.approx(
            brute_force_p_variation(pts, p), abs=1e-12)


def test_p_variation_monotone_in_p():
    rng = np.random.default_rng(11)
    x = random_path(rng, 9, 2, with_jumps=True)
    vals = [p_variation(x, p) for p in (1.0, 1.5, 2.0, 2.5)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_p_variation_reparameterization_invariant():
    rng = np.random.default_rng(12)
    values = rng.standard_normal((8, 2))
    t1 = np.linspace(0.0, 1.0, 8)
    t2 = np.concatenate([[0.0], np.sort(rng.uniform(0, 1, 6)), [1.0]])
    a = CadlagPath(t1, values)
    b = CadlagPath(t2, values)
    assert p_variation(a, 2.2) == pytest.approx(p_variation(b, 2.2), abs=1e-14)


def test_d_p_degeneracies_and_symmetry():
    rng = np.random.default_rng(13)
    x = random_path(rng, 7, 2, with_jumps=True)
    y = random_path(rng, 6, 2)
    assert d_p(x, x, 2.0) == 0.0
    shifted = CadlagPath(x.times, x.values + 3.0, x.pre_values + 3.0)
    assert d_p(x, shifted, 2.0) < 1e-14
    assert d_p(x, y, 2.0) == pytest.approx(d_p(y, x, 2.0), abs=1e-12)
    with pytest.raises(ValueError):
        d_p(x, random_path(rng, 5, 3), 2.0)
    # the horizon check of skorokhod_sigma_p and rho_p: [0, 1] against [0, 2]
    longer = CadlagPath(2.0 * y.times, y.values, y.pre_values)
    for a, b in ((x, longer), (longer, x)):
        with pytest.raises(ValueError, match="horizon"):
            d_p(a, b, 2.0)


def test_d_p_matches_brute_force_on_merged_grid():
    rng = np.random.default_rng(14)
    for _ in range(20):
        x = random_path(rng, 5, 1, with_jumps=True)
        y = random_path(rng, 5, 1)
        p = float(rng.uniform(1.0, 2.5))
        diff = merge_difference(x, y)
        expected = brute_force_p_variation(visited_points(diff), p)
        assert d_p(x, y, p) == pytest.approx(expected, abs=1e-12)


def test_d_p_triangle_inequality():
    rng = np.random.default_rng(15)
    for _ in range(10):
        x, y, z = (random_path(rng, 6, 2, with_jumps=True) for _ in range(3))
        p = 2.0
        assert d_p(x, z, p) <= d_p(x, y, p) + d_p(y, z, p) + 1e-10


def test_sigma_p_identity_and_grid_one():
    rng = np.random.default_rng(16)
    x = random_path(rng, 8, 2, with_jumps=True)
    assert skorokhod_sigma_p(x, x, 2.0, 4) == 0.0
    y = random_path(rng, 8, 2)
    assert skorokhod_sigma_p(x, y, 2.0, 1) == pytest.approx(d_p(x, y, 2.0), abs=1e-12)


def test_sigma_p_shifted_jump():
    # same unit jump at 0.5 vs 0.5+h: a warp aligns them, so sigma_p ~ h << d_p
    h = 0.05
    x = CadlagPath([0.0, 0.5, 1.0], [[0.0], [1.0], [1.0]], [[0.0], [0.0], [1.0]])
    y = CadlagPath([0.0, 0.5 + h, 1.0], [[0.0], [1.0], [1.0]], [[0.0], [0.0], [1.0]])
    dist = d_p(x, y, 2.0)
    sig = skorokhod_sigma_p(x, y, 2.0, 8)
    assert dist >= 1.0  # unaligned jumps cost a full unit
    assert sig <= 1.3 * h
    assert sig < dist


def test_sigma_p_monotone_in_dyadic_warp_grid():
    rng = np.random.default_rng(17)
    x = random_path(rng, 7, 1, with_jumps=True)
    y = random_path(rng, 7, 1, with_jumps=True)
    vals = [skorokhod_sigma_p(x, y, 2.0, m) for m in (1, 2, 4, 8)]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def step_jumps(jump_times, T=1.0):
    """A scalar path on [0, T] with a unit jump at each of jump_times."""
    times = np.concatenate([[0.0], jump_times, [T]])
    vals = np.concatenate([np.arange(len(jump_times) + 1.0), [len(jump_times)]])
    pre = np.concatenate([[0.0], np.arange(len(jump_times) * 1.0), [len(jump_times)]])
    return CadlagPath(times, vals, pre, "constant")


def test_sigma_p_aligns_unequal_jump_counts():
    """With more jumps in x than in y, each y jump (in time order) pairs
    with the nearest x jump after the previous pair's; with more in y, the
    pairing stops when x's jumps run out."""
    x = step_jumps([0.3, 0.5, 0.8])
    y = step_jumps([0.35, 0.75])
    assert _jump_alignment_anchors(x, y, 1.0, 1e-12) == [(0.35, 0.3), (0.75, 0.8)]
    assert _jump_alignment_anchors(y, x, 1.0, 1e-12) == [(0.3, 0.35), (0.5, 0.75)]
    z = step_jumps([0.45])
    w = step_jumps([0.2, 0.4, 0.9])
    assert _jump_alignment_anchors(z, w, 1.0, 1e-12) == [(0.2, 0.45)]
    for a, b in ((x, y), (y, x), (z, w)):
        assert 0.0 < skorokhod_sigma_p(a, b, 2.0, 8) <= skorokhod_sigma_p(a, b, 2.0, 1)


def test_sigma_p_warp_grid_between_powers_of_two():
    """A warp_grid that is not a power of two adds one level after the
    largest power of two below it, which starts from that level's best."""
    rng = np.random.default_rng(18)
    x = random_path(rng, 7, 1, with_jumps=True)
    y = random_path(rng, 7, 1, with_jumps=True)
    for m, below in ((3, 2), (6, 4), (12, 8)):
        assert skorokhod_sigma_p(x, y, 2.0, m) <= skorokhod_sigma_p(x, y, 2.0, below)


def test_sigma_p_validation():
    x = CadlagPath([0.0, 1.0], [[0.0], [1.0]])
    with pytest.raises(ValueError):
        skorokhod_sigma_p(x, x, 2.0, 0)
    with pytest.raises(ValueError, match="p must be >= 1"):
        skorokhod_sigma_p(x, x, 0.5)
    y = CadlagPath([0.0, 2.0], [[0.0], [1.0]])
    with pytest.raises(ValueError):
        skorokhod_sigma_p(x, y, 2.0, 2)


def loop_pinned_values(path, t, tol):
    """The two-lookup reference, point by point: the segment lookup (a
    sample's values at its own time, else linear interpolation toward the
    next left limit or the held value), then the nearest-sample lookup: of
    the two samples around t, the earlier one within tol gives both
    values."""
    tt, n = path.times, len(path.times)
    right = np.empty((len(t), path.dim))
    left = np.empty_like(right)
    for j, tj in enumerate(t):
        i = max(int(np.searchsorted(tt, tj, side="right")) - 1, 0)
        r = l = path.values[i]
        if tt[i] == tj:
            l = path.pre_values[i]
        elif path.interp == "linear" and i < n - 1:
            frac = (tj - tt[i]) / (tt[i + 1] - tt[i])
            r = l = path.values[i] + frac * (path.pre_values[i + 1] - path.values[i])
        after = int(np.searchsorted(tt, tj))
        for s in (after - 1, after):
            if 0 <= s < n and abs(tt[s] - tj) <= tol:
                r, l = path.values[s], path.pre_values[s]
                break
        right[j], left[j] = r, l
    return right, left


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8),
       max_gap=st.sampled_from([2, 8, 4096]), d=st.integers(1, 2), jumps=st.booleans(),
       interp=st.sampled_from(["linear", "constant"]))
def test_pinned_values_match_two_lookup_loop(seed, n, max_gap, d, jumps, interp):
    """One search gives the two lookups' right values and left limits bit
    for bit, at tol and at 0 (evaluate's): at sample times, within tol of
    one and just beyond, within tol of two (the earlier wins), before
    times[0] and past T. Dyadic times and tol make t = sample +- tol exact;
    gaps of tol/4 .. 2 tol put some t within tol of both samples around
    it. A jump-free path returns its right values as its left limits."""
    rng = np.random.default_rng(seed)
    tol = 2.0 ** -10
    steps = rng.integers(1, max_gap + 1, n - 1) * 2.0 ** -12
    times = np.concatenate([[0.0], np.cumsum(steps)])
    T = times[-1]
    beyond = tol + 2.0 ** -20
    t = np.concatenate([times, times + tol, times - tol, times + 0.5 * tol,
                        times + beyond, times - beyond, rng.uniform(-1.0, T + 1.0, 8),
                        [-tol, T + tol, -1.0, T + 1.0]])
    rng.shuffle(t)
    values = rng.standard_normal((n, d))
    pre = values.copy()
    if jumps:
        at = rng.random(n) < 0.5
        at[0] = False
        pre[at] += rng.standard_normal((int(at.sum()), d))
    x = CadlagPath(times, values, pre, interp)
    for tolerance in (tol, 0.0):
        right, left = _pinned_values(x, t, tolerance)
        want_right, want_left = loop_pinned_values(x, t, tolerance)
        assert right.tobytes() == want_right.tobytes()
        assert left.tobytes() == want_left.tobytes()
        assert (left is right) == (not x.has_jumps())


def reference_warped_objective(x, y, knots_t, knots_s, p):
    """The warp objective evaluated from scratch at one knot vector, its
    paths read by loop_pinned_values and its visited points interleaved."""
    warp = float(np.max(np.abs(knots_s - knots_t)))
    tol = 1e-12 * max(1.0, x.T)
    cand = np.sort(np.concatenate([np.interp(x.times, knots_s, knots_t), y.times, knots_t]))
    cand = cand[np.concatenate([[True], np.diff(cand) > tol])]
    xr, xl = loop_pinned_values(x, np.interp(cand, knots_t, knots_s), tol)
    yr, yl = loop_pinned_values(y, cand, tol)
    seq = np.empty((2 * len(cand) - 1, x.dim))
    seq[0::2], seq[1::2] = xr - yr, (xl - yl)[1:]
    seq = seq[np.concatenate([[True], np.any(seq[1:] != seq[:-1], axis=1)])]
    return max(warp, p_variation_of_points(seq, p))


def dyadic_path(rng, n, d, jumps, interp):
    """A path on n distinct times of [0, 1] on the grid of 1/64 (so that
    warped times meet sample times and knots exactly), with jumps at about
    half of its interior times if `jumps`."""
    inner = np.sort(rng.choice(np.arange(1, 64), size=n - 2, replace=False)) / 64.0
    times = np.concatenate([[0.0], inner, [1.0]])
    values = rng.standard_normal((n, d))
    pre = values.copy()
    if jumps:
        at = rng.random(n) < 0.5
        at[0] = False
        pre[at] += rng.standard_normal((int(at.sum()), d))
    return CadlagPath(times, values, pre, interp)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 2), m=st.sampled_from([2, 4, 8]),
       jumps=st.sampled_from([(False, False), (True, False), (False, True), (True, True)]),
       interps=st.sampled_from([("linear", "linear"), ("linear", "constant"),
                                ("constant", "linear")]))
def test_knot_objective_matches_one_evaluation(seed, d, m, jumps, interps):
    """The objective of one knot, with its fixed parts computed once and a
    memo shared with the other knots, equals the objective evaluated from
    scratch at each trial knot vector, bit for bit: trial values on the
    dyadic grid of the paths and the knots (ties between warped times,
    sample times and knots), x's sample times and values 2^-44 from them
    (x's sample there is pulled back to within tol of knot k, and merged
    with it), and random values."""
    rng = np.random.default_rng(seed)
    x = dyadic_path(rng, int(rng.integers(2, 12)), d, jumps[0], interps[0])
    y = dyadic_path(rng, int(rng.integers(2, 12)), d, jumps[1], interps[1])
    p = float(rng.choice([1.5, 2.0, 2.5]))
    knots_t = np.linspace(0.0, 1.0, m + 1)
    knots_s = np.concatenate([[0.0], np.sort(rng.choice(np.arange(1, 64), m - 1,
                                                        replace=False)) / 64.0, [1.0]])
    memo = {}
    whole = paths._warp_objective(x, y, p, knots_t, knots_s, None, memo)(None)
    assert repr(whole) == repr(reference_warped_objective(x, y, knots_t, knots_s, p))
    for k in range(1, m):
        lo, hi = knots_s[k - 1], knots_s[k + 1]
        objective = paths._warp_objective(x, y, p, knots_t, knots_s, k, memo)
        grid = np.arange(lo * 128 + 1, hi * 128) / 128.0
        on_x = x.times[(lo < x.times) & (x.times < hi)]
        values = [float(v) for v in np.concatenate([rng.choice(grid, min(4, len(grid))), on_x,
                                                    on_x + 2.0 ** -44, on_x - 2.0 ** -44,
                                                    rng.uniform(lo, hi, 2)])]
        for s in values:
            trial = knots_s.copy()
            trial[k] = s
            got = objective(s)
            assert repr(got) == repr(reference_warped_objective(x, y, knots_t, trial, p))
            assert objective(s) is got  # answered from the memo


def alpha_mesh8_pair():
    """The input of test_golden_metrics.py::test_golden_alpha_p_mesh8."""
    rng = np.random.default_rng(20261018)
    n = 2 ** 11
    w = np.concatenate([[0.0], np.cumsum(rng.standard_normal(n) / np.sqrt(n))])
    sub = np.linspace(0.0, 1.0, 9)
    v = np.interp(sub, np.linspace(0.0, 1.0, n + 1), w)
    pre = np.concatenate([v[:1], v[:-1]])
    L = lift.stratonovich_lift(CadlagPath(sub, v[:, None], None, "linear"))
    R = lift.marcus_lift(CadlagPath(sub, v[:, None], pre[:, None], "constant"))
    return AdmissiblePair(L), AdmissiblePair(R)


def record_trials(monkeypatch):
    """Wrap paths._warp_objective to record, in order, what the warp search
    asks for: (k, knot time, knot value) for each call of one knot's
    objective, and (knot times, knot values) as bytes for every request."""
    trials, requests = [], []
    inner = paths._warp_objective

    def recording(x, y, p, knots_t, knots_s, k, memo):
        objective = inner(x, y, p, knots_t, knots_s, k, memo)

        def called(s):
            trial = knots_s.copy()
            if k is not None:
                trials.append((k, float(knots_t[k]), s))
                trial[k] = s
            requests.append((knots_t.tobytes(), trial.tobytes()))
            return objective(s)

        return called

    monkeypatch.setattr(paths, "_warp_objective", recording)
    return trials, requests


# sha256 of repr([(k, s), ...]): the knot index and value of each call of a
# knot's objective (Brent's and the trial knot values'), in order, over the
# two deltas of test_golden_metrics.py::test_golden_alpha_p_mesh8, recorded
# before the objective was computed per knot and remembered per call.
ALPHA_MESH8_TRIALS = (947, "1061bbfaa705a89266550234619135efcc88af263ee8a0e9010d48f1dd10cdd6")


def test_warp_search_trial_sequence_pinned(monkeypatch):
    trials, _ = record_trials(monkeypatch)
    X, Y = alpha_mesh8_pair()
    alpha_p(X, Y, 2.5, delta_seq=(1.0, 0.5))
    sequence = [(k, s) for k, _, s in trials]
    assert (len(sequence), hashlib.sha256(repr(sequence).encode()).hexdigest()) == \
        ALPHA_MESH8_TRIALS


def test_warp_search_evaluates_each_knot_vector_once(monkeypatch):
    """A knot vector asked for again within one skorokhod_sigma_p call is
    answered from its memo: one p-variation per distinct (knot times, knot
    values), fewer than the requests."""
    _, requests = record_trials(monkeypatch)
    evaluations = []
    inner = paths.p_variation_of_points
    monkeypatch.setattr(paths, "p_variation_of_points",
                        lambda points, p: evaluations.append(p) or inner(points, p))
    X, Y = alpha_mesh8_pair()
    alpha_p(X, Y, 2.5, delta_seq=(1.0,))
    assert len(evaluations) == len(set(requests)) < len(requests)


def test_sigma_p_at_zero_horizon():
    """Paths on [0, 0] hold one sample each: nothing can be warped and
    there is no increment, so sigma_p is 0.0, as d_p."""
    x = CadlagPath([0.0], [[1.0, 2.0]])
    y = CadlagPath([0.0], [[0.5, -1.0]])
    assert repr(skorokhod_sigma_p(x, y, 2.0, 8)) == repr(d_p(x, y, 2.0)) == "0.0"


def test_sigma_p_skips_a_knot_without_room(monkeypatch):
    """y's jumps at 5e-8 and 1e-7 become knots. The first, between 0 and
    1e-7, is closer to both than the search's margin of 1e-7 allows: the
    first sweep of warp_grid 2 skips it and searches the knot at 1e-7
    first."""
    trials, _ = record_trials(monkeypatch)
    x = CadlagPath(np.linspace(0.0, 1.0, 9), np.sin(np.arange(9.0))[:, None])
    times = np.array([0.0, 5e-8, 1e-7, 0.25, 0.75, 1.0])
    values = np.array([[0.0], [0.5], [1.0], [-1.0], [0.0], [0.5]])
    pre = values.copy()
    pre[[1, 2]] = [[0.0], [0.5]]
    y = CadlagPath(times, values, pre, "linear")
    sigma = skorokhod_sigma_p(x, y, 2.0, 8)
    assert trials[0][:2] == (2, 1e-7)
    assert sigma <= skorokhod_sigma_p(x, y, 2.0, 1)


def test_brent_stops_at_500_calls():
    """With xatol 0 and its minimum at 0, the search's tolerance shrinks
    with |x| and it never converges: it stops after 500 calls of f, at
    the point and value of scipy's fminbound with maxfun=500."""
    calls = []

    def f(x):
        calls.append(x)
        return abs(x)

    f_min, x_min = paths._brent_bounded(f, -1.0, 1.0, 0.0)
    x_ref, f_ref, flag, n_ref = fminbound(lambda x: abs(x), -1.0, 1.0, xtol=0.0,
                                          maxfun=500, full_output=True, disp=0)
    assert len(calls) == n_ref == 500 and flag == 1
    assert (x_min, f_min) == (float(x_ref), float(f_ref))


def cell_counts(monkeypatch):
    """Wrap _pvar_sum_dp (in paths, and in lift, which imports it by name)
    to record, per call, [m, number of cost cells its rows returned]."""
    counts = []
    inner = paths._pvar_sum_dp

    def counting(m, rows, *args):
        seen = [m, 0]
        counts.append(seen)

        def counted(j0, j1, cols):
            out = rows(j0, j1, cols)
            seen[1] += out.size
            return out

        return inner(m, counted, *args)

    monkeypatch.setattr(paths, "_pvar_sum_dp", counting)
    monkeypatch.setattr(lift, "_pvar_sum_dp", counting)
    return counts


def loop_p_variation_of_points(pts, p):
    """Row-by-row reference of the max-plus recursion."""
    m = len(pts)
    best = np.zeros(m)
    for j in range(1, m):
        best[j] = np.max(best[:j] + np.linalg.norm(pts[:j] - pts[j], axis=1) ** p)
    return float(best[-1]) ** (1.0 / p)


def first_pruned_length(per_cell):
    """The least m for which the recursion sets up a bound and tries it."""
    return next(m for m in itertools.count(2) if _prunes(m, per_cell))


def block_edge_lengths(per_cell):
    """Lengths m around the row-group edges of the max-plus recursion at
    per_cell array elements a cost: 2, the end of the first group, the
    first length at which the element budget cuts a group's columns into
    two pieces, and the first length at which a bound is set up and
    tried."""
    group, width = _group_shape(per_cell)
    edges = (1 + group, width + 1, first_pruned_length(per_cell))
    return sorted({2} | {e + k for e in edges for k in (-1, 0, 1)} - {0, 1})


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), data=st.data(),
       p=st.one_of(st.just(2.0), st.floats(1.0, 3.0)),
       kind=st.sampled_from(("normal", "coarse", "monotone")))
def test_p_variation_of_points_matches_row_loop(seed, d, data, p, kind):
    """Coarse points repeat and tie; on monotone points every row's max
    is usually at column 0, the first column piece of a row group."""
    m = data.draw(st.one_of(st.integers(2, 40), st.sampled_from(block_edge_lengths(d))),
                  label="m")
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((m, d))
    if kind == "coarse":
        pts = np.round(pts)
    elif kind == "monotone":
        pts = np.cumsum(np.abs(pts), axis=0)
    assert repr(p_variation_of_points(pts, p)) == repr(loop_p_variation_of_points(pts, p))


@pytest.mark.parametrize("d, m", [(_BLOCK_ELEMENTS // _MIN_COLUMNS + 1, _MIN_COLUMNS + 3),
                                  (_BLOCK_ELEMENTS + 1, 40)])
def test_p_variation_of_points_matches_row_loop_at_wide_cells(d, m):
    """Past _BLOCK_ELEMENTS / _MIN_COLUMNS components a cost, a row group
    has one row, and its pieces hold more than _BLOCK_ELEMENTS elements;
    past _BLOCK_ELEMENTS no bound is set up."""
    assert _group_shape(d)[0] == 1
    pts = np.random.default_rng(d).standard_normal((m, d))
    assert repr(p_variation_of_points(pts, 2.5)) == repr(loop_p_variation_of_points(pts, 2.5))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), d=st.integers(1, 3))
def test_visited_points_matches_loop(seed, n, d):
    rng = np.random.default_rng(seed)
    values = rng.integers(-1, 2, (n, d)).astype(float)
    pre = np.where(rng.random((n, 1)) < 0.5, values, rng.integers(-1, 2, (n, d)))
    pre[0] = values[0]
    x = CadlagPath(np.arange(float(n)), values, pre)
    rows = [x.values[0]]
    for i in range(1, n):
        for row in (x.pre_values[i], x.values[i]):
            if not np.array_equal(row, rows[-1]):
                rows.append(row)
    np.testing.assert_array_equal(visited_points(x), np.asarray(rows))


def pruning_points(rng, family, m, d):
    """m points in R^d of one of the families the pruned recursion must
    reproduce bit for bit: a Brownian walk, the walk rounded (ties), a
    large common offset with tiny increments, all-equal points (zero
    costs), or increments near 1e-170 or 1e-155, whose squares underflow."""
    steps = rng.standard_normal((m, d))
    if family == "walk":
        return np.cumsum(steps, axis=0)
    if family == "ties":
        return np.round(np.cumsum(steps, axis=0))
    if family == "offset":
        return 1e6 + np.cumsum(1e-9 * steps, axis=0)
    if family == "equal":
        return np.full((m, d), 0.3)
    return np.cumsum(rng.choice([1e-170, 1e-155]) * steps, axis=0)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), data=st.data(),
       family=st.sampled_from(("walk", "ties", "offset", "equal", "tiny")),
       p=st.one_of(st.just(2.5), st.floats(1.0, 3.0, exclude_max=True)))
def test_p_variation_of_points_matches_row_loop_when_pruned(seed, d, data, family, p):
    """Lengths from the first at which the recursion tries its bound."""
    start = first_pruned_length(d)
    m = data.draw(st.integers(start, start + 250), label="m")
    pts = pruning_points(np.random.default_rng(seed), family, m, d)
    assert repr(p_variation_of_points(pts, p)) == repr(loop_p_variation_of_points(pts, p))


def turning_family_points(rng, family, m):
    """m points in R^1 of a family on which dropping the points inside
    monotone runs could round differently from the full recursion: a walk
    of a few ulp on an offset of 1, exact revisits of a few values and
    their neighbours 1 ulp off, large swings with runs of tiny steps, a
    rounded walk nudged by a few ulp (near ties), steps of mixed scales, a
    walk in units of the last place, or a walk that holds each value one to
    three steps (plateaus)."""
    if family == "offset":
        return 1.0 + np.cumsum(rng.integers(-3, 4, m)) * 2.0 ** -52
    if family == "revisits":
        base = rng.standard_normal(4)[rng.integers(0, 4, m)]
        return base + rng.integers(-1, 2, m) * np.spacing(base)
    if family == "swings":
        return (np.repeat(1e3 * rng.standard_normal(m // 8 + 1), 8)[:m]
                + 1e-9 * np.cumsum(rng.standard_normal(m)))
    if family == "near_ties":
        x = np.round(np.cumsum(rng.standard_normal(m)), 1)
        return x + rng.integers(-2, 3, m) * np.spacing(x)
    if family == "scales":
        return np.cumsum(rng.standard_normal(m) * 10.0 ** rng.integers(-8, 9, m))
    if family == "ulps":
        start = np.float64(rng.uniform(1.0, 2.0)).view(np.int64)
        return (start + np.cumsum(rng.integers(-40, 41, m))).view(np.float64)
    return np.repeat(np.cumsum(rng.standard_normal(m)), rng.integers(1, 4, m))[:m]


TURNING_FAMILIES = ("offset", "revisits", "swings", "near_ties", "scales", "ulps", "plateaus")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 150),
       family=st.sampled_from(TURNING_FAMILIES),
       p=st.one_of(st.just(2.0), st.just(2.5), st.floats(2.0, 3.0, exclude_max=True)))
def test_p_variation_of_points_on_turning_points_matches_row_loop(seed, m, family, p):
    pts = turning_family_points(np.random.default_rng(seed), family, m)[:, None]
    assert repr(p_variation_of_points(pts, p)) == repr(loop_p_variation_of_points(pts, p))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 150),
       family=st.sampled_from(TURNING_FAMILIES),
       p=st.one_of(st.just(1.0), st.floats(1.0, _TURNING_P, exclude_max=True)))
def test_p_variation_of_points_below_turning_p_keeps_every_point(seed, m, family, p):
    """At p = 1 the turning points alone round apart from the row loop on
    about a third of these inputs."""
    pts = turning_family_points(np.random.default_rng(seed), family, m)[:, None]
    assert repr(p_variation_of_points(pts, p)) == repr(loop_p_variation_of_points(pts, p))
    assert _needed_points(pts, p) is pts


def test_needed_points_keeps_ends_and_turns():
    """The ends, and one point of each turning plateau; a monotone or
    constant sequence keeps its two ends."""
    x = np.array([0.0, 0.0, 1.0, 2.0, 2.0, 2.0, 1.0, -1.0, -1.0, 3.0, 3.0])
    np.testing.assert_array_equal(_needed_points(x[:, None], 2.5)[:, 0], [0.0, 2.0, -1.0, 3.0])
    for x in (np.arange(5.0), np.full(4, 0.3), np.array([0.0, -0.0])):
        np.testing.assert_array_equal(_needed_points(x[:, None], 2.5)[:, 0], x[[0, -1]])


def test_needed_points_keeps_every_point_out_of_range():
    """The reduction runs only where its argument's roundings are relative:
    no point NaN or inf, no difference, cost or sum of costs that overflows
    (|point| up to 2^(1000 / p - 1) / m^(1 / p)), and no nonzero |point|
    so small that a nonzero cost could underflow; and only at d = 1 and p
    >= _TURNING_P."""
    walk = np.cumsum(np.random.default_rng(3).standard_normal(50))[:, None]
    assert len(_needed_points(walk, 2.5)) < 50
    top = 2.0 ** (1000 / 2.5 - 1) / 50 ** (1 / 2.5)
    for at, fill, kept in ((7, np.nan, True), (7, np.inf, True), (7, 0.99 * top, False),
                           (7, 1.01 * top, True), (0, 0.0, False), (7, 2.0 ** -345, False),
                           (7, 2.0 ** -347, True)):
        pts = walk.copy()
        pts[at] = fill
        assert (_needed_points(pts, 2.5) is pts) == kept, (at, fill)
    assert _needed_points(walk, np.nextafter(_TURNING_P, 0)) is walk
    pts = np.hstack([walk, walk])
    assert _needed_points(pts, 2.5) is pts


@pytest.mark.parametrize("p, pts", [
    (1.0, [-0.5947236978403763, 1.0393541232237578, 0.6307834874198359, -0.5947236978403765]),
    (2.0, [1.6858739277029138e-07, -1.2732847289526858e-15, 1.0668702247329975e-15,
           18.092200447811553]),
    (2.05, [1.6491998260547145e-08, -9.533326455922359e-17, 1.068058758987958e-16,
            1.100368423792331]),
])
def test_p_variation_of_points_below_turning_p_where_the_turns_round_apart(p, pts):
    """Points whose turning points (all but the third) give a p-variation
    one ulp below the row loop's. At p = 1 the chain through the third
    point rounds higher than the cost across it; at p = 2 and 2.05 that
    chain rounds its first sum up across a rounding midpoint of the last
    cost, and the cost across equals the last cost (paths._needed_points).
    Below _TURNING_P the recursion keeps every point."""
    pts = np.array(pts)[:, None]
    loop = loop_p_variation_of_points(pts, p)
    assert loop_p_variation_of_points(pts[[0, 1, 3]], p) < loop
    assert repr(p_variation_of_points(pts, p)) == repr(loop)


def test_p_variation_of_non_finite_points_matches_row_loop(monkeypatch):
    """inf - inf makes a NaN cost, which numpy's max propagates and
    Python's would drop; an infinite cost stays infinite. The bad points sit
    early in the first row block, or a few rows before the end inside the
    last one, where no later block's numpy max would carry a NaN on. Two
    infinite points next to each other make one NaN cost inside a block's
    triangle, with every head infinite; an infinite point early on and one
    at the bad place make a NaN cost in the head of a later block. On a
    walk long enough to prune, the bad points sit in a column block that
    the finite walk's rows skip. At d = 1 the finite walk runs on its
    turning points (about 46% of them, so its walk is twice as long), and
    the bad points on every point."""
    counts = cell_counts(monkeypatch)
    outcomes = set()
    cases = [(1, 40, 5, False), (2, 40, 35, False), (3, 700, 600, False),
             (4, 700, 697, False)]
    with np.errstate(all="ignore"):
        for d, walk_case in ((1, (5, 3000, 1200, True)), (2, (5, 1500, 600, True))):
            for seed, m, bad, walk in cases + [walk_case]:
                rng = np.random.default_rng(seed)
                if walk:
                    pts = pruning_points(rng, "walk", m, d)
                    counts.clear()
                    assert repr(p_variation_of_points(pts, 2.5)) == repr(
                        loop_p_variation_of_points(pts, 2.5))
                    (m_run, cells), = counts
                    assert m_run == len(_needed_points(pts, 2.5)) and (d == 2) == (m_run == m)
                    assert cells < 0.5 * m_run * (m_run - 1) / 2  # the finite walk prunes
                for at, fill in (([bad], np.inf), ([bad], np.nan), ([bad], 1e200),
                                 ([bad, bad + 1], np.inf), ([3, bad], np.inf),
                                 ([bad, m - 2], np.inf)):
                    bad_pts = pts.copy() if walk else rng.standard_normal((m, d))
                    bad_pts[at] = fill
                    counts.clear()
                    got = p_variation_of_points(bad_pts, 2.5)
                    assert counts[0][0] == m
                    assert repr(got) == repr(loop_p_variation_of_points(bad_pts, 2.5))
                    outcomes.add(repr(got))
    assert {"nan", "inf"} <= outcomes
