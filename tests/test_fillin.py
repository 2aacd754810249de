
import numpy as np
import pytest

from roughfilter.fillin import (
    SLOT_STEPS,
    AdmissiblePair,
    PathFunction,
    RSeq,
    alpha_p,
    beta_p,
    build_representative,
    tabulated_path_function,
)
from roughfilter.lift import RoughPath, marcus_lift, stratonovich_lift
from roughfilter.paths import CadlagPath
from roughfilter.tensor_group import (
    group_exp,
    group_inv,
    group_log,
    group_mul,
    group_pow,
)


def random_group(rng, d):
    g = group_exp(rng.standard_normal(d))
    for _ in range(2):
        g = group_mul(g, group_exp(rng.standard_normal(d)))
    return g


def step_lift(jump_time=0.5, T=1.0, jump=1.0):
    x = CadlagPath([0.0, jump_time, T], [[0.0], [jump], [jump]],
                   [[0.0], [0.0], [jump]])
    return marcus_lift(x)


def brownian_lift(rng, n=16, d=2):
    vals = np.vstack([np.zeros(d),
                      np.cumsum(rng.standard_normal((n, d)), axis=0) / np.sqrt(n)])
    return stratonovich_lift(CadlagPath(np.linspace(0.0, 1.0, n + 1), vals))


def test_path_function_endpoints_exact():
    rng = np.random.default_rng(30)
    a, b = random_group(rng, 2), random_group(rng, 2)
    for phi in (PathFunction(),
                tabulated_path_function([0.0, 0.5, 1.0], [0.0, 0.1, 1.0])):
        assert phi(a, b, 0.0) is a
        assert phi(a, b, 1.0) is b
        assert phi(a, b, -0.2) is a
        assert phi(a, b, 1.2) is b


def test_log_linear_interior_is_subgroup_point():
    rng = np.random.default_rng(31)
    a, b = random_group(rng, 2), random_group(rng, 2)
    chi1, chi2 = group_log(group_mul(group_inv(a), b))
    phi = PathFunction()
    for s in (0.25, 0.5, 0.75):
        got = phi(a, b, s)
        want = group_mul(a, group_exp(s * chi1, s * chi2))
        assert np.allclose(got.level1, want.level1, atol=1e-14)
        assert np.allclose(got.level2, want.level2, atol=1e-14)


def test_tabulated_profile_reparameterizes():
    rng = np.random.default_rng(32)
    a, b = random_group(rng, 2), random_group(rng, 2)
    tab = tabulated_path_function([0.0, 0.5, 1.0], [0.0, 0.25, 1.0])
    log = PathFunction()
    got = tab(a, b, 0.5)
    want = log(a, b, 0.25)
    assert np.allclose(got.level1, want.level1)
    assert np.allclose(got.level2, want.level2)
    with pytest.raises(ValueError):
        tabulated_path_function([0.0, 1.0], [0.0, 0.5])
    with pytest.raises(ValueError):
        tabulated_path_function([0.0, 0.6, 0.4, 1.0], [0.0, 0.3, 0.5, 1.0])
    with pytest.raises(ValueError):
        tabulated_path_function([0.0, 1.0], [0.0, 0.5, 1.0])


def area_jump_lift():
    """One jump whose log carries a level-2 area part."""
    v = np.array([1.0, 0.0])
    A = np.array([[0.0, 0.3], [-0.3, 0.0]])
    g = group_exp(v)
    l2 = g.level2 + A
    times = np.array([0.0, 1.0])
    L1 = np.vstack([np.zeros(2), v])
    L2 = np.stack([np.zeros((2, 2)), l2])
    pre1 = np.zeros((2, 2))
    pre2 = np.zeros((2, 2, 2))
    return RoughPath(times, L1, L2, pre1, pre2)


def test_pair_admissibility():
    AdmissiblePair(area_jump_lift())  # log-linear always admissible
    for delta in (0.0, 1.5):
        with pytest.raises(ValueError, match="delta"):
            AdmissiblePair(step_lift(), delta=delta)


def test_rseq_terms_and_validation():
    r = RSeq()
    assert [r.term(k) for k in (1, 2, 3)] == [0.5, 0.25, 0.125]
    r2 = RSeq(prefix=(0.3, 0.2), ratio=0.1)
    assert r2.term(1) == 0.3
    assert r2.term(2) == 0.2
    assert r2.term(3) == pytest.approx(0.02)
    g = RSeq.geometric(2.0)
    assert [g.term(k) for k in (1, 2, 3)] == [0.5, 0.25, 0.125]
    with pytest.raises(ValueError):
        RSeq(ratio=1.0)
    with pytest.raises(ValueError):
        RSeq(prefix=())
    with pytest.raises(ValueError):
        RSeq.geometric(1.0)
    with pytest.raises(ValueError):
        r.term(0)


def two_jump_lift(t1=0.25, d1=0.5, t2=0.6, d2=2.0):
    times = [0.0, t1, t2, 1.0]
    vals = [[0.0], [d1], [d1 + d2], [d1 + d2]]
    pre = [[0.0], [0.0], [d1], [d1 + d2]]
    return marcus_lift(CadlagPath(times, vals, pre))


def assert_layout(rep, X, T_ext, tau, slots, slot_steps=SLOT_STEPS):
    """The representative puts each original grid time at tau and each jump
    slot at (start, end), in extended time [0, T_ext] scaled back to [0, T]
    exactly as build_representative scales."""
    scale = X.T / T_ext
    R = rep.rough.times
    assert list(R[rep.orig_indices]) == [t * scale for t in tau]
    ends = rep.orig_indices[np.nonzero(X.jump_flags)[0]]
    assert [(R[e - slot_steps], R[e]) for e in ends] == [
        (a * scale, b * scale) for a, b in slots]


def test_representative_rank_and_tie_break():
    X = two_jump_lift()
    # bigger jump (t=0.6) takes r_1=0.5, smaller (t=0.25) takes r_2=0.25
    assert_layout(build_representative(AdmissiblePair(X)), X, 1.75,
                  [0.0, 0.25 + 0.25, 0.6 + 0.75, 1.0 + 0.75],
                  [(0.25, 0.25 + 0.25), (0.6 + 0.75 - 0.5, 0.6 + 0.75)])
    Y = two_jump_lift(d1=1.0, d2=1.0)
    # tie: the earlier jump (t=0.25) takes r_1
    assert_layout(build_representative(AdmissiblePair(Y)), Y, 1.75,
                  [0.0, 0.25 + 0.5, 0.6 + 0.75, 1.0 + 0.75],
                  [(0.25, 0.25 + 0.5), (0.6 + 0.75 - 0.25, 0.6 + 0.75)])


def test_representative_single_jump_slot():
    X = marcus_lift(CadlagPath([0.0, 0.4, 0.5, 1.0], [[0.0], [0.0], [1.0], [1.0]],
                               [[0.0], [0.0], [0.0], [1.0]]))
    assert_layout(build_representative(AdmissiblePair(X)), X, 1.5,
                  [0.0, 0.4, 1.0, 1.5], [(0.5, 1.0)])


def test_representative_two_jumps_and_delta():
    X = two_jump_lift()
    # delta = 0.5 halves every width, r_1 = 0.5 and r_2 = 0.25, and so the
    # total width 0.75
    assert_layout(build_representative(AdmissiblePair(X, delta=0.5)), X, 1.0 + 0.5 * 0.75,
                  [0.0, 0.25 + 0.125, 0.6 + 0.375, 1.0 + 0.375],
                  [(0.25, 0.25 + 0.125), (0.6 + 0.375 - 0.25, 0.6 + 0.375)])


def test_time_extension_jumpless_identity():
    # without jumps the extended time is the original time: no slots, the
    # grid unchanged, whatever the fill-in settings
    rng = np.random.default_rng(33)
    X = brownian_lift(rng)
    for pair, slot_steps in ((AdmissiblePair(X), SLOT_STEPS),
                             (AdmissiblePair(X, r_seq=RSeq.geometric(3.0), delta=0.125), 1)):
        rep = build_representative(pair, slot_steps)
        assert np.array_equal(rep.rough.times, X.times)
        assert np.array_equal(rep.orig_indices, np.arange(len(X.times)))
    # a one-point path on [0, 0] has nothing to rescale
    O = stratonovich_lift(CadlagPath([0.0], [[0.0]]))
    assert np.array_equal(build_representative(AdmissiblePair(O)).rough.times, [0.0])


def test_representative_jumpless_passthrough():
    rng = np.random.default_rng(34)
    X = brownian_lift(rng)
    rep = build_representative(AdmissiblePair(X))
    assert np.array_equal(rep.rough.times, X.times)
    assert np.array_equal(rep.rough.level1, X.level1)
    assert np.array_equal(rep.rough.level2, X.level2)
    assert np.array_equal(rep.orig_indices, np.arange(len(X.times)))
    assert len(rep.rough.times) == len(X.times)  # no slot points


def test_representative_single_jump_layout():
    X = step_lift()
    pair = AdmissiblePair(X)
    with pytest.raises(ValueError, match="slot_steps"):
        build_representative(pair, slot_steps=0)
    rep = build_representative(pair, slot_steps=4)
    R = rep.rough
    assert not R.has_jumps()
    assert R.T == X.T
    # original values copied verbatim at the mapped indices
    for i, j in enumerate(rep.orig_indices):
        assert np.array_equal(R.level1[j], X.level1[i])
        assert np.array_equal(R.level2[j], X.level2[i])
    # the slot of the jump at index 1 runs from the point after index 0 to
    # the point of index 1: 4 segments, no original time inside
    start, end = rep.orig_indices[0] + 1, rep.orig_indices[1]
    assert end - start == 4
    # slot traverses exp(chi) in equal one-parameter steps
    sub = group_pow(X.increment(1, 1, left_i=True), 0.25)
    for k in range(start, end):
        inc = R.increment(k, k + 1)
        assert np.allclose(inc.level1, sub.level1, atol=1e-13)
        assert np.allclose(inc.level2, sub.level2, atol=1e-13)


def test_representative_preserves_endpoint_signature():
    rng = np.random.default_rng(35)
    X = two_jump_lift(d1=0.7, d2=-1.1)
    R = build_representative(AdmissiblePair(X), slot_steps=8).rough
    assert np.allclose(R.level1[-1], X.level1[-1], atol=1e-12)
    assert np.allclose(R.level2[-1], X.level2[-1], atol=1e-12)


def test_time_change_round_trip_exact():
    X = step_lift(jump_time=0.3)
    w = 0.7 * 0.5
    assert_layout(build_representative(AdmissiblePair(X, delta=0.7)), X, 1.0 + w,
                  [0.0, 0.3 + w, 1.0 + w], [(0.3 + w - w, 0.3 + w)])
    X = two_jump_lift()
    w1, w2 = 0.7 * 0.25, 0.7 * 0.5
    assert_layout(build_representative(AdmissiblePair(X, delta=0.7)), X, 1.0 + (w1 + w2),
                  [0.0, 0.25 + w1, 0.6 + (w1 + w2), 1.0 + (w1 + w2)],
                  [(0.25 + w1 - w1, 0.25 + w1), (0.6 + (w1 + w2) - w2, 0.6 + (w1 + w2))])
    # a path starts at time 0, so tau(0) = 0 without a special case
    with pytest.raises(ValueError, match="starts at time 0"):
        CadlagPath([0.2, 0.5, 1.0], [[0.0], [1.0], [1.0]], [[0.0], [0.0], [1.0]])
    with pytest.raises(ValueError, match="starts at time 0"):
        RoughPath(np.array([0.2, 1.0]), np.zeros((2, 1)), np.zeros((2, 1, 1)))


def test_beta_p_self_is_zero():
    X = two_jump_lift()
    sweep = beta_p(AdmissiblePair(X), AdmissiblePair(X), 2.5)
    assert sweep.estimate == 0.0
    assert all(v == 0.0 for _, v in sweep.per_delta)
    assert not sweep.jump_count_mismatch


def test_beta_p_decreases_with_jump_time_shift():
    vals = []
    for h in (0.2, 0.1, 0.05):
        X = AdmissiblePair(step_lift(jump_time=0.4))
        Y = AdmissiblePair(step_lift(jump_time=0.4 + h))
        vals.append(beta_p(X, Y, 2.5, delta_seq=(1.0,)).estimate)
    assert vals[0] > vals[1] > vals[2] > 0.0


def test_beta_p_validation_and_mismatch_flag():
    X = AdmissiblePair(step_lift())
    with pytest.raises(ValueError):
        beta_p(X, X, 2.5, delta_seq=())
    with pytest.raises(ValueError):
        beta_p(X, X, 2.5, delta_seq=(0.5, 0.5))
    rng = np.random.default_rng(36)
    Y3 = AdmissiblePair(brownian_lift(rng, d=3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        beta_p(X, Y3, 2.5)
    with pytest.raises(ValueError, match="dimension mismatch"):
        alpha_p(X, Y3, 2.5)
    Y = AdmissiblePair(brownian_lift(rng, d=1))
    sweep = beta_p(X, Y, 2.5, delta_seq=(1.0, 0.5))
    assert sweep.jump_count_mismatch
    assert np.isfinite(sweep.estimate)


def test_alpha_p_basics():
    X = AdmissiblePair(step_lift(jump_time=0.4))
    self_sweep = alpha_p(X, X, 2.5, delta_seq=(1.0, 0.5), warp_grid=2)
    assert self_sweep.estimate == 0.0
    Y = AdmissiblePair(step_lift(jump_time=0.45))
    sweep = alpha_p(X, Y, 2.5, delta_seq=(1.0,), warp_grid=4)
    assert len(sweep.per_delta) == 1
    assert sweep.estimate > 0.0
    # warping can absorb part of the shift that rho_p has to pay for
    rigid = beta_p(X, Y, 2.5, delta_seq=(1.0,)).estimate
    assert sweep.estimate <= rigid + 1e-9
