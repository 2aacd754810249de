import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughfilter.lift import (
    chen_defect,
    geometric_defect_max,
    marcus_lift,
)
from roughfilter.paths import CadlagPath
from roughfilter.tensor_group import (
    GroupElement,
    geometric_defect,
    group_exp,
    group_increment,
    group_inv,
    group_log,
    group_mul,
    group_pow,
    homogeneous_norm,
)


def identity(d):
    return GroupElement(np.zeros(d))


def random_group_element(rng, d, batch=()):
    # product of exps is geometric by construction
    g = identity(d)
    for _ in range(3):
        g = group_mul(g, group_exp(rng.standard_normal(batch + (d,))))
    return g


def random_tensor_batch(rng, d, batch):
    """Arbitrary (not necessarily geometric) level-1 and level-2 data."""
    return rng.standard_normal(batch + (d,)), rng.standard_normal(batch + (d, d))


# -- per-element reference formulas (one point at a time, np.outer) -------


def ref_mul(a1, a2, b1, b2):
    return a1 + b1, a2 + b2 + np.outer(a1, b1)


def ref_inv(g1, g2):
    return -g1, -g2 + np.outer(g1, g1)


def ref_increment(a1, a2, b1, b2):
    g1 = b1 - a1
    return g1, b2 - a2 - np.outer(a1, g1)


def ref_exp(v, m):
    return v, m + 0.5 * np.outer(v, v)


def ref_log(g1, g2):
    return g1, g2 - 0.5 * np.outer(g1, g1)


def ref_pow(g1, g2, s):
    chi1, chi2 = ref_log(g1, g2)
    return ref_exp(s * chi1, s * chi2)


def ref_norm(g1, g2):
    antisym = 0.5 * (g2 - g2.T)
    return max(float(np.linalg.norm(g1)), float(np.sqrt(2.0 * np.linalg.norm(antisym))))


def ref_defect(g1, g2):
    return float(np.max(np.abs(g2 + g2.T - np.outer(g1, g1))))


def assert_matches_pointwise(batched, ref):
    """`batched` is (level1, level2) of shape (B, d), (B, d, d); `ref` a list
    of per-point (level1, level2); equal bit for bit."""
    l1, l2 = batched
    assert l1.shape[0] == l2.shape[0] == len(ref)
    for k, (r1, r2) in enumerate(ref):
        np.testing.assert_array_equal(l1[k], r1)
        np.testing.assert_array_equal(l2[k], r2)


_case = dict(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), b=st.integers(1, 6))


@settings(max_examples=40, deadline=None)
@given(**_case)
def test_batched_ops_match_pointwise_formulas(seed, d, b):
    rng = np.random.default_rng(seed)
    a1, a2 = random_tensor_batch(rng, d, (b,))
    b1, b2 = random_tensor_batch(rng, d, (b,))
    s = rng.uniform(-2.0, 2.0, b)
    A, B = GroupElement(a1, a2), GroupElement(b1, b2)
    g = group_mul(A, B)
    assert_matches_pointwise((g.level1, g.level2),
                             [ref_mul(a1[k], a2[k], b1[k], b2[k]) for k in range(b)])
    g = group_inv(A)
    assert_matches_pointwise((g.level1, g.level2), [ref_inv(a1[k], a2[k]) for k in range(b)])
    g = group_increment(A, B)
    assert_matches_pointwise((g.level1, g.level2),
                             [ref_increment(a1[k], a2[k], b1[k], b2[k]) for k in range(b)])
    g = group_exp(a1, a2)
    assert_matches_pointwise((g.level1, g.level2), [ref_exp(a1[k], a2[k]) for k in range(b)])
    assert_matches_pointwise(group_log(A), [ref_log(a1[k], a2[k]) for k in range(b)])
    g = group_pow(A, s)
    assert_matches_pointwise((g.level1, g.level2),
                             [ref_pow(a1[k], a2[k], s[k]) for k in range(b)])
    norms = homogeneous_norm(A)
    assert norms.shape == (b,)
    for k in range(b):
        assert norms[k] == pytest.approx(ref_norm(a1[k], a2[k]), rel=1e-15, abs=0.0)
        assert homogeneous_norm(A[k]) == norms[k]
    assert geometric_defect(A) == max(ref_defect(a1[k], a2[k]) for k in range(b))


@settings(max_examples=30, deadline=None)
@given(**_case)
def test_batched_ops_broadcast_leading_axes(seed, d, b):
    rng = np.random.default_rng(seed)
    A = random_group_element(rng, d, (b, 1))
    B = random_group_element(rng, d, (1, 3))
    g = group_mul(A, B)
    assert g.level2.shape == (b, 3, d, d)
    for i in range(b):
        for j in range(3):
            one = group_mul(A[i, 0], B[0, j])
            np.testing.assert_array_equal(g.level1[i, j], one.level1)
            np.testing.assert_array_equal(g.level2[i, j], one.level2)
    s = rng.uniform(0.0, 1.0, 3)
    p = group_pow(A, s)
    assert p.level2.shape == (b, 3, d, d)
    np.testing.assert_array_equal(p[0, 2].level2, group_pow(A[0, 0], s[2]).level2)


@settings(max_examples=40, deadline=None)
@given(**_case)
def test_group_axioms_on_batches(seed, d, b):
    rng = np.random.default_rng(seed)
    a, c, e = (random_group_element(rng, d, (b,)) for _ in range(3))
    scale = 1.0 + max(np.max(np.abs(x.level2)) for x in (a, c, e))
    # associativity
    lhs = group_mul(group_mul(a, c), e)
    rhs = group_mul(a, group_mul(c, e))
    assert np.max(np.abs(lhs.level1 - rhs.level1)) <= 1e-12 * scale
    assert np.max(np.abs(lhs.level2 - rhs.level2)) <= 1e-12 * scale ** 2
    # inverse, and the increment is a^{-1} b
    for g in (group_mul(a, group_inv(a)), group_mul(group_inv(a), a)):
        assert np.max(np.abs(g.level1)) <= 1e-12 * scale
        assert np.max(np.abs(g.level2)) <= 1e-12 * scale ** 2
    inc = group_increment(a, c)
    ref = group_mul(group_inv(a), c)
    assert np.max(np.abs(inc.level2 - ref.level2)) <= 1e-12 * scale ** 2
    # exp/log round trip
    back = group_exp(*group_log(a))
    assert np.max(np.abs(back.level1 - a.level1)) == 0.0
    assert np.max(np.abs(back.level2 - a.level2)) <= 1e-12 * scale
    # one-parameter subgroup: pow(g, s) pow(g, t) = pow(g, s + t)
    s, t = rng.uniform(-1.5, 1.5, (2, b))
    st_ = group_mul(group_pow(a, s), group_pow(a, t))
    direct = group_pow(a, s + t)
    assert np.max(np.abs(st_.level1 - direct.level1)) <= 1e-12 * scale
    assert np.max(np.abs(st_.level2 - direct.level2)) <= 1e-12 * scale ** 2
    # shuffle identity: products and powers of geometric points stay geometric
    assert geometric_defect(lhs) <= 1e-12 * scale ** 2
    assert geometric_defect(direct) <= 1e-12 * scale ** 2


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), n=st.integers(2, 10))
def test_chen_and_shuffle_on_random_marcus_lifts(seed, d, n):
    rng = np.random.default_rng(seed)
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.01, 0.99, n - 2)), [1.0]])
    vals = rng.standard_normal((n, d))
    pre = vals.copy()
    jumps = rng.random(n) < 0.5
    jumps[0] = False
    pre[jumps] += rng.standard_normal((int(jumps.sum()), d))
    X = marcus_lift(CadlagPath(times, vals, pre, "linear"))
    scale = 1.0 + float(np.max(np.abs(X.level2)))
    assert chen_defect(X) <= 1e-12 * scale
    assert geometric_defect_max(X) <= 1e-12 * scale
    # Marcus-type jumps: the log of each jump has no level-2 part
    jumps = np.nonzero(X.jump_flags)[0]
    _, chi2 = group_log(X.increment(jumps, jumps, left_i=True))
    assert np.max(np.abs(chi2), initial=0.0) <= 1e-12 * scale


def test_identity_and_inverse():
    rng = np.random.default_rng(0)
    for d in (1, 2, 3):
        g = random_group_element(rng, d)
        e = identity(d)
        for h in (group_mul(e, g), group_mul(g, e)):
            assert np.allclose(h.level1, g.level1, atol=1e-14)
            assert np.allclose(h.level2, g.level2, atol=1e-14)
        gi = group_mul(g, group_inv(g))
        assert np.max(np.abs(gi.level1)) < 1e-12
        assert np.max(np.abs(gi.level2)) < 1e-12


def test_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        group_mul(identity(2), identity(3))
    with pytest.raises(ValueError):
        group_increment(identity(2), identity(3))


def test_associativity():
    rng = np.random.default_rng(1)
    for d in (1, 2, 3):
        for _ in range(50):
            a, b, c = (random_group_element(rng, d) for _ in range(3))
            lhs = group_mul(group_mul(a, b), c)
            rhs = group_mul(a, group_mul(b, c))
            scale = 1.0 + np.max(np.abs(lhs.level2))
            assert np.max(np.abs(lhs.level1 - rhs.level1)) <= 1e-12 * scale
            assert np.max(np.abs(lhs.level2 - rhs.level2)) <= 1e-12 * scale


def test_exp_basis_product_cross_entry():
    a = group_exp(np.array([1.0, 0.0]))
    b = group_exp(np.array([0.0, 1.0]))
    ab = group_mul(a, b)
    assert ab.level2[0, 1] == pytest.approx(1.0, abs=1e-15)
    assert ab.level2[1, 0] == pytest.approx(0.0, abs=1e-15)


def test_exp_of_zero_and_basis():
    e = group_exp(np.zeros(3))
    assert np.all(e.level1 == 0) and np.all(e.level2 == 0)
    g = group_exp(np.array([1.0, 0.0]))
    assert g.level2[0, 0] == pytest.approx(0.5)
    assert np.all(g.level2[1:] == 0) and g.level2[0, 1] == 0


def test_exp_log_round_trip():
    rng = np.random.default_rng(2)
    for d in (1, 2, 3):
        for _ in range(100):
            v = rng.standard_normal(d)
            assert np.max(np.abs(group_log(group_exp(v))[0] - v)) < 1e-12
            assert np.max(np.abs(group_log(group_exp(v))[1])) < 1e-12
            g = random_group_element(rng, d)
            back = group_exp(*group_log(g))
            assert np.max(np.abs(back.level1 - g.level1)) < 1e-12
            assert np.max(np.abs(back.level2 - g.level2)) < 1e-12


def test_log_of_identity_is_zero():
    chi1, chi2 = group_log(identity(2))
    assert np.all(chi1 == 0) and np.all(chi2 == 0)


def test_pow_scales_the_log():
    g = group_exp(np.array([1.0, 2.0]), np.eye(2))
    chi1, chi2 = group_log(group_pow(g, -0.5))
    assert np.allclose(chi1, [-0.5, -1.0]) and np.allclose(chi2, -0.5 * np.eye(2))


def test_homogeneous_norm_properties():
    rng = np.random.default_rng(3)
    assert homogeneous_norm(identity(3)) == 0.0
    for _ in range(50):
        v = rng.standard_normal(3)
        assert homogeneous_norm(group_exp(v)) == pytest.approx(np.linalg.norm(v))
        g = random_group_element(rng, 3)
        n = homogeneous_norm(g)
        dilated = GroupElement(2.0 * g.level1, 4.0 * g.level2)
        assert homogeneous_norm(dilated) == pytest.approx(2.0 * n, rel=1e-12)
        assert n > 0 or np.max(np.abs(g.level1)) == 0


def test_norm_detects_pure_area():
    # nonzero antisymmetric level-2 with zero level-1 must have positive norm
    A = np.array([[0.0, 0.3], [-0.3, 0.0]])
    g = GroupElement(np.zeros(2), A)
    assert homogeneous_norm(g) == pytest.approx(np.sqrt(2 * np.linalg.norm(A)))


def test_increment_norm_is_a_distance():
    # the left-invariant homogeneous distance |a^{-1} b|
    rng = np.random.default_rng(4)
    a = random_group_element(rng, 2)
    b = random_group_element(rng, 2)
    assert homogeneous_norm(group_increment(a, a)) < 1e-12
    assert homogeneous_norm(group_increment(a, b)) > 0


def test_geometric_defect_zero_on_exp_products():
    rng = np.random.default_rng(5)
    for d in (1, 2, 3):
        g = random_group_element(rng, d)
        assert geometric_defect(g) < 1e-12


def test_validation_rejects_bad_input():
    with pytest.raises(ValueError):
        GroupElement(np.array([np.nan, 0.0]))
    for level1 in (1.0, np.zeros((2, 0))):
        with pytest.raises(ValueError, match="shape"):
            GroupElement(level1)
    with pytest.raises(ValueError):
        GroupElement(np.zeros(2), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        GroupElement(np.zeros((4, 2)), np.full((4, 2, 2), np.inf))
    with pytest.raises(ValueError):
        group_exp(np.zeros(2), np.zeros((3, 3)))
