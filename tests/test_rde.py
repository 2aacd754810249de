import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from roughfilter.fillin import AdmissiblePair, RSeq, tabulated_path_function
from roughfilter.lift import RoughPath, marcus_lift, stratonovich_lift
from roughfilter.paths import CadlagPath
from roughfilter.rde import (
    RdeBlowupError,
    VectorField,
    _max_abs_last,
    _sum_last,
    constant_vector_field,
    davie_step,
    flow_and_inverse,
    linear_vector_field,
    marcus_jump,
    solve_canonical_rde,
    stability_probe,
)


def line_lift(T=1.0, end=1.0):
    return stratonovich_lift(CadlagPath([0.0, T], [[0.0], [end]]))


def brownian_lift(rng, n=16, d=2):
    vals = np.vstack([np.zeros(d),
                      np.cumsum(rng.standard_normal((n, d)), axis=0) / np.sqrt(n)])
    return stratonovich_lift(CadlagPath(np.linspace(0.0, 1.0, n + 1), vals))


def jumpy_lift_2d(rng, n=8, n_jumps=2):
    vals = np.vstack([np.zeros(2),
                      np.cumsum(rng.standard_normal((n, 2)), axis=0) / np.sqrt(n)])
    pre = vals.copy()
    for i in rng.choice(np.arange(1, n + 1), size=n_jumps, replace=False):
        pre[i] = vals[i] - rng.standard_normal(2)
    return marcus_lift(CadlagPath(np.linspace(0.0, 1.0, n + 1), vals, pre))


def nilpotent_fields():
    """B_1 = E_12, B_2 = E_23: all triple products vanish, so the level-2
    closed form (I + B_i X^1_i + B_i B_j X^2_[j,i]) y0 is exact."""
    B = np.zeros((2, 3, 3))
    B[0, 0, 1] = 1.0
    B[1, 1, 2] = 1.0
    return B


def nilpotent_closed_form(B, X, y0):
    g = X.increment(0, len(X.times) - 1)
    M = np.eye(3)
    M += np.einsum("iab,i->ab", B, g.level1)
    M += np.einsum("iab,jbc,ji->ac", B, B, g.level2)
    return M @ np.asarray(y0, dtype=float)


def test_zero_field_constant_solution():
    rng = np.random.default_rng(40)
    V = constant_vector_field(np.zeros((2, 2)))
    sol = solve_canonical_rde(V, AdmissiblePair(brownian_lift(rng)), [1.0, -2.0],
                              steps=50)
    assert np.allclose(sol.states, [1.0, -2.0])
    assert sol.scheme_meta["scheme"] == "davie2+marcus"


def test_scalar_exponential_oracle():
    V = linear_vector_field(np.ones((1, 1, 1)))
    sol = solve_canonical_rde(V, AdmissiblePair(line_lift()), [1.0], steps=4000)
    assert abs(sol.states[-1, 0] - math.e) < 1e-6


def test_step_halving_second_order():
    V = linear_vector_field(np.ones((1, 1, 1)))
    errs = []
    for steps in (50, 100, 200, 400):
        sol = solve_canonical_rde(V, AdmissiblePair(line_lift()), [1.0],
                                  steps=steps)
        errs.append(abs(sol.states[-1, 0] - math.e))
    assert errs[0] > errs[1] > errs[2] > errs[3]
    assert errs[0] / errs[3] > 20.0


def test_nilpotent_closed_form_continuous():
    rng = np.random.default_rng(41)
    B = nilpotent_fields()
    V = linear_vector_field(B)
    y0 = np.array([1.0, 2.0, 3.0])
    for _ in range(3):
        X = brownian_lift(rng, n=12)
        sol = solve_canonical_rde(V, AdmissiblePair(X), y0, steps=30)
        assert np.allclose(sol.states[-1], nilpotent_closed_form(B, X, y0),
                           atol=1e-12)


def test_nilpotent_pure_area_driver():
    a = 0.4
    A = np.array([[0.0, a], [-a, 0.0]])
    X = RoughPath(np.array([0.0, 1.0]), np.zeros((2, 2)),
                  np.stack([np.zeros((2, 2)), A]))
    B = nilpotent_fields()
    V = linear_vector_field(B)
    y0 = np.array([1.0, 2.0, 3.0])
    sol = solve_canonical_rde(V, AdmissiblePair(X), y0, steps=7)
    # area drives the commutator direction: (I - a [B_1, B_2]) y0
    comm = B[0] @ B[1] - B[1] @ B[0]
    assert np.allclose(sol.states[-1], (np.eye(3) - a * comm) @ y0, atol=1e-13)


def test_nilpotent_closed_form_with_jumps():
    rng = np.random.default_rng(42)
    B = nilpotent_fields()
    V = linear_vector_field(B)
    y0 = np.array([1.0, 2.0, 3.0])
    X = jumpy_lift_2d(rng)
    sol = solve_canonical_rde(V, AdmissiblePair(X), y0, steps=40)
    assert np.allclose(sol.states[-1], nilpotent_closed_form(B, X, y0),
                       atol=1e-12)
    assert sol.scheme_meta["scheme"] == "davie2+marcus"


def test_canonical_single_jump_exponential():
    V = linear_vector_field(np.ones((1, 1, 1)))
    x = CadlagPath([0.0, 0.5, 1.0], [[0.0], [1.0], [1.0]],
                   [[0.0], [0.0], [1.0]])
    sol = solve_canonical_rde(V, AdmissiblePair(marcus_lift(x)), [1.0], steps=10)
    assert sol.states[0, 0] == 1.0
    assert abs(sol.states[1, 0] - math.e) < 1e-8
    assert abs(sol.states[2, 0] - math.e) < 1e-8


def test_canonical_solution_independent_of_fillin_choices():
    rng = np.random.default_rng(45)
    X = jumpy_lift_2d(rng)
    V = linear_vector_field(np.stack([np.diag([1.0, -0.5]),
                                      np.array([[0.0, 1.0], [0.2, 0.0]])]))
    base = AdmissiblePair(X)
    y0 = [1.0, 1.0]
    ref = solve_canonical_rde(V, base, y0, steps=32)
    for pair in (
        replace(base, delta=0.3),
        replace(base, r_seq=RSeq.geometric(3.0)),
        replace(base, phi=tabulated_path_function([0.0, 0.5, 1.0],
                                                  [0.0, 0.1, 1.0])),
    ):
        alt = solve_canonical_rde(V, pair, y0, steps=32)
        assert np.array_equal(alt.states, ref.states)


def test_canonical_rejects_non_marcus_jump():
    v = np.array([1.0, 0.0])
    A = np.array([[0.0, 0.3], [-0.3, 0.0]])
    from roughfilter.tensor_group import group_exp

    g = group_exp(v)
    X = RoughPath(np.array([0.0, 1.0]), np.vstack([np.zeros(2), v]),
                  np.stack([np.zeros((2, 2)), g.level2 + A]),
                  np.array([False, True]), np.zeros((2, 2)),
                  np.zeros((2, 2, 2)))
    V = constant_vector_field(np.zeros((1, 2)))
    with pytest.raises(ValueError):
        solve_canonical_rde(V, AdmissiblePair(X), [0.0], steps=4)


def test_marcus_jump_matches_exp_flow():
    V = linear_vector_field(np.ones((1, 1, 1)))
    out = marcus_jump(V, 0.0, np.array([2.0]), np.array([1.0]))
    assert abs(out[0] - 2.0 * math.e) < 1e-8
    big = marcus_jump(V, 0.0, np.array([1.0]), np.array([3.0]))
    assert abs(big[0] - math.exp(3.0)) < 1e-6


def test_davie_step_broadcasts_over_batches():
    rng = np.random.default_rng(46)
    V = linear_vector_field(rng.standard_normal((2, 3, 3)) * 0.3)
    ys = rng.standard_normal((5, 3))
    g1 = rng.standard_normal(2) * 0.1
    g2 = rng.standard_normal((2, 2)) * 0.01
    batch = davie_step(V, 0.0, ys, g1, g2)
    for i in range(5):
        single = davie_step(V, 0.0, ys[i], g1, g2)
        assert np.allclose(batch[i], single, atol=1e-14)


def test_flow_and_inverse_translation_field():
    rng = np.random.default_rng(47)
    M = np.array([[1.0, 0.0], [0.5, -1.0]])
    X = brownian_lift(rng)
    grid = rng.standard_normal((4, 2))
    phis, residuals = flow_and_inverse(constant_vector_field(M), X, grid, steps=32)
    expected = grid + (M @ X.level1[-1])
    assert np.allclose(phis, expected, atol=1e-12)
    assert np.max(residuals) < 1e-12


def test_flow_and_inverse_scalar_linear():
    V = linear_vector_field(np.ones((1, 1, 1)))
    grid = np.array([[0.5], [1.0], [2.0]])
    phis, residuals = flow_and_inverse(V, line_lift(), grid, steps=2000)
    assert np.allclose(phis[:, 0], grid[:, 0] * math.e, atol=1e-5)
    assert np.max(residuals) < 1e-6


def test_blowup_raises_with_step_index():
    V = VectorField(lambda t, y: (np.asarray(y, dtype=float) ** 2)[..., None])
    X = stratonovich_lift(
        CadlagPath(np.linspace(0.0, 1.0, 101),
                   np.linspace(0.0, 1.0, 101)[:, None]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RdeBlowupError) as info:
            solve_canonical_rde(V, AdmissiblePair(X), [3.0], steps=100)
    assert info.value.step_index >= 0


def test_blowup_step_index_names_driver_segment():
    """Two jumps (at t_2 and t_4) come before segment 7, across which the
    driver rises by 3 and y' = y^2 dx blows up: the error names segment 7,
    not an index shifted by the jumps."""
    V = VectorField(lambda t, y: (np.asarray(y, dtype=float) ** 2)[..., None])
    vals = np.array([0.0, 0.0, 0.1, 0.1, 0.2, 0.2, 0.2, 0.2, 3.2, 3.2, 3.2])
    pre = vals.copy()
    pre[2], pre[4] = 0.0, 0.1
    X = marcus_lift(CadlagPath(np.linspace(0.0, 1.0, 11), vals[:, None],
                               pre[:, None]))
    assert np.nonzero(X.jump_flags)[0].tolist() == [2, 4]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RdeBlowupError) as info:
            solve_canonical_rde(V, AdmissiblePair(X), [0.5], steps=1000)
    assert info.value.step_index == 7


def test_stability_probe_reports():
    rng = np.random.default_rng(48)
    X = brownian_lift(rng)
    Y = stratonovich_lift(CadlagPath(X.times, X.level1 * 1.01))
    V = linear_vector_field(np.stack([np.diag([0.5, 0.5]),
                                      np.array([[0.0, 0.4], [-0.4, 0.0]])]))
    rep = stability_probe(V, AdmissiblePair(X), AdmissiblePair(Y),
                          [1.0, 0.0], steps=32)
    assert rep.sol_dist > 0.0
    assert rep.driver_dist > 0.0
    assert np.isfinite(rep.ratio)
    same = stability_probe(V, AdmissiblePair(X), AdmissiblePair(X),
                           [1.0, 0.0], steps=32)
    assert same.sol_dist == 0.0
    assert math.isnan(same.ratio)


def test_vector_field_jacobian_fallback():
    V = VectorField(lambda t, y: np.stack([y ** 2, np.sin(y)], axis=-1))
    y = np.array([0.3, -0.7])
    J = V.jac(0.0, y)
    # d V[a, 0] / d y_b = 2 y_a delta_ab; d V[a, 1] / d y_b = cos(y_a) delta_ab
    expect = np.zeros((2, 2, 2))
    for a in range(2):
        expect[a, 0, a] = 2.0 * y[a]
        expect[a, 1, a] = math.cos(y[a])
    assert np.allclose(J, expect, atol=1e-6)


def _nonlinear_field():
    return VectorField(lambda t, y: np.stack([y ** 2, np.sin(y)], axis=-1))


def test_jacobian_action_matches_full_jacobian():
    rng = np.random.default_rng(50)
    V = _nonlinear_field()
    for shape in [(2,), (5, 2), (3, 4, 2)]:
        y = rng.standard_normal(shape)
        U = rng.standard_normal(shape[:-1] + (2, 2))
        expect = np.einsum("...aib,...ib->...a", V.jac(0.0, y), U)
        assert V.jac(0.0, y, U).shape == shape
        assert np.allclose(V.jac(0.0, y, U), expect, rtol=0.0, atol=1e-8)
    L = linear_vector_field(rng.standard_normal((3, 4, 4)))
    y = rng.standard_normal((6, 4))
    U = rng.standard_normal((6, 3, 4))
    assert np.array_equal(L.jac(0.0, y, U),
                          np.einsum("...aib,...ib->...a", L.jac(0.0, y), U))


_coords = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(y=arrays(float, (3, 2), elements=_coords),
       U=arrays(float, (3, 2, 2), elements=_coords),
       zero_rows=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1)),
                          max_size=4))
@example(y=np.zeros((3, 2)), U=np.full((3, 2, 2), 5e-324), zero_rows=[])
def test_jacobian_action_property(y, U, zero_rows):
    for n, i in zero_rows:
        U[n, i] = 0.0
    V = _nonlinear_field()
    got = V.jac(0.0, y, U)
    expect = np.einsum("...aib,...ib->...a", V.jac(0.0, y), U)
    assert np.allclose(got, expect, rtol=0.0, atol=1e-8)
    # a state whose directions are all zero gets exactly no second-order term
    assert np.all(got[np.all(U == 0.0, axis=(1, 2))] == 0.0)


def test_davie_step_two_field_calls():
    calls = []

    def evaluator(t, y):
        calls.append(np.shape(y))
        return np.stack([y ** 2, np.sin(y), np.cos(y)], axis=-1)

    V = VectorField(evaluator)
    y = np.array([[0.3, -0.7], [1.1, 0.2]])
    g1 = np.array([0.1, -0.2, 0.05])
    g2 = 0.5 * np.outer(g1, g1) + np.array(
        [[0.0, 0.01, 0.0], [-0.01, 0.0, 0.02], [0.0, -0.02, 0.0]])
    out = davie_step(V, 0.0, y, g1, g2)
    assert calls == [(2, 2), (2, 6, 2)]
    Vm = V(0.0, y)
    expect = (y + np.einsum("...ai,i->...a", Vm, g1)
              + np.einsum("...ajb,...bi,ij->...a", V.jac(0.0, y), Vm, g2))
    assert np.allclose(out, expect, rtol=0.0, atol=1e-9)



# -- elementwise short-axis reductions ---------------------------------------

_reduction_entries = st.one_of(
    st.floats(width=64),
    st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324]))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), length=st.integers(1, 9),
       lead=st.sampled_from(["()", "(n,)", "(n, k)"]),
       n=st.integers(1, 4), k=st.integers(1, 3))
def test_short_axis_reductions_match_numpy(data, length, lead, n, k):
    """The elementwise chains equal numpy's reductions over the last axis
    bit for bit, signed zeros and subnormals included. A NaN result is
    compared as NaN only: when several NaNs meet, IEEE 754 leaves open
    which sign and payload the result carries."""
    shape = {"()": (), "(n,)": (n,), "(n, k)": (n, k)}[lead] + (length,)
    a = data.draw(arrays(float, shape, elements=_reduction_entries))
    with np.errstate(invalid="ignore", over="ignore"):
        pairs = [(_max_abs_last(a), np.max(np.abs(a), axis=-1)),
                 (_sum_last(a), np.sum(a, axis=-1))]
    for got, expect in pairs:
        got, expect = np.asarray(got), np.asarray(expect)
        assert got.shape == expect.shape
        nan = np.isnan(expect)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.int64),
                              expect[~nan].view(np.int64))


def _partly_varying_field(M):
    """Rows 0-1 constant (M), row 2 depending on y, declared by `varying`."""

    def row(t, y):
        y = np.asarray(y, dtype=float)
        return np.stack([np.sin(y[..., 0] * y[..., 2]), y[..., 1] ** 2],
                        axis=-1)[..., None, :]

    def evaluator(t, y):
        y = np.asarray(y, dtype=float)
        return np.concatenate(
            [np.broadcast_to(M, y.shape[:-1] + M.shape), row(t, y)], axis=-2)

    return VectorField(evaluator, varying=(slice(2, None), row))


def test_unbatched_state_matches_batched_row():
    """jac(along=) and davie_step on one (e,) state, where the short-axis
    reductions see 0-d rows, give the batched call's row bit for bit."""
    rng = np.random.default_rng(52)
    for V, e in ((_nonlinear_field(), 2),
                 (_partly_varying_field(rng.standard_normal((2, 2))), 3)):
        y = rng.standard_normal((4, e))
        U = rng.standard_normal((4, 2, e))
        U[1, 0] = 0.0
        g1 = rng.standard_normal(2) * 0.1
        g2 = rng.standard_normal((2, 2)) * 0.01
        batch_jac = V.jac(0.0, y, U)
        batch_step = davie_step(V, 0.0, y, g1, g2)
        for i in range(4):
            one = V.jac(0.0, y[i], U[i])
            assert one.shape == (e,)
            assert np.array_equal(one, batch_jac[i])
            assert np.array_equal(davie_step(V, 0.0, y[i], g1, g2),
                                  batch_step[i])
