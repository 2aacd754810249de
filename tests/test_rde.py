import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from roughfilter.fillin import (
    AdmissiblePair,
    RSeq,
    build_representative,
    tabulated_path_function,
)
from roughfilter.lift import RoughPath, marcus_lift, stratonovich_lift
from roughfilter.paths import CadlagPath
from roughfilter.rde import (
    _TINY,
    MARCUS_SUBSTEPS,
    RdeBlowupError,
    VectorField,
    _central_step,
    _column_sum,
    _components_first,
    _components_last,
    constant_vector_field,
    davie_step,
    flow_and_inverse,
    linear_vector_field,
    marcus_jump,
    solve_canonical_rde,
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
    sol = solve_canonical_rde(V, brownian_lift(rng), [1.0, -2.0], steps=50)
    assert np.allclose(sol.states, [1.0, -2.0])
    assert sol.scheme_meta["scheme"] == "davie2+marcus"
    with pytest.raises(ValueError, match="steps"):
        solve_canonical_rde(V, brownian_lift(rng), [1.0, -2.0], steps=0)


def test_scalar_exponential_oracle():
    V = linear_vector_field(np.ones((1, 1, 1)))
    sol = solve_canonical_rde(V, line_lift(), [1.0], steps=4000)
    assert abs(sol.states[-1, 0] - math.e) < 1e-6


def test_step_halving_second_order():
    V = linear_vector_field(np.ones((1, 1, 1)))
    errs = []
    for steps in (50, 100, 200, 400):
        sol = solve_canonical_rde(V, line_lift(), [1.0], steps=steps)
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
        sol = solve_canonical_rde(V, X, y0, steps=30)
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
    sol = solve_canonical_rde(V, X, y0, steps=7)
    # area drives the commutator direction: (I - a [B_1, B_2]) y0
    comm = B[0] @ B[1] - B[1] @ B[0]
    assert np.allclose(sol.states[-1], (np.eye(3) - a * comm) @ y0, atol=1e-13)


def test_nilpotent_closed_form_with_jumps():
    rng = np.random.default_rng(42)
    B = nilpotent_fields()
    V = linear_vector_field(B)
    y0 = np.array([1.0, 2.0, 3.0])
    X = jumpy_lift_2d(rng)
    sol = solve_canonical_rde(V, X, y0, steps=40)
    assert np.allclose(sol.states[-1], nilpotent_closed_form(B, X, y0),
                       atol=1e-12)
    assert sol.scheme_meta["scheme"] == "davie2+marcus"


def test_canonical_single_jump_exponential():
    V = linear_vector_field(np.ones((1, 1, 1)))
    x = CadlagPath([0.0, 0.5, 1.0], [[0.0], [1.0], [1.0]],
                   [[0.0], [0.0], [1.0]])
    sol = solve_canonical_rde(V, marcus_lift(x), [1.0], steps=10)
    assert sol.states[0, 0] == 1.0
    assert abs(sol.states[1, 0] - math.e) < 1e-8
    assert abs(sol.states[2, 0] - math.e) < 1e-8


def representative_gaps(V, X, layouts, y0, refinements,
                        slot_substeps=MARCUS_SUBSTEPS):
    """gaps[i, j]: the largest gap at the original sample times, relative to
    max(1, |canonical state|), between the canonical solve along X and a
    continuous solve along the representative of AdmissiblePair(X,
    **layouts[i]), at refinement j = (steps, slot_steps). The
    representative spends T_ext - T of its rescaled [0, T] in slots, so its
    solve takes steps * T_ext / T in all: each continuous chord then gets
    about as many Davie steps as in the canonical solve, and the gap is that
    of the fill-in against the Marcus flow."""
    n_jumps = int(np.sum(X.jump_flags))
    gaps = np.empty((len(layouts), len(refinements)))
    for j, (steps, slot_steps) in enumerate(refinements):
        canon = solve_canonical_rde(V, X, y0, steps, slot_substeps).states
        scale = max(1.0, float(np.max(np.abs(canon))))
        for i, layout in enumerate(layouts):
            pair = AdmissiblePair(X, **layout)
            rep = build_representative(pair, slot_steps)
            stretch = 1.0 + pair.delta * sum(
                pair.r_seq.term(k) for k in range(1, n_jumps + 1)) / X.T
            cont = solve_canonical_rde(V, rep.rough, y0, round(steps * stretch))
            gaps[i, j] = np.max(np.abs(cont.states[rep.orig_indices] - canon)) / scale
    return gaps


def test_canonical_solution_independent_of_fillin_choices():
    """Two deltas, two r_seq bases and a tabulated phi: for each, the gap to
    the solve along the representative falls at each joint refinement of
    steps and slot_steps. Measured final gaps: 5.9e-5, 1.4e-4 and 2.3e-4."""
    rng = np.random.default_rng(45)
    X = jumpy_lift_2d(rng)
    V = linear_vector_field(np.stack([np.diag([1.0, -0.5]),
                                      np.array([[0.0, 1.0], [0.2, 0.0]])]))
    layouts = (
        {},
        dict(delta=0.3, r_seq=RSeq.geometric(3.0)),
        dict(delta=0.5, phi=tabulated_path_function([0.0, 0.5, 1.0],
                                                    [0.0, 0.1, 1.0])),
    )
    # 16 RK4 substeps per unit jump size move the states by 3.5e-9 from 64 here
    gaps = representative_gaps(V, X, layouts, [1.0, 1.0],
                               ((4, 1), (16, 4), (64, 16)), slot_substeps=16)
    assert np.all(np.diff(gaps, axis=1) < 0), gaps
    assert np.max(gaps[:, -1]) < 1e-3, gaps


def test_canonical_rejects_non_marcus_jump():
    v = np.array([1.0, 0.0])
    A = np.array([[0.0, 0.3], [-0.3, 0.0]])
    from roughfilter.tensor_group import group_exp

    g = group_exp(v)
    X = RoughPath(np.array([0.0, 1.0]), np.vstack([np.zeros(2), v]),
                  np.stack([np.zeros((2, 2)), g.level2 + A]),
                  np.zeros((2, 2)), np.zeros((2, 2, 2)))
    V = constant_vector_field(np.zeros((1, 2)))
    with pytest.raises(ValueError):
        solve_canonical_rde(V, X, [0.0], steps=4)


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
            solve_canonical_rde(V, X, [3.0], steps=100)
    assert info.value.diagnostics["step_index"] >= 0


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
            solve_canonical_rde(V, X, [0.5], steps=1000)
    assert info.value.diagnostics == {"step_index": 7}


def _full_jacobian(V, t, y):
    """The Jacobian (..., e, d, e) of a field without a supplied one,
    finite-differenced column by column (2e field calls): the reference the
    directional action is checked against."""
    y = np.asarray(y, dtype=float)
    cols = []
    for b in range(y.shape[-1]):
        step = np.zeros_like(y)
        step[..., b] = 1e-6 * (1.0 + np.abs(y[..., b]))
        cols.append((V(0.0, y + step) - V(0.0, y - step))
                    / (2.0 * step[..., b])[..., None, None])
    return np.stack(cols, axis=-1)


def _in_order_action(J, U):
    """sum_{i,b} J[..., a, i, b] U[..., i, b], one Python float at a time,
    added in (i, b) order from 0.0."""
    lead = np.broadcast_shapes(J.shape[:-3], U.shape[:-2])
    J = np.broadcast_to(J, lead + J.shape[-3:])
    U = np.broadcast_to(U, lead + U.shape[-2:])
    out = np.empty(lead + J.shape[-3:-2])
    for idx in np.ndindex(out.shape):
        acc = 0.0
        for i in range(U.shape[-2]):
            for b in range(U.shape[-1]):
                acc += float(J[idx + (i, b)]) * float(U[idx[:-1] + (i, b)])
        out[idx] = acc
    return out


def test_vector_field_jacobian_fallback():
    """A field without a supplied Jacobian gives its directional action
    only; the full Jacobian is the tests' finite difference."""
    V = VectorField(lambda t, y: np.stack([y ** 2, np.sin(y)], axis=-1))
    y = np.array([0.3, -0.7])
    with pytest.raises(ValueError, match="no Jacobian"):
        V.jac(0.0, y)
    J = _full_jacobian(V, 0.0, y)
    # d V[a, 0] / d y_b = 2 y_a delta_ab; d V[a, 1] / d y_b = cos(y_a) delta_ab
    expect = np.zeros((2, 2, 2))
    for a in range(2):
        expect[a, 0, a] = 2.0 * y[a]
        expect[a, 1, a] = math.cos(y[a])
    assert np.allclose(J, expect, atol=1e-6)


def _nonlinear_field():
    return VectorField(lambda t, y: np.stack([y ** 2, np.sin(y)], axis=-1))


def test_jacobian_action_matches_full_jacobian():
    """The finite-difference action agrees with the full Jacobian's; a
    supplied Jacobian's action is the in-order sum over (i, b), here of 12
    terms, bit for bit."""
    rng = np.random.default_rng(50)
    V = _nonlinear_field()
    for shape in [(2,), (5, 2), (3, 4, 2)]:
        y = rng.standard_normal(shape)
        U = rng.standard_normal(shape[:-1] + (2, 2))
        expect = np.einsum("...aib,...ib->...a", _full_jacobian(V, 0.0, y), U)
        assert V.jac(0.0, y, U).shape == shape
        assert np.allclose(V.jac(0.0, y, U), expect, rtol=0.0, atol=1e-8)
    L = linear_vector_field(rng.standard_normal((3, 4, 4)))
    for lead in [(), (6,), (2, 3)]:
        y = rng.standard_normal(lead + (4,))
        U = rng.standard_normal(lead + (3, 4))
        got = L.jac(0.0, y, U)
        assert got.shape == y.shape
        assert got.tobytes() == _in_order_action(L.jac(0.0, y), U).tobytes()


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
    expect = np.einsum("...aib,...ib->...a", _full_jacobian(V, 0.0, y), U)
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
              + np.einsum("...ajb,...bi,ij->...a", _full_jacobian(V, 0.0, y),
                          Vm, g2))
    assert np.allclose(out, expect, rtol=0.0, atol=1e-9)



# -- ordered column sums -------------------------------------------------------

_reduction_entries = st.one_of(
    st.floats(width=64),
    st.sampled_from([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324]))


def _same_bits(got, expect):
    """Equal bit for bit; a NaN is compared as NaN only: when several NaNs
    meet, IEEE 754 leaves open which sign and payload the result carries."""
    got, expect = np.asarray(got), np.asarray(expect)
    assert got.shape == expect.shape
    nan = np.isnan(expect)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), expect[~nan].view(np.int64))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), length=st.integers(1, 9), rows=st.integers(1, 3),
       lead=st.sampled_from(["()", "(n,)", "(n, k)"]),
       n=st.integers(1, 4), k=st.integers(1, 3), floats=st.booleans())
def test_short_axis_reductions_match_numpy(data, length, rows, lead, n, k,
                                           floats):
    """The solver's sums over a few components, component-major: the
    ordered column sum equals the explicit in-order loop from 0.0 at 1, 2
    and 3+ terms, signed zeros, subnormals and infinities included, against
    per-state rows or a vector of floats; with unit weights it is numpy's
    sum over a short last axis (below 8 entries numpy adds in order from
    0.0, which the helpers of the particle-major layout relied on). One
    state's sum of more than 3 columns goes through np.add.accumulate, a
    batched one through the loop: both are drawn."""
    lead = {"()": (), "(n,)": (n,), "(n, k)": (n, k)}[lead]
    M = data.draw(arrays(float, (rows, length) + lead,
                         elements=_reduction_entries))
    v = data.draw(arrays(float, (length,) if floats else (length,) + lead,
                         elements=_reduction_entries))
    with np.errstate(invalid="ignore", over="ignore"):
        got = _column_sum(M, v)
        expect = np.empty((rows,) + lead)
        for idx in np.ndindex(expect.shape):
            acc = 0.0
            for j in range(length):
                vj = v[j] if floats else v[(j,) + idx[1:]]
                acc += float(M[(idx[0], j) + idx[1:]]) * float(vj)
            expect[idx] = acc
        _same_bits(got, expect)
        ones = _column_sum(M, np.ones(length))
        if length < 8:
            _same_bits(ones, np.sum(np.moveaxis(M, 1, -1), axis=-1))


def _floats_linear_field(A, y):
    """V[a][i] = sum_b A[i, a, b] y[b] for one state, in Python floats."""
    d, e = A.shape[:2]
    V = [[0.0] * d for _ in range(e)]
    for a in range(e):
        for i in range(d):
            acc = 0.0
            for b in range(e):
                acc += float(A[i, a, b]) * float(y[b])
            V[a][i] = acc
    return V


def _floats_davie_step(A, y, g1, g2):
    """davie_step of linear_vector_field(A) at one state, every sum over
    driver components added in order from 0.0, in Python floats."""
    d, e = A.shape[:2]
    V = _floats_linear_field(A, y)
    U = [[0.0] * e for _ in range(d)]
    for j in range(d):
        for b in range(e):
            acc = 0.0
            for i in range(d):
                acc += V[b][i] * float(g2[i, j])
            U[j][b] = acc
    out = []
    for a in range(e):
        first = 0.0
        for i in range(d):
            first += V[a][i] * float(g1[i])
        action = 0.0
        for i in range(d):
            for b in range(e):
                action += float(A[i, a, b]) * U[i][b]
        out.append(float(y[a]) + first + action)
    return out


def _floats_marcus_jump(A, y, delta, substeps):
    """marcus_jump of linear_vector_field(A) at one state: the RK4 loop with
    each slope sum_i V_i delta_i added in order from 0.0, in Python
    floats."""
    d, e = A.shape[:2]
    n = max(substeps, int(np.ceil(substeps * float(np.linalg.norm(delta)))))
    h = 1.0 / n

    def f(z):
        V = _floats_linear_field(A, z)
        out = []
        for a in range(e):
            acc = 0.0
            for i in range(d):
                acc += V[a][i] * float(delta[i])
            out.append(acc)
        return out

    z = [float(v) for v in y]
    for _ in range(n):
        k1 = f(z)
        k2 = f([zi + 0.5 * h * ki for zi, ki in zip(z, k1)])
        k3 = f([zi + 0.5 * h * ki for zi, ki in zip(z, k2)])
        k4 = f([zi + h * ki for zi, ki in zip(z, k3)])
        z = [zi + (h / 6.0) * (a + 2.0 * b + 2.0 * c + w)
             for zi, a, b, c, w in zip(z, k1, k2, k3, k4)]
    return z


@pytest.mark.parametrize("e", [1, 2, 4])
def test_three_component_driver_steps_are_in_order_sums(e):
    """With a 3-component driver, where einsum would add the three terms of
    each product in an order of its own ((p0 + p2) + p1 with numpy 2.4.6 on
    x86-64), davie_step and marcus_jump add them in column order from 0.0:
    batched states equal the Python-float loop state by state, bit for bit,
    zero coordinates included."""
    rng = np.random.default_rng(53 + e)
    A = rng.standard_normal((3, e, e)) * 0.4
    V = linear_vector_field(A)
    y = rng.standard_normal((5, e))
    y[1] = 0.0
    y[2, 0] = -0.0
    g1 = rng.standard_normal(3) * 0.3
    g2 = 0.5 * np.outer(g1, g1) + rng.standard_normal((3, 3)) * 0.01
    delta = rng.standard_normal(3) * 0.7
    step = davie_step(V, 0.0, y, g1, g2)
    jump = marcus_jump(V, 0.0, y, delta, 4)
    for i in range(5):
        assert step[i].tolist() == _floats_davie_step(A, y[i], g1, g2)
        assert jump[i].tolist() == _floats_marcus_jump(A, y[i], delta, 4)


def _partly_varying_field(M):
    """Rows 0-1 constant (M), row 2 depending on y[0] and y[1] (never on
    its own coordinate y[2]), declared by `varying`."""

    def row(t, y):
        y = np.asarray(y, dtype=float)
        return np.stack([np.sin(y[..., 0] * y[..., 1]), y[..., 1] ** 2],
                        axis=-1)[..., None, :]

    def evaluator(t, y):
        y = np.asarray(y, dtype=float)
        return np.concatenate(
            [np.broadcast_to(M, y.shape[:-1] + M.shape), row(t, y)], axis=-2)

    return VectorField(evaluator, varying=(slice(2, None), row))


def rows_only_action(V, t, y, along):
    """VectorField.jac's directional action as it was for a field that
    declares `varying`: the central differences of the varying rows alone,
    in one stacked call, and 0.0 in the constant rows. Kept as the oracle
    of the whole-field action, which must give its bits."""
    rows, field_rows = V.varying
    yc = _components_first(np.asarray(y, dtype=float))
    u = _components_first(np.asarray(along, dtype=float), 2)  # (d, e, ...)
    d = u.shape[0]
    norm = np.abs(u).max(axis=1)
    live = norm >= _TINY
    h = _central_step(np.abs(yc).max(axis=0)) / np.where(live, norm, 1.0)
    step = h[:, None] * np.where(live[:, None], u, 0.0)
    vals = _components_first(np.asarray(field_rows(
        t, _components_last(np.concatenate([yc + step, yc - step]), 2)),
        dtype=float), 3)  # (2d, rows, d, ...)
    out = np.zeros(yc.shape)
    out[rows] = sum((vals[i, :, i] - vals[d + i, :, i]) / (2.0 * h[i])
                    for i in range(d))
    return _components_last(out)


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


# -- Marcus jumps of declared fields -------------------------------------------

# The joint fields of the catalog models whose sigma2 is 1 x 1, by driver
# dimension: 1 without, 2 with the jump-path column.
_JUMP_CASES = [("linear_gaussian", 1), ("scalar_jump_diffusion", 1),
               ("stable_shot_noise", 1), ("stable_shot_noise", 2)]


def _counted(V):
    """V with counting evaluators, and the loop field of the same evaluator
    with `varying=None`; returns (declared, loop, counts)."""
    counts = {"full": 0, "varying": 0}
    rows, field_rows = V.varying

    def full(t, z):
        counts["full"] += 1
        return V.evaluator(t, z)

    def varying(t, z):
        counts["varying"] += 1
        return field_rows(t, z)

    return (VectorField(full, varying=(rows, varying)), VectorField(full),
            counts)


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(_JUMP_CASES), seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from(["(e,)", "(1, e)", "(n, e)"]),
       n=st.integers(2, 6), t=st.floats(0.0, 1.0),
       size=st.floats(0.0, 3.0), substeps=st.integers(1, 8),
       special=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 2),
                                  st.sampled_from([0.0, -0.0, 5e-324])),
                        max_size=4))
def test_declared_marcus_jump_matches_rk4_loop(case, seed, shape, n, t, size,
                                               substeps, special):
    """marcus_jump of a declared joint field equals the RK4 loop of the same
    evaluator with varying=None bit for bit, zero and subnormal coordinates
    included, and makes 1 full-field call and m `varying` calls where the
    loop makes 4m full-field calls (m RK4 substeps)."""
    from roughfilter.filtering import _joint_field
    from roughfilter.sim import get_model

    name, driver_dim = case
    model = get_model(name)
    e = model.dim_x + model.dim_y + 1
    rng = np.random.default_rng(seed)
    lead = {"(e,)": (), "(1, e)": (1,), "(n, e)": (n,)}[shape]
    z = rng.uniform(-2.0, 2.0, lead + (e,))
    flat = z.reshape(-1, e)
    for p, i, v in special:
        flat[p % len(flat), i] = v
    u = rng.standard_normal(driver_dim)
    delta = size * u / max(np.linalg.norm(u), 1e-300)
    m = max(substeps, int(np.ceil(substeps * float(np.linalg.norm(delta)))))

    declared, loop, counts = _counted(_joint_field(model, driver_dim))
    got = marcus_jump(declared, t, z, delta, substeps)
    assert counts == {"full": 1, "varying": m}
    counts.update(full=0, varying=0)
    expect = marcus_jump(loop, t, z, delta, substeps)
    assert counts == {"full": 4 * m, "varying": 0}
    assert got.shape == z.shape
    assert np.array_equal(got.view(np.int64), expect.view(np.int64))
