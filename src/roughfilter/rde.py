"""Level-2 RDE solver (Davie scheme) for canonical RDEs driven by cadlag
geometric rough paths, with forward and inverse flows.

The canonical (Marcus) solution is defined by filling in each jump, but only
the Marcus flow along the jump's chord matters, not the fill-in (Chevyrev-Friz
2019, Canonical RDEs and general semimartingales as rough paths). So the
solver takes the driver itself, not an admissible pair, and reads only its
own grid: Davie steps on each continuous chord, and across each jump the
time-1 flow of y' = V(y) chi, chi the level 1 of the jump's log, integrated
with classical RK4 substeps (one Davie step across a large jump would leave
errors far above the jump-rule tolerance). A continuous solve along a
fill-in's representative tends to the same states as its steps and slot
steps refine, whatever the fill-in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lift import RoughPath, marcus_increment, reverse_rough_path
from .tensor_group import group_pow


class NumericalAbort(RuntimeError):
    """A numerical failure that stops a run. Every abort type is a subclass
    built as NumericalAbort(message, diagnostics); the CLI catches this base
    and reports `diagnostics` in its aborted manifest."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


class RdeBlowupError(NumericalAbort):
    """Raised when a state stops being finite; diagnostics["step_index"] is
    the driver segment k whose Davie steps on [t_k, t_{k+1}], or whose jump
    at t_{k+1}, produced it."""


# RK4 substeps per unit jump size of a Marcus time-1 flow
MARCUS_SUBSTEPS = 64


def _central_step(size):
    """The central-difference step 1e-6 (1 + size) at a state of magnitude
    `size`: of VectorField.jac and filtering.flow_map."""
    return 1e-6 * (1.0 + size)


_TINY = np.finfo(float).tiny


def _column_sum(M, v):
    """sum_j M[:, j] v[j] in column order from 0.0 (a -0.0 product reads
    +0.0), M (rows, cols, ...) and v (cols, ...): every per-step product.
    One state's product of over 3 columns takes np.add.accumulate, the same
    adds at less dispatch; a batch always loops (README)."""
    if M.ndim == 2 and np.ndim(v) == 1 and len(v) > 3:
        terms = M * v
        terms[:, 0] += 0.0
        return np.add.accumulate(terms, axis=1)[:, -1]
    out = M[:, 0] * v[0]
    out += 0.0
    for j in range(1, len(v)):
        out += M[:, j] * v[j]
    return out


def _column_product(M):
    """v -> _column_sum(M, v) for a fixed M, bit for bit, its columns split
    once: the product of a declared matrix at every step."""
    first, rest = M[:, 0], [(j, M[:, j]) for j in range(1, M.shape[1])]

    def product(v):
        out = first * v[0]
        out += 0.0
        for j, column in rest:
            out += column * v[j]
        return out

    return product


def _components_first(a, core: int = 1):
    """a (..., core axes) as a view (core axes, ...)."""
    return a.transpose(*range(a.ndim - core, a.ndim), *range(a.ndim - core))


def _components_last(a, core: int = 1):
    """a (core axes, ...) as a view (..., core axes)."""
    return a.transpose(*range(core, a.ndim), *range(core))


@dataclass(frozen=True)
class VectorField:
    """V = (V_1..V_d) as one evaluator (t, y) -> (e, d) matrix.

    The evaluator must broadcast over leading axes of y (batched states give
    batched matrices; the solver, component-major inside, passes views
    y (..., e)); the Jacobian is (e, d, e) with J[a, i, b] =
    dV[a, i]/dy[b]. `jac(t, y, along)` returns the Jacobian's action on
    directions instead; without a supplied Jacobian that action is a central
    directional difference per driver component. When only some rows of V
    depend on y, `varying` = (rows, evaluator of V[..., rows, :]) declares
    that the other rows are constant and that the varying rows read none of
    their own coordinates (the joint (X, Y, I) field's h row reads X and Y,
    never I); marcus_jump, its one reader, then evaluates those rows alone
    along coordinates it knows in advance. The action differences the
    whole field: a constant row differences to exactly 0.0.
    """

    evaluator: callable
    jacobian: callable = field(default=None)  # type: ignore[assignment]
    varying: tuple = field(default=None)  # type: ignore[assignment]

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        return np.asarray(self.evaluator(t, y), dtype=float)

    def jac(self, t: float, y: np.ndarray, along: np.ndarray = None) -> np.ndarray:
        """The supplied Jacobian J (..., e, d, e), or with `along` (..., d, e)
        its action sum_{i,b} J[a, i, b] along[..., i, b] (..., e): a column
        sum, or else the d central differences of V_i along along[..., i, :]
        in one stacked call."""
        y = np.asarray(y, dtype=float)
        if along is None:
            if self.jacobian is None:
                raise ValueError("no Jacobian supplied; pass `along`")
            return np.asarray(self.jacobian(t, y), dtype=float)
        u = _components_first(np.asarray(along, dtype=float), 2)  # (d, e, ...)
        d = u.shape[0]
        if self.jacobian is not None:
            J = _components_first(self.jac(t, y), 3)  # (e, d, e, ...)
            return _components_last(_column_sum(
                J.reshape((len(J), -1) + J.shape[3:]),
                u.reshape((-1,) + u.shape[2:])))
        yc = _components_first(y)
        norm = np.abs(u).max(axis=1)  # (d, ...)
        # a direction below the smallest normal float counts as zero:
        # the step 1e-6 (1 + |y|) / norm would overflow
        live = norm >= _TINY
        h = _central_step(np.abs(yc).max(axis=0)) / np.where(live, norm, 1.0)
        step = h[:, None] * np.where(live[:, None], u, 0.0)
        vals = _components_first(self(
            t, _components_last(np.concatenate([yc + step, yc - step]), 2)),
            3)  # (2d, e, d, ...)
        # V_i at y +/- h_i u_i: column i of stacked evaluation i
        return _components_last(sum((vals[i, :, i] - vals[d + i, :, i]) / (2.0 * h[i])
                                    for i in range(d)))


def linear_vector_field(mats) -> VectorField:
    """V_i(y) = A_i y for a list of (e, e) matrices A_i."""
    A = np.stack([np.asarray(m, dtype=float) for m in mats], axis=0)  # (d, e, e)
    M = A.transpose(1, 2, 0)  # M[a, b, i] = A_i[a, b]

    def evaluator(t, y):
        y = np.asarray(y, dtype=float)
        return _components_last(_column_sum(
            M.reshape(M.shape + (1,) * (y.ndim - 1)), _components_first(y)), 2)

    def jacobian(t, y):
        y = np.asarray(y, dtype=float)
        J = np.transpose(A, (1, 0, 2))  # (e, d, e)
        return np.broadcast_to(J, y.shape[:-1] + J.shape)

    return VectorField(evaluator, jacobian)


def constant_vector_field(mat) -> VectorField:
    """V(y) = const (e, d) matrix."""
    M = np.asarray(mat, dtype=float)

    def evaluator(t, y):
        y = np.asarray(y, dtype=float)
        return np.broadcast_to(M, y.shape[:-1] + M.shape)

    def jacobian(t, y):
        y = np.asarray(y, dtype=float)
        J = np.zeros(M.shape + (M.shape[0],))
        return np.broadcast_to(J, y.shape[:-1] + J.shape)

    return VectorField(evaluator, jacobian)


@dataclass(frozen=True)
class RdeSolution:
    """The states of a canonical RDE solve, made by solve_canonical_rde,
    the one place that checks them finite (segment by segment)."""

    times: np.ndarray
    states: np.ndarray  # (times, e), or (times, n, e) for n start states
    scheme_meta: dict = field(default_factory=dict)


def davie_step(V: VectorField, t: float, y: np.ndarray, g1: np.ndarray,
               g2: np.ndarray) -> np.ndarray:
    """y + V(y) g1 + sum_j DV_j(y)[u_j] with u_j = sum_i V_i(y) g2[i, j]:
    the second-order term needs the Jacobian only along d directions."""
    y = np.asarray(y, dtype=float)
    Vm = _components_first(V(t, y), 2)  # (e, d, ...)
    U = _column_sum(Vm[:, :, None], g2.reshape(g2.shape + (1,) * (Vm.ndim - 2)))
    return _components_last(
        _components_first(y) + _column_sum(Vm, g1)
        + _components_first(V.jac(t, y, _components_last(U.swapaxes(0, 1), 2))))


def marcus_jump(V: VectorField, t: float, y: np.ndarray, delta: np.ndarray,
                substeps: int = MARCUS_SUBSTEPS) -> np.ndarray:
    """Time-1 flow of y' = V(y) delta by classical RK4 with `substeps` steps
    (more for large jumps), marched component-major.

    For a field that declares `varying`, the constant rows have the same
    slope c at every stage, taken from one full-field call; so their
    increment (h/6)(c + 2c + 2c + c) and the stage points z, z + (h/2) c and
    z + h c of the coordinates the varying rows read are known up front.
    As those rows read none of their own coordinates, their slopes at the
    second and third stages coincide, and each substep takes one `varying`
    call on 3 stacked states per state, combined in the RK4 order below: the
    same bits as the loop of full-field calls."""
    n = max(substeps, int(np.ceil(substeps * float(np.linalg.norm(delta)))))
    h = 1.0 / n

    def f(z):
        return _column_sum(_components_first(V(t, _components_last(z)), 2), delta)

    z = _components_first(np.asarray(y, dtype=float)).copy()
    if V.varying is not None:
        rows, field_rows = V.varying
        c = f(z)
        c[rows] = 0.0
        step = (h / 6.0) * (c + 2.0 * c + 2.0 * c + c)
        half, full = 0.5 * h * c, h * c
        stages = np.empty((3,) + z.shape)
        for _ in range(n):
            stages[0] = z
            np.add(z, half, out=stages[1])
            np.add(z, full, out=stages[2])
            k1, k2, k4 = _column_sum(_components_first(field_rows(  # (3, ..., e)
                t, stages.transpose(0, *range(2, stages.ndim), 1)), 2),
                delta).swapaxes(0, 1)
            k22 = 2.0 * k2  # 2 k2 and 2 k3 of the loop, k3 being k2
            zr = z[rows] + (h / 6.0) * (k1 + k22 + k22 + k4)
            z += step
            z[rows] = zr
        return _components_last(z)
    for _ in range(n):
        k1 = f(z)
        k2 = f(z + 0.5 * h * k1)
        k3 = f(z + 0.5 * h * k2)
        k4 = f(z + h * k3)
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return _components_last(z)


def _jump_logs(X: RoughPath) -> dict:
    """The level 1 of each jump's log by grid index, from one
    marcus_increment call on all jumps: a non-Marcus jump raises here."""
    jumps = np.nonzero(X.jump_flags)[0]
    return dict(zip(jumps.tolist(), marcus_increment(X, jumps)))


def solve_canonical_rde(V: VectorField, X: RoughPath, y0, steps: int,
                        slot_substeps: int = MARCUS_SUBSTEPS) -> RdeSolution:
    """Canonical RDE along the driver's own grid, states at its sample times.

    Segment k takes about steps * (t_{k+1} - t_k) / T Davie steps on equal
    geodesic parts of its continuous chord; a jump at t_{k+1} is then
    crossed by the Marcus time-1 flow along the level 1 of its log. The
    solve reads only these chords and jump logs, so it takes the driver
    and no fill-in (r_seq, delta or path function). A state that stops
    being finite raises RdeBlowupError naming segment k.

    `y0` is one start state (e,), giving states (times, e), or n start
    states (n, e) solved together, giving states (times, n, e); each start
    takes the same steps as it would alone."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    jump_logs = _jump_logs(X)
    dts = np.diff(X.times)
    T = X.T if X.T > 0 else 1.0
    nsubs = np.maximum(1, np.ceil(steps * dts / T - 1e-12)).astype(int)
    seg = np.arange(len(nsubs))
    subs = group_pow(X.increment(seg, seg + 1, left_j=True), 1.0 / nsubs)
    y = np.asarray(y0, dtype=float).copy()
    out = [y.copy()]
    total = 0
    for k, nsub in enumerate(nsubs.tolist()):
        for j in range(nsub):
            t = X.times[k] + dts[k] * j / nsub
            y = davie_step(V, float(t), y, subs.level1[k], subs.level2[k])
        total += nsub
        if k + 1 in jump_logs:
            y = marcus_jump(V, float(X.times[k + 1]), y, jump_logs[k + 1],
                            slot_substeps)
            total += 1
        if not np.all(np.isfinite(y)):
            raise RdeBlowupError(f"state blew up at step {k}", {"step_index": k})
        out.append(y.copy())
    return RdeSolution(X.times, np.asarray(out),
                       {"scheme": "davie2+marcus", "steps_total": total,
                        "slot_substeps": slot_substeps})


def flow_and_inverse(V: VectorField, X: RoughPath, x_grid, steps: int):
    """phi(T, x) for each start x, plus the inverse-flow residuals
    |psi(T, phi(T, x)) - x| from solving along the time-reversed driver:
    one forward and one backward solve over all starts together."""
    xg = np.atleast_2d(np.asarray(x_grid, dtype=float))
    phis = solve_canonical_rde(V, X, xg, steps).states[-1]
    back = solve_canonical_rde(V, reverse_rough_path(X), phis, steps).states[-1]
    return phis, np.max(np.abs(back - xg), axis=-1)

