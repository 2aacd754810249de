"""Level-2 RDE solver (Davie scheme) for canonical RDEs driven by cadlag
geometric rough paths, with forward and inverse flows.

The canonical (Marcus) solution is defined by filling in each jump, but only
the Marcus flow along the jump's chord matters, not the fill-in (Chevyrev-Friz
2019, Canonical RDEs and general semimartingales as rough paths). So the
solver reads only the driver's own grid: Davie steps on each continuous
chord, and across each jump the time-1 flow of y' = V(y) chi, chi the level 1
of the jump's log, integrated with classical RK4 substeps (one Davie step
across a large jump would leave errors far above the jump-rule tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fillin import AdmissiblePair
from .lift import RoughPath, marcus_increment, reverse_rough_path
from .paths import CadlagPath, d_p
from .tensor_group import group_pow


class RdeBlowupError(RuntimeError):
    """Raised when a state stops being finite; `step_index` is the driver
    segment k whose Davie steps on [t_k, t_{k+1}], or whose jump at t_{k+1},
    produced it."""

    def __init__(self, message: str, step_index: int):
        super().__init__(message)
        self.step_index = step_index


# Reductions over a short last axis (a state's e entries, a step's d driver
# components) written as elementwise chains: numpy's reduce costs about 20 ns
# per row there, the chain a few ns per element. Both give the same bits:
# max is exact, and numpy adds fewer than 8 entries in order, from 0.0.


def _max_abs_last(a: np.ndarray) -> np.ndarray:
    """np.max(np.abs(a), axis=-1), bit for bit, NaN propagating."""
    out = np.abs(a[..., 0], out=np.empty(a.shape[:-1]))
    for j in range(1, a.shape[-1]):
        np.maximum(out, np.abs(a[..., j]), out=out)
    return out


def _sum_last(a: np.ndarray) -> np.ndarray:
    """np.sum(a, axis=-1), bit for bit."""
    if a.shape[-1] >= 8:  # numpy sums pairwise from 8 entries on
        return np.sum(a, axis=-1)
    out = np.add(0.0, a[..., 0], out=np.empty(a.shape[:-1]))
    for j in range(1, a.shape[-1]):
        np.add(out, a[..., j], out=out)
    return out


@dataclass(frozen=True)
class VectorField:
    """V = (V_1..V_d) as one evaluator (t, y) -> (e, d) matrix.

    The evaluator must broadcast over leading axes of y (batched states give
    batched matrices); the Jacobian is (e, d, e) with J[a, i, b] =
    dV[a, i]/dy[b]. `jac(t, y, along)` returns the Jacobian's action on
    directions instead; without a supplied Jacobian that action is a central
    directional difference per driver component. When only some rows of V
    depend on y, `varying` = (rows, evaluator of V[..., rows, :]) lets the
    action difference those rows alone: the others are constant, and their
    central differences would be exactly 0.
    """

    evaluator: callable
    jacobian: callable = field(default=None)  # type: ignore[assignment]
    varying: tuple = field(default=None)  # type: ignore[assignment]

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        return np.asarray(self.evaluator(t, y), dtype=float)

    def jac(self, t: float, y: np.ndarray, along: np.ndarray = None) -> np.ndarray:
        """The Jacobian J (..., e, d, e), or with `along` (..., d, e) its
        action sum_{i,b} J[a, i, b] along[..., i, b] as (..., e).

        Without a supplied Jacobian, J is finite-differenced column by
        column (2e field calls); the action takes the d central differences
        of V_i along along[..., i, :] in one stacked field call, of the
        `varying` rows only when they are given (the other rows get 0)."""
        y = np.asarray(y, dtype=float)
        if along is not None:
            along = np.asarray(along, dtype=float)
            if self.jacobian is not None:
                return np.einsum("...aib,...ib->...a", self.jac(t, y), along)
            rows, field_rows = self.varying or (None, self)
            d = along.shape[-2]
            norm = _max_abs_last(along)  # (..., d)
            # a direction below the smallest normal float counts as zero:
            # the step 1e-6 (1 + |y|) / norm would overflow
            live = norm >= np.finfo(float).tiny
            h = (1e-6 * (1.0 + _max_abs_last(y)[..., None])
                 / np.where(live, norm, 1.0))
            step = h[..., None] * np.where(live[..., None], along, 0.0)
            y0 = y[..., None, :]
            vals = np.asarray(
                field_rows(t, np.concatenate([y0 + step, y0 - step], axis=-2)),
                dtype=float)
            # V_i at y +/- h_i u_i: column i of stacked evaluation i
            plus = np.diagonal(vals[..., :d, :, :], axis1=-3, axis2=-1)
            minus = np.diagonal(vals[..., d:, :, :], axis1=-3, axis2=-1)
            action = _sum_last((plus - minus) / (2.0 * h[..., None, :]))
            if rows is None:
                return action
            out = np.zeros(action.shape[:-1] + y.shape[-1:])
            out[..., rows] = action
            return out
        if self.jacobian is not None:
            return np.asarray(self.jacobian(t, y), dtype=float)
        e = y.shape[-1]
        cols = []
        for b in range(e):
            step = np.zeros_like(y)
            step[..., b] = 1e-6 * (1.0 + np.abs(y[..., b]))
            cols.append((self(t, y + step) - self(t, y - step))
                        / (2.0 * step[..., b])[..., None, None])
        return np.stack(cols, axis=-1)


def linear_vector_field(mats) -> VectorField:
    """V_i(y) = A_i y for a list of (e, e) matrices A_i."""
    A = np.stack([np.asarray(m, dtype=float) for m in mats], axis=0)  # (d, e, e)

    def evaluator(t, y):
        return np.einsum("iab,...b->...ai", A, np.asarray(y, dtype=float))

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
    times: np.ndarray
    states: np.ndarray  # (n, e)
    scheme_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        s = np.asarray(self.states, dtype=float)
        if s.ndim == 1:
            s = s[:, None]
        if s.shape[0] != len(t):
            raise ValueError("states and times must align")
        if not np.all(np.isfinite(s)):
            raise ValueError("non-finite states")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "states", s)

    def as_path(self) -> CadlagPath:
        return CadlagPath(self.times, self.states, None, "linear")


def davie_step(V: VectorField, t: float, y: np.ndarray, g1: np.ndarray,
               g2: np.ndarray) -> np.ndarray:
    """y + V(y) g1 + sum_j DV_j(y)[u_j] with u_j = sum_i V_i(y) g2[i, j]:
    the second-order term needs the Jacobian only along d directions."""
    Vm = V(t, y)
    U = np.einsum("...bi,ij->...jb", Vm, g2)
    return y + np.einsum("...ai,i->...a", Vm, g1) + V.jac(t, y, U)


def marcus_jump(V: VectorField, t: float, y: np.ndarray, delta: np.ndarray,
                substeps: int = 64) -> np.ndarray:
    """Time-1 flow of y' = V(y) delta by classical RK4 with `substeps` steps
    (more for large jumps)."""
    nrm = float(np.linalg.norm(delta))
    n = max(substeps, int(np.ceil(substeps * nrm)))
    h = 1.0 / n

    def f(z):
        return np.einsum("...ai,i->...a", V(t, z), delta)

    z = np.asarray(y, dtype=float).copy()
    for _ in range(n):
        k1 = f(z)
        k2 = f(z + 0.5 * h * k1)
        k3 = f(z + 0.5 * h * k2)
        k4 = f(z + h * k3)
        z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return z


def solve_canonical_rde(V: VectorField, pair: AdmissiblePair, y0, steps: int,
                        slot_substeps: int = 64) -> RdeSolution:
    """Canonical RDE along the driver's own grid, states at its sample times.

    Segment k takes about steps * (t_{k+1} - t_k) / T Davie steps on equal
    geodesic parts of its continuous chord; a jump at t_{k+1} is then
    crossed by the Marcus time-1 flow along the level 1 of its log. The
    solve reads only these chords and jump logs, never a filled slot, which
    is why r_seq, delta and the path function of `pair` drop out. A state
    that stops being finite raises RdeBlowupError naming segment k."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    X = pair.rough
    jumps = np.nonzero(X.jump_flags)[0]
    jump_logs = dict(zip(jumps.tolist(), marcus_increment(X, jumps)))
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
            raise RdeBlowupError(f"state blew up at step {k}", k)
        out.append(y.copy())
    return RdeSolution(X.times, np.asarray(out),
                       {"scheme": "davie2+marcus", "steps_total": total,
                        "slot_substeps": slot_substeps})


def flow_and_inverse(V: VectorField, X: RoughPath, x_grid, steps: int):
    """phi(T, x) for each start x, plus the inverse-flow residuals
    |psi(T, phi(T, x)) - x| from solving along the time-reversed driver."""
    Xrev = reverse_rough_path(X)
    xg = np.atleast_2d(np.asarray(x_grid, dtype=float))
    phis = np.empty_like(xg)
    residuals = np.empty(len(xg))
    for i, x0 in enumerate(xg):
        fwd = solve_canonical_rde(V, AdmissiblePair(X), x0, steps)
        phis[i] = fwd.states[-1]
        back = solve_canonical_rde(V, AdmissiblePair(Xrev), fwd.states[-1], steps)
        residuals[i] = float(np.max(np.abs(back.states[-1] - x0)))
    return phis, residuals


@dataclass(frozen=True)
class StabilityReport:
    sol_dist: float
    driver_dist: float
    ratio: float


def stability_probe(V: VectorField, X: AdmissiblePair, Y: AdmissiblePair, y0,
                    steps: int, p: float = 2.5,
                    delta_seq=(1.0, 0.5)) -> StabilityReport:
    """Empirical Lipschitz probe: solution distance, beta_p driver distance,
    and their ratio (NaN when the drivers coincide)."""
    from .fillin import beta_p as _beta_p

    sx = solve_canonical_rde(V, X, y0, steps)
    sy = solve_canonical_rde(V, Y, y0, steps)
    sol = d_p(sx.as_path(), sy.as_path(), min(p, 2.99))
    drv = _beta_p(X, Y, p, delta_seq).estimate
    ratio = sol / drv if drv > 1e-15 else float("nan")
    return StabilityReport(float(sol), float(drv), float(ratio))

