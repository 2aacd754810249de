"""Level-2 RDE solver (Davie scheme) for continuous geometric drivers, forward
and inverse flows, and canonical RDEs for cadlag drivers via fill-in.

Canonical solves treat fictitious jump slots by the Marcus rule: the state is
carried across each jump by the time-1 flow of y' = V(y) * delta, integrated
with classical RK4 substeps (one Davie step across a large jump would leave
errors far above the jump-rule tolerance). Slot results depend only on the
jump chord, so solutions are invariant under the r_seq/delta slot layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fillin import AdmissiblePair, build_representative
from .lift import RoughPath, marcus_increment, reverse_rough_path
from .paths import CadlagPath, d_p
from .tensor_group import group_pow


class RdeBlowupError(RuntimeError):
    """Raised when a state stops being finite; carries the failing step."""

    def __init__(self, message: str, step_index: int):
        super().__init__(message)
        self.step_index = step_index


@dataclass(frozen=True)
class VectorField:
    """V = (V_1..V_d) as one evaluator (t, y) -> (e, d) matrix.

    The evaluator must broadcast over leading axes of y (batched states give
    batched matrices); the Jacobian is (e, d, e) with J[a, i, b] =
    dV[a, i]/dy[b]. `jac(t, y, along)` returns the Jacobian's action on
    directions instead; without a supplied Jacobian that action is a central
    directional difference per driver component.
    """

    evaluator: callable
    jacobian: callable = field(default=None)  # type: ignore[assignment]
    lipschitz_gamma: float = field(default=None)  # type: ignore[assignment]

    def __call__(self, t: float, y: np.ndarray) -> np.ndarray:
        return np.asarray(self.evaluator(t, y), dtype=float)

    def jac(self, t: float, y: np.ndarray, along: np.ndarray = None) -> np.ndarray:
        """The Jacobian J (..., e, d, e), or with `along` (..., d, e) its
        action sum_{i,b} J[a, i, b] along[..., i, b] as (..., e).

        Without a supplied Jacobian, J is finite-differenced column by
        column (2e field calls); the action takes the d central differences
        of V_i along along[..., i, :] in one stacked field call."""
        y = np.asarray(y, dtype=float)
        if along is not None:
            along = np.asarray(along, dtype=float)
            if self.jacobian is not None:
                return np.einsum("...aib,...ib->...a", self.jac(t, y), along)
            d = along.shape[-2]
            norm = np.max(np.abs(along), axis=-1)  # (..., d)
            # a direction below the smallest normal float counts as zero:
            # the step 1e-6 (1 + |y|) / norm would overflow
            live = norm >= np.finfo(float).tiny
            h = (1e-6 * (1.0 + np.max(np.abs(y), axis=-1, keepdims=True))
                 / np.where(live, norm, 1.0))
            step = h[..., None] * np.where(live[..., None], along, 0.0)
            y0 = y[..., None, :]
            vals = self(t, np.concatenate([y0 + step, y0 - step], axis=-2))
            # V_i at y +/- h_i u_i: column i of stacked evaluation i
            plus = np.diagonal(vals[..., :d, :, :], axis1=-3, axis2=-1)
            minus = np.diagonal(vals[..., d:, :, :], axis1=-3, axis2=-1)
            return np.sum((plus - minus) / (2.0 * h[..., None, :]), axis=-1)
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

    return VectorField(evaluator, jacobian, lipschitz_gamma=np.inf)


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

    return VectorField(evaluator, jacobian, lipschitz_gamma=np.inf)


@dataclass(frozen=True)
class RdeSolution:
    times: np.ndarray
    states: np.ndarray  # (n, e)
    driver_ref: str = ""
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


def _subdivided_segments(R: RoughPath, times: np.ndarray, steps: int):
    """Per grid segment of R: the number of Davie substeps, about `steps`
    over `times`, and the equal geodesic part exp(log(g)/nsub) of its
    increment g."""
    T = times[-1] if times[-1] > 0 else 1.0
    nsub = np.maximum(1, np.ceil(steps * np.diff(times) / T - 1e-12)).astype(int)
    k = np.arange(len(nsub))
    return nsub, group_pow(R.increment(k, k + 1), 1.0 / nsub)


def _check_finite(y: np.ndarray, step_index: int):
    if not np.all(np.isfinite(y)):
        raise RdeBlowupError(f"state blew up at step {step_index}", step_index)


def solve_continuous_rde(V: VectorField, X: RoughPath, y0, steps: int,
                         driver_ref: str = "") -> RdeSolution:
    """March the Davie level-2 scheme along the driver grid, refined so the
    total step count is about `steps` over [0, T]."""
    if X.has_jumps():
        raise ValueError("driver has jumps; use solve_canonical_rde")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    y = np.asarray(y0, dtype=float).copy()
    out = [y.copy()]
    nsubs, subs = _subdivided_segments(X, X.times, steps)
    total = 0
    for k, nsub in enumerate(nsubs.tolist()):
        dt = X.times[k + 1] - X.times[k]
        for j in range(nsub):
            t = X.times[k] + dt * j / nsub
            y = davie_step(V, t, y, subs.level1[k], subs.level2[k])
            total += 1
        _check_finite(y, k)
        out.append(y.copy())
    return RdeSolution(X.times, np.asarray(out), driver_ref,
                       {"scheme": "davie2", "steps_total": total})


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
                        slot_substeps: int = 64,
                        driver_ref: str = "") -> RdeSolution:
    """Canonical RDE: continuous representative for the continuous stretches,
    Marcus time-1 jump flows for the slots, states reported at the original
    sample times."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    rep = build_representative(pair, slot_steps=1)
    R = rep.rough
    X = pair.rough
    slot_start = {seg[0]: seg for seg in rep.slot_segments}
    y = np.asarray(y0, dtype=float).copy()
    states_at = {0: y.copy()}
    nsubs, subs = _subdivided_segments(R, rep.orig_times, steps)
    total = 0
    k = 0
    while k < len(nsubs):
        if k in slot_start:
            _, end_idx, jump_idx = slot_start[k]
            chi1 = marcus_increment(X, int(jump_idx))
            t_jump = rep.orig_times[k]
            y = marcus_jump(V, float(t_jump), y, chi1, slot_substeps)
            _check_finite(y, k)
            total += 1
            states_at[end_idx] = y.copy()
            k = end_idx
            continue
        dt_orig = rep.orig_times[k + 1] - rep.orig_times[k]
        nsub = int(nsubs[k])
        for j in range(nsub):
            t = rep.orig_times[k] + dt_orig * j / nsub
            y = davie_step(V, float(t), y, subs.level1[k], subs.level2[k])
            total += 1
        _check_finite(y, k)
        states_at[k + 1] = y.copy()
        k += 1
    states = np.asarray([states_at[i] for i in rep.orig_indices])
    return RdeSolution(X.times, states, driver_ref,
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
        fwd = solve_continuous_rde(V, X, x0, steps)
        phis[i] = fwd.states[-1]
        back = solve_continuous_rde(V, Xrev, fwd.states[-1], steps)
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


def write_solution_csv(sol: RdeSolution, path: str) -> None:
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        e = sol.states.shape[1]
        w.writerow(["t"] + [f"y{i + 1}" for i in range(e)])
        for t, row in zip(sol.times, sol.states):
            w.writerow([repr(float(t))] + [repr(float(v)) for v in row])
