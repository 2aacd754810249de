"""Particle evaluation of the robust filtering functionals.

Computes g^f = E[f(X_t, Y_t) exp(I_t)] and theta = g^f / g^1 by Monte Carlo
over auxiliary noise, with the observation entering only through a level-2
rough driver (the lift of the reconstructed Brownian input plus the observed
jump record), so the map from driver to filter value is deterministic. One
particle sweep serves three routes that differ only in how the common noise
is stepped: the rough driver, a direct particle filter on the raw
observation path as a cross-check, and the scalar flow-transformed route.
Also provides the interpolation robustness experiment and the small-jump
truncation stability experiment.

The observed atoms reach every route as one table (times, marks), as
realized_observation builds it, and the sweep maps it once to (segment,
mark) rows, as it does the auxiliary table.

Per-particle reference-measure dynamics of the rough route, marched on the
driver grid:

    dX = (b1 - sigma1 h - int f1 dnu1 - int f3 lambda dnu2) dt
         + sigma0 dB             (fresh auxiliary Brownian, Heun step)
         + (sigma1 | f3) d eta   (joint Davie level-2 step on the lift)
         + f1 dN_p               (auxiliary atoms, applied at segment ends)
         + f3 dn                 (observed atoms)
    dY = (b2 - sigma2 h - int f2 lambda dnu2) dt + (sigma2 | f2) d eta
         + f2 dn
    dI = (-|h|^2 / 2 + int (1 - lambda) dnu2) dt + (h | 0) d eta
         + log lambda dn

with h = sigma2^{-1}(b2 + int f2 (1 - lambda) dnu2). dt integrands use the
left endpoint; d eta terms use one Davie step per grid segment, whose
second-order term differences the joint field along one direction per
driver component (one stacked call), and Marcus time-1 flows across driver
jumps. When the driver has d_Y + 1 components the extra column carries the
observed jump path and the loadings f3, f2 must be linear in the mark.

A model declares which coefficients are constant by how it builds them
(sim._const for sigma0, sigma1, sigma2 and lambda_fn; sim._linear_mark for
jump loadings linear in the mark; sim._linear_state for drifts linear in
the signal, as every catalog model does), and declared ones skip work: the
joint field's constant rows are built once and only its h row is
differenced, or flowed across a driver jump; sigma2 is applied as its
matrix or kept inverse; the flow route takes the closed form x + sigma1 w;
declared jump loadings and lambda are evaluated at the marks once per
model, and with lambda_fn, f2 and f3 all declared every nu2 integral is one
kept vector. When b2 is linear too and h's nu2 term is state-free (the
three lambda = 1 models), h = H x + h0 is affine, the Davie step is
closed-form and one RK4 substep per unit jump size is the exact Marcus flow
(see _RoughRoute). Plain callables are evaluated and differenced in full.
One reference-rate call evaluates a plain lambda once per atom of nu2 for
the drift compensators, h and the (1 - lambda) weight rate together.

sim._Bound works out the form of each coefficient once per model, and each
route binds its step once, in its constructor (_Route): it keeps what is
the same at every step and picks the Davie step the model's forms allow, so
that a step makes only the numpy calls those forms need.

The sweep holds its particles component-major, x (d_X, N), y (d_Y, N) and
the joint state (e, N). Every per-step product (sigma0 dB, sigma1 dW, sigma
h, a declared drift, h . h, h . g1, rde's sums over driver components) is an
ordered column sum from 0.0 (rde._column_sum); one that is the same for all
particles, such as a declared sigma1 dW, is a column (d, 1). Plain callables
keep their protocol: they get the views x.T, y.T.

A sweep draws the auxiliary noise of all its particles in one call,
aux_sampler(seed_base, N) -> (dB, (segment, particle, mark)): the nu1 atoms
are one table, rows sorted by segment, then particle, then time, and each
step applies its segment's slice of rows by one rule on all three routes
(_Route.aux_jumps); the flow route then pulls each particle that jumped
back through phi(-W) once. The default draws one block from
SeedSequence(seed_base) (gaussian_poisson_sampler, scheme AUX_STREAM), and
per_seed_sampler adapts a sampler keyed by one seed per particle. The
estimates are taken from log weights shifted by their maximum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fillin import AdmissiblePair, beta_p
from .lift import (
    RoughPath,
    marcus_increment,
    marcus_lift,
    rho_p,
    stratonovich_lift,
)
from .paths import P_VAR, CadlagPath, _step_path
from .rde import (
    NumericalAbort,
    VectorField,
    _central_step,
    _column_sum,
    _components_last,
    davie_step,
    marcus_jump,
)
from .sim import (
    MARK_LINEARITY_TOL,
    LevyMeasure,
    ModelSpec,
    _accepted_nu2,
    _atom_path,
    _const_matrix,
    _declared_matrix,
    _mark_linearity_defect,
    _moved,
    _observed_lambda,
    _state_matrix,
    h_function,
    make_noise_bundle,
    reconstruct_wtilde,
    shot_noise,
    simulate_pair,
)

# The log-weight abort threshold of the sweeps, the experiments and the CLI
# (their p-variation exponent is paths.P_VAR).
ABORT_LOG_WEIGHT = 60.0


class ParticleBlowupError(NumericalAbort):
    """A particle state left the finite range; its diagnostics name which
    one and when."""


class WeightAbortError(NumericalAbort):
    """A log weight crossed the abort threshold. Weights are never clipped;
    the run stops and reports the extremes instead."""


class DegenerateWeightsError(NumericalAbort):
    """The normalizing estimate g^1 came out nonpositive or non-finite."""


# -- test functions and estimates ------------------------------------------


# Test functions f(x, y) by CLI name; each broadcasts over the leading axes
# of x and y.
FUNCTION_CATALOG = {
    "identity": lambda x, y: x[..., 0],
    "one": lambda x, y: np.full(x.shape[:-1], 1.0),
    "square": lambda x, y: x[..., 0] ** 2,
    "sin": lambda x, y: np.sin(x[..., 0]),
}


@dataclass(frozen=True)
class McEstimate:
    value: float
    stderr: float
    n: int


def _mc(values: np.ndarray) -> McEstimate:
    values = np.asarray(values, dtype=float)
    n = len(values)
    se = float(np.std(values, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return McEstimate(float(np.mean(values)), se, n)


@dataclass(frozen=True)
class FilterResult:
    g_f: McEstimate
    g_1: McEstimate
    theta: float
    theta_se: float
    particles: int
    seed_base: int
    driver_meta: dict = field(default_factory=dict)


# -- auxiliary noise --------------------------------------------------------


# The scheme of the default auxiliary draw, written into every CLI manifest;
# it names what a change of the default stream has to change.
AUX_STREAM = ("block/v1: SeedSequence(seed_base).spawn(3); "
              "dB = standard_normal((N, n_seg, d_B)) * sqrt(dt); "
              "counts = poisson(nu1 rate * T, N); "
              "atoms = random((sum(counts), 2)) rows (time, mark cdf), "
              "time-ordered within each particle")


# The table of a draw without auxiliary atoms.
_NO_ATOMS = (np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros((0, 1)))


def gaussian_poisson_sampler(model: ModelSpec, times: np.ndarray):
    """Default auxiliary sampler on a grid: sample(seed_base, N) returns the
    fresh Brownian increments for sigma0 of N particles, dB of shape
    (N, n_seg, d_B), and their nu1 atoms as one table (segment, particle,
    mark): int arrays (K,), (K,) and the marks (K, d_u), rows sorted by
    segment, then particle, then time. An atom applies at its segment's
    right endpoint (AUX_STREAM names the scheme).

    SeedSequence(seed_base) spawns three independent streams: the first
    draws dB in one standard_normal block (particle-major), the second the
    per-particle atom counts from poisson(nu1 rate * T, N), the third one
    random((K, 2)) row per atom holding its time uniform and its mark
    uniform, which picks the mark by nu1.pick_marks, the simulator's mark
    rule. So the draw is deterministic in
    (seed_base, N), the first N particles of a draw of N' >= N are the
    draw of N (common random numbers across particle counts), and distinct
    seed_base values give independent clouds."""
    times = np.asarray(times, dtype=float)
    n_seg = len(times) - 1
    sq = np.sqrt(np.diff(times))[:, None]
    jumps = model.nu1 is not None
    if jumps:
        mean_count = model.nu1.total_rate * float(times[-1] - times[0])

    def sample(seed_base: int, N: int):
        noise, counts_ss, rows_ss = np.random.SeedSequence(seed_base).spawn(3)
        dB = np.random.default_rng(noise).standard_normal((N, n_seg, model.dim_b))
        dB *= sq
        if not jumps:
            return dB, _NO_ATOMS
        counts = np.random.default_rng(counts_ss).poisson(mean_count, N)
        rows = np.random.default_rng(rows_ss).random((int(counts.sum()), 2))
        particle = np.repeat(np.arange(N), counts)
        at = times[0] + (times[-1] - times[0]) * rows[:, 0]
        seg = np.clip(np.searchsorted(times, at, side="left") - 1, 0, n_seg - 1)
        order = np.lexsort((at, particle, seg))
        return dB, (seg[order], particle[order], model.nu1.pick_marks(rows[order, 1]))

    return sample


def per_seed_sampler(sample):
    """Adapt a per-seed sampler, sample(seed) -> (dB (n_seg, d_B),
    [(segment, mark)]), to the block protocol of gaussian_poisson_sampler:
    particle i draws from seed seed_base + i, and its atoms join the table
    in the order sample lists them (a stable sort by segment). Each dB is
    copied in and dropped, so the N per-seed arrays are never held at
    once."""

    def block(seed_base: int, N: int):
        dB_all, rows = None, []
        for i in range(N):
            dB, atoms = sample(seed_base + i)
            dB = np.asarray(dB)
            if dB_all is None:
                dB_all = np.empty((N,) + dB.shape, dtype=dB.dtype)
            dB_all[i] = dB
            rows += [(int(s), i, np.atleast_1d(np.asarray(u, dtype=float))) for s, u in atoms]
        rows.sort(key=lambda row: row[0])  # stable: a segment keeps the rows' order
        return dB_all, tuple(map(np.array, zip(*rows))) if rows else _NO_ATOMS

    return block


def _checked_draw(draw, N: int, n_seg: int, m_end: int, dim_b: int):
    """A block sampler's draw (dB, (segment, particle, mark)) as arrays,
    checked once per sweep: dB of shape (N, >= m_end, d_B), the table's
    shape by _checked_table, segment non-decreasing within [0, n_seg) and
    particle within [0, N). A violation raises ValueError naming the
    field."""
    dB, table = draw
    dB = np.asarray(dB)
    if dB.ndim != 3 or dB.shape[0] != N or dB.shape[1] < m_end or dB.shape[2] != dim_b:
        raise ValueError(f"aux sampler: dB has shape {dB.shape}, not "
                         f"({N}, >= {m_end}, {dim_b})")
    seg, particle, mark = _checked_table("aux sampler", ("segment", "particle", "mark"), table)
    if len(seg) and (seg[0] < 0 or seg[-1] >= n_seg or np.any(seg[1:] < seg[:-1])):
        raise ValueError(f"aux sampler: segment is not non-decreasing "
                         f"within [0, {n_seg})")
    if len(particle) and (particle.min() < 0 or particle.max() >= N):
        raise ValueError(f"aux sampler: particle is not within [0, {N})")
    return dB, (seg, particle, mark)


def _checked_table(what: str, names: tuple, table) -> list:
    """The columns of an atom table as arrays, checked: one per name (not a
    dict), the last, the marks, 2-d, the others 1-d, all of one length; else
    ValueError naming the field. The one shape check of the auxiliary and
    the observed tables."""
    if isinstance(table, dict) or len(table) != len(names):
        raise ValueError(f"{what}: atoms must be a table ({', '.join(names)})")
    columns = [np.asarray(c) for c in table]
    for name, column in zip(names, columns):
        ndim = 2 if name == names[-1] else 1
        if column.ndim != ndim:
            raise ValueError(f"{what}: {name} has shape {column.shape}, not "
                             + ("(K, d_u)" if ndim == 2 else "(K,)"))
    if len({len(c) for c in columns}) > 1:
        raise ValueError(f"{what}: {', '.join(names)} have lengths "
                         + ", ".join(str(len(c)) for c in columns))
    return columns


def _kept_columns(model: ModelSpec, mark: np.ndarray) -> np.ndarray:
    """Each auxiliary row's column among a declared f1's kept values: the
    mark of nu1.marks() whose float64 bits the row's mark has, else -1 (off
    nu1's support, or f1 plain)."""
    rows = np.ascontiguousarray(mark, dtype=float).view(np.uint64)
    if model._bound_batch.f1:
        bits = np.ascontiguousarray(model.nu1.marks(), dtype=float).view(np.uint64)
        if rows.shape[1] == bits.shape[1]:
            hit = (rows[:, None, :] == bits[None]).all(axis=2)
            return np.where(hit.any(axis=1), hit.argmax(axis=1), -1)
    return np.full(len(rows), -1)


# -- joint vector field and rates ------------------------------------------


_UNIT_MARK = np.array([1.0])


def _joint_field(model: ModelSpec, driver_dim: int) -> VectorField:
    """The (X, Y, I) loading matrix against the driver: rows (sigma1,
    sigma2, h), plus a jump-path column (f3, f2, 0) at unit mark when the
    driver has one extra component. When sigma1, sigma2 (and, at that
    column, f3 and f2) are declared constant, only the h row depends on the
    state: the other rows are built once, as one constant block, and the
    field's directional action and Marcus flow evaluate the h row alone.
    The jump-path column needs f3 and f2 linear in a 1-d mark
    (sim._mark_linearity_defect); a model that is not raises ValueError."""
    dx, dy = model.dim_x, model.dim_y
    extra = driver_dim - dy
    if extra not in (0, 1):
        raise ValueError(
            f"driver dimension {driver_dim} must be d_Y={dy} or d_Y+1")
    if extra:
        defect = _mark_linearity_defect(model)
        if not defect <= MARK_LINEARITY_TOL:
            raise ValueError(
                "a driver that joins the jump path needs f3 and f2 linear in "
                f"a 1-d mark; their relative defect is {defect:.3g}")

    def h_row(t, z):
        z = np.asarray(z, dtype=float)
        h = h_function(model, t, z[..., :dx], z[..., dx:dx + dy])
        if extra:
            h = np.concatenate([h, np.zeros(h.shape[:-1] + (1,))], axis=-1)
        return h[..., None, :]

    def loading_rows(t, z):
        x, y = z[..., :dx], z[..., dx:dx + dy]
        s1 = np.asarray(model.sigma1(t, x, y), dtype=float)
        s2 = np.asarray(model.sigma2(t, y), dtype=float)
        rows = np.concatenate(
            [s1, np.broadcast_to(s2, x.shape[:-1] + (dy, dy))], axis=-2)
        if extra:
            cx = np.asarray(model.f3(t, x, y, _UNIT_MARK), dtype=float)
            cy = np.broadcast_to(
                np.asarray(model.f2(t, y, _UNIT_MARK), dtype=float),
                x.shape[:-1] + (dy,))
            col = np.concatenate([cx, cy], axis=-1)[..., None]
            rows = np.concatenate([rows, col], axis=-1)
        return rows

    kept = [_const_matrix(model.sigma1), _const_matrix(model.sigma2)] + (
        [_declared_matrix(model.f3), _declared_matrix(model.f2)] if extra else [])
    declared = all(m is not None for m in kept)
    block = loading_rows(0.0, np.zeros(dx + dy)) if declared else None

    def evaluator(t, z):
        z = np.asarray(z, dtype=float)
        h = h_row(t, z)  # laid out component-major, as the solver reads it
        out = _components_last(np.empty((dx + dy + 1, driver_dim) + h.shape[:-2]), 2)
        out[..., :dx + dy, :] = loading_rows(t, z) if block is None else block
        out[..., dx + dy:, :] = h
        return out

    return VectorField(evaluator, varying=(slice(dx + dy, None), h_row) if declared else None)


# -- jump records -----------------------------------------------------------


def _normalize_record(jump_record, times: np.ndarray, t: float):
    """Observed atoms up to t as a table (segment, mark) like the auxiliary
    one, from the table (times, marks) of accepted atoms or None (not a
    JumpRecord, whose candidates predate thinning), checked by
    _checked_table. A row past t + tol is dropped; else it takes the nearer
    grid time around it, the earlier on a tie (np.argmin's choice), and at
    index i it is in segment i - 1. The first row, in input order, off the
    grid or at the initial time raises ValueError. Rows are in a stable
    sort by segment."""
    if jump_record is None:
        return _NO_ATOMS[::2]
    at, mark = (np.asarray(c, dtype=float) for c in
                _checked_table("jump record", ("times", "marks"), jump_record))
    tol = _grid_tol(times)
    keep = ~(at > t + tol)  # a NaN time stays, to raise as off the grid
    at, mark = at[keep], mark[keep]
    upper = np.clip(times.searchsorted(at), 1, len(times) - 1)
    i = upper - (at - times[upper - 1] <= times[upper] - at)
    off = ~(np.abs(times[i] - at) <= tol)
    bad = off | (i == 0)
    if bad.any():
        a = int(bad.argmax())
        if off[a]:
            raise ValueError(f"observed atom at t={float(at[a])} is not on the driver grid")
        raise ValueError("observed atom at the initial time")
    order = np.argsort(i, kind="stable")
    return i[order] - 1, mark[order]


def _grid_tol(times: np.ndarray) -> float:
    """The tolerance 1e-9 max(1, T) within which a time is on the driver
    grid `times`: of _normalize_record and _grid_index_of."""
    return 1e-9 * max(1.0, float(times[-1]))


def _grid_index_of(times: np.ndarray, t: float) -> int:
    i = int(np.argmin(np.abs(times - t)))
    if abs(times[i] - t) > _grid_tol(times):
        raise ValueError(f"horizon at t={t} is not on the driver grid")
    return i


# -- the particle sweep -----------------------------------------------------

JUMP_SUBSTEPS = 8  # RK4 substeps per unit size of a driver jump's Marcus flow
FLOW_SUBSTEPS = 16  # RK4 substeps per unit |w| of the scalar flow map


class _Route:
    """One way of stepping the common noise between grid times. A route holds
    the particle state component-major: `x` (d_X, N) and `y` (d_Y, N) are the
    signal and observation values that jumps and weights see.
    `carries_atoms` says whether the route's driver carries the observed
    jump path, so that the sweep must not apply the observed atoms again.

    A route binds its step at construction, in its __init__: it takes the
    model's coefficients as sim._Bound has bound them for component-major
    batches (declared matrix, kept sigma2 divisor or inverse, kept nu1 atom
    sum and nu2 integrals, or plain callable), and works out once what is
    the same at every step (a kept sigma0 dB for both Heun stages, a kept
    sigma1 dW, the affine route's chord moves), so that `advance` makes only
    the numpy calls that the model's forms need."""

    carries_atoms = False

    def __init__(self, model: ModelSpec):
        self.model, self.bound = model, model._bound_batch
        self.sigma0_kept = _const_matrix(model.sigma0) is not None

    def start(self, N: int):
        self.x, self.y = (np.repeat(np.array(v)[:, None], N, axis=1)
                          for v in (self.model.x0, self.model.y0))

    @cached_property
    def kept_f1(self) -> np.ndarray:
        """A declared f1's kept values, one column per mark of nu1."""
        return np.concatenate(self.bound.f1, axis=1)

    def aux_jumps(self, t1: float, particle, mark, column):
        """One segment's rows of the auxiliary table: X jumps by f1, each
        particle's atoms in their order, in place on the view `x`. This is
        the one auxiliary-jump rule of all three routes. With every row's
        kept column (_kept_columns) on nu1's support, a declared f1 adds its
        kept values by one np.add.at, which applies a repeated particle once
        per row, in order; a plain f1, or a row off the support, is
        evaluated atom by atom."""
        x, y = self.x, self.y
        if column.min() >= 0:
            np.add.at(x, (slice(None), particle), self.kept_f1[:, column])
            return
        for i, u in zip(particle.tolist(), mark):
            x[:, i] += np.asarray(self.model.f1(t1, x[:, i], y[:, i], u))

    def observed_jump(self, t1: float, mark):
        """An observed nu2 atom moves X by f3."""
        self.x = self.x + _moved(self.model.f3(t1, self.x.T, self.y.T, mark), 1, self.x)

    def driver_jump(self, k: int, logw):
        """The driver's jump at grid index k + 1, if any; returns logw."""
        return logw

    def end(self, m_end: int):
        return self.x, self.y

    def meta(self, m_end: int) -> dict:
        return {"route": self.name}


def _inner(a, b):
    """sum_i a[i] b[i] over the component axis, in order from 0.0."""
    return _column_sum(a[None], b)[0]


def _affine_h(model: ModelSpec, V: VectorField):
    """H with h = H x + h0, when the joint field's only varying row is
    affine: V declares `varying`, b2 is built by _linear_state and h's nu2
    term does not depend on the state (no atomic nu2, or lambda_fn and f2
    declared). Else None. H = sigma2^{-1} C goes through h's own sigma2
    solve."""
    C = _state_matrix(model.b2)
    if V.varying is None or C is None:
        return None
    if isinstance(model.nu2, LevyMeasure) and not (
            _declared_matrix(model.lambda_fn) is not None
            and _declared_matrix(model.f2) is not None):
        return None
    return model._bound_batch.solve(0.0, None, C)


class _RoughRoute(_Route):
    """Along a level-2 driver: Heun steps for the dt and sigma0 dB terms, one
    Davie step of the joint (X, Y, I) state per segment, and Marcus time-1
    flows across driver jumps.

    When h = H x + h0 is affine (_affine_h), X and Y have constant loadings
    and the Davie step is closed-form: X and Y move by block @ g1 and I by
    h . g1 + c2, where c2 = sum_{j < d_Y} (H block_X g2)_{jj} is the exact
    second-order term, the same for every particle. So a step takes one h
    evaluation and no finite difference, and the route takes it in place
    of rde.davie_step. Across a jump the X and Y slope is constant and
    the I slope is linear in the flow time, so one RK4 substep (per unit
    jump size) is the exact Marcus flow."""

    def __init__(self, model: ModelSpec, driver: RoughPath):
        super().__init__(model)
        self.driver, self.times = driver, driver.times
        self.V = _joint_field(model, driver.dim)
        self.carries_atoms = driver.dim > model.dim_y
        self.jumps = driver.jump_flags.tolist()
        k = np.arange(len(driver.times) - 1)
        self.chords = driver.increment(k, k + 1, left_j=True)
        H = _affine_h(model, self.V)
        self.affine = H is not None
        self.jump_substeps = 1 if self.affine else JUMP_SUBSTEPS
        if self.affine:
            dx, dy = model.dim_x, model.dim_y
            block = self.V(0.0, np.zeros(dx + dy + 1))[:dx + dy]
            g1, g2 = self.chords.level1, self.chords.level2
            dxy = np.einsum("ai,ki->ka", block, g1)[..., None]
            self.dX, self.dY = dxy[:, :dx], dxy[:, dx:]
            self.gh = g1[:, :dy]
            self.c2 = np.einsum("ji,kij->k", H @ block[:dx], g2[:, :, :dy])

    def _unpack(self, z):
        """Take X and Y from the joint state (e, N); returns the weight I."""
        dx, dy = self.model.dim_x, self.model.dim_y
        self.x, self.y = z[:dx], z[dx:dx + dy]
        return z[dx + dy]

    def advance(self, k: int, t0: float, t1: float, dB, logw):
        rates, sigma0 = self.bound.reference_rates, self.bound.sigma0_dot
        x, y, dt = self.x, self.y, t1 - t0
        bx0, by0, h0, comp0 = rates(t0, x, y)
        logw = logw + (-0.5 * _inner(h0, h0) + comp0) * dt
        s0dB = sigma0(t0, x, y, dB)
        d1x = bx0 * dt + s0dB
        d1y = by0 * dt
        x1, y1 = x + d1x, y + d1y
        bx1, by1, _, _ = rates(t1, x1, y1)
        if not self.sigma0_kept:
            s0dB = sigma0(t1, x1, y1, dB)
        d2x = bx1 * dt + s0dB
        d2y = by1 * dt
        x = x + 0.5 * (d1x + d2x)
        y = y + 0.5 * (d1y + d2y)
        return self.davie(k, t0, x, y, logw)

    def davie(self, k: int, t: float, x, y, logw):
        """The Davie step of the joint state (x, y, logw) along chord k;
        returns the log weight. The closed form, when h is affine, is
        chosen by a flag: a bound method kept on the route would make it a
        reference cycle, which holds its particles until the collector
        runs."""
        if self.affine:
            h = self.bound.h(t, x, y)
            self.x = x + self.dX[k]
            self.y = y + self.dY[k]
            return logw + _inner(h, self.gh[k]) + self.c2[k]
        z = np.concatenate([x, y, logw[None]])
        return self._unpack(davie_step(self.V, t, z.T, self.chords.level1[k],
                                       self.chords.level2[k]).T)

    def observed_jump(self, t1: float, mark):
        """X moves by f3 and Y by f2."""
        super().observed_jump(t1, mark)
        self.y = self.y + _moved(self.model.f2(t1, self.y.T, mark), 1, self.y)

    def driver_jump(self, k: int, logw):
        if not self.jumps[k + 1]:
            return logw
        chi1 = marcus_increment(self.driver, k + 1)
        z = np.concatenate([self.x, self.y, logw[None]])
        return self._unpack(marcus_jump(self.V, float(self.times[k + 1]), z.T,
                                        chi1, self.jump_substeps).T)

    def meta(self, m_end: int) -> dict:
        return {"dim": self.driver.dim,
                "driver_jumps": int(np.sum(self.driver.jump_flags[:m_end + 1]))}


class _ObservationRoute(_Route):
    """Driven by the raw observation path: the Brownian input W is
    reconstructed from it, a segment sees the observation at its left end
    (y0) and its left limit at the right end (y), and the weight takes the
    trapezoid rule in h against dW."""

    def __init__(self, model: ModelSpec, obs: CadlagPath):
        super().__init__(model)
        self.obs = obs
        self.wt = reconstruct_wtilde(model, obs)
        self.times = self.wt.times
        self.dW = np.diff(self.wt.values, axis=0)

    def start(self, N: int):
        super().start(N)
        self.observe(N)

    def observe(self, N: int):
        """The observation's values and left limits laid out for N
        particles once: views (d_Y, grid, N) whose step k is (d_Y, N)."""
        shape = (self.model.dim_y, len(self.times), N)
        self.ys, self.ys_pre = (np.broadcast_to(v.T[:, :, None], shape)
                                for v in (self.obs.values, self.obs.pre_values))

    def advance(self, k: int, t0: float, t1: float, dB, logw):
        dW = self.dW[k]
        self.y0, self.y = self.ys[:, k], self.ys_pre[:, k + 1]
        dt = t1 - t0
        h0, comp0 = self._heun(k, t0, t1, dt, dB)
        h1 = self.bound.h(t1, self.x, self.y)
        logw = logw + 0.5 * _inner(h0 + h1, dW)
        logw = logw - 0.25 * (_inner(h0, h0) + _inner(h1, h1)) * dt
        return logw + comp0 * dt

    def end(self, m_end: int):
        """Terminal (X, Y), Y being the observation at the horizon."""
        return self.x, self.ys[:, m_end]


class _DirectRoute(_ObservationRoute):
    """Plain level-1 Heun steps in dt, sigma0 dB and sigma1 dW (no lift)."""

    name = "direct"

    def __init__(self, model: ModelSpec, obs: CadlagPath):
        super().__init__(model, obs)
        # a declared sigma1 dW is the same for every particle: one column
        # (d_X, 1) per segment, all taken here by the product of each step
        self.s1dW = None
        if _const_matrix(model.sigma1) is not None:
            s1dW = self.bound.sigma1_dot(0.0, None, None, self.dW.T)
            self.s1dW = [s1dW[:, k:k + 1] for k in range(len(self.dW))]

    def _heun(self, k: int, t0: float, t1: float, dt: float, dB):
        """Step X over the segment; returns h and the lambda compensator at
        its start."""
        bound, x, y0, y1, dW = self.bound, self.x, self.y0, self.y, self.dW[k]
        bx0, _, h0, comp0 = bound.reference_rates(t0, x, y0, signal=True)
        s0dB = bound.sigma0_dot(t0, x, y0, dB)
        s1dW = (bound.sigma1_dot(t0, x, y0, dW) if self.s1dW is None
                else self.s1dW[k])
        d1 = bx0 * dt + s0dB + s1dW
        x1 = x + d1
        bx1 = bound.reference_rates(t1, x1, y1, signal=True)[0]
        if not self.sigma0_kept:
            s0dB = bound.sigma0_dot(t1, x1, y1, dB)
        if self.s1dW is None:
            s1dW = bound.sigma1_dot(t1, x1, y1, dW)
        d2 = bx1 * dt + s0dB + s1dW
        self.x = x + 0.5 * (d1 + d2)
        return h0, comp0


class _FlowRoute(_ObservationRoute):
    """Scalar models only: X = phi(W, X~) with phi the one-parameter flow of
    sigma1, so the particles carry X~ through Heun steps with the drift and
    sigma0 pulled back by d phi / dx. Auxiliary atoms move X = phi by the
    rule of the other routes (_Route.aux_jumps on the view phi[None]);
    each particle that jumped is then pulled back once through phi(-W),
    and only those particles are flowed forward again."""

    name = "flow"

    def __init__(self, model: ModelSpec, obs: CadlagPath):
        self.s = _scalar_sigma1(model)
        super().__init__(model, obs)
        self.w = self.wt.values[:, 0].tolist()

    @property
    def x(self):
        return self.phi[None]

    def start(self, N: int):
        self.observe(N)
        self.xt = np.full(N, float(self.model.x0[0]))
        self.phi, self.dphi = flow_map(self.s, self.w[0], self.xt)

    def _heun(self, k: int, t0: float, t1: float, dt: float, dB):
        bound, s, y0, y1 = self.bound, self.s, self.y0, self.y
        self.w1 = w1 = self.w[k + 1]
        dB = dB[0]
        x0, dphi0 = self.x, self.dphi
        bx0, _, h0, comp0 = bound.reference_rates(t0, x0, y0, signal=True)
        s0 = bound.sigma0(t0, x0, y0)[0, 0]
        d1 = (bx0[0] / dphi0) * dt + (s0 / dphi0) * dB
        phiP, dphiP = flow_map(s, w1, self.xt + d1)
        xP = phiP[None]
        bx1 = bound.reference_rates(t1, xP, y1, signal=True)[0]
        if not self.sigma0_kept:
            s0 = bound.sigma0(t1, xP, y1)[0, 0]
        d2 = (bx1[0] / dphiP) * dt + (s0 / dphiP) * dB
        self.xt = self.xt + 0.5 * (d1 + d2)
        self.phi, self.dphi = flow_map(s, w1, self.xt)
        return h0, comp0

    def aux_jumps(self, t1: float, particle, mark, column):
        """X jumps by f1 as on the other routes; X~ follows through phi(-W).
        An unmoved particle's phi and dphi are already phi(W, X~) from the
        Heun step."""
        super().aux_jumps(t1, particle, mark, column)
        moved = np.unique(particle)
        self.xt[moved] = flow_map(self.s, -self.w1, self.phi[moved])[0]
        self.phi[moved], self.dphi[moved] = flow_map(self.s, self.w1, self.xt[moved])

    def observed_jump(self, t1: float, mark):
        """f3 = 0 (checked at construction): an observed atom only
        reweights."""


def _sweep(model: ModelSpec, route, f: callable, t: float, jump_record,
           particles: int, seed_base: int, aux_sampler,
           abort_log_weight: float) -> FilterResult:
    """March all particles along the route's grid up to t and estimate the
    filter from their terminal (X, Y, log weight). Each step runs the route's
    continuous step, the auxiliary atoms, the observed atoms (lambda weight,
    then the route's move), the driver's Marcus jump and the finiteness
    check, one test of the stacked state (X, Y, log weight)."""
    if particles < 1:
        raise ValueError("particles must be >= 1")
    times = route.times
    m_end = _grid_index_of(times, t)
    if m_end == 0:
        raise ValueError("horizon t must be positive on the driver grid")
    obs_seg, obs_marks = _normalize_record(jump_record, times, t)
    if route.carries_atoms and len(obs_marks):
        raise ValueError("the driver carries the observed jump path; its atoms up "
                         "to t must not come again as a jump record")
    if aux_sampler is None:
        aux_sampler = gaussian_poisson_sampler(model, times[:m_end + 1])
    dB_all, (seg, particle, mark) = _checked_draw(
        aux_sampler(seed_base, particles), particles, len(times) - 1, m_end,
        model.dim_b)
    aux_at, obs_at = (np.searchsorted(s, np.arange(m_end + 1)).tolist()
                      for s in (seg, obs_seg))
    column = _kept_columns(model, mark)
    grid = times.tolist()

    route.start(particles)
    logw = np.zeros(particles)
    for k, lo, hi in zip(range(m_end), aux_at, aux_at[1:]):
        t1 = grid[k + 1]
        logw = route.advance(k, grid[k], t1, dB_all[:, k, :].T, logw)
        if hi > lo:
            route.aux_jumps(t1, particle[lo:hi], mark[lo:hi], column[lo:hi])
        for u in obs_marks[obs_at[k]:obs_at[k + 1]]:
            if isinstance(model.nu2, LevyMeasure):
                logw = logw + np.log(_observed_lambda(model, t1, route.x.T, u))
            route.observed_jump(t1, u)
        logw = route.driver_jump(k, logw)

        if not np.isfinite(np.concatenate([route.x, route.y, logw[None]])).all():
            finite = (np.isfinite(route.x).all(axis=0)
                      & np.isfinite(route.y).all(axis=0) & np.isfinite(logw))
            i = int(np.argmin(finite))
            raise ParticleBlowupError(
                f"particle {i} blew up at step {k} (t={t1})",
                {"particle_index": i, "step_index": k})

    amax = float(np.max(np.abs(logw)))
    if amax > abort_log_weight:
        i = int(np.argmax(np.abs(logw)))
        raise WeightAbortError(
            f"log weight {amax:.2f} of particle {i} exceeds the abort "
            f"threshold {abort_log_weight}",
            {"max_log_weight": float(np.max(logw)),
             "min_log_weight": float(np.min(logw)),
             "particle_index": i, "threshold": abort_log_weight})
    x, y = route.end(m_end)
    meta = {**route.meta(m_end), "grid_points": int(m_end + 1),
            "observed_atoms": len(obs_marks), "t": float(t)}
    return _result_from_sweep(f, x.T, y.T, logw, meta, particles, seed_base)


def _result_from_sweep(f: callable, x, y, logw, meta, particles,
                       seed_base) -> FilterResult:
    """Estimates from the terminal log weights, shifted by their maximum:
    theta, its standard error and the Kish effective sample size
    (sum w)^2 / sum w^2 are shift-invariant, and g^f, g^1 are scaled back
    by exp(max log w)."""
    lmax, lmin = float(np.max(logw)), float(np.min(logw))
    w = np.exp(logw - lmax)
    fw = np.asarray(f(x, y), dtype=float) * w
    shifted_f, shifted_1 = _mc(fw), _mc(w)
    scale = float(np.exp(lmax))
    g_f, g_1 = (McEstimate(e.value * scale, e.stderr * scale, e.n)
                for e in (shifted_f, shifted_1))
    if not np.isfinite(g_1.value) or g_1.value <= 0.0:
        raise DegenerateWeightsError(
            f"g^1 estimate {g_1.value} is not a positive number",
            {"max_log_weight": lmax, "min_log_weight": lmin,
             "n_nonfinite": int(np.sum(logw > np.log(np.finfo(float).max)))})
    th = shifted_f.value / shifted_1.value
    n = len(w)
    if n > 1:
        th_se = float(np.std(fw - th * w, ddof=1)
                      / (shifted_1.value * np.sqrt(n)))
    else:
        th_se = 0.0
    meta = {**meta, "ess": float(np.sum(w) ** 2 / np.sum(w * w)),
            "min_log_weight": lmin, "max_log_weight": lmax}
    return FilterResult(g_f, g_1, th, th_se, particles, seed_base, meta)


# -- public functionals -----------------------------------------------------


def theta(model: ModelSpec, f: callable, obs_driver, jump_record,
          t: float, particles: int, seed_base: int, aux_sampler=None,
          abort_log_weight: float = ABORT_LOG_WEIGHT) -> FilterResult:
    """The filter value theta = g^f / g^1 with both estimates from one
    particle sweep along the rough observation driver (common random
    numbers), plus a delta-method standard error for the ratio. The test
    function f(x, y) is a plain callable that broadcasts over the leading
    axes of x and y (FUNCTION_CATALOG names four). jump_record is the
    table (times, marks) of accepted observed atoms on the driver grid,
    realized_observation's `jump_record`, or None. A driver with d_Y + 1
    components carries the observed jump path, and the joint field moves X
    and Y across its jumps: then a jump_record row at or before t raises
    ValueError, since the sweep would apply that atom a second time.
    aux_sampler, by default gaussian_poisson_sampler on the grid up to t, is
    called once as aux_sampler(seed_base, particles) -> (dB, (segment,
    particle, mark)), the atoms as one table sorted by segment, then
    particle, then time; per_seed_sampler adapts a per-seed sampler."""
    return _sweep(model, _RoughRoute(model, obs_driver), f, t, jump_record,
                  particles, seed_base, aux_sampler, abort_log_weight)


# -- direct particle filter on the raw observation -------------------------


def direct_reference_filter(model: ModelSpec, f: callable,
                            obs: CadlagPath, jump_record, t: float,
                            particles: int, seed_base: int, aux_sampler=None,
                            abort_log_weight: float = ABORT_LOG_WEIGHT) -> FilterResult:
    """Weighted particle filter driven by the raw observation path: the
    Brownian input is reconstructed from obs and used through plain level-1
    Heun steps (no rough lift), with trapezoid h quadrature for the weight.
    Serves as an independently discretized estimate of the same conditional
    expectation. jump_record is theta's table, or None:
    realized_observation's `atoms`."""
    return _sweep(model, _DirectRoute(model, obs), f, t, jump_record,
                  particles, seed_base, aux_sampler, abort_log_weight)


# -- observation records from simulation -----------------------------------


def realized_observation(model: ModelSpec, t: float, steps: int, seed: int,
                         epsilon: float = None):
    """Simulate the physical pair once and package what the filter sees:
    the observation path, the rough driver (Stratonovich lift of the
    reconstructed Brownian input; in the infinite-activity regime the
    Marcus lift of that input joined with the observed jump path) and the
    accepted observed atoms as one table `atoms` = (times, marks), float
    arrays (K,) and (K, d_u): the rows of the nu2 record that survived
    thinning. `jump_record`, theta's argument, is `atoms`, or the empty
    table when the driver carries the atoms."""
    noise = make_noise_bundle(model, t, steps, seed, epsilon=epsilon,
                              measure="physical")
    X, Y = simulate_pair(model, noise)
    rec2 = noise.pp_jumps["nu2"]
    accepted = _accepted_nu2(model, noise, X)
    atoms = (rec2.times[accepted], rec2.marks[accepted])
    wt = reconstruct_wtilde(model, Y)
    if model.regime == "infinite_jumps":
        xi = _atom_path(wt.times, atoms[0], atoms[1][:, 0])
        driver = _jump_joined_lift(wt.times, wt.values, xi)
        record = tuple(a[:0] for a in atoms)
    else:
        driver = stratonovich_lift(wt)
        record = atoms
    return {"X": X, "Y": Y, "wtilde": wt, "driver": driver,
            "jump_record": record, "atoms": atoms, "noise": noise}


def _jump_joined_lift(times: np.ndarray, w, xi: CadlagPath) -> RoughPath:
    """The infinite-activity driver: the Marcus lift of the continuous input
    w (its values on `times`) joined with the jump path xi on that grid."""
    vals = np.column_stack([w, xi.values])
    pre = np.column_stack([w, xi.pre_values])
    return marcus_lift(CadlagPath(times, vals, pre, "linear"))


# -- consistency check ------------------------------------------------------


# Observation seed s runs both sweeps of the consistency check from
# seed_base _CONSISTENCY_SEED + 1000 s.
_CONSISTENCY_SEED = 90001


def robust_consistency_check(model: ModelSpec, f: callable, t: float,
                             particles: int, seeds, grid: int,
                             epsilon: float = None,
                             abort_log_weight: float = ABORT_LOG_WEIGHT) -> dict:
    """For each observation seed: simulate the physical pair, lift the
    realized observation, and compare theta along the lift against the
    direct reference-measure particle filter on the raw path. PASS means
    the gap is within three combined standard errors."""
    rows = []
    for seed in seeds:
        obs = realized_observation(model, t, grid, seed, epsilon=epsilon)
        th = theta(model, f, obs["driver"], obs["jump_record"], t,
                   particles, _CONSISTENCY_SEED + 1000 * seed,
                   abort_log_weight=abort_log_weight)
        dr = direct_reference_filter(model, f, obs["Y"], obs["atoms"],
                                     t, particles, _CONSISTENCY_SEED + 1000 * seed,
                                     abort_log_weight=abort_log_weight)
        gap = abs(th.theta - dr.theta)
        comb = float(np.sqrt(th.theta_se ** 2 + dr.theta_se ** 2))
        rows.append({"seed": int(seed), "theta_rough": th.theta,
                     "theta_direct": dr.theta, "se_rough": th.theta_se,
                     "se_direct": dr.theta_se, "gap": gap,
                     "combined_se": comb, "pass": bool(gap <= 3.0 * comb)})
    n_pass = sum(r["pass"] for r in rows)
    return {"rows": rows, "n_pass": n_pass, "n_seeds": len(rows),
            "all_pass": n_pass == len(rows)}


# -- scalar flow route ------------------------------------------------------


def _scalar_sigma1(model: ModelSpec):
    """The scalar common-noise loading: its value when sigma1 is declared
    constant, else a function of x alone. Rejects time- or
    observation-dependent loadings, common jumps that feed the signal and
    non-scalar models."""
    if model.dim_x != 1 or model.dim_y != 1:
        raise ValueError(
            "flow decomposition needs commuting driver fields; only scalar "
            "models (d_X = d_Y = 1) are supported")
    probe_x = np.array([[0.3], [-1.1], [2.0]])
    y_a = np.zeros((3, 1))
    pf3 = np.asarray(model.f3(0.0, probe_x, y_a, _UNIT_MARK), dtype=float)
    if np.any(pf3 != 0.0):
        raise ValueError(
            "common jumps feed the signal (f3 != 0); the scalar flow route "
            "only transforms the Brownian common noise")
    const = _const_matrix(model.sigma1)
    if const is not None:
        return float(const[0, 0])
    va = np.asarray(model.sigma1(0.0, probe_x, y_a), dtype=float)
    vb = np.asarray(model.sigma1(0.3, probe_x, np.full((3, 1), 0.7)),
                    dtype=float)
    if not np.allclose(va, vb, rtol=0.0, atol=1e-12):
        raise ValueError(
            "sigma1 depends on t or y; the scalar flow route needs an "
            "autonomous loading sigma1(x)")

    def s(xflat):
        xcol = np.asarray(xflat, dtype=float)[:, None]
        return np.asarray(model.sigma1(0.0, xcol, np.zeros_like(xcol)),
                          dtype=float)[..., 0, 0]

    return s


def flow_map(s, w: float, x: np.ndarray, substeps: int = FLOW_SUBSTEPS):
    """The one-parameter flow dphi/dv = s(phi) from 0 to w (signed) and its
    x-derivative at starting points x (1-d). Returns (phi, dphi_dx).

    A constant loading s (a number) has the closed form phi = x + s w,
    dphi_dx = 1. A callable s is integrated by classical RK4, vectorized
    over x: the state (phi, J) steps as one (2, n) array, and each stage
    evaluates s once, on phi and its two central difference neighbours
    filled into one (3, n) buffer."""
    x = np.asarray(x, dtype=float)
    if not callable(s):
        return x + s * w, np.ones_like(x)
    n = max(substeps, int(np.ceil(substeps * abs(w))))
    hh = w / n
    state = np.stack([x, np.ones_like(x)])
    stage = np.empty((3,) + x.shape)

    def rate(z):
        p, j = z
        eps = _central_step(np.abs(p))
        stage[0] = p
        np.add(p, eps, out=stage[1])
        np.subtract(p, eps, out=stage[2])
        sv = s(stage.reshape(-1)).reshape(stage.shape)
        k = np.empty_like(z)
        k[0] = sv[0]
        k[1] = (sv[1] - sv[2]) / (2.0 * eps) * j
        return k

    for _ in range(n):
        k1 = rate(state)
        k2 = rate(state + 0.5 * hh * k1)
        k3 = rate(state + 0.5 * hh * k2)
        k4 = rate(state + hh * k3)
        state = state + (hh / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return state[0], state[1]


def scalar_flow_filter_detail(model: ModelSpec, f: callable,
                              obs: CadlagPath, particles: int, seed_base: int,
                              jump_record=None, aux_sampler=None) -> FilterResult:
    """Filter value at the end of obs through the flow decomposition:
    X_t = phi(W_t, X~_t) with phi the one-parameter flow of sigma1 evaluated
    at the reconstructed Brownian input, and X~ solving the transformed SDE
    with pulled-back drift, diffusion, and auxiliary jumps. Independent of
    the rough-driver route; only for scalar models whose common noise is
    Brownian. jump_record is the observed-atom table (times, marks) of
    theta, or None."""
    route = _FlowRoute(model, obs)
    return _sweep(model, route, f, float(route.times[-1]), jump_record,
                  particles, seed_base, aux_sampler, ABORT_LOG_WEIGHT)


# -- interpolation robustness ----------------------------------------------


def mesh_lifts(obs: dict, t: float, mesh: int):
    """Subsample the reconstructed Brownian input of a realized observation
    at mesh + 1 equal steps on [0, t] and lift both interpolants, tabulated
    on those times plus the observed atom times: (Stratonovich lift of the
    linear one, Marcus lift of the rectangular one, which holds each
    sample until the next). The driver of an infinite-activity observation
    joins the observed jump path, which these lifts would drop: such an
    observation raises ValueError."""
    if obs["driver"].dim != obs["wtilde"].dim:
        raise ValueError("mesh_lifts needs a driver without a joined jump "
                         "path (finite-activity observations only)")
    sub_times = np.linspace(0.0, t, int(mesh) + 1)
    grid = np.union1d(sub_times, obs["jump_record"][0])
    sub_vals = obs["wtilde"].evaluate(sub_times)
    lin = np.column_stack([np.interp(grid, sub_times, v) for v in sub_vals.T])
    return (stratonovich_lift(CadlagPath(grid, lin, None, "linear")),
            marcus_lift(_step_path(grid, sub_times[1:], sub_vals)))


def trend_non_increasing(values, slacks) -> bool:
    """Whether a column is non-increasing up to per-entry noise allowances:
    values[k+1] <= values[k] + hypot(slacks[k], slacks[k+1]) for all k."""
    v = [float(x) for x in values]
    s = [float(x) for x in slacks]
    if len(v) != len(s):
        raise ValueError("values and slacks must have equal length")
    return all(v[k + 1] <= v[k] + float(np.hypot(s[k], s[k + 1]))
               for k in range(len(v) - 1))


def robustness_experiment(model: ModelSpec, f: callable, t: float,
                          mesh_list, particles: int = 2000, seed_base: int = 0,
                          obs_seed: int = None, truth_steps: int = 512,
                          p: float = P_VAR,
                          abort_log_weight: float = ABORT_LOG_WEIGHT) -> list:
    """One realized observation; for each mesh, subsample the reconstructed
    Brownian input, build both interpolants on the mesh (linear: continuous
    lift; rectangular: jumpy Marcus lift), compute theta along each with
    independent particle clouds, and report the filter gap, the rough
    p-variation distance between the two lifts, and their ratio.

    The two clouds are deliberately not coupled: the gap column then carries
    its own Monte Carlo noise floor, which is what the trend test and the
    final-mesh comparison against the combined standard error account for.
    """
    if obs_seed is None:
        obs_seed = seed_base + 999983
    obs = realized_observation(model, t, truth_steps, obs_seed)
    record = obs["jump_record"]

    rows = []
    for mesh in mesh_list:
        lift_lin, lift_rect = mesh_lifts(obs, t, mesh)
        th_lin = theta(model, f, lift_lin, record, t, particles, seed_base,
                       abort_log_weight=abort_log_weight)
        th_rect = theta(model, f, lift_rect, record, t, particles,
                        seed_base + 611953, abort_log_weight=abort_log_weight)
        dist = rho_p(lift_lin, lift_rect, p)
        gap = abs(th_lin.theta - th_rect.theta)
        comb = float(np.sqrt(th_lin.theta_se ** 2 + th_rect.theta_se ** 2))
        rows.append({
            "mesh": int(mesh), "theta_linear": th_lin.theta,
            "theta_rectangular": th_rect.theta, "gap": gap,
            "driver_dist": float(dist),
            "ratio": gap / dist if dist > 1e-15 else float("nan"),
            "se_linear": th_lin.theta_se, "se_rectangular": th_rect.theta_se,
            "combined_se": comb, "particles": particles,
            "seed": int(obs_seed), "norm": "rho_p"})
    return rows


# -- small-jump truncation stability ----------------------------------------


def epsilon_stability_experiment(model: ModelSpec, f: callable, t: float,
                                 epsilons, particles: int, seed: int,
                                 steps: int = 128) -> dict:
    """Infinite-activity stability in the truncation level: one Brownian
    input and one nested atom stream; for each epsilon, the driver joins the
    input with the truncated jump path on a common grid (so particle noise
    is shared across epsilons), giving theta^eps, plus beta_p distances of
    the Marcus lifts of successive truncated jump paths."""
    if model.regime != "infinite_jumps":
        raise ValueError("epsilon stability needs an infinite-activity model")
    eps = [float(e) for e in epsilons]
    if sorted(eps, reverse=True) != eps:
        raise ValueError("epsilons must decrease")
    base = np.linspace(0.0, t, steps + 1)
    rng = np.random.default_rng(1000003 + seed)
    dw = rng.standard_normal(steps) * np.sqrt(np.diff(base))
    wv = np.concatenate([[0.0], np.cumsum(dw)])
    jump_seed = 3000017 + seed

    xi_fine = shot_noise(model.nu2, eps[-1], jump_seed, base)
    grid = xi_fine.times
    w_grid = np.interp(grid, base, wv)

    thetas, ses, xi_pairs = [], [], []
    for e in eps:
        xi = shot_noise(model.nu2, e, jump_seed, grid)
        if not np.array_equal(xi.times, grid):
            raise RuntimeError("nested truncation left the common grid")
        res = theta(model, f, _jump_joined_lift(grid, w_grid, xi), None, t,
                    particles, 50021)
        thetas.append(res.theta)
        ses.append(res.theta_se)
        xi_pairs.append(AdmissiblePair(marcus_lift(xi)))
    betas = [float(beta_p(xi_pairs[i], xi_pairs[i + 1], P_VAR,
                          delta_seq=(1.0,)).estimate)
             for i in range(len(eps) - 1)]
    gaps = [abs(thetas[i] - thetas[i + 1]) for i in range(len(eps) - 1)]
    return {"epsilons": eps, "thetas": thetas, "theta_se": ses,
            "beta_p": betas, "theta_gaps": gaps, "seed": int(seed)}
