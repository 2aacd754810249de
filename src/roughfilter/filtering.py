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
jump loadings linear in the mark, as every catalog model does). Declared
coefficients skip work: with sigma1, sigma2 (and f3, f2 at the jump column)
constant only the h row of the joint field is differenced, h_function uses
the sigma2 matrix itself, the flow route takes the closed-form flow
x + sigma1 w, and with lambda_fn, f2 and f3 declared every nu2 integral is
one constant vector, evaluated at a single state. Plain callables are
evaluated and differenced in full. Either way one reference-rate call
(sim._reference_rates) evaluates lambda once per atom of nu2, for the
drift compensators, h and the (1 - lambda) weight rate together.

A sweep draws the auxiliary noise of all its particles in one call,
aux_sampler(seed_base, N); the default draws one block from
SeedSequence(seed_base) (gaussian_poisson_sampler, scheme AUX_STREAM), and
per_seed_sampler adapts a sampler keyed by one seed per particle. The
estimates are taken from log weights shifted by their maximum.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fillin import AdmissiblePair, beta_p
from .lift import (
    RoughPath,
    marcus_increment,
    marcus_lift,
    rho_p,
    stratonovich_lift,
)
from .paths import CadlagPath
from .rde import VectorField, davie_step, marcus_jump
from .sim import (
    JumpRecord,
    LevyMeasure,
    ModelSpec,
    _accepted_nu2,
    _declared_matrix,
    _reference_rates,
    h_function,
    make_noise_bundle,
    reconstruct_wtilde,
    shot_noise,
    simulate_pair,
)


class ParticleBlowupError(RuntimeError):
    """A particle state left the finite range; carries which one and when."""

    def __init__(self, message: str, particle_index: int, step_index: int):
        super().__init__(message)
        self.particle_index = particle_index
        self.step_index = step_index


class WeightAbortError(RuntimeError):
    """A log weight crossed the abort threshold. Weights are never clipped;
    the run stops and reports the extremes instead."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


class DegenerateWeightsError(RuntimeError):
    """The normalizing estimate g^1 came out nonpositive or non-finite."""

    def __init__(self, message: str, diagnostics: dict):
        super().__init__(message)
        self.diagnostics = diagnostics


# -- test functions and estimates ------------------------------------------


@dataclass(frozen=True)
class TestFunction:
    """f(x, y) with optional bound and Lipschitz constant; the evaluator
    must broadcast over leading axes of x and y."""

    __test__ = False  # not a pytest item, despite the name

    evaluator: callable
    bound: float = None  # type: ignore[assignment]
    lipschitz: float = None  # type: ignore[assignment]
    name: str = "f"

    def __call__(self, x, y) -> np.ndarray:
        return np.asarray(self.evaluator(np.asarray(x, dtype=float),
                                         np.asarray(y, dtype=float)),
                          dtype=float)

    @staticmethod
    def constant(c: float = 1.0) -> "TestFunction":
        return TestFunction(lambda x, y: np.full(x.shape[:-1], float(c)),
                            bound=abs(c), lipschitz=0.0, name=f"const{c}")

    @staticmethod
    def coordinate(i: int = 0) -> "TestFunction":
        return TestFunction(lambda x, y: x[..., i], name=f"x{i}")


FUNCTION_CATALOG = {
    "identity": TestFunction.coordinate(0),
    "one": TestFunction.constant(1.0),
    "square": TestFunction(lambda x, y: x[..., 0] ** 2, name="square"),
    "sin": TestFunction(lambda x, y: np.sin(x[..., 0]), bound=1.0,
                        lipschitz=1.0, name="sin"),
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


def gaussian_poisson_sampler(model: ModelSpec, times: np.ndarray):
    """Default auxiliary sampler on a grid: sample(seed_base, N) returns the
    fresh Brownian increments for sigma0 of N particles, dB of shape
    (N, n_seg, d_B), and their nu1 atoms as {segment: [(particle, mark)]},
    applied at segment right endpoints (AUX_STREAM names the scheme).

    SeedSequence(seed_base) spawns three independent streams: the first
    draws dB in one standard_normal block (particle-major), the second the
    per-particle atom counts from poisson(nu1 rate * T, N), the third one
    random((K, 2)) row per atom holding its time uniform and its mark
    uniform (searched in the mark cdf). So the draw is deterministic in
    (seed_base, N), the first N particles of a draw of N' >= N are the
    draw of N (common random numbers across particle counts), and distinct
    seed_base values give independent clouds."""
    times = np.asarray(times, dtype=float)
    n_seg = len(times) - 1
    sq = np.sqrt(np.diff(times))[:, None]
    jumps = model.nu1 is not None and bool(model.nu1.atoms)
    if jumps:
        mean_count = model.nu1.total_rate * float(times[-1] - times[0])
        marks = model.nu1.marks()
        # the cdf Generator.choice(p=...) builds: a mark uniform picks the
        # mark choice would pick from it
        cdf = np.cumsum(model.nu1.rates() / model.nu1.total_rate)
        cdf /= cdf[-1]

    def sample(seed_base: int, N: int):
        noise, counts_ss, rows_ss = np.random.SeedSequence(seed_base).spawn(3)
        dB = np.random.default_rng(noise).standard_normal((N, n_seg, model.dim_b))
        dB *= sq
        aux_atoms = {}
        if jumps:
            counts = np.random.default_rng(counts_ss).poisson(mean_count, N)
            rows = np.random.default_rng(rows_ss).random((int(counts.sum()), 2))
            particle = np.repeat(np.arange(N), counts)
            at = times[0] + (times[-1] - times[0]) * rows[:, 0]
            seg = np.clip(np.searchsorted(times, at, side="left") - 1,
                          0, n_seg - 1)
            pick = cdf.searchsorted(rows[:, 1], side="right")
            # by segment, then particle, then time: each segment's list holds
            # a particle's atoms in time order
            order = np.lexsort((at, particle, seg))
            for s, i, c in zip(seg[order].tolist(), particle[order].tolist(),
                               pick[order].tolist()):
                aux_atoms.setdefault(s, []).append((i, marks[c]))
        return dB, aux_atoms

    return sample


def per_seed_sampler(sample):
    """Adapt a per-seed sampler, sample(seed) -> (dB (n_seg, d_B),
    [(segment, mark)]), to the block protocol of gaussian_poisson_sampler:
    particle i draws from seed seed_base + i. Each draw is copied in and
    dropped, so the N per-seed arrays are never held at once."""

    def block(seed_base: int, N: int):
        dB_all = None
        aux_atoms = {}
        for i in range(N):
            dB, atoms = sample(seed_base + i)
            dB = np.asarray(dB)
            if dB_all is None:
                dB_all = np.empty((N,) + dB.shape, dtype=dB.dtype)
            dB_all[i] = dB
            for seg, mark in atoms:
                aux_atoms.setdefault(int(seg), []).append((i, mark))
        return dB_all, aux_atoms

    return block


# -- joint vector field and rates ------------------------------------------


_UNIT_MARK = np.array([1.0])


def _joint_field(model: ModelSpec, driver_dim: int) -> VectorField:
    """The (X, Y, I) loading matrix against the driver: rows (sigma1,
    sigma2, h), plus a jump-path column (f3, f2, 0) at unit mark when the
    driver has one extra component. When sigma1, sigma2 (and, at that
    column, f3 and f2) are declared constant, only the h row depends on the
    state, and the field's directional action differences that row alone."""
    dx, dy = model.dim_x, model.dim_y
    extra = driver_dim - dy
    if extra not in (0, 1):
        raise ValueError(
            f"driver dimension {driver_dim} must be d_Y={dy} or d_Y+1")

    def h_row(t, z):
        z = np.asarray(z, dtype=float)
        h = h_function(model, t, z[..., :dx], z[..., dx:dx + dy])
        if extra:
            h = np.concatenate([h, np.zeros(h.shape[:-1] + (1,))], axis=-1)
        return h[..., None, :]

    def evaluator(t, z):
        z = np.asarray(z, dtype=float)
        x = z[..., :dx]
        y = z[..., dx:dx + dy]
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
        return np.concatenate([rows, h_row(t, z)], axis=-2)

    loadings = [model.sigma1, model.sigma2] + ([model.f3, model.f2] if extra else [])
    if all(_declared_matrix(c) is not None for c in loadings):
        return VectorField(evaluator, varying=(slice(dx + dy, None), h_row))
    return VectorField(evaluator)


# -- jump records -----------------------------------------------------------


def _normalize_record(jump_record, times: np.ndarray, t: float):
    """Observed atoms as {grid index: [marks]}; accepts a JumpRecord or an
    iterable of (time, mark) pairs. Atom times must sit on the driver grid."""
    if jump_record is None:
        return {}
    if isinstance(jump_record, JumpRecord):
        pairs = list(zip(jump_record.times, jump_record.marks))
    else:
        pairs = [(float(a), np.atleast_1d(np.asarray(m, dtype=float)))
                 for a, m in jump_record]
    tol = 1e-9 * max(1.0, float(times[-1]))
    out = {}
    for at, mark in pairs:
        at = float(at)
        if at > t + tol:
            continue
        i = _grid_index_of(times, at, "observed atom")
        if i == 0:
            raise ValueError("observed atom at the initial time")
        out.setdefault(i, []).append(np.atleast_1d(np.asarray(mark, dtype=float)))
    return out


def _grid_index_of(times: np.ndarray, t: float, what: str = "horizon") -> int:
    tol = 1e-9 * max(1.0, float(times[-1]))
    i = int(np.argmin(np.abs(times - t)))
    if abs(times[i] - t) > tol:
        raise ValueError(f"{what} at t={t} is not on the driver grid")
    return i


# -- the particle sweep -----------------------------------------------------

JUMP_SUBSTEPS = 8  # RK4 substeps per unit size of a driver jump's Marcus flow
FLOW_SUBSTEPS = 16  # RK4 substeps per unit |w| of the scalar flow map


class _Route:
    """One way of stepping the common noise between grid times. A route holds
    the particle state; `x` (N, d_X) and `y` (N, d_Y) are the signal and
    observation values that jumps and weights see."""

    def start(self, N: int):
        self.x = np.broadcast_to(np.array(self.model.x0),
                                 (N, self.model.dim_x)).copy()

    def aux_jumps(self, t1: float, atoms):
        """Auxiliary nu1 atoms [(particle, mark)]: X jumps by f1."""
        x, y = self.x, self.y
        for i, mark in atoms:
            x[i] = x[i] + np.asarray(self.model.f1(t1, x[i], y[i], mark), dtype=float)

    def observed_jump(self, t1: float, mark):
        """An observed nu2 atom moves X by f3."""
        self.x = self.x + np.asarray(self.model.f3(t1, self.x, self.y, mark),
                                     dtype=float)

    def driver_jump(self, k: int, logw):
        """The driver's jump at grid index k + 1, if any; returns logw."""
        return logw

    def end(self, m_end: int):
        return self.x, self.y

    def meta(self, m_end: int) -> dict:
        return {"route": self.name}


class _RoughRoute(_Route):
    """Along a level-2 driver: Heun steps for the dt and sigma0 dB terms, one
    Davie step of the joint (X, Y, I) state per segment, and Marcus time-1
    flows across driver jumps."""

    def __init__(self, model: ModelSpec, driver: RoughPath):
        self.model, self.driver, self.times = model, driver, driver.times
        self.V = _joint_field(model, driver.dim)
        k = np.arange(len(driver.times) - 1)
        self.chords = driver.increment(k, k + 1, left_j=True)

    def start(self, N: int):
        super().start(N)
        self.y = np.broadcast_to(np.array(self.model.y0),
                                 (N, self.model.dim_y)).copy()

    def _unpack(self, z):
        """Take X and Y from the joint state; returns the log weight I."""
        dx, dy = self.model.dim_x, self.model.dim_y
        self.x = z[..., :dx].copy()
        self.y = z[..., dx:dx + dy].copy()
        return z[..., dx + dy].copy()

    def advance(self, k: int, t0: float, t1: float, dB, logw):
        model, x, y = self.model, self.x, self.y
        dt = t1 - t0
        bx0, by0, h0, comp0 = _reference_rates(model, t0, x, y)
        logw = logw + (-0.5 * np.einsum("...i,...i->...", h0, h0) + comp0) * dt

        s0 = np.asarray(model.sigma0(t0, x, y), dtype=float)
        d1x = bx0 * dt + np.einsum("...ab,...b->...a", s0, dB)
        d1y = by0 * dt
        bx1, by1, _, _ = _reference_rates(model, t1, x + d1x, y + d1y)
        s0p = np.asarray(model.sigma0(t1, x + d1x, y + d1y), dtype=float)
        d2x = bx1 * dt + np.einsum("...ab,...b->...a", s0p, dB)
        d2y = by1 * dt
        x = x + 0.5 * (d1x + d2x)
        y = y + 0.5 * (d1y + d2y)

        z = np.concatenate([x, y, logw[:, None]], axis=-1)
        return self._unpack(davie_step(self.V, t0, z, self.chords.level1[k],
                                       self.chords.level2[k]))

    def observed_jump(self, t1: float, mark):
        """X moves by f3 and Y by f2."""
        super().observed_jump(t1, mark)
        self.y = self.y + np.asarray(self.model.f2(t1, self.y, mark), dtype=float)

    def driver_jump(self, k: int, logw):
        if not self.driver.jump_flags[k + 1]:
            return logw
        chi1 = marcus_increment(self.driver, k + 1)
        z = np.concatenate([self.x, self.y, logw[:, None]], axis=-1)
        return self._unpack(marcus_jump(self.V, float(self.times[k + 1]), z,
                                        chi1, JUMP_SUBSTEPS))

    def meta(self, m_end: int) -> dict:
        return {"dim": self.driver.dim,
                "driver_jumps": int(np.sum(self.driver.jump_flags[:m_end + 1]))}


class _ObservationRoute(_Route):
    """Driven by the raw observation path: the Brownian input W is
    reconstructed from it, a segment sees the observation at its left end
    (y0) and its left limit at the right end (y), and the weight takes the
    trapezoid rule in h against dW."""

    def __init__(self, model: ModelSpec, obs: CadlagPath):
        self.model, self.obs = model, obs
        self.wt = reconstruct_wtilde(model, obs)
        self.times = self.wt.times

    def advance(self, k: int, t0: float, t1: float, dB, logw):
        shape = (len(self.x), self.model.dim_y)
        self.dW = self.wt.values[k + 1] - self.wt.values[k]
        self.y0 = np.broadcast_to(self.obs.values[k], shape)
        self.y = np.broadcast_to(self.obs.evaluate_left(t1)[0], shape)
        dt = t1 - t0
        h0, comp0 = self._heun(k, t0, t1, dt, dB)
        h1 = h_function(self.model, t1, self.x, self.y)
        logw = logw + 0.5 * np.einsum("...i,i->...", h0 + h1, self.dW)
        logw = logw - 0.25 * (np.einsum("...i,...i->...", h0, h0)
                              + np.einsum("...i,...i->...", h1, h1)) * dt
        return logw + comp0 * dt

    def end(self, m_end: int):
        """Terminal (X, Y), Y being the observation at the horizon."""
        y = self.obs.evaluate(float(self.times[m_end]))[0]
        return self.x, np.broadcast_to(y, (len(self.x), self.model.dim_y))


class _DirectRoute(_ObservationRoute):
    """Plain level-1 Heun steps in dt, sigma0 dB and sigma1 dW (no lift)."""

    name = "direct"

    def _heun(self, k: int, t0: float, t1: float, dt: float, dB):
        """Step X over the segment; returns h and the lambda compensator at
        its start."""
        model, x, y0, y1, dW = self.model, self.x, self.y0, self.y, self.dW
        bx0, _, h0, comp0 = _reference_rates(model, t0, x, y0)
        s00 = np.asarray(model.sigma0(t0, x, y0), dtype=float)
        s10 = np.asarray(model.sigma1(t0, x, y0), dtype=float)
        d1 = (bx0 * dt + np.einsum("...ab,...b->...a", s00, dB)
              + np.einsum("...ab,b->...a", s10, dW))
        bx1, _, _, _ = _reference_rates(model, t1, x + d1, y1)
        s01 = np.asarray(model.sigma0(t1, x + d1, y1), dtype=float)
        s11 = np.asarray(model.sigma1(t1, x + d1, y1), dtype=float)
        d2 = (bx1 * dt + np.einsum("...ab,...b->...a", s01, dB)
              + np.einsum("...ab,b->...a", s11, dW))
        self.x = x + 0.5 * (d1 + d2)
        return h0, comp0


class _FlowRoute(_ObservationRoute):
    """Scalar models only: X = phi(W, X~) with phi the one-parameter flow of
    sigma1, so the particles carry X~ through Heun steps with the drift and
    sigma0 pulled back by d phi / dx, and auxiliary atoms pull back through
    phi(-W)."""

    name = "flow"

    def __init__(self, model: ModelSpec, obs: CadlagPath):
        self.s = _scalar_sigma1(model)
        super().__init__(model, obs)

    @property
    def x(self):
        return self.phi[:, None]

    def start(self, N: int):
        self.xt = np.full(N, float(self.model.x0[0]))
        self.phi, self.dphi = flow_map(self.s, self.wt.values[0, 0], self.xt)

    def _heun(self, k: int, t0: float, t1: float, dt: float, dB):
        model, s, y0, y1 = self.model, self.s, self.y0, self.y
        self.w1 = w1 = self.wt.values[k + 1, 0]
        dB = dB[:, 0]
        x0col, dphi0 = self.x, self.dphi
        bx0, _, h0, comp0 = _reference_rates(model, t0, x0col, y0)
        s00 = np.asarray(model.sigma0(t0, x0col, y0), dtype=float)[..., 0, 0]
        d1 = (bx0[:, 0] / dphi0) * dt + (s00 / dphi0) * dB
        phiP, dphiP = flow_map(s, w1, self.xt + d1)
        xPcol = phiP[:, None]
        bx1, _, _, _ = _reference_rates(model, t1, xPcol, y1)
        s01 = np.asarray(model.sigma0(t1, xPcol, y1), dtype=float)[..., 0, 0]
        d2 = (bx1[:, 0] / dphiP) * dt + (s01 / dphiP) * dB
        self.xt = self.xt + 0.5 * (d1 + d2)
        self.phi, self.dphi = flow_map(s, w1, self.xt)
        return h0, comp0

    def aux_jumps(self, t1: float, atoms):
        """X jumps by f1; X~ follows through phi(-W). Atoms of one particle
        apply in turn, each from the position the previous one left."""
        if not atoms:
            return
        for i, mark in atoms:
            xi = self.phi[i:i + 1]
            xp = xi + np.asarray(
                self.model.f1(t1, xi[:, None], self.y[i], mark), dtype=float)[..., 0]
            self.xt[i] = flow_map(self.s, -self.w1, xp)[0][0]
            self.phi[i] = xp[0]
        self.phi, self.dphi = flow_map(self.s, self.w1, self.xt)

    def observed_jump(self, t1: float, mark):
        """f3 = 0 (checked at construction): an observed atom only
        reweights."""


def _sweep(model: ModelSpec, route, f: TestFunction, t: float, jump_record,
           particles: int, seed_base: int, aux_sampler,
           abort_log_weight: float) -> FilterResult:
    """March all particles along the route's grid up to t and estimate the
    filter from their terminal (X, Y, log weight). Each step runs the route's
    continuous step, the auxiliary atoms, the observed atoms (lambda weight,
    then the route's move), the driver's Marcus jump and the finiteness
    check."""
    if particles < 1:
        raise ValueError("particles must be >= 1")
    times = route.times
    m_end = _grid_index_of(times, t)
    if m_end == 0:
        raise ValueError("horizon t must be positive on the driver grid")
    atoms_at = _normalize_record(jump_record, times, t)
    if aux_sampler is None:
        aux_sampler = gaussian_poisson_sampler(model, times[:m_end + 1])
    dB_all, aux_atoms = aux_sampler(seed_base, particles)

    route.start(particles)
    logw = np.zeros(particles)
    for k in range(m_end):
        t0, t1 = float(times[k]), float(times[k + 1])
        logw = route.advance(k, t0, t1, dB_all[:, k, :], logw)
        route.aux_jumps(t1, aux_atoms.get(k, ()))
        for mark in atoms_at.get(k + 1, ()):
            if isinstance(model.nu2, LevyMeasure):
                lam = np.asarray(model.lambda_fn(t1, route.x, mark), dtype=float)
                if np.any(lam <= 0.0):
                    raise ValueError(f"lambda <= 0 at t={t1}")
                logw = logw + np.log(lam)
            route.observed_jump(t1, mark)
        logw = route.driver_jump(k, logw)

        if not (np.isfinite(route.x).all() and np.isfinite(route.y).all()
                and np.isfinite(logw).all()):
            bad = ~(np.all(np.isfinite(route.x), axis=-1)
                    & np.all(np.isfinite(route.y), axis=-1) & np.isfinite(logw))
            i = int(np.argmax(bad))
            raise ParticleBlowupError(
                f"particle {i} blew up at step {k} (t={t1})", i, k)

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
            "observed_atoms": int(sum(len(v) for v in atoms_at.values())),
            "t": float(t)}
    return _result_from_sweep(f, x, y, logw, meta, particles, seed_base)


def _result_from_sweep(f: TestFunction, x, y, logw, meta, particles,
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


def theta(model: ModelSpec, f: TestFunction, obs_driver, jump_record,
          t: float, particles: int, seed_base: int, aux_sampler=None,
          abort_log_weight: float = 60.0) -> FilterResult:
    """The filter value theta = g^f / g^1 with both estimates from one
    particle sweep along the observation driver (common random numbers),
    plus a delta-method standard error for the ratio. obs_driver may be a
    RoughPath or an AdmissiblePair (whose lift is used). aux_sampler, by
    default gaussian_poisson_sampler on the grid up to t, is called once as
    aux_sampler(seed_base, particles) -> (dB, {segment: [(particle, mark)]});
    per_seed_sampler adapts a sampler keyed by one seed per particle."""
    driver = obs_driver.rough if isinstance(obs_driver, AdmissiblePair) else obs_driver
    return _sweep(model, _RoughRoute(model, driver), f, t, jump_record,
                  particles, seed_base, aux_sampler, abort_log_weight)


# -- direct particle filter on the raw observation -------------------------


def direct_reference_filter(model: ModelSpec, f: TestFunction,
                            obs: CadlagPath, jump_record, t: float,
                            particles: int, seed_base: int, aux_sampler=None,
                            abort_log_weight: float = 60.0) -> FilterResult:
    """Weighted particle filter driven by the raw observation path: the
    Brownian input is reconstructed from obs and used through plain level-1
    Heun steps (no rough lift), with trapezoid h quadrature for the weight.
    Serves as an independently discretized estimate of the same conditional
    expectation."""
    return _sweep(model, _DirectRoute(model, obs), f, t, jump_record,
                  particles, seed_base, aux_sampler, abort_log_weight)


# -- observation records from simulation -----------------------------------


def realized_observation(model: ModelSpec, t: float, steps: int, seed: int,
                         epsilon: float = None):
    """Simulate the physical pair once and package what the filter sees:
    the observation path, the accepted observed atoms as (time, mark) pairs,
    and the rough driver (Stratonovich lift of the reconstructed Brownian
    input; in the infinite-activity regime the Marcus lift of that input
    joined with the observed jump path)."""
    noise = make_noise_bundle(model, t, steps, seed, epsilon=epsilon,
                              measure="physical")
    X, Y = simulate_pair(model, noise, steps)
    rec2 = noise.pp_jumps["nu2"]
    accepted = _accepted_nu2(model, noise, X.evaluate_left)
    record = [(float(rec2.times[a]), np.array(rec2.marks[a], dtype=float))
              for a in range(len(rec2)) if accepted[a]]
    wt = reconstruct_wtilde(model, Y)
    if model.regime == "infinite_jumps":
        xi = _atom_path(wt.times, [a for a, _ in record],
                        [m[0] for _, m in record])
        vals = np.column_stack([wt.values, xi.values])
        pre = np.column_stack([wt.values, xi.pre_values])
        two = CadlagPath(wt.times, vals, pre, "linear")
        driver = marcus_lift(two)
        driver_record = []
    else:
        driver = stratonovich_lift(wt)
        driver_record = record
    return {"X": X, "Y": Y, "wtilde": wt, "driver": driver,
            "jump_record": driver_record, "atoms": record, "noise": noise}


def _atom_path(times: np.ndarray, atom_times, sizes) -> CadlagPath:
    """Piecewise-constant cumulative atom-sum path on a grid that already
    contains the atom times."""
    times = np.asarray(times, dtype=float)
    at = np.asarray(atom_times, dtype=float)
    sz = np.asarray(sizes, dtype=float)
    order = np.argsort(at)
    at, sz = at[order], sz[order]
    csum = np.concatenate([[0.0], np.cumsum(sz)])
    vals = csum[np.searchsorted(at, times, side="right")]
    pre = csum[np.searchsorted(at, times, side="left")]
    pre[0] = vals[0]
    jumpy = not np.array_equal(vals, pre)
    return CadlagPath(times, vals[:, None], pre[:, None] if jumpy else None,
                      "constant")


# -- consistency check ------------------------------------------------------


def robust_consistency_check(model: ModelSpec, f: TestFunction, t: float,
                             particles: int, seeds, grid: int,
                             epsilon: float = None,
                             seed_particles: int = 90001) -> dict:
    """For each observation seed: simulate the physical pair, lift the
    realized observation, and compare theta along the lift against the
    direct reference-measure particle filter on the raw path. PASS means
    the gap is within three combined standard errors."""
    rows = []
    for seed in seeds:
        obs = realized_observation(model, t, grid, seed, epsilon=epsilon)
        th = theta(model, f, obs["driver"], obs["jump_record"], t,
                   particles, seed_particles + 1000 * seed)
        dr = direct_reference_filter(model, f, obs["Y"], obs["atoms"],
                                     t, particles,
                                     seed_particles + 1000 * seed)
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
    const = _declared_matrix(model.sigma1)
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
        eps = 1e-6 * (1.0 + np.abs(p))
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


def scalar_flow_filter_detail(model: ModelSpec, f: TestFunction,
                              obs: CadlagPath, particles: int, seed_base: int,
                              jump_record=None, aux_sampler=None,
                              abort_log_weight: float = 60.0) -> FilterResult:
    """Filter value at the end of obs through the flow decomposition:
    X_t = phi(W_t, X~_t) with phi the one-parameter flow of sigma1 evaluated
    at the reconstructed Brownian input, and X~ solving the transformed SDE
    with pulled-back drift, diffusion, and auxiliary jumps. Independent of
    the rough-driver route; only for scalar models whose common noise is
    Brownian."""
    route = _FlowRoute(model, obs)
    return _sweep(model, route, f, float(route.times[-1]), jump_record,
                  particles, seed_base, aux_sampler, abort_log_weight)


# -- interpolation robustness ----------------------------------------------


def _interpolant_path(sub_times, sub_vals, grid, mode: str) -> CadlagPath:
    """Linear or rectangular interpolant of subsampled values, tabulated on
    a refinement grid that contains the sample times."""
    sub_times = np.asarray(sub_times, dtype=float)
    sub_vals = np.atleast_2d(np.asarray(sub_vals, dtype=float))
    if sub_vals.shape[0] != len(sub_times):
        sub_vals = sub_vals.T
    grid = np.asarray(grid, dtype=float)
    if mode == "linear":
        cols = [np.interp(grid, sub_times, sub_vals[:, j])
                for j in range(sub_vals.shape[1])]
        return CadlagPath(grid, np.column_stack(cols), None, "linear")
    if mode != "rectangular":
        raise ValueError(f"unknown interpolation mode {mode!r}")
    idx = np.clip(np.searchsorted(sub_times, grid, side="right") - 1,
                  0, len(sub_times) - 1)
    idx_pre = np.clip(np.searchsorted(sub_times, grid, side="left") - 1,
                      0, len(sub_times) - 1)
    vals = sub_vals[idx]
    pre = sub_vals[idx_pre]
    pre[0] = vals[0]
    jumpy = not np.array_equal(vals, pre)
    return CadlagPath(grid, vals, pre if jumpy else None, "constant")


def mesh_lifts(obs: dict, t: float, mesh: int):
    """Subsample the reconstructed Brownian input of a realized observation
    at mesh + 1 equal steps on [0, t] and lift both interpolants, tabulated
    on those times plus the observed atom times: (Stratonovich lift of the
    linear one, Marcus lift of the rectangular one)."""
    atom_times = np.array([a for a, _ in obs["jump_record"]])
    sub_times = np.linspace(0.0, t, int(mesh) + 1)
    grid = np.union1d(sub_times, atom_times) if len(atom_times) else sub_times
    sub_vals = obs["wtilde"].evaluate(sub_times)
    lin = _interpolant_path(sub_times, sub_vals, grid, "linear")
    rect = _interpolant_path(sub_times, sub_vals, grid, "rectangular")
    return stratonovich_lift(lin), marcus_lift(rect)


def trend_non_increasing(values, slacks) -> bool:
    """Whether a column is non-increasing up to per-entry noise allowances:
    values[k+1] <= values[k] + hypot(slacks[k], slacks[k+1]) for all k."""
    v = [float(x) for x in values]
    s = [float(x) for x in slacks]
    if len(v) != len(s):
        raise ValueError("values and slacks must have equal length")
    return all(v[k + 1] <= v[k] + float(np.hypot(s[k], s[k + 1]))
               for k in range(len(v) - 1))


def robustness_experiment(model: ModelSpec, f: TestFunction, t: float,
                          mesh_list, particles: int = 2000, seed_base: int = 0,
                          obs_seed: int = None, truth_steps: int = 512,
                          p: float = 2.5) -> list:
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
        th_lin = theta(model, f, lift_lin, record, t, particles, seed_base)
        th_rect = theta(model, f, lift_rect, record, t, particles,
                        seed_base + 611953)
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


def epsilon_stability_experiment(model: ModelSpec, f: TestFunction, t: float,
                                 epsilons, particles: int, seed: int,
                                 seed_base: int = 50021, steps: int = 128,
                                 p: float = 2.5) -> dict:
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
        vals = np.column_stack([w_grid, xi.values[:, 0]])
        pre = np.column_stack([w_grid, xi.pre_values[:, 0]])
        two = CadlagPath(grid, vals, pre, "linear")
        res = theta(model, f, marcus_lift(two), None, t, particles, seed_base)
        thetas.append(res.theta)
        ses.append(res.theta_se)
        xi_pairs.append(AdmissiblePair(marcus_lift(xi)))
    betas = [float(beta_p(xi_pairs[i], xi_pairs[i + 1], p,
                          delta_seq=(1.0,)).estimate)
             for i in range(len(eps) - 1)]
    gaps = [abs(thetas[i] - thetas[i + 1]) for i in range(len(eps) - 1)]
    return {"epsilons": eps, "thetas": thetas, "theta_se": ses,
            "beta_p": betas, "theta_gaps": gaps, "seed": int(seed)}
