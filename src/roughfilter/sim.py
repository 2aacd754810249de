"""Pathwise simulation of correlated signal-observation systems with common
Brownian and jump noise: model specifications with assumption probes, noise
bundles (Brownian increments plus marked point processes), a Heun Stratonovich
stepper with event-driven jump grids, the measure-change exponent I_t, and the
truncated shot-noise sampler for the infinite-activity regime.

Conventions. The physical-measure system is

    dX = b1 dt + sigma0 o dB + sigma1 o dW + f1 dNp~ + f3 dNl~,
    dY = b2 dt + sigma2 o dW + f2 dNl~,

where Np~ and Nl~ are compensated jump measures (Nl has intensity
lambda(t,X,u) nu2(du) dt) and o is Stratonovich. Under the reference measure
the observation loses its drift, W is replaced by Wt = W + int h dt, and
observed jumps arrive with intensity nu2. The exponent I_t accumulates
h . dW_bundle +/- |h|^2/2 dt plus sum log lambda over observed atoms plus
int (1 - lambda) nu2 dt; the sign of the |h|^2 term depends on which measure
the bundle was drawn under, so that exp(I) or exp(-I) is the corresponding
martingale density.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .paths import P_VAR, CadlagPath, _step_path
from .rde import NumericalAbort, _column_sum, _components_first, _components_last


# -- Levy measure descriptors ---------------------------------------------


@dataclass(frozen=True)
class LevyMeasure:
    """Finite-activity jump-size measure: weighted atoms ((mark, rate), ...),
    at least one. "No jumps" is None, never an empty measure.

    Marks are vectors (stored as tuples); rate is the Poisson intensity of
    that mark, so the total arrival rate is the sum of rates. pick_marks is
    the one mark rule of every atom draw, the simulator's and the
    particle sweep's.
    """

    atoms: tuple

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("a LevyMeasure needs at least one atom; no jumps is None")
        norm = []
        for mark, rate in self.atoms:
            mark = tuple(float(v) for v in np.atleast_1d(mark))
            if rate <= 0:
                raise ValueError("atom rates must be positive")
            norm.append((mark, float(rate)))
        object.__setattr__(self, "atoms", tuple(norm))

    @property
    def total_rate(self) -> float:
        return float(sum(r for _, r in self.atoms))

    def marks(self) -> np.ndarray:
        return np.array([m for m, _ in self.atoms])

    def rates(self) -> np.ndarray:
        return np.array([r for _, r in self.atoms])

    def pick_marks(self, uniforms) -> np.ndarray:
        """The marks, (k, d_u), that uniforms (k,) pick with probability
        rate / total_rate, by the cdf that Generator.choice(p=...) builds:
        on rng.random(k) this is marks()[rng.choice(n, size=k, p=...)],
        and it leaves the generator where choice leaves it."""
        cdf = np.cumsum(self.rates() / self.total_rate)
        cdf /= cdf[-1]
        return self.marks()[cdf.searchsorted(uniforms, side="right")]


def _atom_sum(levy: LevyMeasure, values):
    """sum_a rate_a * values[a], added in atom order, over values already
    evaluated at the marks (levy.marks()); the values may have any shapes
    that broadcast."""
    out = None
    for (_, rate), value in zip(levy.atoms, values):
        term = rate * np.asarray(value, dtype=float)
        out = term if out is None else out + term
    return out


@dataclass(frozen=True)
class StableTail:
    """Symmetric stable-like density c |x|^{-1-alpha} dx on 0 < |x| < 1.

    Infinite activity for alpha > 0; the p-th moment 2c/(p - alpha) is the
    finite p-variation witness for p > alpha.
    """

    alpha: float
    c: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 2.0:
            raise ValueError("alpha must lie in (0, 2)")
        if self.c <= 0:
            raise ValueError("c must be positive")

    def tail_mass(self, r: float) -> float:
        """nu(r < |x| < 1); the one check that a truncation level epsilon
        lies in (0, 1), for make_noise_bundle and shot_noise."""
        if not 0.0 < r < 1.0:
            raise ValueError(f"truncation level epsilon must lie in (0, 1), got {r}")
        return 2.0 * self.c / self.alpha * (r ** (-self.alpha) - 1.0)

    def inv_tail(self, y: float) -> float:
        """Jump size whose tail mass is y (inverse of tail_mass)."""
        return (1.0 + self.alpha * y / (2.0 * self.c)) ** (-1.0 / self.alpha)

    def p_moment(self, p: float) -> float:
        """int |x|^p nu(dx) over |x| < 1; finite exactly when p > alpha."""
        if p <= self.alpha:
            return float("inf")
        return 2.0 * self.c / (p - self.alpha)


# -- model specification ---------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    """Coefficients and noise descriptors of one signal-observation system.

    All coefficient evaluators broadcast over leading batch axes of x and y:
    b1(t,x,y)->(...,dx), b2->(...,dy), sigma0->(...,dx,db),
    sigma1->(...,dx,dy), sigma2(t,y)->(...,dy,dy), f1(t,x,y,u)->(...,dx),
    f2(t,y,u)->(...,dy), f3(t,x,y,u)->(...,dx), lambda_fn(t,x,u)->(...,).
    sigma0, sigma1, sigma2 and lambda_fn may be declared constant by building
    them with _const, f1, f2, f3 declared linear in the mark by building
    them with _linear_mark, and b1, b2 declared linear in the signal by
    building them with _linear_state; the particle sweep then skips the work
    that this structure makes unnecessary. The values of the declared jump
    coefficients and lambda_fn over the marks, and the nu2 integrals they
    fix, are computed once per model, on first use (_Declared). Any other
    callable is evaluated in full, at every state, with this protocol: the
    component-major sweep passes it the transposed views.

    nu1 and nu2 state the jump structure, once: None where the model has no
    such jumps, and `regime` is read off them.
    """

    model_id: str
    dim_x: int
    dim_y: int
    dim_b: int
    b1: callable
    b2: callable
    sigma0: callable
    sigma1: callable
    sigma2: callable
    f1: callable
    f2: callable
    f3: callable
    lambda_fn: callable
    nu1: LevyMeasure = None
    nu2: object = None  # LevyMeasure or StableTail
    x0: tuple = (0.0,)
    y0: tuple = (0.0,)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "x0", tuple(float(v) for v in np.atleast_1d(self.x0)))
        object.__setattr__(self, "y0", tuple(float(v) for v in np.atleast_1d(self.y0)))
        if len(self.x0) != self.dim_x or len(self.y0) != self.dim_y:
            raise ValueError("initial values do not match declared dimensions")

    @property
    def regime(self) -> str:
        """The jump regime: "infinite_jumps" when nu2 is a StableTail,
        "finite_jumps" when nu1 or nu2 has atoms, else "scalar"."""
        if isinstance(self.nu2, StableTail):
            return "infinite_jumps"
        return "scalar" if self.nu1 is None and self.nu2 is None else "finite_jumps"

    @cached_property
    def _declared_one(self) -> "_Declared":
        return _Declared.of(self, ())

    @cached_property
    def _declared_batch(self) -> "_Declared":
        return _Declared.of(self, (1,))


def _declared_for(model: ModelSpec, state) -> "_Declared":
    """The model's _Declared for one state (d,) or a batch (d, n)."""
    return model._declared_batch if state.ndim > 1 else model._declared_one


def h_function(model: ModelSpec, t: float, x, y):
    """h = sigma2^{-1} (b2 + int f2 (1 - lambda) dnu2); broadcasts over
    leading axes of x, y. The nu2 integral is exact for atom lists (kept
    once per model when lambda_fn, f2 and f3 are declared, see _Declared)
    and zero in the infinite-activity regime (lambda = 1 there)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    lead = np.broadcast_shapes(x.shape[:-1], y.shape[:-1])
    if lead:  # else one state, which stays 1-d
        x, y = (a.reshape(-1, a.shape[-1]).T if a.shape[:-1] == lead else
                np.broadcast_to(a, lead + a.shape[-1:]).reshape(-1, a.shape[-1]).T
                for a in (x, y))
    rhs = _drift(model.b2, t, x, y)
    nu2 = model.nu2
    if isinstance(nu2, LevyMeasure):
        kept = _declared_for(model, x)
        if kept.integrals is not None:
            rhs = rhs + kept.integrals[2]
        else:
            lam = _at_marks(kept.lam, model.lambda_fn, nu2, t, 0, x)
            f2 = _at_marks(kept.f2, model.f2, nu2, t, 1, y)
            rhs = rhs + _atom_sum(nu2, map(_h_integrand, f2, lam))
    h = _solve_sigma2(model, t, y, rhs)
    return h.T.reshape(lead + h.shape[:1])


def _h_integrand(f2, lam):
    """f2 (1 - lambda), the nu2 integrand of h's right-hand side."""
    return f2 * (1.0 - lam)


def _moved(value, core: int, state):
    """A plain coefficient's value (n, `core` component axes) as (..., n), or
    as it is at one state (d,); laid against `state` if it has no n axis."""
    a = np.asarray(value, dtype=float)
    if a.ndim > core:
        return _components_last(a)
    return a[..., None] if state.ndim > 1 else a


def _drift(coefficient, t: float, x, y):
    """b1 or b2: for one built by _linear_state what its callable computes,
    c * x (1 x 1) or M x, else the plain callable's value."""
    M = _state_matrix(coefficient)
    if M is None:
        return _moved(coefficient(t, x.T, y.T), 1, x)
    if M.shape == (1, 1):
        return float(M[0, 0]) * x
    return _column_sum(M[..., None] if x.ndim > 1 else M, x)


def _loading(coefficient, t: float, *state):
    """sigma0, sigma1 or sigma2 as (rows, cols, n), one built by _const as
    (rows, cols, 1); at one state (d,) as (rows, cols)."""
    M = _const_matrix(coefficient)
    if M is not None:
        return M[..., None] if state[0].ndim > 1 else M
    return _moved(coefficient(t, *(s.T for s in state)), 2, state[0])


def _solve_sigma2(model: ModelSpec, t: float, y, rhs):
    """sigma2^{-1} rhs. A declared sigma2 is used as _Declared keeps it: a
    division when it is 1 x 1, else the ordered column sum with its inverse
    (elementwise, so one right-hand side gets the bits it gets among many).
    A plain one is evaluated at y and solved."""
    kept = _declared_for(model, rhs).sigma2
    if isinstance(kept, float):
        if kept == 0.0:
            raise ValueError(f"sigma2 singular at t={t}")
        return rhs / kept
    if kept is not None:
        return _column_sum(kept, rhs)
    s2 = np.asarray(model.sigma2(t, y.T), dtype=float)
    if s2.shape[-2:] == (1, 1):
        if np.any(s2 == 0.0):
            raise ValueError(f"sigma2 singular at t={t}")
        return rhs / s2[..., 0].T
    try:
        if s2.ndim > 2:
            return np.linalg.solve(s2, rhs.T[..., None])[..., 0].T
        return np.linalg.solve(s2, rhs.reshape(len(rhs), -1)).reshape(rhs.shape)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"sigma2 singular at t={t}") from exc


@dataclass(frozen=True)
class _Declared:
    """The values of a model's declared coefficients (built by _const or
    _linear_mark) where the rates need them, evaluated once at a zero state:
    the same at every (t, state) and broadcast in the same arithmetic, so
    every call's bits. None where a plain callable is needed instead.

    f1 holds f1 over nu1's marks; lam, f2, f3 hold lambda_fn, f2, f3 over
    nu2's marks; integrals holds _nu2_integrals of those when all three
    are declared; sigma2 the divisor of a 1 x 1 _const sigma2, the inverse
    of a d x d one, 0.0 if singular. Arrays end in `batch`, () or (1,)."""

    f1: list
    lam: list
    f2: list
    f3: list
    integrals: tuple
    sigma2: object

    @staticmethod
    def of(model: ModelSpec, batch: tuple) -> "_Declared":
        x, y = np.zeros((model.dim_x,) + batch), np.zeros((model.dim_y,) + batch)

        def at_marks(coefficient, levy, core, *state):
            if _declared_matrix(coefficient) is None or not isinstance(levy, LevyMeasure):
                return None
            return _at_marks(None, coefficient, levy, 0.0, core, *state)

        lam = at_marks(model.lambda_fn, model.nu2, 0, x)
        f2 = at_marks(model.f2, model.nu2, 1, y)
        f3 = at_marks(model.f3, model.nu2, 1, x, y)
        integrals = None
        if lam is not None and f2 is not None and f3 is not None:
            integrals = _nu2_integrals(model.nu2, lam, f2, f3)
        s2 = _const_matrix(model.sigma2)
        if s2 is not None:
            try:
                s2 = (float(s2[0, 0]) if s2.shape == (1, 1)
                      else np.linalg.inv(s2).reshape(s2.shape + batch))
            except np.linalg.LinAlgError:
                s2 = 0.0
        return _Declared(at_marks(model.f1, model.nu1, 1, x, y), lam, f2, f3,
                         integrals, s2)


def _at_marks(kept, coefficient, levy, t: float, core: int, *state):
    """coefficient(t, *state, u) at each mark u of levy, in atom order, with
    `core` component axes (0 for lambda_fn, 1 for a jump loading): the
    values kept for a declared coefficient, else evaluated."""
    if kept is not None:
        return kept
    return [_moved(coefficient(t, *(s.T for s in state), u), core, state[0])
            for u in levy.marks()]


def _nu2_integrals(nu2: LevyMeasure, lam, f2, f3):
    """(int f3 lambda, int f2 lambda, int f2 (1 - lambda), int (1 - lambda))
    dnu2 from lambda, f2 and f3 at nu2's marks, each added in atom order."""
    return (_atom_sum(nu2, (f * l for f, l in zip(f3, lam))),
            _atom_sum(nu2, (f * l for f, l in zip(f2, lam))),
            _atom_sum(nu2, map(_h_integrand, f2, lam)),
            _atom_sum(nu2, (1.0 - l for l in lam)))


def _reference_rates(model: ModelSpec, t: float, x, y, signal: bool = False):
    """Reference-measure dt rates at component-major states x (d_X, n),
    y (d_Y, n) or one state (d,), from one lambda evaluation per atom of an
    atomic nu2 (none when lambda_fn, f2 and f3 are declared): (bx, by, h,
    comp), a vector (d, n), or (d, 1) where it is the same for all, with

        bx = b1 - int f1 dnu1 - int f3 lambda dnu2 - sigma1 h,
        by = b2 - int f2 lambda dnu2 - sigma2 h,
        h = sigma2^{-1} (b2 + int f2 (1 - lambda) dnu2),
        comp = int (1 - lambda) dnu2 (0.0 without an atomic nu2).

    bx + sigma1 h and by + sigma2 h are the physical-measure rates of
    _rates. With `signal`, by keeps that value and the sigma2 h product,
    which a step moving X alone along a given Y never reads, is skipped."""
    bx, by, rhs, comp = _rates(model, t, x, y)
    h = _solve_sigma2(model, t, y, rhs)
    bx = bx - _column_sum(_loading(model.sigma1, t, x, y), h)
    if not signal:
        by = by - _column_sum(_loading(model.sigma2, t, y), h)
    return bx, by, h, comp


def _rates(model: ModelSpec, t: float, x, y):
    """(bx + sigma1 h, by + sigma2 h, sigma2 h, comp) of _reference_rates:
    the physical-measure rates, h's right-hand side and the compensator,
    from one evaluation of each plain lambda_fn, f1, f2 and f3 per atom
    (declared ones are kept, see _Declared). A StableTail nu2 needs no
    compensator: the tail is symmetric and the jump loadings are linear in
    the mark, so int f lambda dnu2 = 0."""
    bx = _drift(model.b1, t, x, y)
    by = rhs = _drift(model.b2, t, x, y)
    comp = 0.0
    kept = _declared_for(model, x)
    if model.nu1 is not None:
        bx = bx - _atom_sum(
            model.nu1, _at_marks(kept.f1, model.f1, model.nu1, t, 1, x, y))
    nu2 = model.nu2
    if isinstance(nu2, LevyMeasure):
        integrals = kept.integrals
        if integrals is None:
            integrals = _nu2_integrals(
                nu2, _at_marks(kept.lam, model.lambda_fn, nu2, t, 0, x),
                _at_marks(kept.f2, model.f2, nu2, t, 1, y),
                _at_marks(kept.f3, model.f3, nu2, t, 1, x, y))
        f3_lam, f2_lam, h_term, comp = integrals
        bx = bx - f3_lam
        by = by - f2_lam
        rhs = rhs + h_term
    return bx, by, rhs, comp


def _lambda_bounds(model: ModelSpec):
    lo = float(model.meta.get("lambda_min", 1.0))
    hi = float(model.meta.get("lambda_max", 1.0))
    return lo, hi


def validate_model(model: ModelSpec) -> dict:
    """Probe the standing assumptions at 64 random states (seed 0): linear
    coefficient growth, invertible sigma2 with bounded inverse, lambda
    bounded away from 0 and within the declared [lambda_min, lambda_max]
    (lambda_max is the thinning bound of _kept),
    the (1-lambda)^2/lambda integrability functional, and the p-moment
    witness in the infinite-activity regime. lambda is evaluated once per
    probe and mark of an atomic nu2, sigma2 once per probe. Returns a
    report; the 'ok' entry is the conjunction."""
    n_probes = 64
    rng = np.random.default_rng(0)
    xs = rng.standard_normal((n_probes, model.dim_x)) * 3.0
    ys = rng.standard_normal((n_probes, model.dim_y)) * 3.0
    ts = rng.uniform(0.0, 1.0, n_probes)
    growth, inv_norms, lam_lo, lam_hi = 0.0, 0.0, np.inf, 0.0
    lam_integrability = 0.0
    for t, x, y in zip(ts, xs, ys):
        scale = 1.0 + np.linalg.norm(x) + np.linalg.norm(y)
        s2 = np.asarray(model.sigma2(t, y), dtype=float)
        vals = [model.b1(t, x, y), model.b2(t, x, y), model.sigma0(t, x, y),
                model.sigma1(t, x, y), s2]
        if not all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in vals):
            return {"ok": False, "reason": "non-finite coefficient at probe"}
        growth = max(growth, max(np.max(np.abs(np.asarray(v))) for v in vals) / scale)
        try:
            inv_norms = max(inv_norms, float(np.linalg.norm(np.linalg.inv(s2))))
        except np.linalg.LinAlgError:
            return {"ok": False, "reason": f"sigma2 singular at probe t={t}"}
        if isinstance(model.nu2, LevyMeasure):
            lams = _at_marks(None, model.lambda_fn, model.nu2, t, 0, x)
            lam_lo = min(lam_lo, *map(float, lams))
            lam_hi = max(lam_hi, *map(float, lams))
            lam_integrability = max(lam_integrability, float(_atom_sum(
                model.nu2, [(1.0 - lam) ** 2 / lam for lam in lams])))
    report = {
        "growth_ratio": float(growth),
        "sigma2_inv_bound": float(inv_norms),
        "lambda_range": (float(lam_lo), float(lam_hi)),
        "lambda_integrability": float(lam_integrability),
        "n_probes": n_probes,
    }
    ok = np.isfinite(growth) and np.isfinite(inv_norms)
    lo, hi = _lambda_bounds(model)
    if isinstance(model.nu2, LevyMeasure):
        ok = ok and lam_lo > 0.0 and np.isfinite(lam_hi)
        ok = ok and lo <= lam_lo and lam_hi <= hi
        ok = ok and np.isfinite(lam_integrability)
    if model.regime == "infinite_jumps":
        witness = model.nu2.p_moment(P_VAR)
        report[f"p_moment_{P_VAR}"] = float(witness)
        ok = ok and np.isfinite(witness) and lo == hi == 1.0
    report["ok"] = bool(ok)
    return report


# -- noise bundles ---------------------------------------------------------


@dataclass(frozen=True)
class JumpRecord:
    """Marked atoms of one point process: candidate times (sorted), the atom
    marks, and an acceptance uniform per atom for state-dependent thinning."""

    times: np.ndarray
    marks: np.ndarray  # (k, mark_dim)
    accept_u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        marks = np.asarray(self.marks, dtype=float)
        if marks.ndim != 2:  # one row per atom; an empty record gets width 1
            marks = marks.reshape(len(self.times), -1 if len(self.times) else 1)
        object.__setattr__(self, "marks", marks)
        object.__setattr__(self, "accept_u",
                           np.asarray(self.accept_u, dtype=float))

    def __len__(self):
        return len(self.times)


@dataclass(frozen=True)
class NoiseBundle:
    """All randomness for one path: Brownian increments on the event-refined
    grid plus the marked point processes, tagged with the measure they were
    drawn under ("physical": observed jumps thinned by lambda; "reference":
    observed jumps at plain nu2 intensity and the bundle Brownian plays the
    reference-measure motion)."""

    seed: int
    T: float
    times: np.ndarray
    brownian_B: np.ndarray  # (n-1, d_B) increments
    brownian_W: np.ndarray  # (n-1, d_Y) increments
    pp_jumps: dict  # measure name -> JumpRecord
    epsilon: float = None
    measure: str = "physical"


def _sample_finite_atoms(rng, levy: LevyMeasure, T: float, boost: float):
    """(times, marks, accept_u) of a Poisson draw at rate boost * levy on
    [0, T]: a count, its sorted uniform times, its marks by
    LevyMeasure.pick_marks on one uniform each, and its acceptance
    uniforms; marks are (count, d_u), also when count is 0."""
    count = rng.poisson(levy.total_rate * boost * T)
    times = np.sort(rng.uniform(0.0, T, count))
    marks = levy.pick_marks(rng.random(count))
    return times, marks, rng.uniform(0.0, 1.0, count)


def _sample_stable_atoms(rng, tail: StableTail, epsilon: float, T: float):
    """Series representation: the k-th largest jump size is the inverse tail
    at Gamma_k / T for unit-rate arrival times Gamma_k. Draws are interleaved
    (arrival, time, sign) per atom, so for a fixed seed the atom set at a
    smaller epsilon extends the one at a larger epsilon."""
    cap = T * tail.tail_mass(epsilon)
    gamma = 0.0
    times, sizes = [], []
    while True:
        gamma += rng.exponential()
        t = rng.uniform(0.0, T)
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        if gamma >= cap:
            break
        times.append(t)
        sizes.append(sign * tail.inv_tail(gamma / T))
    order = np.argsort(times)
    times = np.asarray(times, dtype=float)[order]
    sizes = np.asarray(sizes, dtype=float)[order]
    return times, sizes[:, None]


def make_noise_bundle(model: ModelSpec, T: float, steps: int, seed: int,
                      epsilon: float = None,
                      measure: str = "physical") -> NoiseBundle:
    """Draw one noise realization: the auxiliary (nu1) and observed (nu2)
    point processes as independent draws from one generator, nu1 first, then
    Brownian increments on the union of the uniform grid and all atom times.
    Should a nu1 and a nu2 atom share a time, simulate_pair applies the nu1
    atom first and both read the one left limit. StableTail.tail_mass checks
    epsilon's range."""
    if measure not in ("physical", "reference"):
        raise ValueError(f"unknown measure {measure!r}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    rng = np.random.default_rng(seed)
    empty = JumpRecord(np.zeros(0), np.zeros((0, 1)), np.zeros(0))
    records = {"nu1": empty, "nu2": empty}
    if model.nu1 is not None:
        records["nu1"] = JumpRecord(*_sample_finite_atoms(rng, model.nu1, T, 1.0))
    if isinstance(model.nu2, LevyMeasure):
        boost = _lambda_bounds(model)[1] if measure == "physical" else 1.0
        records["nu2"] = JumpRecord(*_sample_finite_atoms(rng, model.nu2, T, boost))
    elif isinstance(model.nu2, StableTail):
        if epsilon is None:
            raise ValueError("infinite-activity noise needs a truncation epsilon")
        t2, m2 = _sample_stable_atoms(rng, model.nu2, epsilon, T)
        records["nu2"] = JumpRecord(t2, m2, np.ones(len(t2)))

    times = np.linspace(0.0, T, steps + 1)
    all_jumps = np.concatenate([records["nu1"].times, records["nu2"].times])
    if all_jumps.size:
        times = np.union1d(times, all_jumps)
    n = len(times)
    dts = np.diff(times)
    brownian_B = rng.standard_normal((n - 1, model.dim_b)) * np.sqrt(dts)[:, None]
    brownian_W = rng.standard_normal((n - 1, model.dim_y)) * np.sqrt(dts)[:, None]
    return NoiseBundle(int(seed), float(T), times, brownian_B,
                       brownian_W, records, epsilon, measure)


# -- simulation ------------------------------------------------------------


def _observed_lambda(model: ModelSpec, t: float, x_left, u) -> np.ndarray:
    """lambda(t, X_{t-}, u) at an observed atom, batched over the leading
    axes of x_left; a value <= 0 raises ValueError."""
    lam = np.asarray(model.lambda_fn(t, x_left, u), dtype=float)
    if np.any(lam <= 0.0):
        raise ValueError(f"lambda <= 0 at t={t}")
    return lam


def _kept(model: ModelSpec, noise: NoiseBundle, a: int, x_left) -> bool:
    """Whether observed atom a of the bundle, at (t, u), survives thinning:
    the one thinning rule. Under the physical measure with an atomic nu2 it
    survives iff accept_u < lam / lambda_max, with lam = lambda(t, X_{t-},
    u) from _observed_lambda, and a lam above lambda_max (meta, default
    1.0), which thinning cannot reach, raises ValueError; otherwise it
    always survives, and lambda is not evaluated."""
    if noise.measure == "reference" or not isinstance(model.nu2, LevyMeasure):
        return True
    rec = noise.pp_jumps["nu2"]
    lam = float(_observed_lambda(model, float(rec.times[a]), x_left, rec.marks[a]))
    lam_max = _lambda_bounds(model)[1]
    if lam > lam_max:
        raise ValueError(f"lambda {lam} at t={rec.times[a]} exceeds the thinning "
                         f"bound lambda_max={lam_max}")
    return bool(rec.accept_u[a] < lam / lam_max)


def _accepted_nu2(model: ModelSpec, noise: NoiseBundle, X: CadlagPath):
    """The thinning decisions simulate_pair made, one bool per nu2 atom,
    read off the signal X it returned by _kept: X.pre_values holds X_{t-}
    at each atom's grid index."""
    idx = np.searchsorted(noise.times, noise.pp_jumps["nu2"].times)
    return np.array([_kept(model, noise, a, X.pre_values[i])
                     for a, i in enumerate(idx)], dtype=bool)


class SimulationBlowupError(NumericalAbort):
    """Raised when the simulated state stops being finite;
    diagnostics["step_index"] is the grid step k whose Heun step on
    [t_k, t_{k+1}] produced it."""


def simulate_pair(model: ModelSpec, noise: NoiseBundle):
    """Integrate the signal-observation system along one noise bundle.

    Heun (predictor-corrector) steps for the Stratonovich diffusion part on
    the event-refined grid; compensated-jump drifts folded into the dt term;
    atoms applied to the left limits at their exact grid times. Returns
    (X, Y) as cadlag paths; deterministic given (model, noise). A state that
    stops being finite raises SimulationBlowupError.
    """
    times = noise.times
    n = len(times)
    x = np.array(model.x0, dtype=float)
    y = np.array(model.y0, dtype=float)
    X = np.empty((n, model.dim_x))
    Y = np.empty((n, model.dim_y))
    preX, preY = np.empty_like(X), np.empty_like(Y)
    X[0], Y[0] = x, y
    preX[0], preY[0] = x, y

    rec1, rec2 = noise.pp_jumps["nu1"], noise.pp_jumps["nu2"]
    # the atoms at grid time times[j]: rows lo[j]:hi[j] of a record (times sorted)
    lo1, hi1, lo2, hi2 = (np.searchsorted(rec.times, times, side=side).tolist()
                          for rec in (rec1, rec2) for side in ("left", "right"))
    rates = _reference_rates if noise.measure == "reference" else _rates

    def euler_rates(t, xv, yv, dB, dW, dt):
        bx, by = rates(model, t, xv, yv)[:2]
        return (bx * dt + _loading(model.sigma0, t, xv, yv) @ dB
                + _loading(model.sigma1, t, xv, yv) @ dW,
                by * dt + _loading(model.sigma2, t, yv) @ dW)

    for k in range(n - 1):
        t, dt = float(times[k]), float(times[k + 1] - times[k])
        dB, dW = noise.brownian_B[k], noise.brownian_W[k]
        dx1, dy1 = euler_rates(t, x, y, dB, dW, dt)
        dx2, dy2 = euler_rates(float(times[k + 1]), x + dx1, y + dy1, dB, dW, dt)
        x = x + 0.5 * (dx1 + dx2)
        y = y + 0.5 * (dy1 + dy2)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise SimulationBlowupError(f"simulation blew up at step {k}",
                                        {"step_index": k})
        preX[k + 1], preY[k + 1] = x, y
        tk = float(times[k + 1])
        for a in range(lo1[k + 1], hi1[k + 1]):
            x = x + np.asarray(model.f1(tk, x, y, rec1.marks[a]), dtype=float)
        for a in range(lo2[k + 1], hi2[k + 1]):
            if not _kept(model, noise, a, preX[k + 1]):
                continue
            u = rec2.marks[a]
            dxj = np.asarray(model.f3(tk, x, y, u), dtype=float)
            dyj = np.asarray(model.f2(tk, y, u), dtype=float)
            x = x + dxj
            y = y + dyj
        X[k + 1], Y[k + 1] = x, y

    return CadlagPath(times, X, preX, "linear"), CadlagPath(times, Y, preY, "linear")


# -- measure-change exponent ----------------------------------------------


def girsanov_exponent(model: ModelSpec, noise: NoiseBundle, X: CadlagPath,
                      Y: CadlagPath, mode: str = "stratonovich") -> CadlagPath:
    """The exponent I_t of the change-of-measure density along one path.

    Accumulates the h . dW_bundle quadrature (trapezoid for "stratonovich",
    left endpoint for "ito"), the |h|^2/2 dt term with the sign matching the
    bundle's measure (+ under "physical", - under "reference"), log lambda at
    the observed atoms that _kept accepts (_observed_lambda at X_{t-}), and
    the (1 - lambda) nu2 compensator at the left endpoint, read from _rates
    as the particle sweep reads it. With these signs E[exp(-I_T)] = 1 over
    physical bundles and E[exp(I_T)] = 1 over reference bundles.
    """
    if mode not in ("stratonovich", "ito"):
        raise ValueError(f"unknown quadrature mode {mode!r}")
    times = noise.times
    if not all(np.array_equal(P.times, times) for P in (X, Y)):
        raise ValueError("paths must come from simulate_pair on this bundle")
    n = len(times)
    sign = 0.5 if noise.measure == "physical" else -0.5
    rec2 = noise.pp_jumps["nu2"]
    lo2, hi2 = (np.searchsorted(rec2.times, times, side=side).tolist()
                for side in ("left", "right"))

    vals = np.empty(n)
    pre = np.empty(n)
    vals[0] = pre[0] = 0.0
    acc = 0.0
    for k in range(n - 1):
        t0, t1 = float(times[k]), float(times[k + 1])
        dt = t1 - t0
        x0v, y0v = X.values[k], Y.values[k]
        h0 = h_function(model, t0, x0v, y0v)
        if mode == "stratonovich":
            h1 = h_function(model, t1, X.pre_values[k + 1], Y.pre_values[k + 1])
            acc += 0.5 * float((h0 + h1) @ noise.brownian_W[k])
            acc += sign * 0.5 * float(h0 @ h0 + h1 @ h1) * dt
        else:
            acc += float(h0 @ noise.brownian_W[k])
            acc += sign * float(h0 @ h0) * dt
        if isinstance(model.nu2, LevyMeasure):
            acc += float(_rates(model, t0, x0v, y0v)[3]) * dt
        pre[k + 1] = acc
        x_left = X.pre_values[k + 1]
        for a in range(lo2[k + 1], hi2[k + 1]):
            if _kept(model, noise, a, x_left):
                acc += np.log(float(_observed_lambda(model, t1, x_left, rec2.marks[a])))
        vals[k + 1] = acc
    return CadlagPath(times, vals, pre, "linear")


# -- shot noise ------------------------------------------------------------


def _atom_path(times: np.ndarray, atom_times, sizes) -> CadlagPath:
    """Piecewise-constant cumulative atom-sum path on a grid that already
    contains the atom times, which are sorted (arrays, as both samplers
    return them)."""
    return _step_path(times, atom_times, np.concatenate([[0.0], np.cumsum(sizes)]))


def shot_noise(levy: StableTail, epsilon: float, seed: int, grid) -> CadlagPath:
    """The truncated shot-noise path xi^eps: the running sum of the atoms
    with eps < |x| < 1 from the series sampler (nested across eps at fixed
    seed), on the grid joined with the atom times. The tail is symmetric,
    so the small-jump compensator is zero. StableTail.tail_mass checks
    epsilon's range."""
    if not isinstance(levy, StableTail):
        raise ValueError("shot_noise needs a StableTail descriptor")
    grid = np.asarray(grid, dtype=float)
    rng = np.random.default_rng(seed)
    at, sizes = _sample_stable_atoms(rng, levy, epsilon, float(grid[-1]))
    return _atom_path(np.union1d(grid, at), at, sizes[:, 0])


def reconstruct_wtilde(model: ModelSpec, Y: CadlagPath) -> CadlagPath:
    """Recover the reference-measure Brownian motion from an observation
    path: dWt = sigma2^{-1}(dY_cont + int f2 dnu2 dt), with the continuous
    increments read between left limits (observed jumps drop out exactly).
    Exact for constant sigma2; left-endpoint sigma2 otherwise."""
    times = Y.times
    n = len(times)
    out = np.zeros((n, model.dim_y))
    w = np.zeros(model.dim_y)
    kept, nu2 = model._declared_one, model.nu2
    for k in range(n - 1):
        t0 = float(times[k])
        dt = float(times[k + 1] - times[k])
        y0v = Y.values[k]
        dy = Y.pre_values[k + 1] - y0v
        if isinstance(nu2, LevyMeasure):
            dy = dy + dt * _atom_sum(nu2, _at_marks(kept.f2, model.f2, nu2, t0, 1, y0v))
        w = w + np.linalg.solve(_loading(model.sigma2, t0, y0v), dy)
        out[k + 1] = w
    return CadlagPath(times, out, None, "linear")


# -- model catalog ---------------------------------------------------------


def _const(mat):
    """A coefficient constant in (t, state): (t, state...) -> mat broadcast
    over the leading axes of the first state argument, as a read-only view.
    The callable carries `mat` as its `matrix` and is marked `constant`,
    which is how the filter knows the coefficient is constant (see
    _const_matrix)."""
    mat = np.asarray(mat, dtype=float)

    def f(t, *state):
        return np.broadcast_to(mat, np.shape(state[0])[:-1] + mat.shape)

    f.matrix = mat
    f.constant = True
    return f


def _linear_mark(mat):
    """A jump loading linear in the mark and constant in (t, state):
    (t, state..., u) -> mat @ u broadcast over the leading axes of the first
    state argument (for one state, the product itself). It carries `mat` as
    its `matrix`, like _const."""
    mat = np.asarray(mat, dtype=float)

    def f(t, *args):
        lead = np.shape(args[0])[:-1]
        jump = mat @ np.atleast_1d(np.asarray(args[-1], dtype=float))
        return np.broadcast_to(jump, lead + jump.shape) if lead else jump

    f.matrix = mat
    return f


def _linear_state(mat):
    """A drift linear in the signal and constant in t: (t, x, y) -> mat x,
    broadcast over the leading axes of x, as c * x when mat is 1 x 1, else
    as a column sum. It carries `mat` as its `matrix`, like _const, and
    _state_matrix tells it apart from a constant."""
    mat = np.asarray(mat, dtype=float)
    if mat.shape == (1, 1):
        c = float(mat[0, 0])

        def f(t, x, y):
            return c * x
    else:
        def f(t, x, y):
            x = np.asarray(x, dtype=float)
            return _components_last(_column_sum(
                mat.reshape(mat.shape + (1,) * (x.ndim - 1)), _components_first(x)))

    f.matrix = mat
    f.reads_state = True
    return f


def _declared_matrix(coefficient):
    """The matrix of a coefficient built by _const, _linear_mark or
    _linear_state, else None (a plain callable, which is evaluated wherever
    it is needed)."""
    return getattr(coefficient, "matrix", None)


def _const_matrix(coefficient):
    """The matrix of a coefficient built by _const, fixed at every state."""
    return coefficient.matrix if getattr(coefficient, "constant", False) else None


def _state_matrix(coefficient):
    """M of a drift built by _linear_state (x -> M x), else None."""
    if getattr(coefficient, "reads_state", False):
        return coefficient.matrix
    return None


def linear_gaussian(a=-0.5, s0=0.4, s1=0.3, c=1.0, gamma=0.5,
                    x0=1.0, y0=0.0) -> ModelSpec:
    """Scalar correlated Kalman-Bucy system: dX = aX dt + s0 dB + s1 dW,
    dY = cX dt + gamma dW; no jumps."""
    return ModelSpec(
        model_id="linear_gaussian",
        dim_x=1, dim_y=1, dim_b=1,
        b1=_linear_state([[a]]), b2=_linear_state([[c]]),
        sigma0=_const([[s0]]), sigma1=_const([[s1]]), sigma2=_const([[gamma]]),
        f1=_linear_mark([[0.0]]), f2=_linear_mark([[0.0]]),
        f3=_linear_mark([[0.0]]),
        lambda_fn=_const(1.0),
        nu1=None, nu2=None, x0=(x0,), y0=(y0,),
        meta={"a": a, "s0": s0, "s1": s1, "c": c, "gamma": gamma,
              "lambda_min": 1.0, "lambda_max": 1.0},
    )


def scalar_jump_diffusion(a=-0.4, s0=0.35, s1=0.25, c=0.8, gamma=0.5,
                          kappa=0.5, jump2=0.3, jump3=0.2, jump1=0.15,
                          rate2=1.0, rate1=0.5, x0=0.5, y0=0.0) -> ModelSpec:
    """Scalar jump diffusion with common observed jumps (marks +/-1 at equal
    rates), a state-dependent observed-jump intensity
    lambda = exp(kappa tanh(x) u), and an auxiliary signal-only jump part."""
    lam_hi = float(np.exp(kappa))

    def lam(t, x, u):
        x = np.asarray(x, dtype=float)
        return np.exp(kappa * np.tanh(x[..., 0]) * float(np.atleast_1d(u)[0]))

    return ModelSpec(
        model_id="scalar_jump_diffusion",
        dim_x=1, dim_y=1, dim_b=1,
        b1=_linear_state([[a]]), b2=_linear_state([[c]]),
        sigma0=_const([[s0]]), sigma1=_const([[s1]]), sigma2=_const([[gamma]]),
        f1=_linear_mark([[jump1]]), f2=_linear_mark([[jump2]]),
        f3=_linear_mark([[jump3]]),
        lambda_fn=lam,
        nu1=LevyMeasure((((1.0,), rate1),)),
        nu2=LevyMeasure((((1.0,), 0.5 * rate2), ((-1.0,), 0.5 * rate2))),
        x0=(x0,), y0=(y0,),
        meta={"a": a, "c": c, "gamma": gamma, "kappa": kappa,
              "lambda_min": float(np.exp(-kappa)), "lambda_max": lam_hi},
    )


def correlated_jump_multidim(x0=(0.8, -0.2), y0=(0.0, 0.0)) -> ModelSpec:
    """Two-dimensional signal and observation with common vector jumps and
    non-diagonal diffusion loadings; lambda = 1 (reference-rate jumps)."""
    A = np.array([[-0.6, 0.2], [-0.1, -0.4]])
    C = np.array([[0.9, 0.0], [0.3, 0.7]])
    S0 = np.array([[0.3], [0.15]])
    S1 = np.array([[0.25, 0.1], [0.0, 0.2]])
    S2 = np.array([[0.5, 0.0], [0.1, 0.45]])
    J2 = {(0.4, -0.2): 0.6, (-0.3, 0.3): 0.6}

    return ModelSpec(
        model_id="correlated_jump_multidim",
        dim_x=2, dim_y=2, dim_b=1,
        b1=_linear_state(A), b2=_linear_state(C),
        sigma0=_const(S0), sigma1=_const(S1), sigma2=_const(S2),
        f1=_linear_mark(np.zeros((2, 2))), f2=_linear_mark(0.5 * np.eye(2)),
        f3=_linear_mark([[0.0, 0.3], [0.3, 0.0]]),
        lambda_fn=_const(1.0),
        nu1=None,
        nu2=LevyMeasure(tuple((m, r) for m, r in J2.items())),
        x0=x0, y0=y0,
        meta={"lambda_min": 1.0, "lambda_max": 1.0},
    )


def stable_shot_noise(alpha=1.0, c=0.3, a=-0.5, s0=0.35, s1=0.2, cobs=0.8,
                      gamma=0.5, rho2=0.25, rho3=0.3,
                      x0=0.6, y0=0.0) -> ModelSpec:
    """Infinite-activity regime: symmetric stable-like observed jump noise
    with constant jump loadings (f2 = rho2 u, f3 = rho3 u) and lambda = 1."""
    return ModelSpec(
        model_id="stable_shot_noise",
        dim_x=1, dim_y=1, dim_b=1,
        b1=_linear_state([[a]]), b2=_linear_state([[cobs]]),
        sigma0=_const([[s0]]), sigma1=_const([[s1]]), sigma2=_const([[gamma]]),
        f1=_linear_mark([[0.0]]), f2=_linear_mark([[rho2]]),
        f3=_linear_mark([[rho3]]),
        lambda_fn=_const(1.0),
        nu1=None, nu2=StableTail(alpha, c), x0=(x0,), y0=(y0,),
        meta={"a": a, "cobs": cobs, "gamma": gamma, "rho2": rho2, "rho3": rho3,
              "lambda_min": 1.0, "lambda_max": 1.0},
    )


MODEL_BUILDERS = {
    "linear_gaussian": linear_gaussian,
    "scalar_jump_diffusion": scalar_jump_diffusion,
    "correlated_jump_multidim": correlated_jump_multidim,
    "stable_shot_noise": stable_shot_noise,
}


def get_model(model_id: str, **params) -> ModelSpec:
    if model_id not in MODEL_BUILDERS:
        raise ValueError(
            f"unknown model {model_id!r}; available: {sorted(MODEL_BUILDERS)}")
    return MODEL_BUILDERS[model_id](**params)
