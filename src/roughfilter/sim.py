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

import numpy as np

from .paths import CadlagPath


# -- Levy measure descriptors ---------------------------------------------


@dataclass(frozen=True)
class LevyMeasure:
    """Finite-activity jump-size measure: weighted atoms ((mark, rate), ...).

    Marks are vectors (stored as tuples); rate is the Poisson intensity of
    that mark, so the total arrival rate is the sum of rates.
    """

    atoms: tuple

    def __post_init__(self):
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

    def integrate(self, fn):
        """sum_a rate_a * fn(u_a); fn may return any broadcastable shape."""
        return _atom_sum(self, (fn(np.array(mark)) for mark, _ in self.atoms))


def _atom_sum(levy: LevyMeasure, values):
    """sum_a rate_a * values[a], added in atom order: the arithmetic of
    LevyMeasure.integrate over values already evaluated at the marks."""
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
        """nu(r < |x| < 1)."""
        if not 0.0 < r < 1.0:
            raise ValueError("truncation level must lie in (0, 1)")
        return 2.0 * self.c / self.alpha * (r ** (-self.alpha) - 1.0)

    def inv_tail(self, y: float) -> float:
        """Jump size whose tail mass is y (inverse of tail_mass)."""
        return (1.0 + self.alpha * y / (2.0 * self.c)) ** (-1.0 / self.alpha)

    def p_moment(self, p: float) -> float:
        """int |x|^p nu(dx) over |x| < 1; finite exactly when p > alpha."""
        if p <= self.alpha:
            return float("inf")
        return 2.0 * self.c / (p - self.alpha)

    def mean(self, epsilon: float) -> float:
        """int_{eps<|x|<1} x nu(dx): zero by symmetry."""
        return 0.0


# -- model specification ---------------------------------------------------


@dataclass(frozen=True)
class ModelSpec:
    """Coefficients and noise descriptors of one signal-observation system.

    All coefficient evaluators broadcast over leading batch axes of x and y:
    b1(t,x,y)->(...,dx), b2->(...,dy), sigma0->(...,dx,db),
    sigma1->(...,dx,dy), sigma2(t,y)->(...,dy,dy), f1(t,x,y,u)->(...,dx),
    f2(t,y,u)->(...,dy), f3(t,x,y,u)->(...,dx), lambda_fn(t,x,u)->(...,).
    sigma0, sigma1, sigma2 and lambda_fn may be declared constant by building
    them with _const, and f1, f2, f3 declared linear in the mark by building
    them with _linear_mark; the particle sweep then skips the work that this
    structure makes unnecessary. Any other callable is evaluated in full.
    """

    model_id: str
    regime: str  # "scalar" | "finite_jumps" | "infinite_jumps"
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
        if self.regime not in ("scalar", "finite_jumps", "infinite_jumps"):
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.regime == "infinite_jumps" and not isinstance(self.nu2, StableTail):
            raise ValueError("infinite_jumps regime needs a StableTail nu2")
        object.__setattr__(self, "x0", tuple(float(v) for v in np.atleast_1d(self.x0)))
        object.__setattr__(self, "y0", tuple(float(v) for v in np.atleast_1d(self.y0)))
        if len(self.x0) != self.dim_x or len(self.y0) != self.dim_y:
            raise ValueError("initial values do not match declared dimensions")


def h_function(model: ModelSpec, t: float, x, y):
    """h = sigma2^{-1} (b2 + int f2 (1 - lambda) dnu2); broadcasts over
    leading axes of x, y. The nu2 integral is exact for atom lists (one
    constant vector when lambda_fn, f2 and f3 are declared, see _nu2_state)
    and zero in the infinite-activity regime (lambda = 1 there)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rhs = np.asarray(model.b2(t, x, y), dtype=float)
    if isinstance(model.nu2, LevyMeasure):
        xs, ys = _nu2_state(model, x, y)
        rhs = rhs + model.nu2.integrate(lambda u: _h_integrand(
            np.asarray(model.f2(t, ys, u), dtype=float),
            np.asarray(model.lambda_fn(t, xs, u), dtype=float)))
    return _solve_sigma2(model, t, y, rhs)


def _h_integrand(f2, lam):
    """f2 (1 - lambda), the nu2 integrand of h's right-hand side."""
    return f2 * (1.0 - lam)[..., None]


def _solve_sigma2(model: ModelSpec, t: float, y, rhs):
    """sigma2^{-1} rhs. A sigma2 declared constant (built by _const) is used
    as its matrix: one division when it is 1 x 1, else one solve with every
    right-hand side as a column."""
    s2 = _declared_matrix(model.sigma2)
    if s2 is None:
        s2 = np.asarray(model.sigma2(t, y), dtype=float)
    if s2.shape[-2:] == (1, 1):
        if np.any(s2 == 0.0):
            raise ValueError(f"sigma2 singular at t={t}")
        return rhs / s2[..., 0]
    try:
        if s2.ndim > 2:
            return np.linalg.solve(s2, rhs[..., None])[..., 0]
        sol = np.linalg.solve(s2, rhs.reshape(-1, rhs.shape[-1]).T)
        return sol.T.reshape(rhs.shape)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"sigma2 singular at t={t}") from exc


def _nu2_state(model: ModelSpec, x, y):
    """The state at which the nu2 integrands are evaluated: (x, y) itself,
    or one zero state when lambda_fn, f2 and f3 are all declared (built by
    _const or _linear_mark). Then every nu2 integral is a constant vector,
    and one state gives it in the same arithmetic, so with the same bits,
    as every particle's state."""
    if all(_declared_matrix(c) is not None
           for c in (model.lambda_fn, model.f2, model.f3)):
        return np.zeros(model.dim_x), np.zeros(model.dim_y)
    return x, y


def _reference_rates(model: ModelSpec, t: float, x, y):
    """Reference-measure dt rates at (t, x, y) from one lambda evaluation
    per atom of an atomic nu2: (bx, by, h, comp) with

        bx = b1 - int f1 dnu1 - int f3 lambda dnu2 - sigma1 h,
        by = b2 - int f2 lambda dnu2 - sigma2 h,
        h = sigma2^{-1} (b2 + int f2 (1 - lambda) dnu2),
        comp = int (1 - lambda) dnu2 (0.0 without an atomic nu2);

    broadcasts over leading axes of x, y. bx + sigma1 h and by + sigma2 h
    are the physical-measure rates of _rates."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    bx, by, rhs, comp = _rates(model, t, x, y)
    h = _solve_sigma2(model, t, y, rhs)
    s1 = np.asarray(model.sigma1(t, x, y), dtype=float)
    s2 = np.asarray(model.sigma2(t, y), dtype=float)
    bx = bx - np.einsum("...ij,...j->...i", s1, h)
    by = by - np.einsum("...ij,...j->...i", s2, h)
    return bx, by, h, comp


def _rates(model: ModelSpec, t: float, x, y):
    """(bx + sigma1 h, by + sigma2 h, sigma2 h, comp) of _reference_rates:
    the physical-measure rates, h's right-hand side and the compensator,
    from one evaluation of lambda, f2 and f3 per atom of an atomic nu2. A
    StableTail nu2 needs no compensator: the tail is symmetric and the jump
    loadings are linear in the mark, so int f lambda dnu2 = 0."""
    bx = np.asarray(model.b1(t, x, y), dtype=float)
    by = rhs = np.asarray(model.b2(t, x, y), dtype=float)
    comp = 0.0
    if model.nu1 is not None and model.nu1.atoms:
        bx = bx - model.nu1.integrate(lambda u: model.f1(t, x, y, u))
    nu2 = model.nu2
    if isinstance(nu2, LevyMeasure):
        xs, ys = _nu2_state(model, x, y)
        marks = nu2.marks()
        lam = [np.asarray(model.lambda_fn(t, xs, u), dtype=float) for u in marks]
        f2 = [np.asarray(model.f2(t, ys, u), dtype=float) for u in marks]
        f3 = [np.asarray(model.f3(t, xs, ys, u), dtype=float) for u in marks]
        bx = bx - _atom_sum(nu2, (f * l[..., None] for f, l in zip(f3, lam)))
        by = by - _atom_sum(nu2, (f * l[..., None] for f, l in zip(f2, lam)))
        rhs = rhs + _atom_sum(nu2, map(_h_integrand, f2, lam))
        comp = _atom_sum(nu2, (1.0 - l for l in lam))
    return bx, by, rhs, comp


def _lambda_bounds(model: ModelSpec):
    lo = float(model.meta.get("lambda_min", 1.0))
    hi = float(model.meta.get("lambda_max", 1.0))
    return lo, hi


def validate_model(model: ModelSpec, seed: int = 0, n_probes: int = 64) -> dict:
    """Probe the standing assumptions at random states: linear coefficient
    growth, invertible sigma2 with bounded inverse, lambda bounded away from
    0 and infinity, the (1-lambda)^2/lambda integrability functional, and the
    p-moment witness in the infinite-activity regime. Returns a report; the
    'ok' entry is the conjunction."""
    rng = np.random.default_rng(seed)
    xs = rng.standard_normal((n_probes, model.dim_x)) * 3.0
    ys = rng.standard_normal((n_probes, model.dim_y)) * 3.0
    ts = rng.uniform(0.0, 1.0, n_probes)
    growth, inv_norms, lam_lo, lam_hi = 0.0, 0.0, np.inf, 0.0
    lam_integrability = 0.0
    for t, x, y in zip(ts, xs, ys):
        scale = 1.0 + np.linalg.norm(x) + np.linalg.norm(y)
        vals = [model.b1(t, x, y), model.b2(t, x, y), model.sigma0(t, x, y),
                model.sigma1(t, x, y), model.sigma2(t, y)]
        if not all(np.all(np.isfinite(np.asarray(v, dtype=float))) for v in vals):
            return {"ok": False, "reason": "non-finite coefficient at probe"}
        growth = max(growth, max(np.max(np.abs(np.asarray(v))) for v in vals) / scale)
        s2 = np.asarray(model.sigma2(t, y), dtype=float)
        try:
            inv_norms = max(inv_norms, float(np.linalg.norm(np.linalg.inv(s2))))
        except np.linalg.LinAlgError:
            return {"ok": False, "reason": f"sigma2 singular at probe t={t}"}
        if isinstance(model.nu2, LevyMeasure):
            for mark, rate in model.nu2.atoms:
                lam = float(np.asarray(model.lambda_fn(t, x, np.array(mark))))
                lam_lo, lam_hi = min(lam_lo, lam), max(lam_hi, lam)
                lam_integrability = max(
                    lam_integrability,
                    float(model.nu2.integrate(lambda u: (
                        1.0 - np.asarray(model.lambda_fn(t, x, u))) ** 2
                        / np.asarray(model.lambda_fn(t, x, u)))))
    report = {
        "growth_ratio": float(growth),
        "sigma2_inv_bound": float(inv_norms),
        "lambda_range": (float(lam_lo), float(lam_hi)),
        "lambda_integrability": float(lam_integrability),
        "n_probes": n_probes,
    }
    ok = np.isfinite(growth) and np.isfinite(inv_norms)
    if isinstance(model.nu2, LevyMeasure):
        ok = ok and lam_lo > 0.0 and np.isfinite(lam_hi)
        ok = ok and np.isfinite(lam_integrability)
    if model.regime == "infinite_jumps":
        witness = model.nu2.p_moment(2.5)
        report["p_moment_2.5"] = float(witness)
        lo, hi = _lambda_bounds(model)
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
        object.__setattr__(self, "marks",
                           np.atleast_2d(np.asarray(self.marks, dtype=float))
                           if len(self.times) else np.zeros((0, 1)))
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
    base_steps: int
    times: np.ndarray
    brownian_B: np.ndarray  # (n-1, d_B) increments
    brownian_W: np.ndarray  # (n-1, d_Y) increments
    pp_jumps: dict  # measure name -> JumpRecord
    epsilon: float = None
    measure: str = "physical"


def _sample_finite_atoms(rng, levy: LevyMeasure, T: float, boost: float):
    rate = levy.total_rate * boost
    count = rng.poisson(rate * T)
    times = np.sort(rng.uniform(0.0, T, count))
    probs = levy.rates() / levy.total_rate
    idx = rng.choice(len(levy.atoms), size=count, p=probs)
    marks = levy.marks()[idx] if count else np.zeros((0, len(levy.marks()[0]) if levy.atoms else 1))
    accept = rng.uniform(0.0, 1.0, count)
    return times, marks, accept


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
    """Draw one noise realization: auxiliary and observed point processes
    (re-drawn on exact time collisions so the two measures never jump
    together), then Brownian increments on the union of the uniform grid and
    all atom times."""
    if measure not in ("physical", "reference"):
        raise ValueError(f"unknown measure {measure!r}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    rng = np.random.default_rng(seed)
    records = {}

    if model.nu1 is not None and model.nu1.atoms:
        t1, m1, a1 = _sample_finite_atoms(rng, model.nu1, T, 1.0)
        records["nu1"] = JumpRecord(t1, m1, a1)
    else:
        records["nu1"] = JumpRecord(np.zeros(0), np.zeros((0, 1)), np.zeros(0))

    if isinstance(model.nu2, LevyMeasure) and model.nu2.atoms:
        _, lam_hi = _lambda_bounds(model)
        boost = lam_hi if measure == "physical" else 1.0
        t2, m2, a2 = _sample_finite_atoms(rng, model.nu2, T, boost)
        for _ in range(100):
            clash = np.isin(t2, records["nu1"].times)
            if not clash.any():
                break
            t2[clash] = rng.uniform(0.0, T, int(clash.sum()))
            order = np.argsort(t2)
            t2, m2, a2 = t2[order], m2[order], a2[order]
        records["nu2"] = JumpRecord(t2, m2, a2)
    elif isinstance(model.nu2, StableTail):
        if epsilon is None:
            raise ValueError("infinite-activity noise needs a truncation epsilon")
        if not 0.0 < epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        t2, m2 = _sample_stable_atoms(rng, model.nu2, epsilon, T)
        records["nu2"] = JumpRecord(t2, m2, np.ones(len(t2)))
    else:
        records["nu2"] = JumpRecord(np.zeros(0), np.zeros((0, 1)), np.zeros(0))

    times = np.linspace(0.0, T, steps + 1)
    all_jumps = np.concatenate([records["nu1"].times, records["nu2"].times])
    if all_jumps.size:
        times = np.union1d(times, all_jumps)
    n = len(times)
    dts = np.diff(times)
    brownian_B = rng.standard_normal((n - 1, model.dim_b)) * np.sqrt(dts)[:, None]
    brownian_W = rng.standard_normal((n - 1, model.dim_y)) * np.sqrt(dts)[:, None]
    return NoiseBundle(int(seed), float(T), int(steps), times, brownian_B,
                       brownian_W, records, epsilon, measure)


# -- simulation ------------------------------------------------------------


def _atom_lookup(record: JumpRecord, times: np.ndarray):
    """Map grid index -> atom index for atoms sitting exactly on the grid."""
    out = {}
    idx = np.searchsorted(times, record.times)
    for a, i in enumerate(idx):
        if i < len(times) and times[i] == record.times[a]:
            out.setdefault(int(i), []).append(a)
    return out


def _drift_pair(model: ModelSpec, t, x, y, measure: str):
    """The dt rates of (X, Y) under the bundle's measure."""
    if measure == "reference":
        return _reference_rates(model, t, x, y)[:2]
    return _rates(model, t, x, y)[:2]


def _accepted_nu2(model: ModelSpec, noise: NoiseBundle, x_left) -> np.ndarray:
    """Thinning decisions for the observed point process: under the physical
    measure an atom at t with mark u survives iff
    accept_u < lambda(t, X_{t-}, u) / lambda_max. x_left(t) must return the
    left limit of the signal path, so the same rule reproduces the decisions
    made during simulation."""
    rec = noise.pp_jumps["nu2"]
    if len(rec) == 0:
        return np.zeros(0, dtype=bool)
    if noise.measure == "reference" or not isinstance(model.nu2, LevyMeasure):
        return np.ones(len(rec), dtype=bool)
    _, lam_hi = _lambda_bounds(model)
    out = np.empty(len(rec), dtype=bool)
    for a in range(len(rec)):
        t, u = float(rec.times[a]), rec.marks[a]
        lam = float(np.asarray(model.lambda_fn(t, x_left(t), u)))
        if lam <= 0:
            raise ValueError(f"lambda <= 0 at t={t}")
        out[a] = rec.accept_u[a] < lam / lam_hi
    return out


def simulate_pair(model: ModelSpec, noise: NoiseBundle, steps: int):
    """Integrate the signal-observation system along one noise bundle.

    Heun (predictor-corrector) steps for the Stratonovich diffusion part on
    the event-refined grid; compensated-jump drifts folded into the dt term;
    atoms applied to the left limits at their exact grid times. Returns
    (X, Y) as cadlag paths; deterministic given (model, noise, steps).
    """
    if steps != noise.base_steps:
        raise ValueError(
            f"steps={steps} does not match the bundle's grid ({noise.base_steps})")
    times = noise.times
    n = len(times)
    x = np.array(model.x0, dtype=float)
    y = np.array(model.y0, dtype=float)
    X = np.empty((n, model.dim_x))
    Y = np.empty((n, model.dim_y))
    preX, preY = np.empty_like(X), np.empty_like(Y)
    X[0], Y[0] = x, y
    preX[0], preY[0] = x, y

    nu1_at = _atom_lookup(noise.pp_jumps["nu1"], times)
    nu2_at = _atom_lookup(noise.pp_jumps["nu2"], times)
    rec1, rec2 = noise.pp_jumps["nu1"], noise.pp_jumps["nu2"]
    _, lam_hi = _lambda_bounds(model)
    thin = noise.measure == "physical" and isinstance(model.nu2, LevyMeasure)

    def euler_rates(t, xv, yv, dB, dW, dt):
        bx, by = _drift_pair(model, t, xv, yv, noise.measure)
        s0 = np.asarray(model.sigma0(t, xv, yv), dtype=float)
        s1 = np.asarray(model.sigma1(t, xv, yv), dtype=float)
        s2 = np.asarray(model.sigma2(t, yv), dtype=float)
        dx = bx * dt + s0 @ dB + s1 @ dW
        dy = by * dt + s2 @ dW
        return dx, dy

    for k in range(n - 1):
        t, dt = float(times[k]), float(times[k + 1] - times[k])
        dB, dW = noise.brownian_B[k], noise.brownian_W[k]
        dx1, dy1 = euler_rates(t, x, y, dB, dW, dt)
        dx2, dy2 = euler_rates(float(times[k + 1]), x + dx1, y + dy1, dB, dW, dt)
        x = x + 0.5 * (dx1 + dx2)
        y = y + 0.5 * (dy1 + dy2)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise RuntimeError(f"simulation blew up at step {k}")
        preX[k + 1], preY[k + 1] = x, y
        tk = float(times[k + 1])
        for a in nu1_at.get(k + 1, ()):
            x = x + np.asarray(model.f1(tk, x, y, rec1.marks[a]), dtype=float)
        for a in nu2_at.get(k + 1, ()):
            u = rec2.marks[a]
            if thin:
                lam = float(np.asarray(model.lambda_fn(tk, preX[k + 1], u)))
                if lam <= 0:
                    raise ValueError(f"lambda <= 0 at t={tk}")
                if not rec2.accept_u[a] < lam / lam_hi:
                    continue
            dxj = np.asarray(model.f3(tk, x, y, u), dtype=float)
            dyj = np.asarray(model.f2(tk, y, u), dtype=float)
            x = x + dxj
            y = y + dyj
        X[k + 1], Y[k + 1] = x, y

    jumpy = not (np.array_equal(X, preX) and np.array_equal(Y, preY))
    return (
        CadlagPath(times, X, preX if jumpy else None, "linear"),
        CadlagPath(times, Y, preY if jumpy else None, "linear"),
    )


# -- measure-change exponent ----------------------------------------------


def girsanov_exponent(model: ModelSpec, noise: NoiseBundle, X: CadlagPath,
                      Y: CadlagPath, mode: str = "stratonovich") -> CadlagPath:
    """The exponent I_t of the change-of-measure density along one path.

    Accumulates the h . dW_bundle quadrature (trapezoid for "stratonovich",
    left endpoint for "ito"), the |h|^2/2 dt term with the sign matching the
    bundle's measure (+ under "physical", - under "reference"), log lambda at
    the accepted observed atoms, and the (1 - lambda) nu2 compensator. With
    these signs E[exp(-I_T)] = 1 over physical bundles and E[exp(I_T)] = 1
    over reference bundles.
    """
    if mode not in ("stratonovich", "ito"):
        raise ValueError(f"unknown quadrature mode {mode!r}")
    times = noise.times
    if len(X.times) != len(times) or not np.array_equal(X.times, times):
        raise ValueError("paths must come from simulate_pair on this bundle")
    n = len(times)
    sign = 0.5 if noise.measure == "physical" else -0.5
    rec2 = noise.pp_jumps["nu2"]
    nu2_at = _atom_lookup(rec2, times)
    accepted = _accepted_nu2(model, noise, X.evaluate_left)

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
            h1 = h_function(model, t1, X.evaluate_left(t1), Y.evaluate_left(t1))
            acc += 0.5 * float((h0 + h1) @ noise.brownian_W[k])
            acc += sign * 0.5 * float(h0 @ h0 + h1 @ h1) * dt
        else:
            acc += float(h0 @ noise.brownian_W[k])
            acc += sign * float(h0 @ h0) * dt
        if isinstance(model.nu2, LevyMeasure):
            comp = model.nu2.integrate(
                lambda u: 1.0 - np.asarray(model.lambda_fn(t0, x0v, u), dtype=float))
            acc += float(comp) * dt
        pre[k + 1] = acc
        for a in nu2_at.get(k + 1, ()):
            if not accepted[a]:
                continue
            lam = float(np.asarray(
                model.lambda_fn(t1, X.evaluate_left(t1), rec2.marks[a])))
            if lam <= 0:
                raise ValueError(f"lambda <= 0 at t={t1}")
            acc += np.log(lam)
        vals[k + 1] = acc
    jumpy = not np.array_equal(vals, pre)
    return CadlagPath(times, vals, pre if jumpy else None, "linear")


# -- shot noise ------------------------------------------------------------


def shot_noise(levy: StableTail, epsilon: float, seed: int, grid) -> CadlagPath:
    """The truncated shot-noise path xi^eps: atoms with eps < |x| < 1 from
    the series sampler (nested across eps at fixed seed), compensated by the
    analytic small-jump mean (zero here by symmetry)."""
    if not isinstance(levy, StableTail):
        raise ValueError("shot_noise needs a StableTail descriptor")
    if epsilon >= 1.0:
        raise ValueError("epsilon must be < 1")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    grid = np.asarray(grid, dtype=float)
    T = float(grid[-1])
    rng = np.random.default_rng(seed)
    at, sizes = _sample_stable_atoms(rng, levy, epsilon, T)
    times = np.union1d(grid, at)
    vals = np.zeros((len(times), 1))
    pre = np.zeros((len(times), 1))
    csum = np.concatenate([[0.0], np.cumsum(sizes[:, 0])])
    k = np.searchsorted(at, times, side="right")
    k_pre = np.searchsorted(at, times, side="left")
    drift = -levy.mean(epsilon)
    vals[:, 0] = csum[k] + drift * times
    pre[:, 0] = csum[k_pre] + drift * times
    pre[0] = vals[0]
    jumpy = not np.array_equal(vals, pre)
    return CadlagPath(times, vals, pre if jumpy else None, "constant")


def reconstruct_wtilde(model: ModelSpec, Y: CadlagPath) -> CadlagPath:
    """Recover the reference-measure Brownian motion from an observation
    path: dWt = sigma2^{-1}(dY_cont + int f2 dnu2 dt), with the continuous
    increments read between left limits (observed jumps drop out exactly).
    Exact for constant sigma2; left-endpoint sigma2 otherwise."""
    times = Y.times
    n = len(times)
    out = np.zeros((n, model.dim_y))
    w = np.zeros(model.dim_y)
    for k in range(n - 1):
        t0 = float(times[k])
        dt = float(times[k + 1] - times[k])
        y0v = Y.values[k]
        dy = Y.evaluate_left(float(times[k + 1])) - y0v
        if isinstance(model.nu2, LevyMeasure):
            dy = dy + dt * model.nu2.integrate(lambda u: model.f2(t0, y0v, u))
        s2 = np.asarray(model.sigma2(t0, y0v), dtype=float)
        w = w + np.linalg.solve(s2, dy)
        out[k + 1] = w
    return CadlagPath(times, out, None, "linear")


# -- model catalog ---------------------------------------------------------


def _const(mat):
    """A coefficient constant in (t, state): (t, state...) -> mat broadcast
    over the leading axes of the first state argument. The callable carries
    `mat` as its `matrix`, which is how the filter knows the coefficient is
    constant (see _declared_matrix)."""
    mat = np.asarray(mat, dtype=float)

    def f(t, *state):
        lead = np.asarray(state[0], dtype=float).shape[:-1]
        return np.broadcast_to(mat, lead + mat.shape)

    f.matrix = mat
    return f


def _linear_mark(mat):
    """A jump loading linear in the mark and constant in (t, state):
    (t, state..., u) -> mat @ u broadcast over the leading axes of the first
    state argument. It carries `mat` as its `matrix`, like _const."""
    mat = np.asarray(mat, dtype=float)

    def f(t, *args):
        lead = np.asarray(args[0], dtype=float).shape[:-1]
        jump = mat @ np.atleast_1d(np.asarray(args[-1], dtype=float))
        return np.broadcast_to(jump, lead + jump.shape)

    f.matrix = mat
    return f


def _declared_matrix(coefficient):
    """The matrix of a coefficient built by _const or _linear_mark, else
    None (a plain callable, which is evaluated wherever it is needed)."""
    return getattr(coefficient, "matrix", None)


def linear_gaussian(a=-0.5, s0=0.4, s1=0.3, c=1.0, gamma=0.5,
                    x0=1.0, y0=0.0) -> ModelSpec:
    """Scalar correlated Kalman-Bucy system: dX = aX dt + s0 dB + s1 dW,
    dY = cX dt + gamma dW; no jumps."""
    return ModelSpec(
        model_id="linear_gaussian", regime="scalar",
        dim_x=1, dim_y=1, dim_b=1,
        b1=lambda t, x, y: a * x,
        b2=lambda t, x, y: c * x,
        sigma0=_const([[s0]]), sigma1=_const([[s1]]), sigma2=_const([[gamma]]),
        f1=_linear_mark([[0.0]]), f2=_linear_mark([[0.0]]),
        f3=_linear_mark([[0.0]]),
        lambda_fn=_const(1.0),
        nu1=None, nu2=None, x0=(x0,), y0=(y0,),
        meta={"a": a, "s0": s0, "s1": s1, "c": c, "gamma": gamma,
              "lambda_min": 1.0, "lambda_max": 1.0, "lipschitz_gamma": "C^inf"},
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
        model_id="scalar_jump_diffusion", regime="finite_jumps",
        dim_x=1, dim_y=1, dim_b=1,
        b1=lambda t, x, y: a * x,
        b2=lambda t, x, y: c * x,
        sigma0=_const([[s0]]), sigma1=_const([[s1]]), sigma2=_const([[gamma]]),
        f1=_linear_mark([[jump1]]), f2=_linear_mark([[jump2]]),
        f3=_linear_mark([[jump3]]),
        lambda_fn=lam,
        nu1=LevyMeasure((((1.0,), rate1),)),
        nu2=LevyMeasure((((1.0,), 0.5 * rate2), ((-1.0,), 0.5 * rate2))),
        x0=(x0,), y0=(y0,),
        meta={"a": a, "c": c, "gamma": gamma, "kappa": kappa,
              "lambda_min": float(np.exp(-kappa)), "lambda_max": lam_hi,
              "lipschitz_gamma": "C^inf"},
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
        model_id="correlated_jump_multidim", regime="finite_jumps",
        dim_x=2, dim_y=2, dim_b=1,
        b1=lambda t, x, y: np.einsum("ij,...j->...i", A, np.asarray(x, dtype=float)),
        b2=lambda t, x, y: np.einsum("ij,...j->...i", C, np.asarray(x, dtype=float)),
        sigma0=_const(S0), sigma1=_const(S1), sigma2=_const(S2),
        f1=_linear_mark(np.zeros((2, 2))), f2=_linear_mark(0.5 * np.eye(2)),
        f3=_linear_mark([[0.0, 0.3], [0.3, 0.0]]),
        lambda_fn=_const(1.0),
        nu1=None,
        nu2=LevyMeasure(tuple((m, r) for m, r in J2.items())),
        x0=x0, y0=y0,
        meta={"lambda_min": 1.0, "lambda_max": 1.0, "lipschitz_gamma": "C^inf"},
    )


def stable_shot_noise(alpha=1.0, c=0.3, a=-0.5, s0=0.35, s1=0.2, cobs=0.8,
                      gamma=0.5, rho2=0.25, rho3=0.3,
                      x0=0.6, y0=0.0) -> ModelSpec:
    """Infinite-activity regime: symmetric stable-like observed jump noise
    with constant jump loadings (f2 = rho2 u, f3 = rho3 u) and lambda = 1."""
    return ModelSpec(
        model_id="stable_shot_noise", regime="infinite_jumps",
        dim_x=1, dim_y=1, dim_b=1,
        b1=lambda t, x, y: a * x,
        b2=lambda t, x, y: cobs * x,
        sigma0=_const([[s0]]), sigma1=_const([[s1]]), sigma2=_const([[gamma]]),
        f1=_linear_mark([[0.0]]), f2=_linear_mark([[rho2]]),
        f3=_linear_mark([[rho3]]),
        lambda_fn=_const(1.0),
        nu1=None, nu2=StableTail(alpha, c), x0=(x0,), y0=(y0,),
        meta={"a": a, "cobs": cobs, "gamma": gamma, "rho2": rho2, "rho3": rho3,
              "lambda_min": 1.0, "lambda_max": 1.0, "lipschitz_gamma": "C^inf"},
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
