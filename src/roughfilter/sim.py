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
from .rde import (NumericalAbort, _column_product, _column_sum, _components_first,
                  _components_last)


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
    fix, are computed once per model, on first use (_Bound). Any other
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
    def _bound_one(self) -> "_Bound":
        return _Bound(self, ())

    @cached_property
    def _bound_batch(self) -> "_Bound":
        return _Bound(self, (1,))


def h_function(model: ModelSpec, t: float, x, y):
    """h = sigma2^{-1} (b2 + int f2 (1 - lambda) dnu2); broadcasts over
    leading axes of x, y. The nu2 integral is exact for atom lists (kept
    once per model when lambda_fn, f2 and f3 are declared, see _Bound)
    and zero in the infinite-activity regime (lambda = 1 there). Leading
    axes are flattened to the component-major batch of _Bound.h, and
    broadcast first only where x and y differ in them."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    lead = x.shape[:-1]
    if lead != y.shape[:-1]:
        lead = np.broadcast_shapes(lead, y.shape[:-1])
        x, y = (np.broadcast_to(a, lead + a.shape[-1:]) for a in (x, y))
    if not lead:  # one state, which stays 1-d
        return model._bound_one.h(t, x, y)
    h = model._bound_batch.h(t, x.reshape(-1, x.shape[-1]).T,
                             y.reshape(-1, y.shape[-1]).T)
    return h.T.reshape(lead + h.shape[:1])


def _h_integrand(f2, lam):
    """f2 (1 - lambda), the nu2 integrand of h's right-hand side."""
    return f2 * (1.0 - lam)


def _moved(value, core: int, state):
    """A plain coefficient's value (n, `core` component axes) as (..., n), or
    as it is at one state (d,); laid against `state` if it has no n axis."""
    a = np.asarray(value, dtype=float)
    if a.ndim > core:
        return a if a.ndim == 1 else _components_last(a)
    return a[..., None] if state.ndim > 1 else a


class _Bound:
    """A model's coefficients bound once to the form each takes, for one
    state (d,) (batch ()) or component-major states (d, n) (batch (1,)), on
    first use per model (ModelSpec._bound_one, _bound_batch); the simulator,
    the exponent and every sweep route call them.

    A coefficient built by _const, _linear_mark or _linear_state is bound to
    its matrix, or to its values over the marks evaluated once at a zero
    state; the nu1 atom sum, the nu2 integrals and sigma2's divisor or
    inverse that those fix are kept too. A plain callable is bound to its
    evaluation at every state, with the protocol of ModelSpec (it gets the
    views x.T, y.T). A kept value is the same at every (t, state) and enters
    the same arithmetic, in the same order, so it gives every call's bits.

    Bound, all component-major: b1, b2 (t, x, y) -> (d, n); the loadings
    sigma0, sigma1 (t, x, y) and sigma2 (t, y) -> (rows, cols, n), kept ones
    (rows, cols, 1), and their products with a vector v (cols, ...),
    sigma0_dot(t, x, y, v) and so on, ordered column sums (a kept one's
    columns split once, rde._column_product); f1_at, f3_at (t, x, y),
    lam_at (t, x) and f2_at (t, y) -> values at the marks, in atom order;
    nu1_sum, nu2_integrals and h_term (t, x, y), the jump terms of rates and
    h (None without such jumps); solve(t, y, rhs) = sigma2^{-1} rhs. Kept:
    f1, lam, f2, f3 (values at the marks, else None), integrals
    (_nu2_integrals, when lambda_fn, f2 and f3 are declared, else None) and
    sigma2_inv (the divisor of a 1 x 1 _const sigma2, the inverse of a d x d
    one, 0.0 if singular, else None)."""

    def __init__(self, model: ModelSpec, batch: tuple):
        x, y = np.zeros((model.dim_x,) + batch), np.zeros((model.dim_y,) + batch)
        col = bool(batch)
        nu1 = model.nu1
        nu2 = model.nu2 if isinstance(model.nu2, LevyMeasure) else None
        self.f1_at, self.f1 = _bind_at_marks(model.f1, nu1, 1, x, y)
        self.lam_at, self.lam = _bind_at_marks(model.lambda_fn, nu2, 0, x)
        self.f2_at, self.f2 = _bind_at_marks(model.f2, nu2, 1, y)
        self.f3_at, self.f3 = _bind_at_marks(model.f3, nu2, 1, x, y)
        self.b1, self.b2 = _bind_drift(model.b1, col), _bind_drift(model.b2, col)
        self.sigma0, self.sigma0_dot = _bind_loading(model.sigma0, col)
        self.sigma1, self.sigma1_dot = _bind_loading(model.sigma1, col)
        self.sigma2, self.sigma2_dot = _bind_loading(model.sigma2, col)
        self.sigma2_inv, self.solve = _bind_solve(model.sigma2, batch)

        self.nu1_sum = None
        if nu1 is not None:
            f1_at = self.f1_at
            if self.f1 is not None:
                kept_sum = _atom_sum(nu1, self.f1)
                self.nu1_sum = lambda t, x, y: kept_sum
            else:
                self.nu1_sum = lambda t, x, y: _atom_sum(nu1, f1_at(t, x, y))
        self.integrals = self.nu2_integrals = self.h_term = None
        if nu2 is not None:
            lam_at, f2_at, f3_at = self.lam_at, self.f2_at, self.f3_at
            if self.lam is not None and self.f2 is not None and self.f3 is not None:
                kept = self.integrals = _nu2_integrals(nu2, self.lam, self.f2, self.f3)
                self.nu2_integrals = lambda t, x, y: kept
                self.h_term = lambda t, x, y: kept[2]
            else:
                def nu2_integrals(t, x, y):
                    return _nu2_integrals(nu2, lam_at(t, x), f2_at(t, y), f3_at(t, x, y))

                def h_term(t, x, y):
                    lam = lam_at(t, x)
                    return _atom_sum(nu2, map(_h_integrand, f2_at(t, y), lam))

                self.nu2_integrals, self.h_term = nu2_integrals, h_term

    def h(self, t: float, x, y):
        """h = sigma2^{-1} (b2 + int f2 (1 - lambda) dnu2) at component-major
        states, from one lambda evaluation per atom of an atomic nu2."""
        rhs = self.b2(t, x, y)
        if self.h_term is not None:
            rhs = rhs + self.h_term(t, x, y)
        return self.solve(t, y, rhs)

    def rates(self, t: float, x, y):
        """(bx + sigma1 h, by + sigma2 h, sigma2 h, comp) of reference_rates:
        the physical-measure rates, h's right-hand side and the compensator,
        from one evaluation of each plain lambda_fn, f1, f2 and f3 per atom.
        A StableTail nu2 needs no compensator: the tail is symmetric and the
        jump loadings are linear in the mark (checked where a joined
        driver's field is built), so int f lambda dnu2 = 0."""
        bx = self.b1(t, x, y)
        by = rhs = self.b2(t, x, y)
        comp = 0.0
        if self.nu1_sum is not None:
            bx = bx - self.nu1_sum(t, x, y)
        if self.nu2_integrals is not None:
            f3_lam, f2_lam, h_term, comp = self.nu2_integrals(t, x, y)
            bx = bx - f3_lam
            by = by - f2_lam
            rhs = rhs + h_term
        return bx, by, rhs, comp

    def reference_rates(self, t: float, x, y, signal: bool = False):
        """Reference-measure dt rates at component-major states x (d_X, n),
        y (d_Y, n) or one state (d,), from one lambda evaluation per atom of
        an atomic nu2 (none when lambda_fn, f2 and f3 are declared): (bx,
        by, h, comp), a vector (d, n), or (d, 1) where it is the same for
        all, with

            bx = b1 - int f1 dnu1 - int f3 lambda dnu2 - sigma1 h,
            by = b2 - int f2 lambda dnu2 - sigma2 h,
            h = sigma2^{-1} (b2 + int f2 (1 - lambda) dnu2),
            comp = int (1 - lambda) dnu2 (0.0 without an atomic nu2).

        With `signal`, by keeps its physical-measure value from rates and
        the sigma2 h product, which a step moving X alone along a given Y
        never reads, is skipped."""
        bx, by, rhs, comp = self.rates(t, x, y)
        h = self.solve(t, y, rhs)
        bx = bx - self.sigma1_dot(t, x, y, h)
        if not signal:
            by = by - self.sigma2_dot(t, y, h)
        return bx, by, h, comp


def _bind_at_marks(coefficient, levy, core: int, *zero):
    """(at, kept) for a coefficient over the marks of levy, or (None, None)
    without an atomic levy: at(t, *state) gives coefficient(t, *state, u) at
    each mark u, in atom order, with `core` component axes (0 for
    lambda_fn, 1 for a jump loading); a declared coefficient's values are
    kept at the zero state and `at` returns them."""
    if not isinstance(levy, LevyMeasure):
        return None, None
    marks = levy.marks()

    def at(t, *state):
        views = [s.T for s in state]
        return [_moved(coefficient(t, *views, u), core, state[0]) for u in marks]

    if _declared_matrix(coefficient) is None:
        return at, None
    kept = at(0.0, *zero)
    return (lambda t, *state: kept), kept


def _bind_drift(coefficient, col: bool):
    """b1 or b2 at component-major states: for one built by _linear_state
    what its callable computes, c * x (1 x 1) or M x as a column sum, else
    the plain callable's value."""
    M = _state_matrix(coefficient)
    if M is None:
        return lambda t, x, y: _moved(coefficient(t, x.T, y.T), 1, x)
    if M.shape == (1, 1):
        c = float(M[0, 0])
        return lambda t, x, y: c * x
    product = _column_product(M[..., None] if col else M)
    return lambda t, x, y: product(x)


def _bind_loading(coefficient, col: bool):
    """(loading, dot) for sigma0, sigma1 or sigma2 at component-major
    states, loading(t, *state) its matrix and dot(t, *state, v) the column
    sum with v: one built by _const as its matrix, (rows, cols, 1) for a
    batch, and its product; else evaluated."""
    M = _const_matrix(coefficient)
    if M is not None:
        M = M[..., None] if col else M
        product = _column_product(M)
        return (lambda t, *state: M), (lambda t, *args: product(args[-1]))

    def loading(t, *state):
        return _moved(coefficient(t, *(s.T for s in state)), 2, state[0])

    return loading, lambda t, *args: _column_sum(loading(t, *args[:-1]), args[-1])


def _bind_solve(sigma2, batch: tuple):
    """(kept, solve) with solve(t, y, rhs) = sigma2^{-1} rhs. A declared
    sigma2 is kept once: a division by its 1 x 1 entry, else the ordered
    column sum with its inverse (elementwise, so one right-hand side gets
    the bits it gets among many), and a singular one as 0.0, which raises
    at every solve. A plain one is evaluated at y and solved."""
    s2 = _const_matrix(sigma2)
    if s2 is not None:
        try:
            kept = (float(s2[0, 0]) if s2.shape == (1, 1)
                    else np.linalg.inv(s2).reshape(s2.shape + batch))
        except np.linalg.LinAlgError:
            kept = 0.0
        if isinstance(kept, float):
            if kept == 0.0:
                def singular(t, y, rhs):
                    raise ValueError(f"sigma2 singular at t={t}")
                return kept, singular
            return kept, lambda t, y, rhs: rhs / kept
        product = _column_product(kept)
        return kept, lambda t, y, rhs: product(rhs)

    def solve(t, y, rhs):
        s2 = np.asarray(sigma2(t, y.T), dtype=float)
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

    return None, solve


def _nu2_integrals(nu2: LevyMeasure, lam, f2, f3):
    """(int f3 lambda, int f2 lambda, int f2 (1 - lambda), int (1 - lambda))
    dnu2 from lambda, f2 and f3 at nu2's marks, each added in atom order as
    _atom_sum adds, all four in one pass over the atoms."""
    sums = None
    for (_, rate), l, a2, a3 in zip(nu2.atoms, lam, f2, f3):
        rest = 1.0 - l
        terms = (rate * (a3 * l), rate * (a2 * l), rate * (a2 * rest), rate * rest)
        sums = terms if sums is None else tuple(s + t for s, t in zip(sums, terms))
    return sums


def _lambda_bounds(model: ModelSpec):
    lo = float(model.meta.get("lambda_min", 1.0))
    hi = float(model.meta.get("lambda_max", 1.0))
    return lo, hi


# The worst relative defect f(u) - u f(1) that a jump loading linear in the
# mark may show at the probes of _mark_linearity_defect (rounding only).
MARK_LINEARITY_TOL = 1e-9


def _mark_linearity_defect(model: ModelSpec) -> float:
    """The separability that the infinite-activity regime needs: the jump
    loadings linear in a 1-d mark, f3(t, x, y, u) = F3(t, x, y) u and
    f2(t, y, u) = F2(t, y) u. Returns the worst relative defect
    |f(u) - u f(1)| / max(|f(u)|, |u f(1)|) of a plain f3 or f2 over the
    marks -0.7, 0.35 and 2.0 at four states (seed 0) and t = 0.5; a
    non-finite value gives inf. A _linear_mark loading passes as its matrix
    declares, with no call, when the matrix has one column; with more it
    has no 1-d mark (inf)."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, model.dim_x)) * 3.0
    y = rng.standard_normal((4, model.dim_y)) * 3.0
    worst = 0.0
    for f, state in ((model.f3, (x, y)), (model.f2, (y,))):
        M = _declared_matrix(f)
        if M is not None:
            if np.shape(M)[-1] != 1:
                return float("inf")
            continue
        unit = np.asarray(f(0.5, *state, np.array([1.0])), dtype=float)
        for u in (-0.7, 0.35, 2.0):
            val = np.asarray(f(0.5, *state, np.array([u])), dtype=float)
            err = np.max(np.abs(val - u * unit))
            if not np.isfinite(err):
                return float("inf")
            scale = max(np.max(np.abs(val)), np.max(np.abs(u * unit)))
            if scale > 0.0:
                worst = max(worst, float(err / scale))
    return worst


def validate_model(model: ModelSpec) -> dict:
    """Probe the standing assumptions at 64 random states (seed 0): linear
    coefficient growth, invertible sigma2 with bounded inverse, lambda
    bounded away from 0 and within the declared [lambda_min, lambda_max]
    (lambda_max is the thinning bound of _kept),
    the (1-lambda)^2/lambda integrability functional, and in the
    infinite-activity regime the p-moment witness and the jump loadings'
    linearity in the mark (_mark_linearity_defect). lambda is evaluated
    once per probe and mark of an atomic nu2, sigma2 once per probe.
    Returns a report; the 'ok' entry is the conjunction."""
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
            lams = [np.asarray(model.lambda_fn(t, x, u), dtype=float)
                    for u in model.nu2.marks()]
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
        defect = _mark_linearity_defect(model)
        report["mark_linearity_defect"] = defect
        ok = (ok and np.isfinite(witness) and lo == hi == 1.0
              and defect <= MARK_LINEARITY_TOL)
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
    bound = model._bound_one
    rates = bound.reference_rates if noise.measure == "reference" else bound.rates

    def euler_rates(t, xv, yv, dB, dW, dt):
        bx, by = rates(t, xv, yv)[:2]
        return (bx * dt + bound.sigma0(t, xv, yv) @ dB
                + bound.sigma1(t, xv, yv) @ dW,
                by * dt + bound.sigma2(t, yv) @ dW)

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
    the (1 - lambda) nu2 compensator at the left endpoint, read from
    _Bound.rates as the particle sweep reads it. With these signs E[exp(-I_T)] = 1 over
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
            acc += float(model._bound_one.rates(t0, x0v, y0v)[3]) * dt
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
    Exact for constant sigma2; left-endpoint sigma2 otherwise. All
    segments are solved in one batched call, each by the LAPACK solve it
    gets alone, and summed in order from 0; a declared f2 gives its atom
    sum once, a plain one and a plain sigma2 are evaluated per segment."""
    times, dim = Y.times, model.dim_y
    t0, y0 = times[:-1].tolist(), Y.values[:-1]
    bound, nu2 = model._bound_one, model.nu2
    dy = Y.pre_values[1:] - y0
    if isinstance(nu2, LevyMeasure):
        drift = (_atom_sum(nu2, bound.f2) if bound.f2 is not None else
                 [_atom_sum(nu2, bound.f2_at(t, y)) for t, y in zip(t0, y0)])
        dy = dy + np.diff(times)[:, None] * drift
    sigma2 = np.reshape([bound.sigma2(t, y) for t, y in zip(t0, y0)], (-1, dim, dim))
    dw = np.linalg.solve(sigma2, dy[..., None])[..., 0]
    out = np.add.accumulate(np.concatenate([np.zeros((1, dim)), dw]))
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
