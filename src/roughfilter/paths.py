"""Sampled cadlag and continuous paths, p-variation, and path metrics.

A path is stored as strictly increasing times with right values and (at jumps)
explicit left limits. Between samples it is interpreted piecewise-linearly or
piecewise-constantly according to its `interp` tag; either way the p-variation
over the sample grid is computed exactly by dynamic programming over the
visited-value sequence (right values interleaved with left limits at jumps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

_INTERPS = ("linear", "constant")


@dataclass(frozen=True)
class CadlagPath:
    """Finite sample representation of a cadlag path on [0, T]."""

    times: np.ndarray
    values: np.ndarray
    pre_values: np.ndarray = field(default=None)  # type: ignore[assignment]
    interp: str = "linear"

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if t.ndim != 1 or len(t) < 1 or v.shape[0] != len(t):
            raise ValueError("times and values must align, one row per time")
        if len(t) > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("times must be strictly increasing")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("non-finite path data")
        if self.interp not in _INTERPS:
            raise ValueError(f"interp must be one of {_INTERPS}")
        pre = self.pre_values
        if pre is None:
            pre = v.copy()
        else:
            pre = np.asarray(pre, dtype=float)
            if pre.ndim == 1:
                pre = pre[:, None]
            if pre.shape != v.shape:
                raise ValueError("pre_values must match values in shape")
        if not np.array_equal(pre[0], v[0]):
            raise ValueError("a path cannot jump at its initial time")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "pre_values", pre)

    # -- basic queries ----------------------------------------------------

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def T(self) -> float:
        return float(self.times[-1])

    @property
    def jump_mask(self) -> np.ndarray:
        return np.any(self.pre_values != self.values, axis=1)

    @property
    def jump_indices(self) -> np.ndarray:
        return np.nonzero(self.jump_mask)[0]

    def has_jumps(self) -> bool:
        return bool(np.any(self.jump_mask))

    # -- constructors -----------------------------------------------------

    @staticmethod
    def rectangular(times, values) -> "CadlagPath":
        """Piecewise-constant path jumping to values[i] at times[i]."""
        v = np.asarray(values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        pre = np.vstack([v[:1], v[:-1]])
        return CadlagPath(times, v, pre, "constant")

    # -- evaluation -------------------------------------------------------

    def _segment_values(self, t: np.ndarray):
        """Right values x(t) and left limits x(t-) at each t, from one search."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        tt = self.times
        idx = np.maximum(np.searchsorted(tt, t, side="right") - 1, 0)
        right = self.values[idx]
        on_sample = tt[idx] == t
        if self.interp == "linear":
            interior = ~on_sample & (idx < len(tt) - 1)
            if np.any(interior):
                i = idx[interior]
                frac = (t[interior] - tt[i]) / (tt[i + 1] - tt[i])
                right[interior] = self.values[i] + frac[:, None] * (
                    self.pre_values[i + 1] - self.values[i]
                )
        left = right.copy()
        left[on_sample] = self.pre_values[idx[on_sample]]
        return right, left

    def evaluate(self, t) -> np.ndarray:
        """Right-continuous value x(t); vectorized over t."""
        out = self._segment_values(t)[0]
        return out[0] if np.isscalar(t) else out

    def evaluate_left(self, t) -> np.ndarray:
        """Left limit x(t-); equals x(t) off jump times, x(0-) := x(0)."""
        out = self._segment_values(t)[1]
        return out[0] if np.isscalar(t) else out

    def with_interp(self, interp: str) -> "CadlagPath":
        return replace(self, interp=interp)


def _visited_sequence(right: np.ndarray, left: np.ndarray) -> np.ndarray:
    """Rows right[0], left[1], right[1], left[2], ... with consecutive
    duplicates dropped. A row equal to its predecessor also equals the last
    kept row, so one comparison with the predecessor decides each row."""
    seq = np.empty((2 * len(right) - 1, right.shape[1]))
    seq[0::2] = right
    seq[1::2] = left[1:]
    keep = np.empty(len(seq), dtype=bool)
    keep[0] = True
    np.any(seq[1:] != seq[:-1], axis=1, out=keep[1:])
    return seq[keep]


def visited_points(x: CadlagPath) -> np.ndarray:
    """Ordered sequence of values the path visits: right values interleaved
    with left limits at jumps, consecutive duplicates dropped."""
    return _visited_sequence(x.values, x.pre_values)


def _pvar_sum_dp(m: int, powdist) -> float:
    """max over strictly increasing index subsequences (0 ... m-1 endpoints
    free) of the sum of powdist terms; powdist(j) -> array over i<j."""
    best = np.zeros(m)
    for j in range(1, m):
        best[j] = np.maximum.reduce(best[:j] + powdist(j))
    return float(best[-1])


# Up to this many points the power-distance matrix is built in one broadcast
# (an m x m x d temporary: 1.5 MB at m = 256, d = 3); above it each row is
# built on its own, which measured faster from m = 384 on for d = 1..3.
# Both give the same bits.
PVAR_MATRIX_MAX = 256


def p_variation_of_points(points: np.ndarray, p: float) -> float:
    """p-variation (already rooted) of the polyline through `points`."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    m = len(pts)
    if m < 2:
        return 0.0
    if m <= PVAR_MATRIX_MAX:
        diff = pts[:, None, :] - pts[None, :, :]
        powdists = np.sqrt(np.add.reduce(diff * diff, axis=-1)) ** p
        return _pvar_sum_dp(m, lambda j: powdists[j, :j]) ** (1.0 / p)

    def powdist(j):
        return np.linalg.norm(pts[:j] - pts[j], axis=1) ** p

    return _pvar_sum_dp(m, powdist) ** (1.0 / p)


def p_variation(x: CadlagPath, p: float) -> float:
    """sup over sample-grid partitions of (sum |increment|^p)^(1/p)."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return p_variation_of_points(visited_points(x), p)


def merge_difference(x: CadlagPath, y: CadlagPath) -> CadlagPath:
    """The path x - y sampled on the merged grid, with left limits at the
    union of jump times."""
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    times = np.union1d(x.times, y.times)
    xr, xl = x._segment_values(times)
    yr, yl = y._segment_values(times)
    vals = xr - yr
    pre = xl - yl
    pre[0] = vals[0]
    return CadlagPath(times, vals, pre, "linear")


def d_p(x: CadlagPath, y: CadlagPath, p: float) -> float:
    """p-variation distance: p-variation of x - y on the merged grid."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return p_variation(merge_difference(x, y), p)


# -- Skorokhod-type metric ------------------------------------------------


def _nearest_jump_lookup(path: CadlagPath, t: np.ndarray, tol: float):
    """For each t, the index of a sample time within tol, or -1. Of the two
    samples around t, the earlier one wins when both are within tol."""
    tt = path.times
    i = np.searchsorted(tt, t)
    out = np.full(len(t), -1, dtype=int)
    hit = (i < len(tt)) & (np.abs(tt[np.minimum(i, len(tt) - 1)] - t) <= tol)
    out[hit] = i[hit]
    hit = (i > 0) & (np.abs(tt[np.maximum(i - 1, 0)] - t) <= tol)
    out[hit] = i[hit] - 1
    return out


def _pinned_values(path: CadlagPath, t: np.ndarray, tol: float):
    """Right values and left limits of path at t, where a t within tol of a
    sample time reads that sample's values."""
    right, left = path._segment_values(t)
    i = _nearest_jump_lookup(path, t, tol)
    hit = i >= 0
    right[hit] = path.values[i[hit]]
    left[hit] = path.pre_values[i[hit]]
    return right, left


def _warped_objective(x: CadlagPath, y: CadlagPath, knots_t, knots_s, p: float) -> float:
    """max(|lambda - id|, d_p(x o lambda, y)) for the piecewise-linear warp
    lambda interpolating knots_t -> knots_s."""
    warp_size = float(np.max(np.abs(knots_s - knots_t)))
    tol = 1e-12 * max(1.0, x.T)
    cand = np.sort(np.concatenate([np.interp(x.times, knots_s, knots_t),
                                   y.times, knots_t]))
    cand = cand[np.concatenate([[True], np.diff(cand) > tol])]

    u = np.interp(cand, knots_t, knots_s)
    xr, xl = _pinned_values(x, u, tol)
    yr, yl = _pinned_values(y, cand, tol)
    dist = p_variation_of_points(_visited_sequence(xr - yr, xl - yl), p)
    return max(warp_size, dist)


def _brent_bounded(f, lo: float, hi: float, xatol: float):
    """(f_min, x_min) of f on [lo, hi] by Brent's bounded minimisation
    (R. P. Brent, Algorithms for Minimization without Derivatives, 1973,
    ch. 5), step for step as scipy's fminbound, at most 500 calls of f."""
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # parabola through xf, nfc, fulc
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = golden_mean * e
        x = xf + (-1.0 if rat < 0 else 1.0) * max(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= 500:
            break
    return fx, xf


def _jump_alignment_anchors(x: CadlagPath, y: CadlagPath, T: float, tol: float):
    """Pairs (u, s) asking the warp to satisfy lambda(u) = s, matching y's
    interior jump times with x's in time order. Exact equality is what removes
    the O(jump size) spike from d_p(x o lambda, y), so these pairs seed the
    warp search; the objective is discontinuous there and plain descent
    cannot find them."""
    xj = [float(t) for t in x.times[x.jump_mask] if tol < t < T - tol]
    yj = [float(t) for t in y.times[y.jump_mask] if tol < t < T - tol]
    if not xj or not yj:
        return []
    if len(xj) == len(yj):
        pairs = list(zip(yj, xj))
    else:
        pairs, floor = [], -np.inf
        for u in yj:
            cands = [s for s in xj if s > floor]
            if not cands:
                break
            s = min(cands, key=lambda s: abs(s - u))
            pairs.append((u, s))
            floor = s
    out, pu, ps = [], 0.0, 0.0
    for u, s in pairs:
        if u > pu + tol and s > ps + tol:
            out.append((u, s))
            pu, ps = u, s
    return out


def skorokhod_sigma_p(x: CadlagPath, y: CadlagPath, p: float, warp_grid: int = 8) -> float:
    """Upper bound of inf over time warps of max(|lambda - id|, d_p(x o lambda, y)).

    The infimum is restricted to piecewise-linear warps, refined dyadically up
    to warp_grid uniform segments with warm starts, so the value is
    non-increasing in warp_grid along the dyadic cascade; warp_grid=1 keeps
    only the identity warp. From two segments on, the knot set also carries
    y's jump times so jumps can be aligned exactly, with x's jump times tried
    as exact knot values. Report warp_grid with the value; the true infimum
    may be smaller.

    Cost: per warp level, up to two sweeps over the interior knots, each knot
    one bounded Brent search (10-30 objective calls at mesh 8, at most 500)
    plus one call per trial knot value; each call is one p-variation of the
    visited points of x o lambda - y, by the one-broadcast distance matrix
    while they number at most PVAR_MATRIX_MAX.
    """
    if warp_grid < 1:
        raise ValueError("warp_grid must be >= 1")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    if abs(x.T - y.T) > 1e-12 * max(1.0, x.T):
        raise ValueError("paths must share the time horizon [0, T]")
    T = x.T
    if T <= 0:
        return _warped_objective(x, y, np.array([0.0]), np.array([0.0]), p)

    grids = [1]
    while grids[-1] * 2 <= warp_grid:
        grids.append(grids[-1] * 2)
    if grids[-1] != warp_grid:
        grids.append(warp_grid)

    tol = 1e-12 * max(1.0, T)
    anchors = _jump_alignment_anchors(x, y, T, tol)
    jump_knots = np.array([u for u, _ in anchors] +
                          [float(t) for t in y.times[y.jump_mask]
                           if tol < t < T - tol])
    x_jump_values = [float(t) for t in x.times[x.jump_mask] if tol < t < T - tol]

    knots_t = np.array([0.0, T])
    knots_s = knots_t.copy()
    best = _warped_objective(x, y, knots_t, knots_s, p)
    margin = 1e-7 * T
    for m in grids[1:]:
        new_t = np.linspace(0.0, T, m + 1)
        if jump_knots.size:
            new_t = np.unique(np.concatenate([new_t, jump_knots]))
        knots_s = np.interp(new_t, knots_t, knots_s)
        knots_t = new_t
        if anchors:
            at = np.array([0.0] + [u for u, _ in anchors] + [T])
            asv = np.array([0.0] + [s for _, s in anchors] + [T])
            seed = np.interp(knots_t, at, asv)
            f_seed = _warped_objective(x, y, knots_t, seed, p)
            if f_seed < best - 1e-15:
                knots_s, best = seed, f_seed
        for _ in range(2):  # coordinate-descent sweeps
            improved = False
            for k in range(1, len(knots_t) - 1):
                lo = knots_s[k - 1] + margin
                hi = knots_s[k + 1] - margin
                if hi <= lo:
                    continue

                def obj(s, k=k):
                    trial = knots_s.copy()
                    trial[k] = s
                    return _warped_objective(x, y, knots_t, trial, p)

                trials = [_brent_bounded(obj, float(lo), float(hi), 1e-6 * T)]
                for s in x_jump_values + [float(knots_t[k])]:
                    if lo < s < hi:
                        trials.append((obj(s), s))
                f_min, s_min = min(trials)
                if f_min < best - 1e-15:
                    knots_s[k] = s_min
                    best = float(f_min)
                    improved = True
            if not improved:
                break
        best = min(best, _warped_objective(x, y, knots_t, knots_s, p))
    return best
