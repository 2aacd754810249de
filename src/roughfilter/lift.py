"""Level-2 geometric rough paths: Stratonovich and Marcus lifts, the rough
p-variation distance rho_p, and JSON serialization.

A RoughPath stores the running signature from time 0 (level-1 vector and
level-2 matrix per grid time), so Chen's relation holds structurally for grid
increments. Jump times additionally carry the pre-jump running signature.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .paths import (
    _BLOCK_ROWS,
    CadlagPath,
    _block_bound,
    _block_centers,
    _block_radii,
    _check_pair,
    _norm_floor,
    _norms,
    _prunes,
    _pvar_sum_dp,
    p_variation_of_points,
)
from .tensor_group import (
    NORM_CONVENTION,
    GroupElement,
    _increment_level2,
    geometric_defect,
    group_increment,
    group_inv,
    group_log,
    group_mul,
    group_pow,
)

FORMAT_VERSION = 1


@dataclass(frozen=True)
class RoughPath:
    """Path in G2(R^d) sampled on a grid of [0, T] (the first time is 0), as
    running signatures from time 0.

    The running signatures and the pre-jump ones are each validated once, as
    one GroupElement batch; points and increments are sub-batches of these.
    Without pre-jump arrays the pre-jump values are the running ones: no
    jumps."""

    times: np.ndarray
    level1: np.ndarray  # (n, d) running level-1
    level2: np.ndarray  # (n, d, d) running level-2
    jump_flags: np.ndarray = field(default=None)  # type: ignore[assignment]
    pre_level1: np.ndarray = field(default=None)  # type: ignore[assignment]
    pre_level2: np.ndarray = field(default=None)  # type: ignore[assignment]
    _running: GroupElement = field(init=False, repr=False, compare=False)
    _pre: GroupElement = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        n = len(t)
        if n < 1 or (n > 1 and not np.all(np.diff(t) > 0)):
            raise ValueError("times must be strictly increasing")
        if not np.all(np.isfinite(t)):
            raise ValueError("non-finite entries in times")
        if t[0] != 0:
            raise ValueError("a rough path starts at time 0")
        if np.ndim(self.level1) != 2 or len(self.level1) != n:
            raise ValueError("level1 must be (n, d)")
        running = GroupElement(self.level1, self.level2)
        if np.any(running.level1[0] != 0.0) or np.any(running.level2[0] != 0.0):
            raise ValueError("a rough path must start at the group identity")
        flags = self.jump_flags
        flags = np.zeros(n, dtype=bool) if flags is None else np.asarray(flags, dtype=bool)
        if flags.shape != (n,):
            raise ValueError("jump_flags must be (n,)")
        if flags[0]:
            raise ValueError("no jump at the initial time")
        pre = running
        if self.pre_level1 is not None or self.pre_level2 is not None:
            pre = GroupElement(
                running.level1 if self.pre_level1 is None else self.pre_level1,
                running.level2 if self.pre_level2 is None else self.pre_level2)
            if pre.level1.shape != running.level1.shape:
                raise ValueError("pre-level arrays must match level arrays in shape")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "level1", running.level1)
        object.__setattr__(self, "level2", running.level2)
        object.__setattr__(self, "jump_flags", flags)
        object.__setattr__(self, "pre_level1", pre.level1)
        object.__setattr__(self, "pre_level2", pre.level2)
        object.__setattr__(self, "_running", running)
        object.__setattr__(self, "_pre", pre)

    # -- queries ----------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.level1.shape[1]

    @property
    def T(self) -> float:
        return float(self.times[-1])

    def has_jumps(self) -> bool:
        return bool(np.any(self.jump_flags))

    def point(self, i, left: bool = False) -> GroupElement:
        """Running signature at grid index i (an int or an index array);
        left=True takes the left limit, the pre-jump value."""
        return (self._pre if left else self._running)[i]

    def increment(self, i, j, left_i: bool = False,
                  left_j: bool = False) -> GroupElement:
        """Group increment from grid index i to grid index j (ints or index
        arrays that broadcast); left_i / left_j take the left limit at that
        end. increment(i, i, left_i=True) is the jump at i, and
        increment(k, k + 1, left_j=True) the continuous chord after k."""
        return group_increment(self.point(i, left_i), self.point(j, left_j))

    # -- evaluation between grid points ----------------------------------

    def running_at(self, t, left=False):
        """Running signature (L1, L2) at arbitrary times: stored values on
        the grid, one-parameter-subgroup (log-linear) interpolation inside
        segments, the last value past the end. `left` (a bool, or one per
        time) selects the pre-jump value at grid times."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        n = len(self.times)
        i = np.clip(np.searchsorted(self.times, t, side="right") - 1, 0, n - 1)
        on_grid = self.times[i] == t
        pre = on_grid & np.broadcast_to(left, t.shape)
        L1 = np.where(pre[:, None], self.pre_level1[i], self.level1[i])
        L2 = np.where(pre[:, None, None], self.pre_level2[i], self.level2[i])
        inside = ~on_grid & (i < n - 1)
        k = i[inside]
        if k.size:
            theta = (t[inside] - self.times[k]) / (self.times[k + 1] - self.times[k])
            g = group_mul(self.point(k),
                          group_pow(self.increment(k, k + 1, left_j=True), theta))
            L1[inside], L2[inside] = g.level1, g.level2
        return L1, L2


# -- lift constructors ----------------------------------------------------


def _accumulate_exp_products(vs: np.ndarray):
    """Running signature of the product exp(vs[0]) * exp(vs[1]) * ...; returns
    prefix arrays including the leading identity."""
    m, d = vs.shape
    L1 = np.vstack([np.zeros((1, d)), np.cumsum(vs, axis=0)])
    base = L1[:-1]  # prefix level-1 before each factor
    terms = base[:, :, None] * vs[:, None, :] + 0.5 * vs[:, :, None] * vs[:, None, :]
    L2 = np.concatenate([np.zeros((1, d, d)), np.cumsum(terms, axis=0)], axis=0)
    return L1, L2


def stratonovich_lift(x: CadlagPath) -> RoughPath:
    """Level-2 lift of a continuous sampled path, piecewise-linear between
    samples (each segment contributes exp of its chord)."""
    if x.has_jumps():
        raise ValueError("stratonovich_lift requires a path without jumps")
    deltas = np.diff(x.values, axis=0)
    L1, L2 = _accumulate_exp_products(deltas if len(deltas) else np.zeros((0, x.dim)))
    return RoughPath(x.times, L1, L2)


def marcus_lift(x: CadlagPath) -> RoughPath:
    """Cadlag lift: continuous stretches as in stratonovich_lift, each jump
    contributing exp(x_t - x_{t-}) so the jump log has zero level-2 part."""
    if not x.has_jumps():
        return stratonovich_lift(x)
    n, d = x.values.shape
    chords = x.pre_values[1:] - x.values[:-1]
    jumps = x.values[1:] - x.pre_values[1:]
    vs = np.empty((2 * (n - 1), d))
    vs[0::2] = chords
    vs[1::2] = jumps
    L1, L2 = _accumulate_exp_products(vs)
    post = np.arange(0, 2 * n - 1, 2)  # prefix index after both factors of each step
    pre = np.maximum(post - 1, 0)  # prefix index after the chord, before the jump
    flags = np.concatenate([[False], np.any(jumps != 0.0, axis=1)])
    return RoughPath(x.times, L1[post], L2[post], flags, L1[pre], L2[pre])


def reverse_rough_path(X: RoughPath) -> RoughPath:
    """Time reversal of a continuous rough path on [0, T]."""
    if X.has_jumps():
        raise ValueError("time reversal is only defined here for continuous paths")
    n = len(X.times)
    back = group_inv(X.increment(np.arange(n - 1, -1, -1), n - 1))
    return RoughPath(X.T - X.times[::-1], back.level1, back.level2)


# -- consistency checks ---------------------------------------------------


def chen_defect(X: RoughPath) -> float:
    """Max violation of increment(i,k) = increment(i,j) o increment(j,k)."""
    n = len(X.times)
    if n <= 40:
        i, k = np.triu_indices(n, 2)
        j = (i + k) // 2
    else:
        j = np.arange(1, n - 1)
        i, k = np.zeros_like(j), np.full_like(j, n - 1)
    if not len(j):
        return 0.0
    ab = group_mul(X.increment(i, j), X.increment(j, k))
    c = X.increment(i, k)
    return max(float(np.max(np.abs(ab.level1 - c.level1))),
               float(np.max(np.abs(ab.level2 - c.level2))))


def geometric_defect_max(X: RoughPath) -> float:
    """Max violation of the shuffle identity over all grid points."""
    return geometric_defect(GroupElement(X.level1, X.level2))


def marcus_increment(X: RoughPath, i) -> np.ndarray:
    """Level 1 of the log of the jump at grid index i (an int or an index
    array). Raises ValueError unless every such jump is of Marcus type: its
    log may have no level-2 part beyond 1e-8 (1 + |level 1|^2)."""
    chi1, chi2 = group_log(X.increment(i, i, left_i=True))
    scale = 1.0 + np.sum(chi1 * chi1, axis=-1)
    bad = np.atleast_1d(np.max(np.abs(chi2), axis=(-2, -1)) > 1e-8 * scale)
    if np.any(bad):
        first = np.atleast_1d(i)[np.argmax(bad)]
        raise ValueError(f"jump at driver index {first} is not of Marcus type "
                         "(its log has a level-2 part)")
    return chi1


# -- rough p-variation distance -------------------------------------------


def _merged_running(X: RoughPath, Y: RoughPath):
    """Running signatures of X and Y along the interleaved visited sequence of
    the merged grid (left limits inserted before joint jump times)."""
    times = np.union1d(X.times, Y.times)
    jumpy = np.isin(times, np.union1d(X.times[X.jump_flags], Y.times[Y.jump_flags]))
    tv = np.repeat(times, 1 + jumpy)
    is_left = np.zeros(len(tv), dtype=bool)
    is_left[(np.cumsum(1 + jumpy) - 2)[jumpy]] = True
    return tv, X.running_at(tv, is_left), Y.running_at(tv, is_left)


def _outer(u, v):
    return u[:, None] * v[None, :]


def _level2(z1, z2, j0, j1, cols):
    """Level-2 increments from each column i in cols to each row j in [j0,
    j1) of the component-major running signature z1 (d, m), z2 (d, d, m): a
    (d, d, j1 - j0, len(cols)) array."""
    zi = z1[:, None, cols]
    return _increment_level2(zi, z2[:, :, None, cols], z2[:, :, j0:j1, None],
                             z1[:, j0:j1, None] - zi, _outer)


def _chen_bound(a1, a2, b1, b2, q):
    """bound of _pvar_sum_dp for the level-2 norms |D2(i, j)|, D2 = A2_ij -
    B2_ij, of the component-major running signatures of two paths, or None
    where it is not set up (_block_bound; equal signatures that are not
    too large for it leave rho_p at _no_difference). Chen's
    relation X_ij = X_ic (x) X_cj, for any order of i, c and j, gives
    D2(i, j) = D2(i, c) + D2(c, j) + A1_ic (x) A1_cj - B1_ic (x) B1_cj, and
    the last two terms are half of Z_ic (x) S_cj + S_ic (x) Z_cj with Z =
    A1 - B1 and S = A1 + B1. So for i in a block K with center c

        |D2(i, j)| <= |D2(c, j)| + R2_K + (rZ_K |S_cj| + rS_K |Z_cj|) / 2,

    R2_K = max_{i in K} |D2(i, c)| and rZ_K, rS_K the radii of Z and S
    about c; where the two paths' level 1 are close, Z is small.

    Slack for cancellation: with u = 2^-53 and M1, M2 a path's largest
    level-1 and level-2 running entries, a computed entry of its level-2
    increment is off by at most 8u (M2 + M1^2), as b2 - a2 and a1 (x) (b1 -
    a1) cancel; a norm over the d x d entries of D2 by at most 8 d u (MA +
    MB), and the rounding of Z and S moves the cross terms by at most 16 d
    u (MA + MB). |D2(c, j)|, R2_K and the cell itself lose at most about 40
    d u (MA + MB) together, so the bound adds d 2^-45 (MA + MB), six times
    that; and d 2^-520 (d + M1A + M1B) for underflow where a radius
    multiplies a level-1 norm, besides the slack of _pvar_sum_dp."""
    d, m = a1.shape
    if not _prunes(m, d * d):
        return None
    m1a, m1b, m2a, m2b = (float(np.max(np.abs(z), initial=0.0)) for z in (a1, b1, a2, b2))
    if not (max(m1a, m1b) < 2.0 ** 100 and max(m2a, m2b) < 2.0 ** 200):
        return None
    size = m2a + m1a ** 2 + m2b + m1b ** 2
    slack = (d * (2.0 ** -45 * size + 2.0 ** -520 * (d + m1a + m1b))
             + _norm_floor(d * d, q))
    c = _block_centers(m)
    n = len(c)

    def to_centers(z1, z2):
        return _increment_level2(z1[:, :n], z2[:, :, :n], z2[:, :, c], z1[:, c] - z1[:, :n],
                                 _outer)

    z, s = a1 - b1, a1 + b1
    half_radii = 0.5 * np.stack([_block_radii(z[:, c] - z[:, :n]),
                                 _block_radii(s[:, c] - s[:, :n])])
    # S's arm takes Z's radius and Z's arm S's; the arms of the rows are
    # made per group, so that no (2d, m) array is held through the recursion
    arm_centers = np.concatenate([s[:, _BLOCK_ROWS // 2:n:_BLOCK_ROWS],
                                  z[:, _BLOCK_ROWS // 2:n:_BLOCK_ROWS]])
    arms = np.empty((2 * d, _BLOCK_ROWS))

    def cross(j0, j1, blocks):
        np.add(a1[:, j0:j1], b1[:, j0:j1], out=arms[:d, :j1 - j0])
        np.subtract(a1[:, j0:j1], b1[:, j0:j1], out=arms[d:, :j1 - j0])
        arm = arm_centers[:, None, blocks] - arms[:, :j1 - j0, None]
        arm *= arm
        arm = np.sqrt(np.add.reduce(arm.reshape(2, d, j1 - j0, -1), axis=1))
        arm *= half_radii[:, None, blocks]
        return np.add.reduce(arm, axis=0)

    def radii():
        return _block_radii((to_centers(a1, a2) - to_centers(b1, b2)).reshape(d * d, n)) + slack

    return _block_bound(m, d * d, q, 16.0 * d * size + slack, radii, cross)


def _no_difference(A1, A2, B1, B2) -> bool:
    """Whether the merged running signatures are equal, with finite entries
    small enough (level 1 below 2^500, level 2 below 2^1000) that no
    level-2 increment overflows: then every difference of increments is x -
    x = +0.0, every cost 0 and both recursions' value 0.0, so rho_p returns
    0.0 without them. NaN, inf and larger entries take the recursions,
    which return NaN where inf - inf meets."""
    return (np.array_equal(A1, B1) and np.array_equal(A2, B2)
            and float(np.max(np.abs(A1), initial=0.0)) < 2.0 ** 500
            and float(np.max(np.abs(A2), initial=0.0)) < 2.0 ** 1000)


def rho_p(X: RoughPath, Y: RoughPath, p: float) -> float:
    """Rough p-variation distance: max over levels k=1,2 of the DP-sup of
    (sum |X^k - Y^k|^{p/k})^{k/p} over merged-grid partitions; NaN when
    either level is NaN (increments that overflow to inf - inf)."""
    if not 2.0 <= p < 3.0:
        raise ValueError(f"rho_p requires p in [2, 3), got {p}")
    _check_pair(X, Y)
    _, (A1, A2), (B1, B2) = _merged_running(X, Y)
    m = len(A1)
    if m < 2 or _no_difference(A1, A2, B1, B2):
        return 0.0

    lvl1 = p_variation_of_points(A1 - B1, p)
    q = p / 2.0
    d = X.dim
    # component-major copies: level 1 as (d, m), level 2 as (d, d, m)
    a1, b1 = np.ascontiguousarray(A1.T), np.ascontiguousarray(B1.T)
    a2 = np.ascontiguousarray(np.moveaxis(A2, 0, -1))
    b2 = np.ascontiguousarray(np.moveaxis(B2, 0, -1))

    def rows(j0, j1, cols):
        diff = _level2(a1, a2, j0, j1, cols)
        diff -= _level2(b1, b2, j0, j1, cols)
        return _norms(diff.reshape(d * d, j1 - j0, -1))

    lvl2 = _pvar_sum_dp(m, rows, q, d * d, _chen_bound(a1, a2, b1, b2, q)) ** (1.0 / q)
    if math.isnan(lvl1) or math.isnan(lvl2):
        return math.nan
    return max(lvl1, lvl2)


# -- JSON serialization ---------------------------------------------------


def rough_path_to_dict(X: RoughPath) -> dict:
    out = {
        "format_version": FORMAT_VERSION,
        "norm": NORM_CONVENTION,
        "dim": X.dim,
        "times": X.times.tolist(),
        "level1": X.level1.tolist(),
        "level2": X.level2.reshape(len(X.times), -1).tolist(),  # row-major
        "jump_flags": X.jump_flags.astype(int).tolist(),
    }
    if X.has_jumps():
        out["pre_level1"] = X.pre_level1.tolist()
        out["pre_level2"] = X.pre_level2.reshape(len(X.times), -1).tolist()
    return out


def rough_path_from_dict(obj: dict) -> RoughPath:
    d = int(obj["dim"])
    n = len(obj["times"])
    level2 = np.asarray(obj["level2"], dtype=float).reshape(n, d, d)
    pre1 = obj.get("pre_level1")
    pre2 = obj.get("pre_level2")
    return RoughPath(
        np.asarray(obj["times"], dtype=float),
        np.asarray(obj["level1"], dtype=float),
        level2,
        np.asarray(obj["jump_flags"], dtype=bool),
        None if pre1 is None else np.asarray(pre1, dtype=float),
        None if pre2 is None else np.asarray(pre2, dtype=float).reshape(n, d, d),
    )


def write_rough_path_json(X: RoughPath, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(rough_path_to_dict(X), fh)


def read_rough_path_json(path: str) -> RoughPath:
    with open(path, encoding="utf-8") as fh:
        return rough_path_from_dict(json.load(fh))
