"""Sampled cadlag and continuous paths, p-variation, and path metrics.

A path is stored as strictly increasing times with right values and (at jumps)
explicit left limits. Between samples it is interpreted piecewise-linearly or
piecewise-constantly according to its `interp` tag; either way the p-variation
over the sample grid is computed exactly by dynamic programming over the
visited-value sequence (right values interleaved with left limits at jumps).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

_INTERPS = ("linear", "constant")

# The default p-variation exponent: of the driver metrics of the sweeps, the
# experiments and the CLI, and of the infinite-activity moment witness.
P_VAR = 2.5
# The default number of uniform warp segments of skorokhod_sigma_p and
# fillin.alpha_p.
WARP_GRID = 8


@dataclass(frozen=True)
class CadlagPath:
    """Finite sample representation of a cadlag path on [0, T]: the first
    sample time is 0.

    pre_values equal to values (or None) mean no jump: the path then keeps
    a copy of values as its left limits. This is the one place that rule
    is applied, so callers may pass the left limits they computed."""

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
        if t[0] != 0:
            raise ValueError("a path starts at time 0")
        if self.interp not in _INTERPS:
            raise ValueError(f"interp must be one of {_INTERPS}")
        pre = self.pre_values
        if pre is not None:
            pre = np.asarray(pre, dtype=float)
            if pre.ndim == 1:
                pre = pre[:, None]
            if pre.shape != v.shape:
                raise ValueError("pre_values must match values in shape")
        if pre is None or np.array_equal(pre, v):
            pre = v.copy()
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

    @cached_property
    def _segments(self):
        """What _pinned_values reads besides the samples: the times between
        -inf and inf, each segment's width and rise toward the next left
        limit (the differences its interpolation takes, to the bit), and
        whether the path jumps."""
        return (np.concatenate([[-np.inf], self.times, [np.inf]]), np.diff(self.times),
                self.pre_values[1:] - self.values[:-1], self.has_jumps())

    def has_jumps(self) -> bool:
        return bool(np.any(self.jump_mask))

    # -- evaluation -------------------------------------------------------

    def evaluate(self, t) -> np.ndarray:
        """Right-continuous value x(t); vectorized over t."""
        out = _pinned_values(self, t, 0.0)[0]
        return out[0] if np.isscalar(t) else out

    def evaluate_left(self, t) -> np.ndarray:
        """Left limit x(t-); equals x(t) off jump times, x(0-) := x(0)."""
        out = _pinned_values(self, t, 0.0)[1]
        return out[0] if np.isscalar(t) else out


def _pinned_values(path: CadlagPath, t, tol: float):
    """Right values x(t) and left limits x(t-) at each t, from one search.
    A t within tol of a sample time reads that sample's values; of the two
    samples around t, the earlier one wins when both are within tol (with
    tol 0, only the samples' own times do). Elsewhere a linear path
    interpolates toward the next sample's left limit, also before times[0],
    and holds its last value from the last sample on; a constant path holds
    the value of the sample before t. A jump-free path returns its right
    values as its left limits, the same array."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    tt = path.times
    bracket, widths, rises, jumpy = path._segments
    i = tt.searchsorted(t)  # the first sample at or after t
    earlier = t - bracket[i] <= tol  # bracket[i] is times[i - 1], -inf before times[0]
    hit = earlier | (bracket[i + 1] - t <= tol)  # times[i], inf past T
    miss = ~hit
    src = i - earlier - miss  # the sample read, or the one before t
    np.maximum(src, 0, out=src)
    right = path.values[src]
    if path.interp == "linear" and len(widths):
        inner = miss & (i < len(tt))
        k = src[inner]
        right[inner] = path.values[k] + ((t[inner] - tt[k]) / widths[k])[:, None] * rises[k]
    if not jumpy:
        return right, right
    left = right.copy()
    left[hit] = path.pre_values[src[hit]]
    return right, left


def _step_path(grid, jump_times, levels) -> CadlagPath:
    """The right-continuous step path on `grid` that holds levels[0] before
    jump_times[0] (sorted) and levels[i] from jump_times[i - 1] on, with
    its left limits at the grid times: every step path is built here."""
    grid = np.asarray(grid, dtype=float)
    vals = levels[np.searchsorted(jump_times, grid, side="right")]
    pre = levels[np.searchsorted(jump_times, grid, side="left")]
    pre[0] = vals[0]
    return CadlagPath(grid, vals, pre, "constant")


def _visited_sequence(right: np.ndarray, left: np.ndarray) -> np.ndarray:
    """Rows right[0], left[1], right[1], left[2], ... with consecutive
    duplicates dropped. A row equal to its predecessor also equals the last
    kept row, so one comparison with the predecessor decides each row. When
    left is right (no jumps) every left[j] repeats right[j], and the rows
    are right's with consecutive duplicates dropped."""
    seq = right
    if left is not right:
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


# Row blocks of the max-plus recursion of _pvar_sum_dp: at most _BLOCK_ROWS
# rows, and at most _BLOCK_ELEMENTS elements in a (per_cell, rows, columns)
# temporary, 64 KiB. numpy takes each temporary from malloc, and glibc
# serves 128 KiB and more by a fresh mmap whose pages fault in on first
# touch: level-2 rows of 128 KiB blocks cost about twice as much per cost
# as 64 KiB ones (numpy 2.4.6, one thread of a 2-vCPU Intel Xeon host).
_BLOCK_ROWS = 32
_BLOCK_ELEMENTS = 2 ** 13
_STRICTLY_LOWER = np.tri(_BLOCK_ROWS, _BLOCK_ROWS, -1, dtype=bool)
# Block-bound pruning in _pvar_sum_dp: a group of rows whose bound keeps
# more than _PRUNE_KEEP of its column blocks runs as plain blocks.
_PRUNE_KEEP = 0.5
# Relative slack of a bound on a computed norm (derived in _pvar_sum_dp).
_REL_SLACK = 2.0 ** -20
# The least p at which d = 1 points reduce to their turning points (derived
# in _needed_points).
_TURNING_P = 2.25


def _block_end(j0: int, m: int, per_cell: int) -> int:
    """End j1 of the row block that starts at row j0 of m."""
    n_rows = _BLOCK_ELEMENTS // (per_cell * (j0 + _BLOCK_ROWS))
    return min(m, j0 + max(1, min(_BLOCK_ROWS, n_rows)))


def _prune_from(per_cell: int) -> int:
    """First row at which _pvar_sum_dp tries a bound: where the rows of a
    group hold about 16 column blocks' worth of elements, at least 4
    blocks, so that the few dozen numpy calls of a try cost less than the
    cells they may skip."""
    return max(4, 16 // per_cell) * _BLOCK_ROWS


def _prunes(m: int, per_cell: int) -> bool:
    """Whether a bound is set up for m points: only where a third of the
    rows or more come from _prune_from(per_cell) on, so that its set-up
    and first tries pay (at d = 1, rho_p with a bound took 5% longer at
    m = 640 and 11% less at m = 961)."""
    return 2 * m > 3 * _prune_from(per_cell)


def _chunks(start: int, stop: int, width: int) -> list:
    """Slices of at most `width` covering [start, stop), the last ending at
    stop."""
    return [slice(max(start, e - width), e) for e in range(stop, start, -width)][::-1]


def _centers(blocks: slice) -> slice:
    """The center columns of a slice of column blocks."""
    return slice(_BLOCK_ROWS // 2 + _BLOCK_ROWS * blocks.start, _BLOCK_ROWS * blocks.stop,
                 _BLOCK_ROWS)


def _kept_pieces(j0, j1, best, rows, power, bound, width):
    """(column slices, head) of the pruned row group [j0, j1), or None when
    its bound keeps more than _PRUNE_KEEP of the column blocks below j0.
    head is each row's max over its probe cells (the block centers); the
    slices cover the kept blocks and the columns from the last whole block
    to j1, the last slice ending with the triangle [j0, j1)."""
    blocks = slice(0, j0 // _BLOCK_ROWS)
    centers = _centers(blocks)
    probes = rows(j0, j1, centers)
    reach = np.power(bound(j0, j1, blocks, probes), power)
    reach += best[_BLOCK_ROWS - 1:j0:_BLOCK_ROWS]  # best never decreases
    np.power(probes, power, out=probes)
    probes += best[centers]
    head = np.maximum.reduce(probes, axis=1)
    # row j's max is also at least best[j - 1] >= best[j0 - 1]
    lower = np.maximum(head, best[j0 - 1])
    kept = np.flatnonzero(np.any(reach >= lower[:, None], axis=0)).tolist()
    if len(kept) > _PRUNE_KEEP * blocks.stop:
        return None
    runs = []
    for k in kept + [blocks.stop]:  # the block there: the columns from it to j1
        if runs and runs[-1][1] == k * _BLOCK_ROWS:
            runs[-1][1] += _BLOCK_ROWS
        else:
            runs.append([k * _BLOCK_ROWS, (k + 1) * _BLOCK_ROWS])
    runs[-1][1] = j1
    return [c for a, b in runs for c in _chunks(a, b, width)], head


def _pvar_sum_dp(m: int, rows, power: float, per_cell: int, bound=None) -> float:
    """max over strictly increasing index subsequences (0 ... m-1 endpoints
    free) of the sum of the costs c(i, j) = n(i, j)^power of consecutive
    indices i < j: the max-plus recursion best[j] = max_{i<j} (best[i] +
    c(i, j)), the exact p-variation of a finite sequence when n(i, j) =
    |x_j - x_i| and power = p (Butkus and Norvaisa, Computation of
    p-variation, Lith. Math. J. 58 (2018)).

    rows(j0, j1, cols) returns the norms n(i, j) of the rows j0 <= j < j1
    at the columns i of the slice cols as a new (j1 - j0, len(cols)) array
    (what it holds at columns i >= j is not read), which the recursion
    raises to `power` in place; per_cell, the number of components a norm
    is computed from, sizes the blocks (_block_end). A block takes the max
    over i < j0 for all of its rows in 2-d numpy maxima, and the small
    triangle j0 <= i < j on Python floats, row after row.

    bound, if given, prunes (block-bound pruning). From row
    _prune_from(per_cell) on, rows go in groups of up to _BLOCK_ROWS, and
    the columns below a group in blocks K of _BLOCK_ROWS columns. The
    group's cells (c_K, j) at the blocks' middle columns c_K are computed
    first, as probes: max_K (best[c_K] + c(c_K, j)) and best[j0 - 1] (row
    j's term at j - 1 is at least that) are lower bounds LB_j of row j's
    max. bound(j0, j1, blocks, probes), given the probes' norms for a slice
    of blocks, returns for each row j and block K a norm whose power bounds
    the computed cost of every cell of K in row j; best never decreases,
    so UB_{j, K} = best[last column of K] + that power bounds every term
    best[i] + c(i, j) of the block. A block with UB_{j, K} < LB_j in every
    row of the group holds no row's max and is skipped. The kept blocks,
    with the columns from the last whole block to j1, are computed as
    slices of contiguous runs of at most _BLOCK_ELEMENTS elements.

    The value is the row-by-row recursion's, bit for bit: each best[i] +
    c(i, j) that is computed, the probes' included, is the same IEEE
    addition of the same two doubles, on Python floats as in numpy; a max
    does not round, so grouping the maxima differently cannot change their
    value, and a skipped term is at most UB < LB, at most a term that is
    kept. Only the slack needs care: a bound must dominate every computed
    cost, not only the exact one. With u = 2^-53 and fl(a + b) monotone in
    a and b:
    - a computed norm has relative error at most (per_cell + 3) u from its
      squares, their sum and the square root, and absolute error at most
      sqrt(per_cell) 2^-537 where the squares underflow (a subnormal result
      is off by at most 2^-1075 each); a bound's own few operations err by
      a few u more. The relative slack _REL_SLACK = 2^-20 covers all of
      these for per_cell up to _BLOCK_ELEMENTS, and the few ulp by which a
      computed power can err: for power >= 1, a bound b >= n (1 + 2^-20)
      on a computed norm n has b^power >= n^power (1 + 2^-20);
    - _norm_floor adds per_cell 2^-520 for the underflow of squares, and
      2^(-1000 / power), which keeps the bound's power at least 2^-1000,
      so that it rounds relatively and exceeds a computed cost that
      underflows (at most 2^-1074 off): (a + b)^power >= a^power + b^power;
    - best[i] <= best[last column of K] and fl(best + cost) is monotone, so
      fl(best[i] + c(i, j)) <= UB_{j, K}.
    Level 2 adds slack for its cancellation (lift._chen_bound). The callers
    set a bound up only for finite inputs small enough that no norm, cost,
    bound or sum of costs overflows (_block_bound), so no NaN or inf meets
    it, and only where _prunes(m, per_cell).

    Where the bound keeps more than _PRUNE_KEEP of a group's blocks, the
    group runs as plain blocks, and the next try waits twice as many groups
    as the last one did, so that inputs it cannot prune (equal points,
    where every cost is 0) pay for few tries.

    A NaN cost makes the sum NaN, as numpy's max propagates it through
    every later row: Python's max would drop it, so a block whose head or
    triangle holds one ends the recursion."""
    best = np.zeros(m)
    retry = m
    if bound is not None:
        group = min(_BLOCK_ROWS, math.isqrt(_BLOCK_ELEMENTS // per_cell))
        width = _BLOCK_ELEMENTS // (per_cell * group)  # >= group: the triangle fits
        retry, fails = _prune_from(per_cell), 0
    j0 = 1
    while j0 < m:
        pruned = None
        if j0 >= retry:
            j1 = min(m, j0 + group)
            pruned = _kept_pieces(j0, j1, best, rows, power, bound, width)
            fails = 0 if pruned else fails + 1
            retry = j0 + (group << fails)
        if pruned:
            pieces, head = pruned
        else:  # a plain block: one piece of all columns, no probes
            j1 = _block_end(j0, m, per_cell)
            pieces, head = [slice(0, j1)], None
        for cols in pieces:
            costs = rows(j0, j1, cols)
            np.power(costs, power, out=costs)
            k = min(j0, cols.stop) - cols.start
            if k:
                part = np.maximum.reduce(best[cols.start:cols.start + k] + costs[:, :k], axis=1)
                head = part if head is None else np.maximum(head, part, out=head)
        head = head.tolist()
        n = j1 - j0
        tri = costs[:, k:][_STRICTLY_LOWER[:n, :n]].tolist()  # row by row
        if math.isnan(sum(head) + sum(tri)):
            return math.nan
        # map stops at the end of vals, so row r takes r costs from tri
        tri = iter(tri)
        vals = head[:1]
        for b in head[1:]:
            vals.append(max(b, max(map(operator.add, vals, tri))))
        best[j0:j1] = vals
        j0 = j1
    return float(best[-1])


def _norms(parts: np.ndarray) -> np.ndarray:
    """|v| for the (rows, columns) vectors v whose n components are given
    as an (n, rows, columns) array, which it overwrites: their squares
    summed over a contiguous trailing axis with np.add.reduce, as
    np.linalg.norm(..., axis=-1) sums a row of components, or the single
    square when n is 1."""
    if len(parts) == 1:
        norms = np.multiply(parts[0], parts[0], out=parts[0])
    else:
        squares = np.empty(parts.shape[1:] + parts.shape[:1])
        np.multiply(parts, parts, out=squares.transpose(2, 0, 1))
        norms = np.add.reduce(squares, axis=-1)
    return np.sqrt(norms, out=norms)


def _block_centers(m: int) -> np.ndarray:
    """For each column of the whole column blocks below row m - 1, the
    center column of its block."""
    i = np.arange((m - 1) // _BLOCK_ROWS * _BLOCK_ROWS)
    return i - i % _BLOCK_ROWS + _BLOCK_ROWS // 2


def _block_radii(parts: np.ndarray) -> np.ndarray:
    """Each column block's max of the norms of the (n, columns) parts."""
    return _norms(parts.reshape(len(parts), -1, _BLOCK_ROWS)).max(axis=1)


def _norm_floor(per_cell: int, power: float) -> float:
    """Absolute slack of a bound on a computed norm (_pvar_sum_dp)."""
    return per_cell * 2.0 ** -520 + 2.0 ** (-1000.0 / power)


def _block_bound(m: int, per_cell: int, power: float, reach: float, radii, cross):
    """bound of _pvar_sum_dp for one level, or None where its slack does not
    hold. The slack needs power >= 1, per_cell at most _BLOCK_ELEMENTS (so
    that a pruned group has a row), and no norm or bound of at most
    `reach`, its square or power, or sum of m such powers, that overflows;
    a NaN reach fails. For row j and column block K the bound is (cross +
    probe + radius) (1 + _REL_SLACK), added in that order: probe is the norm
    at K's center, radius K's entry of radii(), and cross, at level 2 only,
    the entry of cross(j0, j1, blocks) (level 1 passes None). radii() is
    called only where the slack holds, so that it cannot overflow."""
    if not (power >= 1.0 and per_cell <= _BLOCK_ELEMENTS and reach < 2.0 ** 500
            and (reach <= 1.0 or power * math.log2(reach) + math.log2(m) < 1000)):
        return None
    radii = radii()

    def bound(j0, j1, blocks, probes):
        near = probes if cross is None else cross(j0, j1, blocks) + probes
        return (near + radii[blocks]) * (1.0 + _REL_SLACK)

    return bound


def _distance_bound(comps: np.ndarray, p: float):
    """bound of _pvar_sum_dp for the norms |z_j - z_i| of the points given
    as a (d, m) array, or None where it is not set up (_block_bound, or all
    points 0): by the triangle inequality, |z_j - z_i| <= |z_j - z_c| + r_K
    for i in block K, r_K the radius of the block about its center c."""
    d, m = comps.shape
    if not _prunes(m, d):
        return None
    top = float(np.max(np.abs(comps), initial=0.0))
    if not top:
        return None  # all points 0 (rho_p's level 1 of a pair that shares it): no cost is skipped
    floor = _norm_floor(d, p)
    c = _block_centers(m)
    return _block_bound(m, d, p, 4.0 * math.sqrt(d) * top + floor,
                        lambda: _block_radii(comps[:, :len(c)] - comps[:, c]) + floor, None)


def _needed_points(pts: np.ndarray, p: float) -> np.ndarray:
    """The rows of the (m, d) points pts that _pvar_sum_dp needs for their
    p-variation, to the bit: at d = 1 and p >= _TURNING_P, for points in
    range, the first point, each point where the direction of travel
    changes (a plateau, equal points in a row, counts as one) and the last
    point; pts itself otherwise.

    The recursion's value is the max over chains 0 = i_0 < ... < i_k = m - 1
    of the chain's costs summed left to right (fl(a + b) is monotone in a
    and b). A chain on the kept points is a chain, so it is enough that
    every chain is matched by one on the kept points whose sum is at least
    as large. A plateau's points share their value, so their costs, and a
    cost 0 adds exactly. With u = 2^-53:
    (a) a chain point beyond both of its chain neighbours moves to the far
        end of its monotone run, a kept point: the neighbours lie outside
        the run, and fl(x - y), the norm and np.power are monotone, so both
        of its costs, and the sum, get weakly larger;
    (b) a chain point between its chain neighbours (weakly) is dropped. Let
        S be the running sum before it, A and B its two costs, C the cost
        across and V = fl(S + A); A, B <= C by monotonicity. If A is below
        half an ulp of S, V = S; if B is below half an ulp of V, fl(V + B)
        = V <= fl(S + C). Otherwise fl(V + B) <= fl(S + C) once V - S <= C
        - B, and V - S <= A + min(A, B): a rounding moves a sum by at most
        the term it adds and by at most half an ulp. For the exact
        differences a and b, (a + b)^p - a^p - b^p - min(a, b)^p >= max(a,
        b)^(p - 1) min(a, b) at p >= 2, which covers the costs' own
        roundings, a few p u each (p < 37 by the range tests below), unless
        min(a, b) < 2^-40 max(a, b). Then B is below half an ulp of V, or A
        <= 2^-80 B and C - B >= 2 A or C = B. In the last case fl(V + B) > fl(S + B) needs a rounding
        midpoint of B's binade in (S + B, V + B], so S near half an ulp of
        B and A > 2^-108 B, while C = B holds a to 2^-51 b and A to
        2^(-51 p) B. So p > 108 / 51 is needed: at p = 2 the points
        (1.6858739277029138e-07, -1.2732847289526858e-15,
        1.0668702247329975e-15, 18.092200447811553) round one ulp apart,
        and _TURNING_P leaves a factor 2^6 (A <= 2^-117 B was the largest
        seen at p = 2.25).
    Dropping the points between their neighbours until none is left, then
    moving the others, gives a chain on the kept points.

    The roundings are relative only where no difference, square, cost or
    sum of m costs overflows and no nonzero one underflows: a nonzero
    difference of two points is at least 2^-53 times the least nonzero
    |point|, and at most twice the largest (compare _block_bound's `reach`
    test); NaN and inf fail these tests."""
    if pts.shape[1] != 1 or not p >= _TURNING_P:
        return pts
    x = pts[:, 0]
    size = np.abs(x)
    top = float(size.max())  # NaN if any point is
    if not (top <= 0.5 or p * math.log2(2.0 * top) + math.log2(len(x)) < 1000):
        return pts
    if size[size <= 2.0 ** (53.0 - 1000.0 / p)].any():  # a nonzero cost could underflow
        return pts
    moves = x[1:] - x[:-1]
    steps = moves.nonzero()[0]
    up = moves[steps] > 0
    turns = steps[1:][up[1:] != up[:-1]]  # the start of each move that turns back
    return pts[np.concatenate(([0], turns, [len(x) - 1]))]


def p_variation_of_points(points: np.ndarray, p: float) -> float:
    """p-variation (already rooted) of the polyline through `points`, an
    (m, d) array: one row per point; at d = 1 the recursion runs on the
    turning points (_needed_points)."""
    pts = np.asarray(points, dtype=float)
    m, d = pts.shape
    if m < 2:
        return 0.0
    comps = np.ascontiguousarray(_needed_points(pts, p).T)  # (d, m): component rows contiguous
    m = comps.shape[1]

    def rows(j0, j1, cols):
        return _norms(comps[:, None, cols] - comps[:, j0:j1, None])

    return _pvar_sum_dp(m, rows, p, d, _distance_bound(comps, p)) ** (1.0 / p)


def p_variation(x: CadlagPath, p: float) -> float:
    """sup over sample-grid partitions of (sum |increment|^p)^(1/p); the
    one check of p >= 1 for it and d_p."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    return p_variation_of_points(visited_points(x), p)


def merge_difference(x: CadlagPath, y: CadlagPath) -> CadlagPath:
    """The path x - y sampled on the merged grid, with left limits at the
    union of jump times."""
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    times = np.union1d(x.times, y.times)
    xr, xl = _pinned_values(x, times, 0.0)
    yr, yl = _pinned_values(y, times, 0.0)
    return CadlagPath(times, xr - yr, xl - yl, "linear")


def d_p(x: CadlagPath, y: CadlagPath, p: float) -> float:
    """p-variation distance: p-variation of x - y on the merged grid
    (p_variation checks p >= 1)."""
    return p_variation(merge_difference(x, y), p)


# -- Skorokhod-type metric ------------------------------------------------


def _horizon_tol(T: float) -> float:
    """The tolerance 1e-12 max(1, T) within which two times of [0, T] are
    one: of the horizon check (_check_pair) and the Skorokhod search."""
    return 1e-12 * max(1.0, T)


def _check_pair(x, y) -> None:
    """Paths or rough paths x and y must share their dimension and, within
    _horizon_tol, their horizon: the check of skorokhod_sigma_p and
    lift.rho_p."""
    if x.dim != y.dim:
        raise ValueError(f"dimension mismatch: {x.dim} vs {y.dim}")
    if abs(x.T - y.T) > _horizon_tol(x.T):
        raise ValueError("paths must share the time horizon [0, T]")


def _warp_objective(x: CadlagPath, y: CadlagPath, p: float, knots_t, knots_s, k, memo):
    """s -> max(|lambda - id|, d_p(x o lambda, y)) for the piecewise-linear
    warp lambda interpolating knots_t -> knots_s with the value of the
    interior knot k set to s; with k None, s is ignored and knots_s is taken
    as it is. memo keeps each value by the bytes of knots_t and of the knot
    values, so a knot vector met again is answered once.

    d_p is taken over candidate times: x's sample times pulled back by
    lambda, y's sample times and the knots, sorted, each one within
    _horizon_tol of the one before it dropped. x o lambda - y is read at the
    candidates (_pinned_values), and its visited points go to
    p_variation_of_points. np.interp reads the two knots around a point, and
    a knot's own value at a knot, so moving knot k changes lambda^{-1} only
    inside (s_{k-1}, s_{k+1}) and lambda only inside (t_{k-1}, t_{k+1}):
    the candidates outside, x and y at them and y at the candidates inside
    are computed here once, and a call computes the rest. Each value read
    is the same IEEE result it would be if the call computed it."""
    tol = _horizon_tol(x.T)
    trial = knots_s.copy()
    gaps = np.abs(knots_s - knots_t)
    a, b = (0, 0) if k is None else (k - 1, k + 1)  # the knots around k; none move without k
    if k is not None:
        gaps[k] = 0.0
    rest = float(gaps.max())
    moving = (knots_s[a] < x.times) & (x.times < knots_s[b])
    fixed = np.concatenate([np.interp(x.times[~moving], knots_s, knots_t), y.times, knots_t])
    window = (knots_t[a] < fixed) & (fixed < knots_t[b])
    outside, inside, pulled = fixed[~window], fixed[window], x.times[moving]
    # right values, and left limits too where a path jumps
    sides = 2 if x.has_jumps() or y.has_jumps() else 1
    x_out = _pinned_values(x, np.interp(outside, knots_t, knots_s), tol)
    y_out = _pinned_values(y, outside, tol)
    y_in = _pinned_values(y, inside, tol)
    d_out = [x_out[h] - y_out[h] for h in range(sides)]
    prefix = knots_t.tobytes()

    def objective(s):
        if k is not None:
            trial[k] = s
        key = (prefix, trial.tobytes())
        if key not in memo:
            pull = np.interp(pulled, trial, knots_t)
            cand = np.concatenate([outside, inside, pull])
            order = cand.argsort(kind="stable")
            ordered = cand[order]
            keep = np.empty(len(cand), dtype=bool)
            keep[0] = True
            np.greater(ordered[1:] - ordered[:-1], tol, out=keep[1:])
            kept = order[keep]
            x_var = _pinned_values(x, np.interp(cand[len(outside):], knots_t, trial), tol)
            y_pull = _pinned_values(y, pull, tol)
            diff = [np.concatenate([d_out[h], x_var[h] - np.concatenate([y_in[h], y_pull[h]])])[kept]
                    for h in range(sides)]
            warp = rest if k is None else max(rest, abs(s - float(knots_t[k])))
            memo[key] = max(warp, p_variation_of_points(_visited_sequence(diff[0], diff[-1]), p))
        return memo[key]

    return objective


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


def skorokhod_sigma_p(x: CadlagPath, y: CadlagPath, p: float,
                      warp_grid: int = WARP_GRID) -> float:
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
    plus one call per trial knot value. A knot's objective (_warp_objective)
    computes once what moving the knot leaves fixed; a call then pulls back
    x's samples near the knot, merges them into the fixed candidates, reads
    x and y once each, and takes one p-variation of the visited points of x
    o lambda - y, one row block of _pvar_sum_dp on the 13-23 turning points
    (_needed_points) of the 80-87 visited points at mesh 8, about 45% of
    the call's time. A knot vector asked for again within the call is
    answered from a memo: 142 of the 3,103 calls of the benchmark's alpha_p
    inputs at seed 4242.
    """
    if warp_grid < 1:
        raise ValueError("warp_grid must be >= 1")
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    _check_pair(x, y)
    T = x.T
    memo = {}

    def warped(knots_t, knots_s):  # the objective at one knot vector
        return _warp_objective(x, y, p, knots_t, knots_s, None, memo)(None)

    if T <= 0:
        return warped(np.array([0.0]), np.array([0.0]))

    grids = [1]
    while grids[-1] * 2 <= warp_grid:
        grids.append(grids[-1] * 2)
    if grids[-1] != warp_grid:
        grids.append(warp_grid)

    tol = _horizon_tol(T)
    anchors = _jump_alignment_anchors(x, y, T, tol)
    jump_knots = np.array([u for u, _ in anchors] +
                          [float(t) for t in y.times[y.jump_mask]
                           if tol < t < T - tol])
    x_jump_values = [float(t) for t in x.times[x.jump_mask] if tol < t < T - tol]

    knots_t = np.array([0.0, T])
    knots_s = knots_t.copy()
    best = warped(knots_t, knots_s)
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
            f_seed = warped(knots_t, seed)
            if f_seed < best - 1e-15:
                knots_s, best = seed, f_seed
        for _ in range(2):  # coordinate-descent sweeps
            improved = False
            for k in range(1, len(knots_t) - 1):
                lo = knots_s[k - 1] + margin
                hi = knots_s[k + 1] - margin
                if hi <= lo:
                    continue
                obj = _warp_objective(x, y, p, knots_t, knots_s, k, memo)
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
        best = min(best, warped(knots_t, knots_s))
    return best
