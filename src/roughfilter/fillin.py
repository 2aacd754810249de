"""Cadlag-to-continuous machinery: path functions, admissible pairs,
continuous representatives, and the alpha_p/beta_p metric estimators
between jump-filled representatives.

Jumps are opened into fictitious-time slots ordered by decreasing jump size
(ties: earlier jump first); slot k gets width delta * r_k from a summable
sequence. The metrics read the filled slots. Canonical RDE solutions do
not depend on these choices: rde's solver takes the driver itself and
crosses each jump by its Marcus flow, to which a continuous solve along a
representative tends as its steps and slot steps refine. No inverse time
change is provided: the representative records where each original sample
time landed (`orig_indices`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .lift import RoughPath, rho_p
from .paths import WARP_GRID, CadlagPath, skorokhod_sigma_p
from .tensor_group import GroupElement, group_inv, group_mul, group_pow, homogeneous_norm

# Defaults of the fill-in: the delta sweep of alpha_p/beta_p (and of the
# CLI) and the number of equal steps a jump slot is traversed in.
DELTA_SEQ = (1.0, 0.5, 0.25, 0.125)
SLOT_STEPS = 8


# -- path functions -------------------------------------------------------


@dataclass(frozen=True)
class PathFunction:
    """Interpolation rule phi(a, b)_s = a * exp(w(s) log(a^{-1} b)), so
    phi_0 = a and phi_1 = b: the log-linear chord (w(s) = s, no profile)
    or a tabulated traversal profile w."""

    profile: callable = field(default=None)  # type: ignore[assignment]

    def __call__(self, a: GroupElement, b: GroupElement, s) -> GroupElement:
        """phi(a, b)_s; an array s gives the batch over s, broadcast against
        the batch axes of a and b. A scalar s outside (0, 1) returns a or b
        itself; array entries there are clipped to the endpoints."""
        s = np.asarray(s, dtype=float)
        if s.ndim == 0 and not 0.0 < s < 1.0:
            return a if s <= 0.0 else b
        w = np.clip(s if self.profile is None else self.profile(s), 0.0, 1.0)
        return group_mul(a, group_pow(group_mul(group_inv(a), b), w))


def log_linear_path_function() -> PathFunction:
    """phi(a,b)_s = a * exp(s * log(a^{-1} b)): the straight chord in
    log-coordinates, geometric for every s."""
    return PathFunction()


def tabulated_path_function(s_table, w_table) -> PathFunction:
    """Custom traversal profile: phi(a,b)_s = a * exp(w(s) * log(a^{-1} b))
    with w interpolated from a monotone table, w(0)=0, w(1)=1."""
    s_table = np.asarray(s_table, dtype=float)
    w_table = np.asarray(w_table, dtype=float)
    if s_table.shape != w_table.shape or s_table.ndim != 1 or len(s_table) < 2:
        raise ValueError("profile tables must be equal-length 1-d arrays")
    if s_table[0] != 0.0 or s_table[-1] != 1.0 or w_table[0] != 0.0 or w_table[-1] != 1.0:
        raise ValueError("profile must map [0,1] onto [0,1] with fixed endpoints")
    if not (np.all(np.diff(s_table) > 0) and np.all(np.diff(w_table) >= 0)):
        raise ValueError("profile must be monotone")
    return PathFunction(lambda s: np.interp(s, s_table, w_table))


# -- admissible pairs and slot geometry -----------------------------------


@dataclass(frozen=True)
class RSeq:
    """Summable positive sequence r_k: explicit prefix, then geometric tail."""

    prefix: tuple = (0.5,)
    ratio: float = 0.5

    def __post_init__(self):
        if not self.prefix or any(r <= 0 for r in self.prefix):
            raise ValueError("r_seq prefix must be non-empty and positive")
        if not 0.0 < self.ratio < 1.0:
            raise ValueError("geometric tail ratio must lie in (0, 1) for summability")

    @staticmethod
    def geometric(base: float) -> "RSeq":
        """r_k = base^{-k}."""
        if base <= 1.0:
            raise ValueError("base must exceed 1")
        return RSeq((1.0 / base,), 1.0 / base)

    def term(self, k: int) -> float:
        """k-th term, 1-based."""
        if k < 1:
            raise ValueError("terms are 1-based")
        if k <= len(self.prefix):
            return float(self.prefix[k - 1])
        return float(self.prefix[-1] * self.ratio ** (k - len(self.prefix)))


@dataclass(frozen=True)
class AdmissiblePair:
    """A cadlag rough path together with its fill-in rule: what
    build_representative and the metrics alpha_p and beta_p read. The
    canonical RDE solver takes the rough path alone."""

    rough: RoughPath
    phi: PathFunction = field(default_factory=log_linear_path_function)
    r_seq: RSeq = field(default_factory=RSeq)
    delta: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")


# Relative floor on slot widths: geometric r-sequences underflow the float
# resolution of the extended time axis around rank 50, which would collapse
# representative grid points for paths with very many jumps.
WIDTH_FLOOR = 1e-10


# -- continuous representative --------------------------------------------


@dataclass(frozen=True)
class Representative:
    """Continuous representative on [0, T] with the grid index each original
    sample time landed on."""

    rough: RoughPath
    orig_indices: np.ndarray  # rep grid index of each original grid time


def build_representative(pair: AdmissiblePair,
                         slot_steps: int = SLOT_STEPS) -> Representative:
    """Open jumps into phi-filled slots, then rescale [0, T_ext] back to [0, T].

    Jumps are ranked by decreasing homogeneous size, the earlier jump first
    on a tie; the jump of rank k (1-based) gets a slot of width
    max(delta * r_k, WIDTH_FLOOR * max(T, 1)). A grid time t goes to
    tau(t) = t + (sum of the widths of the jumps at or before t), so
    tau(0) = 0 (no path jumps at its initial time), and T_ext = T + (sum
    of all widths). A jump at index i becomes slot_steps + 1 points: the
    left limit at the slot start tau(t_i) - width, phi at slot_steps - 1
    equal steps inside, and the value at tau(t_i)."""
    if slot_steps < 1:
        raise ValueError("slot_steps must be >= 1")
    X = pair.rough
    jumps = np.nonzero(X.jump_flags)[0]  # time order
    sizes = homogeneous_norm(X.increment(jumps, jumps, left_i=True))
    rank = np.argsort(np.lexsort((X.times[jumps], -sizes)))
    floor = WIDTH_FLOOR * max(X.T, 1.0)
    widths = np.array([max(pair.delta * pair.r_seq.term(k + 1), floor)
                       for k in rank.tolist()])
    counts = 1 + slot_steps * X.jump_flags.astype(int)
    orig_indices = np.cumsum(counts) - 1
    start = orig_indices[jumps] - slot_steps
    inside = start[:, None] + np.arange(1, slot_steps)
    m = orig_indices[-1] + 1
    t_ext = np.empty(m)
    L1 = np.empty((m, X.dim))
    L2 = np.empty((m, X.dim, X.dim))

    tau = X.times + np.concatenate([[0.0], np.cumsum(widths)])[np.cumsum(X.jump_flags)]
    T_ext = X.T + float(np.sum(widths))
    slot_start = tau[jumps] - widths
    s = np.arange(1, slot_steps) / slot_steps
    t_ext[orig_indices] = tau
    t_ext[start] = slot_start
    t_ext[inside] = slot_start[:, None] + s * widths[:, None]
    L1[orig_indices], L2[orig_indices] = X.level1, X.level2
    L1[start], L2[start] = X.pre_level1[jumps], X.pre_level2[jumps]
    g = pair.phi(X.point(jumps[:, None], left=True), X.point(jumps[:, None]), s)
    L1[inside], L2[inside] = g.level1, g.level2

    # A one-point path on [0, 0] has T_ext = 0 and nothing to rescale.
    scale = X.T / T_ext if T_ext else 1.0
    return Representative(RoughPath(t_ext * scale, L1, L2), orig_indices)


# -- alpha_p / beta_p ------------------------------------------------------


@dataclass(frozen=True)
class DeltaSweep:
    """Per-delta metric values, the limit estimate (the finest delta's
    value) and whether the two pairs carry different jump counts."""

    estimate: float
    per_delta: tuple  # ((delta, value), ...)
    jump_count_mismatch: bool


def _delta_sweep(X: AdmissiblePair, Y: AdmissiblePair, delta_seq,
                 metric) -> DeltaSweep:
    deltas = list(delta_seq)
    if not deltas:
        raise ValueError("delta_seq must be non-empty")
    if any(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:])):
        raise ValueError("delta_seq must be strictly decreasing")
    if X.rough.dim != Y.rough.dim:
        raise ValueError("dimension mismatch between pairs")
    values = []
    for d in deltas:
        rx = build_representative(replace(X, delta=d))
        ry = build_representative(replace(Y, delta=d))
        values.append((float(d), float(metric(rx.rough, ry.rough))))
    mismatch = int(np.sum(X.rough.jump_flags)) != int(np.sum(Y.rough.jump_flags))
    return DeltaSweep(values[-1][1], tuple(values), mismatch)


def beta_p(X: AdmissiblePair, Y: AdmissiblePair, p: float,
           delta_seq=DELTA_SEQ) -> DeltaSweep:
    """rho_p between delta-scaled continuous representatives, swept over
    delta; the estimate is the finest-delta value. When the two pairs carry
    different jump counts the slots are rank-aligned (absent ranks are
    zero-width no-ops) and the mismatch is flagged."""
    return _delta_sweep(X, Y, delta_seq, lambda a, b: rho_p(a, b, p))


def alpha_p(X: AdmissiblePair, Y: AdmissiblePair, p: float,
            delta_seq=DELTA_SEQ, warp_grid: int = WARP_GRID) -> DeltaSweep:
    """Like beta_p but with the Skorokhod sigma_p metric on the level-1
    representatives (reported with the warp_grid used)."""

    def metric(a: RoughPath, b: RoughPath) -> float:
        pa = CadlagPath(a.times, a.level1, None, "linear")
        pb = CadlagPath(b.times, b.level1, None, "linear")
        return skorokhod_sigma_p(pa, pb, p, warp_grid)

    return _delta_sweep(X, Y, delta_seq, metric)
