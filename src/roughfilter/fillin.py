"""Cadlag-to-continuous machinery: path functions, jump-slot time extension,
continuous representatives, and the alpha_p/beta_p metric estimators between
jump-filled representatives.

Jumps are opened into fictitious-time slots ordered by decreasing jump size
(ties: earlier jump first); slot k gets width delta * r_k from a summable
sequence. The metrics read the filled slots; canonical RDE solutions do not
(the rde module reads only the jump chords), so they are independent of
these choices. No inverse time change is provided: the representative
records where each original sample time landed (`orig_indices`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .lift import RoughPath, marcus_increment, rho_p
from .paths import CadlagPath, skorokhod_sigma_p
from .tensor_group import GroupElement, group_inv, group_mul, group_pow, homogeneous_norm

# Defaults of the fill-in: the delta sweep of alpha_p/beta_p (and of the
# CLI) and the number of equal steps a jump slot is traversed in.
DELTA_SEQ = (1.0, 0.5, 0.25, 0.125)
SLOT_STEPS = 8


# -- path functions -------------------------------------------------------


@dataclass(frozen=True)
class PathFunction:
    """Interpolation rule phi(a, b)_s with phi_0 = a, phi_1 = b."""

    kind: str  # "log_linear" | "linear" | "tabulated"
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
    return PathFunction("log_linear")


def linear_path_function() -> PathFunction:
    """Straight chord of the underlying level-1 values. Only admissible for
    jump pairs whose group increment is exp of a vector (zero level-2 log),
    where it coincides with the log-linear rule."""
    return PathFunction("linear")


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
    return PathFunction("tabulated", lambda s: np.interp(s, s_table, w_table))


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
    """A cadlag rough path together with its fill-in rule."""

    rough: RoughPath
    phi: PathFunction = field(default_factory=log_linear_path_function)
    r_seq: RSeq = field(default_factory=RSeq)
    delta: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must lie in (0, 1]")
        if self.phi.kind == "linear":
            jumps = np.nonzero(self.rough.jump_flags)[0]
            try:
                marcus_increment(self.rough, jumps, rtol=1e-10)
            except ValueError as exc:
                raise ValueError(
                    f"linear path function is inadmissible: {exc}") from None


def ordered_jumps(pair: AdmissiblePair):
    """Jump indices ordered by decreasing jump size, earlier time first on
    ties; returns (indices_in_rank_order, sizes_in_rank_order)."""
    X = pair.rough
    idx = np.nonzero(X.jump_flags)[0]
    sizes = homogeneous_norm(X.increment(idx, idx, left_i=True))
    order = np.lexsort((X.times[idx], -sizes))
    return idx[order], sizes[order]


@dataclass(frozen=True)
class TimeExtension:
    """The increasing cadlag map tau(t) = t + sum_{t_k <= t} delta*r_k."""

    T: float
    jump_times: np.ndarray  # in time order
    widths: np.ndarray  # slot widths, aligned with jump_times

    @property
    def r_total(self) -> float:
        return float(np.sum(self.widths))

    @property
    def T_ext(self) -> float:
        return self.T + self.r_total

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        offs = np.concatenate([[0.0], np.cumsum(self.widths)])
        k = np.searchsorted(self.jump_times, t, side="right")
        out = t + offs[k]
        return float(out) if out.ndim == 0 else out

    def slots(self):
        """Extended-time slot intervals [tau(t_k-), tau(t_k)] in time order."""
        offs = np.concatenate([[0.0], np.cumsum(self.widths)])
        return [
            (float(t + offs[j]), float(t + offs[j + 1]))
            for j, t in enumerate(self.jump_times)
        ]


# Relative floor on slot widths: geometric r-sequences underflow the float
# resolution of the extended time axis around rank 50, which would collapse
# representative grid points for paths with very many jumps.
WIDTH_FLOOR = 1e-10


def time_extension(pair: AdmissiblePair):
    """Slot layout for a pair: (tau, jump_slots)."""
    X = pair.rough
    idx_rank, _ = ordered_jumps(pair)
    floor = WIDTH_FLOOR * max(X.T, 1.0)
    widths_by_rank = np.array(
        [max(pair.delta * pair.r_seq.term(k + 1), floor) for k in range(len(idx_rank))]
    )
    order = np.argsort(idx_rank)  # back to time order
    ext = TimeExtension(X.T, X.times[idx_rank[order]], widths_by_rank[order])
    return ext, ext.slots()


# -- continuous representative --------------------------------------------


@dataclass(frozen=True)
class Representative:
    """Continuous representative on [0, T] with the grid index each original
    sample time landed on."""

    rough: RoughPath
    orig_indices: np.ndarray  # rep grid index of each original grid time


def build_representative(pair: AdmissiblePair,
                         slot_steps: int = SLOT_STEPS) -> Representative:
    """Open jumps into phi-filled slots, then rescale [0, T+r] back to [0, T].
    A jump at index i becomes slot_steps + 1 points: the left limit at the
    slot start, phi at slot_steps - 1 equal steps inside, and the value."""
    if slot_steps < 1:
        raise ValueError("slot_steps must be >= 1")
    X = pair.rough
    if not X.has_jumps():
        return Representative(RoughPath(X.times, X.level1, X.level2),
                              np.arange(len(X.times)))
    ext, _ = time_extension(pair)
    jumps = np.nonzero(X.jump_flags)[0]  # time order, as ext.widths
    counts = 1 + slot_steps * X.jump_flags.astype(int)
    orig_indices = np.cumsum(counts) - 1
    start = orig_indices[jumps] - slot_steps
    inside = start[:, None] + np.arange(1, slot_steps)
    m = orig_indices[-1] + 1
    t_ext = np.empty(m)
    L1 = np.empty((m, X.dim))
    L2 = np.empty((m, X.dim, X.dim))

    tau = ext(X.times)
    tau[0] = 0.0
    slot_start = tau[jumps] - ext.widths
    s = np.arange(1, slot_steps) / slot_steps
    t_ext[orig_indices] = tau
    t_ext[start] = slot_start
    t_ext[inside] = slot_start[:, None] + s * ext.widths[:, None]
    L1[orig_indices], L2[orig_indices] = X.level1, X.level2
    L1[start], L2[start] = X.pre_level1[jumps], X.pre_level2[jumps]
    g = pair.phi(X.point(jumps[:, None], left=True), X.point(jumps[:, None]), s)
    L1[inside], L2[inside] = g.level1, g.level2

    return Representative(RoughPath(t_ext * (X.T / ext.T_ext), L1, L2), orig_indices)


def continuous_representative(pair: AdmissiblePair,
                              slot_steps: int = SLOT_STEPS) -> RoughPath:
    """The jump-filled continuous rough path x^phi on [0, T]."""
    return build_representative(pair, slot_steps).rough


# -- alpha_p / beta_p ------------------------------------------------------


@dataclass(frozen=True)
class DeltaSweep:
    """Per-delta metric values with the limit estimate (the finest delta)."""

    estimate: float
    per_delta: tuple  # ((delta, value), ...)
    stagnated: bool
    jump_count_mismatch: bool


def _delta_sweep(X: AdmissiblePair, Y: AdmissiblePair, delta_seq, metric,
                 slot_steps: int) -> DeltaSweep:
    deltas = list(delta_seq)
    if not deltas:
        raise ValueError("delta_seq must be non-empty")
    if any(d2 >= d1 for d1, d2 in zip(deltas, deltas[1:])):
        raise ValueError("delta_seq must be strictly decreasing")
    if X.rough.dim != Y.rough.dim:
        raise ValueError("dimension mismatch between pairs")
    values = []
    for d in deltas:
        rx = build_representative(replace(X, delta=d), slot_steps)
        ry = build_representative(replace(Y, delta=d), slot_steps)
        values.append((float(d), float(metric(rx.rough, ry.rough))))
    vs = [v for _, v in values]
    if len(vs) >= 3:
        d0 = abs(vs[1] - vs[0])
        d1 = abs(vs[-1] - vs[-2])
        stagnated = d1 <= max(1e-12, d0)
    else:
        stagnated = len(vs) < 2 or abs(vs[-1] - vs[-2]) <= 1e-10
    mismatch = int(np.sum(X.rough.jump_flags)) != int(np.sum(Y.rough.jump_flags))
    return DeltaSweep(vs[-1], tuple(values), stagnated, mismatch)


def beta_p(X: AdmissiblePair, Y: AdmissiblePair, p: float,
           delta_seq=DELTA_SEQ, slot_steps: int = SLOT_STEPS) -> DeltaSweep:
    """rho_p between delta-scaled continuous representatives, swept over
    delta; the estimate is the finest-delta value. When the two pairs carry
    different jump counts the slots are rank-aligned (absent ranks are
    zero-width no-ops) and the mismatch is flagged."""
    return _delta_sweep(X, Y, delta_seq, lambda a, b: rho_p(a, b, p), slot_steps)


def alpha_p(X: AdmissiblePair, Y: AdmissiblePair, p: float,
            delta_seq=DELTA_SEQ, slot_steps: int = SLOT_STEPS,
            warp_grid: int = 8) -> DeltaSweep:
    """Like beta_p but with the Skorokhod sigma_p metric on the level-1
    representatives (reported with the warp_grid used)."""

    def metric(a: RoughPath, b: RoughPath) -> float:
        pa = CadlagPath(a.times, a.level1, None, "linear")
        pb = CadlagPath(b.times, b.level1, None, "linear")
        return skorokhod_sigma_p(pa, pb, p, warp_grid)

    return _delta_sweep(X, Y, delta_seq, metric, slot_steps)
