"""The step-2 group G2(R^d) inside the truncated tensor algebra T2(R^d).

A point is stored as (level1, level2) with the scalar part fixed at 1. Every
operation works on batches: a `GroupElement` holds level-1 data of shape
(..., d) and level-2 data of shape (..., d, d), and the operations act
pointwise over the leading (batch) axes, broadcasting them like numpy. A
single point is a batch of shape ().

Shapes and finiteness are validated once per batch, when a `GroupElement`
is built from outside data (group_exp, which takes a tensor, is such a
constructor). Products, inverses, increments and sub-batches are built
without a second check: they are finite whenever their inputs are, barring
overflow. A log is a pair of arrays (level1, level2) of the same shapes
with scalar part 0. All operations are pure functions of their inputs.
"""

from __future__ import annotations

import numpy as np

# Formula of the homogeneous norm used everywhere in place of the (non-computable)
# Carnot-Caratheodory norm; recorded in output metadata so ratios are comparable
# across runs.
NORM_CONVENTION = "max(|level1|_2, sqrt(2*|antisym(level2)|_F))"


class GroupElement:
    """A batch of points of G2(R^d); the scalar part is implicitly 1."""

    __slots__ = ("level1", "level2")

    def __init__(self, level1, level2=None):
        v = np.asarray(level1, dtype=float)
        if v.ndim < 1 or v.shape[-1] < 1:
            raise ValueError(f"expected level-1 data of shape (..., d), got {v.shape}")
        shape2 = v.shape + v.shape[-1:]
        m = np.zeros(shape2) if level2 is None else np.asarray(level2, dtype=float)
        if m.shape != shape2:
            raise ValueError(f"expected level-2 data of shape {shape2}, got {m.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite entries in level-1 data")
        if not np.all(np.isfinite(m)):
            raise ValueError("non-finite entries in level-2 data")
        self.level1 = v
        self.level2 = m

    @property
    def dim(self) -> int:
        return self.level1.shape[-1]

    def __getitem__(self, idx) -> GroupElement:
        """Sub-batch; `idx` indexes the batch axes only."""
        return _element(self.level1[idx], self.level2[idx])


def _element(level1: np.ndarray, level2: np.ndarray) -> GroupElement:
    """A GroupElement from arrays that already form a valid batch."""
    g = object.__new__(GroupElement)
    g.level1 = level1
    g.level2 = level2
    return g


def _outer(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., :, None] * v[..., None, :]


def group_mul(a: GroupElement, b: GroupElement) -> GroupElement:
    """Truncated tensor product a*b (realizes Chen's relation on increments)."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return _element(a.level1 + b.level1,
                    a.level2 + b.level2 + _outer(a.level1, b.level1))


def group_inv(g: GroupElement) -> GroupElement:
    # (1 + v + m)^(-1) = 1 - v - m + v (x) v at truncation level 2
    return _element(-g.level1, -g.level2 + _outer(g.level1, g.level1))


def group_increment(a: GroupElement, b: GroupElement) -> GroupElement:
    """a^{-1} b in the form used between running signatures:
    (b1 - a1, b2 - a2 - a1 (x) (b1 - a1))."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    g1 = b.level1 - a.level1
    return _element(g1, _increment_level2(a.level1, a.level2, b.level2, g1))


def _increment_level2(a1, a2, b2, g1, outer=_outer) -> np.ndarray:
    """Level 2 of group_increment, b2 - a2 - outer(a1, g1) with g1 = b1 - a1,
    term by term, as a new array. outer(u, v) is the outer product of the
    layout at hand: _outer for component axes last, or u[:, None] *
    v[None, :] for component axes first."""
    g2 = b2 - a2
    g2 -= outer(a1, g1)
    return g2


def group_exp(v, m=0.0) -> GroupElement:
    """exp of the tensor (v, m) with scalar part 0: (v, m + v (x) v / 2).
    With m = 0 this is the exp of a level-1 Lie element."""
    v = np.asarray(v, dtype=float)
    return GroupElement(v, m + 0.5 * _outer(v, v))


def group_log(g: GroupElement):
    """log in T2: (v, m) -> (v, m - v (x) v / 2), scalar part 0; returns the
    pair of arrays (level1, level2)."""
    return g.level1, g.level2 - 0.5 * _outer(g.level1, g.level1)


def group_pow(g: GroupElement, s) -> GroupElement:
    """Geodesic power exp(s * log g); `s` broadcasts against the batch."""
    s = np.asarray(s, dtype=float)[..., None]
    chi1, chi2 = group_log(g)
    return group_exp(s * chi1, s[..., None] * chi2)


def homogeneous_norm(g: GroupElement):
    """Homogeneous norm equivalent to the CC norm (see NORM_CONVENTION), one
    value per batch point (a float for a single point)."""
    antisym = 0.5 * (g.level2 - np.swapaxes(g.level2, -1, -2))
    n1 = np.linalg.norm(g.level1, axis=-1)
    n2 = np.sqrt(2.0 * np.linalg.norm(antisym, axis=(-2, -1)))
    out = np.maximum(n1, n2)
    return float(out) if out.ndim == 0 else out


def geometric_defect(g: GroupElement) -> float:
    """Max-abs violation of the shuffle identity level2 + level2^T =
    level1 (x) level1 over the whole batch."""
    resid = g.level2 + np.swapaxes(g.level2, -1, -2) - _outer(g.level1, g.level1)
    return float(np.max(np.abs(resid))) if resid.size else 0.0
