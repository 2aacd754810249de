"""Golden values of the Skorokhod-type metrics, pinned at fixed seeds.

The warp search of `skorokhod_sigma_p` and `alpha_p` is a deterministic
sequence of objective calls, so a change that only speeds up the objective
or the line search must reproduce these values bit for bit (repr equality).
They were recorded before the warp objective was vectorised and the bounded
Brent search moved in-house from scipy's `fminbound`. The `rho_p` and
`beta_p` pins were recorded while the max-plus recursion still ran one
numpy row at a time and built its level-2 rows from `GroupElement`
sub-batches.
"""

import math

import numpy as np
import pytest

from roughfilter.fillin import AdmissiblePair, alpha_p, beta_p
from roughfilter.lift import marcus_lift, rho_p, stratonovich_lift
from roughfilter.paths import CadlagPath, skorokhod_sigma_p


def jumpy_pair(seed, d, interps):
    """x on 7 samples and y on 6, two interior jumps each, on [0, 1]."""
    rng = np.random.default_rng(seed)

    def make(n, interp):
        times = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 0.95, n - 2)), [1.0]])
        values = rng.standard_normal((n, d))
        pre = values.copy()
        at = rng.choice(np.arange(1, n - 1), size=2, replace=False)
        pre[at] += rng.standard_normal((2, d))
        return CadlagPath(times, values, pre, interp)

    return make(7, interps[0]), make(6, interps[1])


# (seed, d, (x interp, y interp), p) -> sigma_p at warp_grid 8. Each pair
# aligns two jumps through the anchor seed and tries x's jump times as knot
# values in its Brent sweeps.
SIGMA_PINS = {
    (601, 1, ("linear", "constant"), 2.0): 3.4353926103280776,
    (602, 2, ("constant", "linear"), 2.5): 5.446819474638023,
    (603, 3, ("linear", "linear"), 1.5): 13.829969619500556,
}

# alpha_p between the Stratonovich lift of the linear interpolant and the
# Marcus lift of the rectangular interpolant of one Brownian path (2^11 steps,
# seed 20261018) at mesh 8, p = 2.5, deltas (1, 0.5)
ALPHA_PIN = ((1.0, 0.574052996527554), (0.5, 0.609376944278572))


@pytest.mark.parametrize("case", list(SIGMA_PINS), ids=lambda c: f"d{c[1]}")
def test_golden_sigma_p_jumpy_pairs(case):
    seed, d, interps, p = case
    x, y = jumpy_pair(seed, d, interps)
    assert repr(skorokhod_sigma_p(x, y, p, 8)) == repr(SIGMA_PINS[case])


def test_golden_alpha_p_mesh8():
    rng = np.random.default_rng(20261018)
    n = 2 ** 11
    w = np.concatenate([[0.0], np.cumsum(rng.standard_normal(n) / math.sqrt(n))])
    sub = np.linspace(0.0, 1.0, 9)
    v = np.interp(sub, np.linspace(0.0, 1.0, n + 1), w)
    pre = np.concatenate([v[:1], v[:-1]])
    L = stratonovich_lift(CadlagPath(sub, v[:, None], None, "linear"))
    R = marcus_lift(CadlagPath(sub, v[:, None], pre[:, None], "constant"))
    sweep = alpha_p(AdmissiblePair(L), AdmissiblePair(R), 2.5, delta_seq=(1.0, 0.5))
    assert repr(sweep.per_delta) == repr(ALPHA_PIN)


def jumpy_marcus_lift(rng, n, d, jumps, decimals=None):
    """Marcus lift of a random walk on n random times in [0, 1] with `jumps`
    jumps; `decimals` rounds values and left limits (repeated points and
    tied distances)."""
    times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, n - 2)), [1.0]])
    values = np.cumsum(rng.standard_normal((n, d)) / np.sqrt(n), axis=0)
    values[0] = 0.0
    pre = values.copy()
    at = rng.choice(np.arange(1, n), size=jumps, replace=False)
    pre[at] -= rng.standard_normal((jumps, d))
    if decimals is not None:
        values, pre = np.round(values, decimals), np.round(pre, decimals)
        pre[0] = values[0]
    return marcus_lift(CadlagPath(times, values, pre, "linear"))


# (seed, d, n, decimals) -> rho_p at p = 2.5 between Marcus lifts on n and
# n - 7 samples with 4 and 3 jumps. The merged lengths (about 2n) span many
# row blocks of the max-plus recursion, past its cell budget at each d.
RHO_PINS = {
    (701, 1, 300, None): 4.442181518225818,
    (702, 2, 160, None): 9.122707966088768,
    (703, 3, 90, None): 22.77018716478137,
    (704, 2, 150, 1): 13.31910369396491,
}

# beta_p.per_delta at p = 2.5, deltas (1, 0.5), between Marcus lifts on 40
# and 33 samples in R^2 with two jumps each (seed 705)
BETA_PIN = ((1.0, 6.188512365449493), (0.5, 6.097520542914851))


@pytest.mark.parametrize("case", list(RHO_PINS),
                         ids=lambda c: f"d{c[1]}" + ("-rounded" if c[3] else ""))
def test_golden_rho_p_marcus_lifts(case):
    seed, d, n, decimals = case
    rng = np.random.default_rng(seed)
    X = jumpy_marcus_lift(rng, n, d, 4, decimals)
    Y = jumpy_marcus_lift(rng, n - 7, d, 3, decimals)
    assert repr(rho_p(X, Y, 2.5)) == repr(RHO_PINS[case])


def test_golden_beta_p_d2():
    rng = np.random.default_rng(705)
    X = jumpy_marcus_lift(rng, 40, 2, 2)
    Y = jumpy_marcus_lift(rng, 33, 2, 2)
    sweep = beta_p(AdmissiblePair(X), AdmissiblePair(Y), 2.5, delta_seq=(1.0, 0.5))
    assert repr(sweep.per_delta) == repr(BETA_PIN)


# Pins on long inputs, recorded while every cost cell of the max-plus
# recursion was still computed. beta_p.per_delta at p = 2.5, deltas (1, 0.5,
# 0.25, 0.125), between the Stratonovich lift of the linear interpolant and
# the Marcus lift of the rectangular interpolant of one Brownian path (2^11
# steps, seed 20261019) at mesh 256: merged lengths about 2,561, d = 1.
BETA_PIN_MESH256 = ((1.0, 1.773508037549209), (0.5, 1.7761344312327143),
                    (0.25, 1.7526278452578838), (0.125, 1.5963901949797155))

# rho_p at p = 2.5 between Marcus lifts in R^2 on 500 and 493 samples with 4
# and 3 jumps (seed 706): merged length 998, its value the level-2 one.
RHO_PIN_D2_LONG = 10.892234069765074


def test_golden_beta_p_mesh256():
    rng = np.random.default_rng(20261019)
    n = 2 ** 11
    w = np.concatenate([[0.0], np.cumsum(rng.standard_normal(n) / math.sqrt(n))])
    sub = np.linspace(0.0, 1.0, 257)
    v = np.interp(sub, np.linspace(0.0, 1.0, n + 1), w)
    pre = np.concatenate([v[:1], v[:-1]])
    L = stratonovich_lift(CadlagPath(sub, v[:, None], None, "linear"))
    R = marcus_lift(CadlagPath(sub, v[:, None], pre[:, None], "constant"))
    sweep = beta_p(AdmissiblePair(L), AdmissiblePair(R), 2.5,
                   delta_seq=(1.0, 0.5, 0.25, 0.125))
    assert repr(sweep.per_delta) == repr(BETA_PIN_MESH256)


def test_golden_rho_p_d2_long():
    rng = np.random.default_rng(706)
    X = jumpy_marcus_lift(rng, 500, 2, 4)
    Y = jumpy_marcus_lift(rng, 493, 2, 3)
    assert repr(rho_p(X, Y, 2.5)) == repr(RHO_PIN_D2_LONG)
