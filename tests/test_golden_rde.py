"""Golden states of canonical RDE solves, pinned at fixed seeds.

A canonical solve is a deterministic sequence of Davie steps and Marcus jump
flows, so a change that only reorganises how the solver walks the driver
must reproduce these states bit for bit (repr equality). They were recorded
before the solver stopped building a continuous representative and began to
march the driver's own grid.
"""

import hashlib

import numpy as np
import pytest

from roughfilter.filtering import _joint_field, realized_observation
from roughfilter.fillin import AdmissiblePair
from roughfilter.lift import marcus_lift, stratonovich_lift
from roughfilter.paths import CadlagPath
from roughfilter.rde import (
    VectorField,
    flow_and_inverse,
    linear_vector_field,
    solve_canonical_rde,
)
from roughfilter.sim import get_model


def _digest(a) -> str:
    return hashlib.sha256(repr(np.asarray(a).tolist()).encode()).hexdigest()


def jumpy_driver():
    """2-d Marcus lift on 13 samples of [0, 1] with jumps at 3 of them."""
    rng = np.random.default_rng(901)
    n = 12
    vals = np.vstack([np.zeros(2),
                      np.cumsum(rng.standard_normal((n, 2)), axis=0) / np.sqrt(n)])
    pre = vals.copy()
    at = rng.choice(np.arange(1, n + 1), size=3, replace=False)
    pre[at] = vals[at] - rng.standard_normal((3, 2))
    return marcus_lift(CadlagPath(np.linspace(0.0, 1.0, n + 1), vals, pre))


def smooth_driver():
    rng = np.random.default_rng(902)
    vals = np.vstack([np.zeros(2), np.cumsum(rng.standard_normal((16, 2)), axis=0) / 4.0])
    return stratonovich_lift(CadlagPath(np.linspace(0.0, 1.0, 17), vals))


def linear_field():
    return linear_vector_field([np.array([[0.3, -0.2], [0.1, 0.4]]),
                                np.array([[0.0, 0.5], [-0.5, 0.1]])])


def nonlinear_field():
    """No Jacobian: the Davie step takes the finite-difference action."""
    return VectorField(lambda t, y: np.stack(
        [np.sin(y), 0.5 * np.cos(y[..., ::-1])], axis=-1))


# case -> (terminal state, sha256 of repr of every state)
SOLVE_PINS = {
    "linear": ([1.0552299997061343, -0.09733260474121994],
               "0f4ffc145a31b956efab23c9895c063e4b69955abd5bd4875fee04e1cde5ef67"),
    "nonlinear": ([1.07084224659283, -0.5749144859957201],
                  "d01b383515acf5925653bcec209968340e5fb4a43cb51eebb7d19ceb0cbfea21"),
}

# model -> (terminal state, sha256 of repr of every state) of the rde
# command's solve at its defaults (T 1, 128 steps, seed 0, epsilon 0.05 on
# stable_shot_noise)
RDE_COMMAND_PINS = {
    # a driver without jumps: the observed jumps go to the jump record
    "scalar_jump_diffusion": (
        [0.4694472463250081, -0.06110550734998266, -0.0782177469227931],
        "4d41a935c97f71a9fd22b2d7d41b3500bf28c5c4ff9971055075a5fcb6bdd1c0"),
    # a Marcus driver with 8 jumps
    "stable_shot_noise": (
        [0.4456240523926131, -0.21458106015103598, -0.06684527119605832],
        "cebd93b052610b10dd8e61236f57ed0f3043d89e61b61d547e7fe4428a928841"),
}

# (phi, residuals) digests of flow_and_inverse on the smooth driver
FLOW_PIN = (
    "859299fa621644a99de9fc9e64fa06465d7e0e37c0726a52ccd3922d8f3be74d",
    "624c41cbc276fbf894a58c054eb59a28f4da50176445c676b6bef8449adcc78c")


@pytest.mark.parametrize("case", sorted(SOLVE_PINS))
def test_canonical_solve_pins(case):
    V = {"linear": linear_field, "nonlinear": nonlinear_field}[case]()
    sol = solve_canonical_rde(V, AdmissiblePair(jumpy_driver()), [0.7, -0.3],
                              steps=24)
    terminal, digest = SOLVE_PINS[case]
    assert repr(sol.states[-1].tolist()) == repr(terminal)
    assert _digest(sol.states) == digest


@pytest.mark.parametrize("model_id", sorted(RDE_COMMAND_PINS))
def test_rde_command_solve_pins(model_id):
    model = get_model(model_id)
    eps = 0.05 if model.regime == "infinite_jumps" else None
    drv = realized_observation(model, 1.0, 128, 0, epsilon=eps)["driver"]
    z0 = np.concatenate([np.array(model.x0), np.array(model.y0), [0.0]])
    sol = solve_canonical_rde(_joint_field(model, drv.dim), AdmissiblePair(drv),
                              z0, 128)
    terminal, digest = RDE_COMMAND_PINS[model_id]
    assert repr(sol.states[-1].tolist()) == repr(terminal)
    assert _digest(sol.states) == digest


def test_flow_and_inverse_pin():
    grid = np.array([[0.5, -0.5], [1.0, 0.2], [-0.3, 0.8]])
    phis, residuals = flow_and_inverse(nonlinear_field(), smooth_driver(), grid,
                                       steps=32)
    assert (_digest(phis), _digest(residuals)) == FLOW_PIN
