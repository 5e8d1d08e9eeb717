import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htasim.polarization import (
    GridOrientation,
    JonesVector,
    PolarizationState,
    backward_path_jones,
    forward_path_jones,
    grid_reflect,
    grid_transmit,
    rotate_pol_90,
    route,
)

SQ = math.sqrt(0.5)


def test_state_vectors():
    assert PolarizationState.X.jones == JonesVector(1.0, 0.0)
    assert PolarizationState.Y.jones == JonesVector(0.0, 1.0)
    s = PolarizationState.SLANT45.jones
    assert s.ex == s.ey == SQ
    for state in PolarizationState:
        assert state.jones.norm_sq == pytest.approx(1.0, abs=1e-15)


def test_grid_transmit():
    # x-pol is perpendicular to y-oriented wires and passes untouched
    v = grid_transmit(JonesVector(1.0, 0.0), GridOrientation.WIRES_ALONG_Y)
    assert (v.ex, v.ey) == (1.0, 0.0)
    # the parallel component is blocked
    v = grid_transmit(JonesVector(0.0, 1.0), GridOrientation.WIRES_ALONG_Y)
    assert (v.ex, v.ey) == (0.0, 0.0)
    # slant input projects onto the passed axis: half the power transmits
    v = grid_transmit(JonesVector(SQ, SQ), GridOrientation.WIRES_ALONG_X)
    assert (v.ex, v.ey) == (0.0, SQ)
    assert v.norm_sq == pytest.approx(0.5)


def test_grid_reflect():
    v = grid_reflect(JonesVector(0.0, 1.0), GridOrientation.WIRES_ALONG_Y)
    assert (v.ex, v.ey) == (0.0, -1.0)  # exact perfect-conductor phase
    v = grid_reflect(JonesVector(1.0, 0.0), GridOrientation.WIRES_ALONG_Y)
    assert (v.ex, v.ey) == (0.0, 0.0)
    v = grid_reflect(JonesVector(SQ, SQ), GridOrientation.WIRES_ALONG_Y)
    assert v.norm_sq == pytest.approx(0.5)


def test_energy_split_property():
    rng = np.random.default_rng(5)
    for _ in range(100):
        v = JonesVector(
            complex(rng.normal(), rng.normal()),
            complex(rng.normal(), rng.normal()),
        )
        for g in GridOrientation:
            t = grid_transmit(v, g)
            r = grid_reflect(v, g)
            assert t.norm_sq + r.norm_sq == pytest.approx(v.norm_sq, rel=1e-12)


def test_rotation():
    assert rotate_pol_90(JonesVector(1.0, 0.0)) == JonesVector(0.0, 1.0)
    assert rotate_pol_90(JonesVector(0.0, 1.0)) == JonesVector(-1.0, 0.0)
    v = JonesVector(0.3 + 0.2j, -0.5 + 0.7j)
    twice = rotate_pol_90(rotate_pol_90(v))
    assert (twice.ex, twice.ey) == (-v.ex, -v.ey)
    w = v
    for _ in range(4):
        w = rotate_pol_90(w)
    assert (w.ex, w.ey) == (v.ex, v.ey)
    assert rotate_pol_90(v).norm_sq == v.norm_sq


def test_route_table():
    x = route(PolarizationState.X)
    assert (x.forward.norm_sq, x.backward.norm_sq) == (1.0, 0.0)
    y = route(PolarizationState.Y)
    assert (y.forward.norm_sq, y.backward.norm_sq) == (0.0, 1.0)
    s = route(PolarizationState.SLANT45)
    assert s.forward.norm_sq == s.backward.norm_sq == pytest.approx(0.5)
    assert s.forward.norm_sq + s.backward.norm_sq == pytest.approx(1.0)
    for state in PolarizationState:
        plan = route(state)
        assert plan.forward.ex == 0.0 and plan.backward.ex == 0.0  # y-polarized


_COMPONENT = st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False)


@settings(database=None)
@given(_COMPONENT, _COMPONENT)
def test_routing_chain_is_lossless_and_y_polarized(ex, ey):
    # route composes these operators; any drive, not only the three states,
    # leaves the stack y-polarized with its power split between the paths
    drive = JonesVector(ex, ey)
    forward, backward = forward_path_jones(drive), backward_path_jones(drive)
    assert forward.ex == 0 and backward.ex == 0
    assert forward.norm_sq + backward.norm_sq == pytest.approx(drive.norm_sq, rel=1e-12)


def test_forward_path_is_pure_y():
    out = forward_path_jones(PolarizationState.X.jones)
    assert out.ex == 0.0  # cross component exactly zero in the ideal model
    assert out.ey == 1.0
    slant = forward_path_jones(PolarizationState.SLANT45.jones)
    assert slant.ex == 0.0
    assert slant.ey == SQ


def test_backward_path_is_pure_y():
    out = backward_path_jones(PolarizationState.Y.jones)
    assert out.ex == 0.0
    assert out.ey == 1.0  # reflection sign undone by the double rotation
    slant = backward_path_jones(PolarizationState.SLANT45.jones)
    assert slant.ex == 0.0
    assert slant.ey == SQ


def test_blocked_paths_are_dark():
    # y drive never reaches the forward side, x never reaches the backward one
    assert forward_path_jones(PolarizationState.Y.jones).norm_sq == 0.0
    assert backward_path_jones(PolarizationState.X.jones).norm_sq == 0.0


def test_nonfinite_jones_rejected():
    with pytest.raises(ValueError):
        JonesVector(float("nan"), 0.0)
