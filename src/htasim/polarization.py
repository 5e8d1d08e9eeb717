"""Jones-calculus algebra for the polarization-routed antenna stack.

The stack contains two kinds of ideal components: wire-grid polarizers,
which pass the field component perpendicular to the wires and reflect the
parallel one, and 90-degree polarization rotators.  Three drive states of
the feed line select which paths light up:

* x-polarized drive -> the forward (transmit) path only,
* y-polarized drive -> the backward (folded) path only,
* 45-degree slant drive -> both paths at 1/sqrt(2) amplitude each.

`route` derives this table by pushing the drive's Jones vector through
the grid/rotator chain of each path; it is stated nowhere else.  Every
path ends in a y-polarized output: the forward path rotates
once, the backward path reflects off the upper grid and rotates twice in
the lower double-rotator stack.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True)
class JonesVector:
    """Complex transverse field pair (ex, ey) in normalized units."""

    ex: complex
    ey: complex

    def __post_init__(self):
        if not (cmath.isfinite(self.ex) and cmath.isfinite(self.ey)):
            raise ValueError(f"non-finite Jones components in {self!r}")

    @property
    def norm_sq(self) -> float:
        return abs(self.ex) ** 2 + abs(self.ey) ** 2


class PolarizationState(Enum):
    """Linear drive states of the feed line."""

    X = "x"
    Y = "y"
    SLANT45 = "slant45"

    @property
    def jones(self) -> JonesVector:
        return _STATE_JONES[self]


_STATE_JONES = {
    PolarizationState.X: JonesVector(1.0, 0.0),
    PolarizationState.Y: JonesVector(0.0, 1.0),
    PolarizationState.SLANT45: JonesVector(SQRT_HALF, SQRT_HALF),
}


class GridOrientation(Enum):
    """Wire direction of an ideal polarizing grid."""

    WIRES_ALONG_X = "x"
    WIRES_ALONG_Y = "y"


def grid_transmit(v: JonesVector, g: GridOrientation) -> JonesVector:
    """Field passed by an ideal grid: the component parallel to the wires
    is removed, the perpendicular one is unchanged."""
    if g is GridOrientation.WIRES_ALONG_X:
        return JonesVector(0.0, v.ey)
    return JonesVector(v.ex, 0.0)


def grid_reflect(v: JonesVector, g: GridOrientation) -> JonesVector:
    """Field reflected by an ideal grid: the component parallel to the wires,
    carrying the perfect conductor's exact -1 reflection coefficient.

    Any other reflection phase would only shift the folded path by a global
    constant, which the phase synthesis absorbs.
    """
    r = -1.0  # exact perfect-conductor coefficient
    if g is GridOrientation.WIRES_ALONG_X:
        return JonesVector(v.ex * r, 0.0)
    return JonesVector(0.0, v.ey * r)


def rotate_pol_90(v: JonesVector) -> JonesVector:
    """One pass through a 90-degree polarization rotator: (ex, ey) -> (-ey, ex).

    The handedness is a fixed convention; radiated power and pointing do
    not depend on it.
    """
    return JonesVector(-v.ey, v.ex)


@dataclass(frozen=True)
class RoutingPlan:
    """The field a drive state delivers to each hemisphere's aperture."""

    forward: JonesVector
    backward: JonesVector


def route(state: PolarizationState) -> RoutingPlan:
    """Routing outcome for a drive state, derived from the path operators."""
    return RoutingPlan(
        forward=forward_path_jones(state.jones),
        backward=backward_path_jones(state.jones),
    )


def forward_path_jones(v: JonesVector) -> JonesVector:
    """Composed forward-path operator: upper grid (wires along y), then one
    rotation in the upper conversion stack."""
    return rotate_pol_90(grid_transmit(v, GridOrientation.WIRES_ALONG_Y))


def backward_path_jones(v: JonesVector) -> JonesVector:
    """Composed backward-path operator: reflection off the upper grid
    (wires along y), transmission through the lower grid (wires along x),
    then two rotations in the lower double-conversion stack."""
    reflected = grid_reflect(v, GridOrientation.WIRES_ALONG_Y)
    passed = grid_transmit(reflected, GridOrientation.WIRES_ALONG_X)
    return rotate_pol_90(rotate_pol_90(passed))
