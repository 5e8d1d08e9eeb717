"""Idealized polarization-switchable feed element.

The radiator is a cosine-q source: field amplitude cos(theta)^q off
boresight, zero behind the element.  The default exponent is calibrated so
the -10 dB taper angle matches the focal-sizing geometry (f = 171 mm
aperture rim at 240 mm), which is what the focal-length rule keys on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import FeedPlacement, Point3, taper_angle_from_focal
from .polarization import JonesVector, PolarizationState

#: Reference distance for the spherical-spreading factor, mm.
R_REF_MM = 1.0


def taper_exponent_for_angle(alpha_10db_deg: float) -> float:
    """Cosine exponent whose pattern is 10 dB down at the given angle."""
    if not 0.0 < alpha_10db_deg < 90.0:
        raise ValueError(
            f"taper angle must lie strictly between 0 and 90 deg, got {alpha_10db_deg}"
        )
    return -0.5 / math.log10(math.cos(math.radians(alpha_10db_deg)))


def default_taper_exponent(aperture_size_mm: float, f_mm: float) -> float:
    """Exponent matched to the aperture rim angle seen from the focal
    distance (~5.75 for the default 240 mm aperture at f = 171 mm)."""
    return taper_exponent_for_angle(taper_angle_from_focal(aperture_size_mm, f_mm))


@dataclass(frozen=True)
class FeedPattern:
    """Cosine-q radiator description."""

    q: float

    def __post_init__(self):
        if self.q <= 0:
            raise ValueError(f"taper exponent q must be positive, got {self.q}")


@dataclass(frozen=True)
class FeedExcitation:
    """A feed driven in one polarization state."""

    placement: FeedPlacement
    pattern: FeedPattern
    state: PolarizationState


def pattern_amplitude(pattern: FeedPattern, off_axis_deg) -> np.ndarray:
    """Field amplitude cos(theta)^q; 1 at boresight, 0 at and beyond 90
    degrees (the back hemisphere is suppressed)."""
    ang = np.asarray(off_axis_deg, dtype=float)
    if np.any(ang < 0.0):
        raise ValueError("off-axis angle must be nonnegative")
    amp = np.where(
        ang >= 90.0, 0.0, np.cos(np.radians(np.minimum(ang, 90.0))) ** pattern.q
    )
    if np.ndim(off_axis_deg) == 0:
        return float(amp)
    return amp


def incident_field(
    excitation: FeedExcitation, boresight_sign: int, point: Point3, k0: float
) -> tuple[complex, JonesVector]:
    """Complex field amplitude and polarization at an observation point.

    amplitude = cos^q(off-axis) * (R_ref / R) * exp(-j k0 R), with the
    off-axis angle measured from +z (`boresight_sign` +1) or -z (-1); the
    Jones vector is the drive state's unit vector.
    """
    pos = excitation.placement.position
    dx, dy, dz = point.x - pos.x, point.y - pos.y, point.z - pos.z
    r = math.sqrt(dx * dx + dy * dy + dz * dz)
    if r == 0.0:
        raise ValueError("observation point coincides with the feed")
    cos_off = boresight_sign * dz / r
    off_axis = math.degrees(math.acos(max(-1.0, min(1.0, cos_off))))
    amp = pattern_amplitude(excitation.pattern, off_axis)
    value = amp * (R_REF_MM / r) * complex(math.cos(k0 * r), -math.sin(k0 * r))
    return value, excitation.state.jones


def illumination_grid(
    pattern: FeedPattern,
    feed_pos: Point3,
    boresight_sign: int,
    x_mm: np.ndarray,
    y_mm: np.ndarray,
    plane_z: float,
    k0: float,
) -> np.ndarray:
    """Vectorized incident-field amplitude over an aperture grid.

    Same model as incident_field, evaluated for every (x_i, y_j) on the
    plane z = plane_z; returns a complex (nx, ny) array.
    """
    dx = x_mm[:, None] - feed_pos.x
    dy = y_mm[None, :] - feed_pos.y
    dz = plane_z - feed_pos.z
    r = np.sqrt(dx * dx + dy * dy + dz * dz)
    if np.any(r == 0.0):
        raise ValueError("aperture grid touches the feed position")
    cos_off = np.clip(boresight_sign * dz / r, -1.0, 1.0)
    taper = np.where(cos_off < 0.0, 0.0, cos_off**pattern.q)
    return taper * (R_REF_MM / r) * np.exp(-1j * k0 * r)
