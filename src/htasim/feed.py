"""Idealized polarization-switchable feed element.

The radiator is a cosine-q source: field amplitude cos(theta)^q off
boresight, zero behind the element.  The default exponent puts the -10 dB
taper angle at the aperture rim as seen from the feed (a 240 mm aperture
at f = 171 mm).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import FeedPlacement, Point3, taper_angle_from_focal
from .polarization import PolarizationState

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


def illumination_grid(
    pattern: FeedPattern,
    feed_pos: Point3,
    boresight_sign: int,
    x_mm: np.ndarray,
    y_mm: np.ndarray,
    plane_z: float,
    k0: float,
) -> np.ndarray:
    """Incident-field amplitude over an aperture grid.

    At each (x_i, y_j) on the plane z = plane_z, at distance R from the
    feed, the amplitude is cos^q(off-axis) * (R_ref / R) * exp(-j k0 R),
    with the off-axis angle measured from +z (`boresight_sign` +1) or -z
    (-1) and zero behind the feed; returns a complex (nx, ny) array.
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
