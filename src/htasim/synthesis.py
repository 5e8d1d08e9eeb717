"""Per-element compensation-phase synthesis for both apertures.

Two laws are implemented.  The eccentric single-focus law compensates the
spherical spreading from one feed and adds a linear term steering the beam
to a chosen direction.  The bifocal law averages the two single-focus
distributions belonging to a symmetric pair of virtual feeds whose beams
deflect to opposite sides; the linear steering terms cancel in the mean,
leaving half the summed feed distances.  Averaging happens on unwrapped
physical phases (wavenumber times distance) and the result is wrapped to
[0, 360) once at the end: averaging wrapped phases would be ill-defined at
the wrap seam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ApertureSpec, Point3
from .unitcell import PhaseCurve

C_MM_PER_NS = 299.792458  # free-space light speed, mm/ns (mm * GHz)


def wavenumber(frequency_ghz: float) -> float:
    """Free-space wavenumber in rad/mm."""
    if frequency_ghz <= 0:
        raise ValueError(f"frequency must be positive, got {frequency_ghz}")
    return 2.0 * math.pi * frequency_ghz / C_MM_PER_NS


@dataclass(frozen=True)
class ScanTarget:
    """Intended beam direction: polar angle theta, beam-plane azimuth phi."""

    theta_deg: float
    phi_deg: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta_deg < 90.0:
            raise ValueError(f"theta must lie in [0, 90), got {self.theta_deg}")
        if not 0.0 <= self.phi_deg < 360.0:
            raise ValueError(f"phi must lie in [0, 360), got {self.phi_deg}")


@dataclass(frozen=True)
class PhaseMap:
    """Wrapped compensation phase per cell of one aperture."""

    aperture: ApertureSpec
    phases_deg: np.ndarray  # (nx, ny), wrapped to [0, 360)

    def __post_init__(self):
        p = self.phases_deg
        if p.shape != (self.aperture.nx, self.aperture.ny):
            raise ValueError(
                f"phase grid {p.shape} does not match aperture "
                f"{(self.aperture.nx, self.aperture.ny)}"
            )
        # NaN fails both comparisons, so test for the range, not against it
        if not np.all((p >= 0.0) & (p < 360.0)):
            raise ValueError("phase map entries must be finite and wrapped to [0, 360)")


@dataclass(frozen=True)
class CellMap:
    """Realizable cell geometry per element, quantized from a PhaseMap."""

    aperture: ApertureSpec
    params_mm: np.ndarray  # (nx, ny)
    rotated: np.ndarray  # (nx, ny) bool
    max_residual_deg: float


def wrap_deg(phase_deg) -> np.ndarray:
    """Wrap a phase (degrees) to [0, 360)."""
    return np.mod(phase_deg, 360.0)


def _element_distances(aperture: ApertureSpec, feed: Point3) -> np.ndarray:
    """Distance from one feed point to every element center, (nx, ny)."""
    x = aperture.x_centers()[:, None]
    y = aperture.y_centers()[None, :]
    return np.sqrt(
        (x - feed.x) ** 2 + (y - feed.y) ** 2 + (aperture.plane_z - feed.z) ** 2
    )


def single_focus_phase_unwrapped(
    aperture: ApertureSpec, feed: Point3, target: ScanTarget, k0: float
) -> np.ndarray:
    """Eccentric single-focus compensation phase, unwrapped degrees.

    phi_ij = k0 * (R_ij - sin(theta) * (x_i cos(phi) + y_j sin(phi)))
    with R_ij the feed-to-element distance.
    """
    if abs(feed.z - aperture.plane_z) < 1e-9:
        raise ValueError("feed must not lie on the aperture plane")
    r = _element_distances(aperture, feed)
    th = math.radians(target.theta_deg)
    ph = math.radians(target.phi_deg)
    x = aperture.x_centers()[:, None]
    y = aperture.y_centers()[None, :]
    scan = math.sin(th) * (x * math.cos(ph) + y * math.sin(ph))
    return np.degrees(k0 * (r - scan))


def single_focus_phase(
    aperture: ApertureSpec, feed: Point3, target: ScanTarget, k0: float
) -> PhaseMap:
    """Wrapped single-focus compensation map."""
    unwrapped = single_focus_phase_unwrapped(aperture, feed, target, k0)
    return PhaseMap(aperture=aperture, phases_deg=wrap_deg(unwrapped))


def _require_symmetric(vf1: Point3, vf2: Point3):
    if vf1.x != -vf2.x or vf1.y != vf2.y or vf1.z != vf2.z:
        raise ValueError(
            "bifocal synthesis requires virtual feeds mirror-symmetric about "
            f"the aperture axis, got {vf1} and {vf2}"
        )


def bifocal_phase_unwrapped(
    aperture: ApertureSpec, vf1: Point3, vf2: Point3, k0: float
) -> np.ndarray:
    """Bifocal compensation phase, unwrapped degrees.

    Closed form for the symmetric pair: k0 * (R1_ij + R2_ij) / 2.  The
    constituent beams sit at opposite scan angles, so the linear steering
    terms cancel and the deflection angle drops out of the result.
    """
    _require_symmetric(vf1, vf2)
    if abs(vf1.z - aperture.plane_z) < 1e-9:
        raise ValueError("virtual feeds must not lie on the aperture plane")
    r1 = _element_distances(aperture, vf1)
    r2 = _element_distances(aperture, vf2)
    return np.degrees(k0 * (r1 + r2) / 2.0)


def bifocal_phase(
    aperture: ApertureSpec,
    vf1: Point3,
    vf2: Point3,
    theta_deg: float,
    k0: float,
) -> PhaseMap:
    """Wrapped bifocal compensation map.

    theta_deg is the constituent-beam deflection angle; it is recorded by
    callers for documentation only, since the symmetric closed form does
    not depend on it (bifocal_phase(theta) == bifocal_phase(-theta)
    bit-exactly).
    """
    del theta_deg  # cancels in the symmetric average
    unwrapped = bifocal_phase_unwrapped(aperture, vf1, vf2, k0)
    return PhaseMap(aperture=aperture, phases_deg=wrap_deg(unwrapped))


def quantize(phase_map: PhaseMap, curve: PhaseCurve) -> CellMap:
    """Realize a phase map on a cell family via inverse curve lookup.

    The realized-phase residual is tracked; it exceeds
    unitcell.RESIDUAL_WARN_DEG only for coarse curves whose span falls
    short of the half circle.
    """
    params, rotated = curve.invert(phase_map.phases_deg)
    realized = curve.phase_at(params, rotated)
    residual = np.abs(wrap_deg(realized - phase_map.phases_deg + 180.0) - 180.0)
    return CellMap(
        aperture=phase_map.aperture,
        params_mm=params,
        rotated=rotated,
        max_residual_deg=float(residual.max()),
    )


# --- exports ------------------------------------------------------------


def phase_map_rows(phase_map: PhaseMap):
    """Rows for the `i,j,x_mm,y_mm,phase_deg` export, row-major in (i, j)."""
    ap = phase_map.aperture
    x = ap.x_centers()
    y = ap.y_centers()
    for i in range(ap.nx):
        for j in range(ap.ny):
            yield i, j, x[i], y[j], phase_map.phases_deg[i, j]


def write_phase_map_csv(phase_map: PhaseMap, path):
    with open(path, "w", newline="") as fh:
        fh.write("i,j,x_mm,y_mm,phase_deg\n")
        for i, j, x, y, p in phase_map_rows(phase_map):
            fh.write(f"{i},{j},{x:.6f},{y:.6f},{p:.6f}\n")


def write_cell_map_csv(phase_map: PhaseMap, cell_map: CellMap, path):
    if cell_map.aperture != phase_map.aperture:
        raise ValueError("cell map and phase map describe different apertures")
    with open(path, "w", newline="") as fh:
        fh.write("i,j,x_mm,y_mm,phase_deg,param_mm,rotated\n")
        for i, j, x, y, p in phase_map_rows(phase_map):
            fh.write(
                f"{i},{j},{x:.6f},{y:.6f},{p:.6f},"
                f"{cell_map.params_mm[i, j]:.6f},"
                f"{int(cell_map.rotated[i, j])}\n"
            )
