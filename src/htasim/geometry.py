"""Coordinate frame, aperture grids, feed layout and folded-optics focal relations.

Convention used throughout the package: the feed plane sits at z = 0, the
transmitting aperture (TA) at z = +f, the folded aperture (FTA) at z = -h,
and +z is the forward radiation direction.  With that choice the folded
focal length reads directly off the geometry as F = 2f + h: a ray launched
at the feed plane, reflected at the TA plane and received on the FTA plane
travels the same distance as a straight ray from the feed's mirror image
about the TA plane.  F is therefore never configured: f, h and d are the
stack's only lengths, and the layout derives F from the first two.

All lengths are millimeters, all angles degrees unless a name says
otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Point3:
    """A point in the antenna coordinate frame (mm)."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for v in (self.x, self.y, self.z):
            if not math.isfinite(v):
                raise ValueError(f"non-finite coordinate in {self!r}")


@dataclass(frozen=True)
class ApertureSpec:
    """A planar rectangular grid of radiating cells.

    Cell (i, j) is centered at x_i = (i - (nx-1)/2) * period and
    y_j = (j - (ny-1)/2) * period, so the grid is symmetric about the
    aperture center.  `normal_sign` is +1 for an aperture radiating
    toward +z and -1 for one radiating toward -z.
    """

    plane_z: float
    size_x: float
    size_y: float
    period: float
    nx: int
    ny: int
    normal_sign: int = 1

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("aperture period must be positive")
        if self.nx < 1 or self.ny < 1:
            raise ValueError("aperture must hold at least one cell per axis")
        if self.normal_sign not in (1, -1):
            raise ValueError("normal_sign must be +1 or -1")
        # cells must fit the stated aperture (half-period slack at the rim)
        if self.nx * self.period > self.size_x + self.period / 2 + 1e-9:
            raise ValueError(
                f"{self.nx} cells of period {self.period} mm exceed "
                f"size_x = {self.size_x} mm"
            )
        if self.ny * self.period > self.size_y + self.period / 2 + 1e-9:
            raise ValueError(
                f"{self.ny} cells of period {self.period} mm exceed "
                f"size_y = {self.size_y} mm"
            )

    def x_centers(self) -> np.ndarray:
        i = np.arange(self.nx, dtype=float)
        return (i - (self.nx - 1) / 2.0) * self.period

    def y_centers(self) -> np.ndarray:
        j = np.arange(self.ny, dtype=float)
        return (j - (self.ny - 1) / 2.0) * self.period

    @property
    def area_mm2(self) -> float:
        return self.size_x * self.size_y

    @property
    def hemisphere(self) -> str:
        """The half space the aperture radiates into: "+z" or "-z"."""
        return "+z" if self.normal_sign > 0 else "-z"


@dataclass(frozen=True)
class FeedPlacement:
    """One switchable radiator of the feed line on the feed plane."""

    id: str
    position: Point3


@dataclass(frozen=True)
class SystemLayout:
    """Full folded-optics system; F and the virtual feeds derive from f, h, d."""

    f: float
    h: float
    d: float
    ta: ApertureSpec
    fta: ApertureSpec
    feeds: tuple[FeedPlacement, ...]

    @property
    def F(self) -> float:
        """Folded focal length: the mirrored feed plane to the FTA."""
        return 2 * self.f + self.h

    @property
    def virtual_feeds(self) -> tuple[Point3, Point3]:
        """The two virtual feeds, d apart about the axis on the feed plane."""
        return Point3(self.d / 2.0, 0.0, 0.0), Point3(-self.d / 2.0, 0.0, 0.0)

    def feed(self, feed_id: str) -> FeedPlacement:
        for fd in self.feeds:
            if fd.id == feed_id:
                return fd
        raise ValueError(f"unknown feed id {feed_id!r}")

    @property
    def feed_ids(self) -> tuple[str, ...]:
        return tuple(fd.id for fd in self.feeds)


@dataclass(frozen=True)
class ApertureConfig:
    size_mm: float
    period_mm: float


# Defaults: 240 mm TA aperture at 6 mm pitch (40x40 cells), 360 mm FTA
# aperture at 10 mm pitch (36x36 cells), feeds every 50..110..160 mm.
DEFAULT_TA = ApertureConfig(size_mm=240.0, period_mm=6.0)
DEFAULT_FTA = ApertureConfig(size_mm=360.0, period_mm=10.0)
DEFAULT_FEED_X_MM = (-160.0, -110.0, -50.0, 0.0, 50.0, 110.0, 160.0)
DEFAULT_FEEDS = tuple(
    FeedPlacement(f"A{k + 1}", Point3(x, 0.0, 0.0)) for k, x in enumerate(DEFAULT_FEED_X_MM)
)


@dataclass(frozen=True)
class LayoutConfig:
    """Raw layout parameters as read from a config file.

    The folded focal length is not among them: it derives as F = 2f + h.
    """

    f_mm: float = 171.0
    h_mm: float = 42.0
    d_mm: float = 220.0
    ta: ApertureConfig = DEFAULT_TA
    fta: ApertureConfig = DEFAULT_FTA
    feeds: tuple[FeedPlacement, ...] = DEFAULT_FEEDS


def _grid_count(size_mm: float, period_mm: float) -> int:
    """Largest symmetric cell count that fits the aperture."""
    n = int(math.floor(size_mm / period_mm + 0.5))
    return max(n, 1)


def _square_aperture(config: ApertureConfig, plane_z: float, normal_sign: int) -> ApertureSpec:
    n = _grid_count(config.size_mm, config.period_mm)
    return ApertureSpec(
        plane_z=plane_z, size_x=config.size_mm, size_y=config.size_mm,
        period=config.period_mm, nx=n, ny=n, normal_sign=normal_sign,
    )


def build_layout(config: LayoutConfig) -> SystemLayout:
    """Resolve a LayoutConfig into a validated SystemLayout.

    Raises ValueError on nonpositive dimensions or a stack whose extent
    F = 2f + h cannot be squared.
    """
    f = float(config.f_mm)
    if f <= 0:
        raise ValueError(f"focal distance f must be positive, got {f}")
    h = float(config.h_mm)
    if h < 0:
        raise ValueError(
            f"distance h from the feed plane to the folded aperture must be nonnegative, got {h}"
        )
    F = 2 * f + h
    # F spans the folded aperture to the mirrored feed plane, and the
    # path lengths square it
    if not math.isfinite(F * F):
        raise ValueError(f"stack extent F = {F} mm is too large")
    d = float(config.d_mm)
    if d < 0:
        raise ValueError(f"virtual feed spacing d must be nonnegative, got {d}")

    ta = _square_aperture(config.ta, plane_z=+f, normal_sign=+1)
    fta = _square_aperture(config.fta, plane_z=-h, normal_sign=-1)
    seen = set()
    for fd in config.feeds:
        if fd.id in seen:
            raise ValueError(f"duplicate feed id {fd.id!r}")
        seen.add(fd.id)
    return SystemLayout(f=f, h=h, d=d, ta=ta, fta=fta, feeds=config.feeds)


def mirror_point(p: Point3, plane_z: float) -> Point3:
    """Mirror an arbitrary point about the horizontal plane z = plane_z.

    Mirrored about the TA plane (plane_z = f), a feed's image lies at a
    distance from any point on the FTA plane equal to the length of the
    folded ray path feed -> TA grid -> FTA.
    """
    return Point3(p.x, p.y, 2.0 * plane_z - p.z)


def taper_angle_from_focal(D: float, f: float) -> float:
    """Rim half-angle alpha (deg) of an aperture D seen from f: tan(alpha) = D / (2f)."""
    if D <= 0 or f <= 0:
        raise ValueError("aperture size and focal distance must be positive")
    return math.degrees(math.atan(D / (2.0 * f)))
