"""The folded side's incident field by physical optics, against the image.

`illuminate` lights the folded aperture (FTA) from the feed's mirror
image about the TA plane, as if the TA were an infinite mirror.  The
physical-optics (PO) model instead takes the feed's field on the TA
cells and propagates it down to the FTA with the first
Rayleigh-Sommerfeld integral (Goodman, *Introduction to Fourier Optics*,
ch. 3), summed cell by cell.  The engine does not use PO yet, so these
tests check the sum itself where both models should agree: a central
feed under a TA so large that no ray misses it and its rim is dark.
"""

import math

import numpy as np
import pytest

from htasim.farfield import Side, SimulationSettings, feed_pattern_for
from htasim.feed import illumination_grid
from htasim.synthesis import wavenumber

FREQ_GHZ = 9.75
K0 = wavenumber(FREQ_GHZ)
#: the oversized TA of the check: cell period and cells a side (0.96 m)
TA_PERIOD_MM, TA_CELLS = 4.0, 240
#: the coarse FTA grid of the check, mm: 5 x 5 points, the axis among them
POINTS_MM = np.array([-60.0, -30.0, 0.0, 30.0, 60.0])


def _po_incident(pattern, feed, ta_x, ta_y, ta_z, period, x, y, z, k0):
    """The field at the points (x_i, y_j, z) below the TA plane z = ta_z,
    as a complex (x.size, y.size) array: the feed's field on the TA cells
    centered at (ta_x, ta_y), of side `period`, reflected unchanged and
    propagated by the first Rayleigh-Sommerfeld integral, one term a
    cell:

        u(r) = sum u_TA(r') (dz / R) (j k0 + 1 / R) exp(-j k0 R) / (2 pi R) p^2

    with R = |r - r'| and dz = ta_z - z.  For kR >> 1 the kernel is the
    far-zone (j / lambda) (dz / R) exp(-j k0 R) / R; the 1 / R term makes
    the integral exact for a field that solves the wave equation."""
    u_ta = illumination_grid(pattern, feed, +1, ta_x, ta_y, ta_z, k0)
    dz = ta_z - z
    out = np.empty((x.size, y.size), complex)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            r = np.sqrt((xi - ta_x)[:, None] ** 2 + ((yj - ta_y) ** 2)[None, :] + dz * dz)
            kernel = (dz / r) * (1j * k0 + 1.0 / r) * np.exp(-1j * k0 * r) / (2.0 * math.pi * r)
            out[i, j] = np.sum(u_ta * kernel) * period**2
    return out


@pytest.fixture(scope="module")
def central(layout):
    """PO and image fields of the central feed A4 at the default taper on
    the coarse FTA grid, and the feed's taper exponent."""
    pattern = feed_pattern_for(layout, SimulationSettings(frequency_ghz=FREQ_GHZ))
    feed = layout.feed("A4").position
    assert (feed.x, feed.y, feed.z) == (0.0, 0.0, 0.0)
    ta_xy = (np.arange(TA_CELLS) - (TA_CELLS - 1) / 2.0) * TA_PERIOD_MM
    z = layout.fta.plane_z
    po = _po_incident(pattern, feed, ta_xy, ta_xy, layout.ta.plane_z, TA_PERIOD_MM,
                      POINTS_MM, POINTS_MM, z, K0)
    image = Side.FTA.feed_image(layout, feed)
    img = illumination_grid(pattern, image, -1, POINTS_MM, POINTS_MM, z, K0)
    return po, img, pattern.q


def test_the_oversized_ta_catches_every_ray_and_its_rim_is_dark(layout):
    # the ray from the image to the farthest check point crosses the TA
    # plane within 40 mm of the axis, and the feed's field at the TA's rim
    # is below 1e-3 of its on-axis value
    f, d = layout.ta.plane_z, layout.ta.plane_z - layout.fta.plane_z
    reach = math.hypot(60.0, 60.0) * f / (f + d)
    half = TA_CELLS * TA_PERIOD_MM / 2.0
    assert reach < 40.0 < half
    q = feed_pattern_for(layout, SimulationSettings()).q
    rim = math.hypot(half, f)
    assert (f / rim) ** q * (f / rim) < 1e-3


def test_po_agrees_with_the_image_where_the_ta_is_a_mirror(layout, central):
    # Bound, derived before the sum was run.  For a point source (q = 0)
    # over an infinite plane the Rayleigh-Sommerfeld integral gives the
    # image's field exactly.  The feed's cos^q taper a is no solution of
    # the wave equation, so the integral departs from the image by the
    # stationary-phase terms in the derivatives of a.  The leading order
    # is a at the specular point, which is the image's own taper.  The
    # first correction is -j (Hessian^-1 : grad grad a) / (2 k0 a), times
    # the leading term.  On the axis, a = (1 + rho^2 / f^2)^(-q/2) has
    # Laplacian -2q / f^2, and R1 + R2 has curvature 1/f + 1/d in each
    # direction (f = 171 mm to the TA, d = 213 mm from it to the FTA).
    # So the correction is +j q / (k0 f^2 (1/f + 1/d)) = +0.091j, a phase,
    # and |u| moves only at second order: eps^2 = 0.008, plus the kR
    # cross terms, (1 / k0 R) eps = 0.002, and the dark rim's < 1e-3, in
    # all 0.012 or less.  So the bound on every check point, whose
    # specular points lie within 40 mm of the axis, is:
    #   - |u_PO| / |u_image| - 1 within +-0.02;
    #   - the phase of u_PO / u_image within twice the axis value;
    # and on the axis, u_PO / u_image - (1 + 0.091j) within 0.02.
    po, img, q = central
    f, d = layout.ta.plane_z, layout.ta.plane_z - layout.fta.plane_z
    eps = q / (K0 * f**2 * (1.0 / f + 1.0 / d))
    assert eps == pytest.approx(0.091, abs=1e-3)
    ratio = po / img
    assert np.all(np.abs(np.abs(ratio) - 1.0) <= 0.02)
    assert np.all(np.abs(np.angle(ratio)) <= 2.0 * eps)
    assert abs(ratio[2, 2] - (1.0 + 1j * eps)) <= 0.02

