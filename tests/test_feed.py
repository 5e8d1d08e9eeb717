import cmath
import math

import numpy as np
import pytest

from htasim.feed import (
    FeedPattern,
    default_taper_exponent,
    illumination_grid,
    taper_exponent_for_angle,
)
from htasim.geometry import LayoutConfig, Point3
from htasim.synthesis import wavenumber

ORIGIN = Point3(0.0, 0.0, 0.0)


def _taper(pattern: FeedPattern, x: float, z: float, boresight_sign: int = +1) -> float:
    """Feed taper |E| R (R in mm) at the point (x, 0, z) from a feed at
    the origin."""
    [[amp]] = illumination_grid(
        pattern, ORIGIN, boresight_sign, np.array([x]), np.array([0.0]), z, 1.0
    )
    return abs(amp) * math.hypot(x, z)


def _off_axis(pattern: FeedPattern, angle_deg: float) -> float:
    """Feed taper at unit distance and the given angle off +z."""
    t = math.radians(angle_deg)
    return _taper(pattern, math.sin(t), math.cos(t))


def minus10db_angle(pattern: FeedPattern) -> float:
    """Off-axis angle (deg) where the pattern is 10 dB below boresight."""
    return math.degrees(math.acos(10.0 ** (-1.0 / (2.0 * pattern.q))))


def test_boresight_and_back_hemisphere():
    p = FeedPattern(q=5.75)
    assert _taper(p, 0.0, 171.0) == pytest.approx(1.0, rel=1e-15)
    # in the feed plane (90 deg) and behind it (135 and 180 deg): dark
    assert [_taper(p, 50.0, 0.0), _taper(p, 50.0, -50.0), _taper(p, 0.0, -50.0)] == [0, 0, 0]


def test_strictly_decreasing():
    p = FeedPattern(q=3.2)
    amps = [_off_axis(p, angle) for angle in np.linspace(0.0, 89.5, 180)]
    assert np.all(np.diff(amps) < 0.0)


def test_taper_exponent_solves_minus10db():
    # exponent putting the -10 dB point at the rim angle of the design
    # geometry (aperture 240 mm at focal distance 171 mm)
    alpha = math.degrees(math.atan(240.0 / (2.0 * 171.0)))
    assert alpha == pytest.approx(35.0594269668870, abs=1e-9)
    q = taper_exponent_for_angle(alpha)
    assert q == pytest.approx(5.750349515268054, rel=1e-12)
    # the taper equation holds: 20 q log10(cos alpha) = -10
    assert 20.0 * q * math.log10(math.cos(math.radians(alpha))) == pytest.approx(-10.0)


def test_default_taper_exponent():
    cfg = LayoutConfig()
    q = default_taper_exponent(cfg.ta.size_mm, cfg.f_mm)
    assert q == pytest.approx(5.750349515268054, rel=1e-12)


def test_a_taper_angle_whose_cosine_rounds_to_one_names_feed_q():
    # a focal distance of 1e12 mm sees the 240 mm rim at 6.9e-9 deg, whose
    # cosine is 1.0: no cosine-q exponent is 10 dB down there
    assert math.cos(math.radians(1e-8)) == 1.0
    with pytest.raises(ValueError, match="too narrow for a cosine-q exponent; set feed.q$"):
        taper_exponent_for_angle(1e-8)
    with pytest.raises(ValueError, match="set feed.q$"):
        default_taper_exponent(240.0, 1e12)
    # the default geometry's exponent, bit for bit
    assert default_taper_exponent(240.0, 171.0) == 5.750349515268054


def test_minus10db_angle_closed_form():
    assert minus10db_angle(FeedPattern(q=1.0)) == pytest.approx(
        math.degrees(math.acos(10.0**-0.5))
    )
    assert minus10db_angle(FeedPattern(q=1.0)) == pytest.approx(71.56505117707799)
    # large q narrows the pattern toward boresight
    assert minus10db_angle(FeedPattern(q=5000.0)) < 2.0
    assert minus10db_angle(FeedPattern(q=50.0)) < minus10db_angle(FeedPattern(q=5.0))


def test_taper_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(100):
        angle = rng.uniform(5.0, 85.0)
        q = taper_exponent_for_angle(angle)
        assert minus10db_angle(FeedPattern(q=q)) == pytest.approx(angle, rel=1e-9)
        amp = _off_axis(FeedPattern(q=q), angle)
        assert 20.0 * math.log10(amp) == pytest.approx(-10.0, abs=1e-9)


def test_invalid_pattern():
    with pytest.raises(ValueError):
        FeedPattern(q=0.0)
    with pytest.raises(ValueError):
        taper_exponent_for_angle(90.0)


def test_incident_field_on_axis():
    k0 = wavenumber(10.0)
    [[amp]] = illumination_grid(
        FeedPattern(q=5.75), ORIGIN, +1, np.array([0.0]), np.array([0.0]), 171.0, k0
    )
    assert abs(amp) == pytest.approx(1.0 / 171.0, rel=1e-12)
    # phase advances as -k0 R; -k0*171 = -35.8389... rad wrapped into (-pi, pi]
    expect = cmath.exp(-1j * k0 * 171.0)
    assert cmath.phase(amp) == pytest.approx(cmath.phase(expect), abs=1e-12)
    assert -k0 * 171.0 == pytest.approx(-35.83894987537376)


def test_incident_field_symmetry():
    k0 = wavenumber(9.75)
    grid = illumination_grid(
        FeedPattern(q=5.75), ORIGIN, +1, np.array([-40.0, 0.0, 40.0]),
        np.array([-40.0, 0.0, 40.0]), 171.0, k0,
    )
    # mirrored in x, in y, and swapped x <-> y: the same amplitude
    np.testing.assert_allclose(abs(grid), abs(grid[::-1, :]), rtol=1e-12)
    np.testing.assert_allclose(abs(grid), abs(grid[:, ::-1]), rtol=1e-12)
    np.testing.assert_allclose(abs(grid), abs(grid.T), rtol=1e-12)


def test_incident_field_phase_linear_in_distance():
    k0 = wavenumber(9.75)
    r1, r2 = 150.0, 210.0
    x = y = np.array([0.0])
    [[a1]] = illumination_grid(FeedPattern(q=5.75), ORIGIN, +1, x, y, r1, k0)
    [[a2]] = illumination_grid(FeedPattern(q=5.75), ORIGIN, +1, x, y, r2, k0)
    dphase = cmath.phase(a2 / a1)
    expect = (-k0 * (r2 - r1) + math.pi) % (2.0 * math.pi) - math.pi
    assert dphase == pytest.approx(expect, abs=1e-12)


def test_back_hemisphere_suppressed():
    # the back hemisphere is dark for either boresight sign: behind the
    # feed for +1, in front of it for -1
    p = FeedPattern(q=5.75)
    assert [_taper(p, 0.0, -50.0, +1), _taper(p, 30.0, -50.0, +1)] == [0, 0]
    assert [_taper(p, 0.0, 50.0, -1), _taper(p, 30.0, 50.0, -1)] == [0, 0]
    # and a -1 feed lights the points behind it
    assert _taper(p, 0.0, -50.0, -1) == pytest.approx(1.0, rel=1e-15)
    assert _taper(p, 30.0, -50.0, -1) > 0.0


def test_illumination_grid_matches_scalar_model():
    k0 = wavenumber(9.75)
    q = 4.3
    feed_pos = Point3(-60.0, 10.0, 0.0)
    x = np.array([-90.0, -30.0, 15.0, 75.0])
    y = np.array([-45.0, 0.0, 45.0])
    grid = illumination_grid(FeedPattern(q=q), feed_pos, +1, x, y, 171.0, k0)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            # cos^q(off-axis) * (1 mm / R) * exp(-j k0 R), one point at a time
            dx, dy, dz = xi - feed_pos.x, yj - feed_pos.y, 171.0 - feed_pos.z
            r = math.sqrt(dx * dx + dy * dy + dz * dz)
            amp = (dz / r) ** q / r * complex(math.cos(k0 * r), -math.sin(k0 * r))
            assert grid[i, j] == pytest.approx(amp, rel=1e-12)


def test_illumination_grid_rejects_touching_feed():
    with pytest.raises(ValueError):
        illumination_grid(
            FeedPattern(q=2.0),
            Point3(0.0, 0.0, 0.0),
            +1,
            np.array([0.0]),
            np.array([0.0]),
            0.0,
            wavenumber(9.75),
        )
