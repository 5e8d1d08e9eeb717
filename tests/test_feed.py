import cmath
import math

import numpy as np
import pytest

from htasim.feed import (
    FeedExcitation,
    FeedPattern,
    default_taper_exponent,
    illumination_grid,
    incident_field,
    pattern_amplitude,
    taper_exponent_for_angle,
)
from htasim.geometry import FeedPlacement, LayoutConfig, Point3
from htasim.polarization import PolarizationState
from htasim.synthesis import wavenumber


def minus10db_angle(pattern: FeedPattern) -> float:
    """Off-axis angle (deg) where the pattern is 10 dB below boresight."""
    return math.degrees(math.acos(10.0 ** (-1.0 / (2.0 * pattern.q))))


def test_boresight_and_back_hemisphere():
    p = FeedPattern(q=5.75)
    assert pattern_amplitude(p, 0.0) == 1.0
    assert pattern_amplitude(p, 90.0) == 0.0
    assert pattern_amplitude(p, 120.0) == 0.0
    with pytest.raises(ValueError):
        pattern_amplitude(p, -1.0)


def test_strictly_decreasing():
    p = FeedPattern(q=3.2)
    angles = np.linspace(0.0, 89.5, 180)
    amps = pattern_amplitude(p, angles)
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
        amp = pattern_amplitude(FeedPattern(q=q), angle)
        assert 20.0 * math.log10(amp) == pytest.approx(-10.0, abs=1e-9)


def test_invalid_pattern():
    with pytest.raises(ValueError):
        FeedPattern(q=0.0)
    with pytest.raises(ValueError):
        taper_exponent_for_angle(90.0)


def _excitation(x=0.0, state=PolarizationState.X):
    return FeedExcitation(
        placement=FeedPlacement(id="A4", position=Point3(x, 0.0, 0.0)),
        pattern=FeedPattern(q=5.75),
        state=state,
    )


def test_incident_field_on_axis():
    k0 = wavenumber(10.0)
    amp, jones = incident_field(_excitation(), +1, Point3(0.0, 0.0, 171.0), k0)
    assert abs(amp) == pytest.approx(1.0 / 171.0, rel=1e-12)
    # phase advances as -k0 R; -k0*171 = -35.8389... rad wrapped into (-pi, pi]
    expect = cmath.exp(-1j * k0 * 171.0)
    assert cmath.phase(amp) == pytest.approx(cmath.phase(expect), abs=1e-12)
    assert -k0 * 171.0 == pytest.approx(-35.83894987537376)
    assert (jones.ex, jones.ey) == (1.0, 0.0)


def test_incident_field_symmetry():
    k0 = wavenumber(9.75)
    a1, _ = incident_field(_excitation(), +1, Point3(40.0, 0.0, 171.0), k0)
    a2, _ = incident_field(_excitation(), +1, Point3(-40.0, 0.0, 171.0), k0)
    a3, _ = incident_field(_excitation(), +1, Point3(0.0, 40.0, 171.0), k0)
    assert abs(a1) == pytest.approx(abs(a2), rel=1e-12)
    assert abs(a1) == pytest.approx(abs(a3), rel=1e-12)


def test_incident_field_phase_linear_in_distance():
    k0 = wavenumber(9.75)
    exc = _excitation()
    r1, r2 = 150.0, 210.0
    a1, _ = incident_field(exc, +1, Point3(0.0, 0.0, r1), k0)
    a2, _ = incident_field(exc, +1, Point3(0.0, 0.0, r2), k0)
    dphase = cmath.phase(a2 / a1)
    expect = (-k0 * (r2 - r1) + math.pi) % (2.0 * math.pi) - math.pi
    assert dphase == pytest.approx(expect, abs=1e-12)


def test_incident_field_state_vector():
    k0 = wavenumber(9.75)
    _, jones = incident_field(
        _excitation(state=PolarizationState.SLANT45), +1, Point3(0.0, 0.0, 171.0), k0
    )
    assert jones.ex == jones.ey == pytest.approx(math.sqrt(0.5))


def test_incident_field_zero_distance():
    with pytest.raises(ValueError):
        incident_field(_excitation(), +1, Point3(0.0, 0.0, 0.0), wavenumber(9.75))


def test_back_hemisphere_suppressed():
    k0 = wavenumber(9.75)
    amp, _ = incident_field(_excitation(), +1, Point3(0.0, 0.0, -50.0), k0)
    assert amp == 0.0
    amp, _ = incident_field(_excitation(), -1, Point3(0.0, 0.0, -50.0), k0)
    assert abs(amp) > 0.0


def test_illumination_grid_matches_scalar_model():
    k0 = wavenumber(9.75)
    pattern = FeedPattern(q=4.3)
    feed_pos = Point3(-60.0, 10.0, 0.0)
    x = np.array([-90.0, -30.0, 15.0, 75.0])
    y = np.array([-45.0, 0.0, 45.0])
    grid = illumination_grid(pattern, feed_pos, +1, x, y, 171.0, k0)
    exc = FeedExcitation(
        placement=FeedPlacement(id="t", position=feed_pos),
        pattern=pattern,
        state=PolarizationState.X,
    )
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            amp, _ = incident_field(exc, +1, Point3(xi, yj, 171.0), k0)
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
