import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from htasim.geometry import (
    ApertureConfig,
    ApertureSpec,
    FeedPlacement,
    LayoutConfig,
    Point3,
    build_layout,
    mirror_point,
    taper_angle_from_focal,
)


def path_length(a: Point3, b: Point3) -> float:
    """Euclidean distance between two points (mm)."""
    return math.sqrt((a.x - b.x) ** 2 + (a.y - b.y) ** 2 + (a.z - b.z) ** 2)


def test_default_layout_focal_relation(layout):
    assert layout.f == 171.0
    assert layout.F == 384.0
    assert layout.h == 42.0  # F derives as 2f + h
    assert layout.F - 2 * layout.f - layout.h == 0.0


def test_layout_from_f_and_h():
    assert build_layout(LayoutConfig(f_mm=100.0, h_mm=0.0)).F == 200.0


def test_offset_angle(layout):
    # a virtual feed, d/2 off the axis, is seen from the TA at atan((d/2)/f)
    # for d = 220, f = 171: the rim-angle formula with D = d
    assert taper_angle_from_focal(layout.d, layout.f) == pytest.approx(
        math.degrees(math.atan(110.0 / 171.0)), abs=1e-12
    )
    assert taper_angle_from_focal(layout.d, layout.f) == pytest.approx(32.75215764853942)


@pytest.mark.parametrize("bad", [
    LayoutConfig(f_mm=-1.0),
    LayoutConfig(f_mm=171.0, h_mm=-5.0),
    LayoutConfig(d_mm=-10.0),
])
def test_bad_dimensions_rejected(bad):
    with pytest.raises(ValueError):
        build_layout(bad)


def test_virtual_feeds_symmetric(layout):
    vf1, vf2 = layout.virtual_feeds
    assert (vf1.x, vf1.y, vf1.z) == (110.0, 0.0, 0.0)
    assert (vf2.x, vf2.y, vf2.z) == (-110.0, 0.0, 0.0)


def test_default_feed_line(layout):
    assert layout.feed_ids == ("A1", "A2", "A3", "A4", "A5", "A6", "A7")
    assert [fd.position.x for fd in layout.feeds] == [
        -160.0, -110.0, -50.0, 0.0, 50.0, 110.0, 160.0,
    ]
    with pytest.raises(ValueError, match="^unknown feed id 'B9'$"):
        layout.feed("B9")


def test_mirror_feed_center(layout):
    m = mirror_point(layout.feed("A4").position, layout.f)
    assert (m.x, m.y, m.z) == (0.0, 0.0, 342.0)


def test_mirror_feed_edge_path_to_fta_center(layout):
    m = mirror_point(layout.feed("A7").position, layout.f)  # x = +160
    d = path_length(m, Point3(0.0, 0.0, -layout.h))
    assert d == pytest.approx(math.sqrt(160.0**2 + 384.0**2), abs=1e-12)
    assert d == pytest.approx(416.0)


def test_mirror_feed_axial_distance_is_folded_focal(layout):
    m = mirror_point(layout.feed("A4").position, layout.f)
    assert path_length(m, Point3(0.0, 0.0, -layout.h)) == pytest.approx(layout.F)


def test_mirror_is_involution(layout):
    for feed in layout.feeds:
        m = mirror_point(mirror_point(feed.position, layout.f), layout.f)
        assert (m.x, m.y, m.z) == (
            feed.position.x, feed.position.y, feed.position.z,
        )


def test_image_construction_matches_explicit_reflection(layout):
    # The mirrored-feed distance must equal the two-segment folded ray:
    # feed -> specular point on the TA plane -> FTA element, and the
    # specular point must satisfy the reflection law.
    rng = np.random.default_rng(7)
    for _ in range(200):
        feed = Point3(*rng.uniform(-180.0, 180.0, 2), 0.0)
        elem = Point3(*rng.uniform(-175.0, 175.0, 2), -layout.h)
        m = mirror_point(feed, layout.f)
        t = (layout.f - m.z) / (elem.z - m.z)
        s = Point3(m.x + t * (elem.x - m.x), m.y + t * (elem.y - m.y), layout.f)
        folded = path_length(feed, s) + path_length(s, elem)
        assert folded == pytest.approx(path_length(m, elem), rel=1e-12)
        # reflection law: incident and reflected rays mirror in z
        d_in = np.array([s.x - feed.x, s.y - feed.y, s.z - feed.z])
        d_out = np.array([elem.x - s.x, elem.y - s.y, elem.z - s.z])
        d_in /= np.linalg.norm(d_in)
        d_out /= np.linalg.norm(d_out)
        np.testing.assert_allclose(d_in[:2], d_out[:2], atol=1e-12)
        assert d_in[2] == pytest.approx(-d_out[2], abs=1e-12)


def test_path_length_cases():
    assert path_length(Point3(0, 0, 0), Point3(0, 0, 171)) == 171.0
    assert path_length(Point3(110, 0, 0), Point3(0, 0, 171)) == pytest.approx(
        math.sqrt(110.0**2 + 171.0**2)
    )
    assert path_length(Point3(110, 0, 0), Point3(0, 0, 171)) == pytest.approx(
        203.32486321156102
    )
    assert path_length(Point3(3, 4, 0), Point3(0, 0, 0)) == 5.0


def test_path_length_properties():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = Point3(*rng.normal(scale=100.0, size=3))
        b = Point3(*rng.normal(scale=100.0, size=3))
        assert path_length(a, b) >= 0.0
        assert path_length(a, b) == path_length(b, a)
        assert path_length(a, a) == 0.0


def test_taper_angle_from_focal():
    # tan(alpha) = D / (2 f): the design geometry's rim angle, and a 45 deg case
    assert taper_angle_from_focal(240.0, 171.0) == pytest.approx(35.0594269668870, abs=1e-9)
    assert taper_angle_from_focal(200.0, 100.0) == pytest.approx(45.0)


def test_taper_angle_from_focal_domain():
    for d, f in ((240.0, 0.0), (240.0, -1.0), (0.0, 171.0), (-1.0, 171.0)):
        with pytest.raises(ValueError, match="must be positive"):
            taper_angle_from_focal(d, f)


def test_taper_round_trip_many():
    rng = np.random.default_rng(3)
    for _ in range(100):
        d = rng.uniform(50.0, 500.0)
        f = rng.uniform(20.0, 600.0)
        alpha = taper_angle_from_focal(d, f)
        assert 0.0 < alpha < 90.0
        assert math.tan(math.radians(alpha)) == pytest.approx(d / (2.0 * f), rel=1e-12)


def test_element_centers_symmetric(layout):
    for ap in (layout.ta, layout.fta):
        x = ap.x_centers()
        y = ap.y_centers()
        np.testing.assert_array_equal(x, -x[::-1])
        np.testing.assert_array_equal(y, -y[::-1])


@settings(database=None, max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=1, max_value=60),
    st.floats(min_value=0.1, max_value=50.0, allow_nan=False, allow_infinity=False),
)
def test_element_centers_antisymmetric_exactly(nx, ny, period):
    # the far-field steering build mirrors exp across the grid center,
    # which is exact only while x[n-1-i] == -x[i] holds to the bit
    ap = ApertureSpec(
        plane_z=0.0, size_x=nx * period, size_y=ny * period, period=period, nx=nx, ny=ny
    )
    for c in (ap.x_centers(), ap.y_centers()):
        assert np.array_equal(c, -c[::-1])


def test_default_grids(layout):
    assert (layout.ta.nx, layout.ta.ny) == (40, 40)
    assert (layout.fta.nx, layout.fta.ny) == (36, 36)
    assert layout.ta.plane_z == 171.0
    assert layout.fta.plane_z == -42.0
    assert layout.ta.x_centers()[0] == -117.0
    assert layout.fta.x_centers()[-1] == 175.0


def test_aperture_fit_invariant():
    with pytest.raises(ValueError, match="exceed"):
        ApertureSpec(plane_z=0, size_x=100.0, size_y=100.0, period=10.0, nx=12, ny=10)
    # exactly at the rim slack is allowed
    ApertureSpec(plane_z=0, size_x=95.0, size_y=95.0, period=10.0, nx=10, ny=10)


def test_duplicate_feed_ids_rejected():
    cfg = LayoutConfig(
        feeds=tuple(FeedPlacement("A1", Point3(x, 0.0, 0.0)) for x in (-50.0, 50.0))
    )
    with pytest.raises(ValueError, match="duplicate"):
        build_layout(cfg)


def test_custom_apertures():
    cfg = LayoutConfig(
        ta=ApertureConfig(size_mm=120.0, period_mm=6.0),
        fta=ApertureConfig(size_mm=100.0, period_mm=10.0),
    )
    lay = build_layout(cfg)
    assert (lay.ta.nx, lay.fta.nx) == (20, 10)
